"""Monte Carlo campaigns over random Rayleigh channel pairs.

Channel draws are counter-based: every (seed, trial, matrix) triple keys its
own Philox stream, so trial t is byte-for-byte identical whether it runs
first, last, or on another thread. Two campaigns are provided: a sweep over
the uniform baseline's power-split fraction rho at fixed budget, and a sweep
over SNR comparing the closed-form optimum against a secure-set uniform
baseline. Both run on one engine and emit deterministic CSV.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .allocation import solve_mu
from .capacity import (RateCurve, classify_subspaces, fraction_sweep,
                       secrecy_rate, uniform_secure_allocation)
from .gsvd import ChannelPair, DegenerateChannelError, gsvd, subchannel_gains

_STREAM_HR = 0
_STREAM_HE = 1
_MAX_RESAMPLE = 64


@dataclass(frozen=True)
class ExperimentConfig:
    """Campaign parameters; grids are present per campaign kind.

    budget is radiated power for the fraction campaign; the SNR campaign
    derives per-point budgets 10**(snr_db/10) instead. sigma_r2/sigma_e2 are
    per-entry channel variances.
    """

    n_t: int
    n_r: int
    n_e: int
    sigma_r2: float = 1.0
    sigma_e2: float = 1.0
    budget: Optional[float] = None
    trials: int = 100
    seed: int = 0
    rho_grid: Optional[tuple] = None
    snr_db_grid: Optional[tuple] = None

    def __post_init__(self):
        for name in ("n_t", "n_r", "n_e", "trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("n_t", "n_r", "n_e"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("sigma_r2", "sigma_e2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.budget is not None and not 0 < self.budget < math.inf:
            raise ValueError("budget must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        for name in ("rho_grid", "snr_db_grid"):
            grid = getattr(self, name)
            if grid is None:
                continue
            grid = tuple(float(g) for g in grid)
            if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be nonempty and strictly increasing")
            if not all(math.isfinite(g) for g in grid):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, grid)
        rho = self.rho_grid
        if rho is not None and not (rho[0] >= 0 and rho[-1] <= 1):
            raise ValueError("rho_grid must lie in [0, 1]")
        if self.snr_db_grid is not None:
            with np.errstate(over="ignore", under="ignore"):
                budgets = _snr_budgets(self.snr_db_grid)
            if not np.all((budgets > 0) & (budgets < math.inf)):
                raise ValueError(
                    "snr_db_grid points must give budgets 10**(snr_db/10) "
                    "that are positive and finite")


@dataclass(frozen=True)
class TrialRecord:
    """One (trial, parameter) sample of the uniform/optimal comparison."""

    trial: int
    parameter: float
    uniform_rate: float
    optimal_rate: float
    q: int
    dim_s1: int
    dim_s2: int


@dataclass(frozen=True)
class AggregateRow:
    """Across-trial mean and standard error at one parameter value."""

    param: float
    mean_uniform: float
    se_uniform: float
    mean_optimal: float
    se_optimal: float
    trials: int


@dataclass
class CampaignResult:
    """Trial records, the mean uniform-rate curve over the campaign's grid,
    aggregate rows per grid point, and the count of resampled draws."""

    records: list
    curve: RateCurve
    aggregates: list
    resampled: int


def _rayleigh(seed, trial, stream, rows, cols, variance):
    """One CN(0, variance) i.i.d. matrix from the (seed, trial, stream) key.

    Box-Muller over the generator's uniforms: u1, u2 are drawn as flat
    arrays, radius = sqrt(-2 log1p(-u1)) (so u1 = 0 is safe), and the two
    resulting standard normals become the real and imaginary parts.
    """
    key = (int(seed) << 64) | (int(trial) << 8) | stream
    gen = np.random.Generator(np.random.Philox(key=key))
    n = rows * cols
    u1 = gen.random(n)
    u2 = gen.random(n)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = radius * np.cos(angle) + 1j * (radius * np.sin(angle))
    return (math.sqrt(variance / 2.0) * z).reshape(rows, cols)


def sample_channel(config, trial):
    """Draw the trial's channel pair (hr from stream 0, he from stream 1)."""
    if not 0 <= trial:
        raise ValueError("trial must be nonnegative")
    hr = _rayleigh(config.seed, trial, _STREAM_HR, config.n_r, config.n_t,
                   config.sigma_r2)
    he = _rayleigh(config.seed, trial, _STREAM_HE, config.n_e, config.n_t,
                   config.sigma_e2)
    return ChannelPair(hr=hr, he=he)


def _factor_trial(config, trial):
    """gsvd of the trial's channel, resampling degenerate draws.

    Retry k swaps in the substream at trial + trials*k, which no other
    trial uses, so resampling one trial never perturbs the rest.
    """
    resamples = 0
    while True:
        t = trial + config.trials * resamples
        try:
            return gsvd(sample_channel(config, t)), resamples
        except DegenerateChannelError:
            resamples += 1
            if resamples > _MAX_RESAMPLE:
                raise RuntimeError(
                    f"trial {trial}: {resamples} degenerate channel draws in a row"
                )


def _map_trials(fn, trials, threads):
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(trials)))
    return [fn(t) for t in range(trials)]


def _run_campaign(config, grid, rates, threads):
    """Factor every trial and evaluate rates(gains, partition) on the grid.

    rates returns the trial's (uniform, optimal) secrecy rates, one per grid
    point; a scalar optimal rate holds at every point.
    """
    def one_trial(trial):
        factors, resamples = _factor_trial(config, trial)
        gains = subchannel_gains(factors)
        partition = classify_subspaces(gains)
        uniform, optimal = rates(gains, partition)
        records = [
            TrialRecord(trial=trial, parameter=float(x), uniform_rate=float(u),
                        optimal_rate=float(o), q=gains.q,
                        dim_s1=partition.dim_s1, dim_s2=partition.dim_s2)
            for x, u, o in zip(grid, uniform, np.broadcast_to(optimal, grid.shape))
        ]
        return records, resamples

    outcomes = _map_trials(one_trial, config.trials, threads)
    records = [rec for recs, _ in outcomes for rec in recs]
    uniform = np.array([[r.uniform_rate for r in recs] for recs, _ in outcomes])
    optimal = np.array([[r.optimal_rate for r in recs] for recs, _ in outcomes])
    aggregates = [
        _aggregate(float(grid[j]), uniform[:, j], optimal[:, j])
        for j in range(grid.size)
    ]
    return CampaignResult(
        records=records,
        curve=RateCurve(param=grid, rate_bits=uniform.mean(axis=0)),
        aggregates=aggregates,
        resampled=sum(n for _, n in outcomes))


def run_fraction_experiment(config, mode="transmit", threads=None):
    """Sweep the uniform baseline's rho grid and solve the optimum per trial.

    Each trial's optimal rate is budget-fixed, so it repeats at every rho.
    """
    if config.budget is None or config.rho_grid is None:
        raise ValueError("fraction campaign needs budget and rho_grid")
    if config.n_t <= config.n_e:
        warnings.warn(
            "n_t <= n_e leaves no eavesdropper nullspace; the rho sweep "
            "degenerates to the all-S2 split", stacklevel=2)
    grid = np.asarray(config.rho_grid, dtype=float)

    def rates(gains, partition):
        optimal = max(0.0, secrecy_rate(gains, solve_mu(gains, config.budget)))
        curve = fraction_sweep(gains, partition, config.budget, grid, mode)
        return curve.rate_bits, optimal

    return _run_campaign(config, grid, rates, threads)


def _snr_budgets(snr_db):
    """Radiated power budgets 10**(snr_db/10) of an SNR grid."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def run_snr_sweep(config, mode="transmit", threads=None):
    """Compare optimal and secure-set-uniform rates across an SNR grid.

    The factorization is SNR-independent, so each trial factors once and
    re-solves the allocation per budget 10**(snr_db/10).
    """
    if config.snr_db_grid is None:
        raise ValueError("snr campaign needs snr_db_grid")
    grid = np.asarray(config.snr_db_grid, dtype=float)
    budgets = _snr_budgets(grid).tolist()

    def rates(gains, partition):
        uniform, optimal = [], []
        for budget in budgets:
            optimal.append(
                max(0.0, secrecy_rate(gains, solve_mu(gains, budget))))
            baseline = uniform_secure_allocation(gains, budget, mode)
            uniform.append(max(0.0, secrecy_rate(gains, baseline)))
        return uniform, optimal

    return _run_campaign(config, grid, rates, threads)


def _aggregate(param, uniform, optimal):
    return AggregateRow(
        param=param,
        mean_uniform=float(uniform.mean()),
        se_uniform=_stderr(uniform),
        mean_optimal=float(optimal.mean()),
        se_optimal=_stderr(optimal),
        trials=int(uniform.size),
    )


def _stderr(values):
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / math.sqrt(values.size))


def _fmt(x):
    return format(float(x), ".12g")


def _write_lines(path, lines):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(records, path, param_column):
    """Write trial records as CSV with LF endings and %.12g floats.

    param_column names the second column ("rho" or "snr_db").
    """
    if param_column not in ("rho", "snr_db"):
        raise ValueError(f"unknown parameter column {param_column!r}")
    lines = [f"trial,{param_column},uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2"]
    for r in records:
        lines.append(
            f"{r.trial},{_fmt(r.parameter)},{_fmt(r.uniform_rate)},"
            f"{_fmt(r.optimal_rate)},{r.q},{r.dim_s1},{r.dim_s2}")
    _write_lines(path, lines)


def write_aggregate_csv(rows, path):
    """Write aggregate rows (means and standard errors) as CSV."""
    lines = ["param,mean_uniform,se_uniform,mean_optimal,se_optimal,trials"]
    for r in rows:
        lines.append(
            f"{_fmt(r.param)},{_fmt(r.mean_uniform)},{_fmt(r.se_uniform)},"
            f"{_fmt(r.mean_optimal)},{_fmt(r.se_optimal)},{r.trials}")
    _write_lines(path, lines)


def read_trial_csv(path):
    """Read back a trial CSV written by write_csv."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty CSV")
            param_column = reader.fieldnames[1]
            return [
                TrialRecord(
                    trial=int(row["trial"]),
                    parameter=float(row[param_column]),
                    uniform_rate=float(row["uniform_rate_bits"]),
                    optimal_rate=float(row["optimal_rate_bits"]),
                    q=int(row["q"]),
                    dim_s1=int(row["dim_s1"]),
                    dim_s2=int(row["dim_s2"]),
                )
                for row in reader
            ]
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed trial CSV: {exc}") from exc


_CONFIG_FIELDS = ("n_t", "n_r", "n_e", "sigma_r2", "sigma_e2", "budget",
                  "trials", "seed", "rho_grid", "snr_db_grid")


def load_config(path):
    """Read an ExperimentConfig from JSON (field names mirror the class)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(obj) - set(_CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"{path}: unknown config fields {sorted(unknown)}")
    try:
        return ExperimentConfig(**obj)
    except TypeError as exc:
        raise ValueError(f"{path}: bad config: {exc}") from exc


def save_config(config, path):
    """Write an ExperimentConfig as the JSON load_config reads."""
    obj = asdict(config)
    for grid in ("rho_grid", "snr_db_grid"):
        if obj[grid] is not None:
            obj[grid] = list(obj[grid])
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write config {path}: {exc}") from exc
