"""Monte Carlo campaigns over random Rayleigh channel pairs.

Channel draws are counter-based: every (seed, trial, matrix) triple keys its
own Philox stream, so trial t is byte-for-byte identical whatever else the
campaign holds. Two campaigns are provided: a sweep over the uniform
baseline's power-split fraction rho at fixed budget, and a sweep over SNR
comparing the closed-form optimum against a secure-set uniform baseline.
Both run on one columnar engine and emit deterministic CSV: trials are
sampled, factored, classified and swept a chunk at a time in stacked array
calls, then the optimum of every (trial, budget) pair is one batched
bisection over fixed row chunks, and records, aggregates and the trial CSV
come from (trials, grid) arrays. Every stacked row equals the one-pair path
sample_channel -> gsvd -> subchannel_gains -> classify_subspaces bit for
bit. Campaigns run in one thread; the threads argument is accepted and
ignored.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# gsvd, subchannel_gains, classify_subspaces, fraction_sweep, solve_mu,
# secrecy_rate and uniform_secure_allocation are the one-pair forms of what
# the engine computes on stacks of trials. Nothing here calls them; they
# stay bound because perfbench/tracer.py wraps them under this module's
# names.
from .allocation import _solve_batch, solve_mu  # noqa: F401
from .capacity import (RateCurve, _fraction_rates,  # noqa: F401
                       _rate_bits, _subspace_masks, _uniform_secure_powers,
                       classify_subspaces, fraction_sweep, secrecy_rate,
                       uniform_secure_allocation)
from .gsvd import (ChannelPair, _stacked_gains, gsvd,  # noqa: F401
                   subchannel_gains)

_STREAM_HR = 0
_STREAM_HE = 1
_U64 = 2**64 - 1
_MAX_RESAMPLE = 64
# Trials sampled, factored and swept per stacked call, and rows of
# (trial, budget) pairs per batched solve: both bound the working set.
_TRIAL_CHUNK = 256
_SOLVE_CHUNK = 1024


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
    """A campaign's outcome as columns over trials and grid points.

    uniform is the (trials, grid) array of uniform-baseline rates; optimal
    holds the optimal rates, (trials, grid) on the SNR sweep and
    (trials, 1) on the fraction sweep, whose optimum is budget-fixed. q,
    dim_s1 and dim_s2 are per-trial integer arrays. curve is the mean
    uniform-rate curve over the grid, aggregates one AggregateRow per grid
    point, and resampled the count of degenerate draws replaced.
    """

    grid: np.ndarray
    uniform: np.ndarray
    optimal: np.ndarray
    q: np.ndarray
    dim_s1: np.ndarray
    dim_s2: np.ndarray
    curve: RateCurve
    aggregates: list
    resampled: int

    @property
    def records(self):
        """One TrialRecord per (trial, grid point), trial-major, built on
        each access."""
        grid = self.grid.tolist()
        optimal = np.broadcast_to(self.optimal, self.uniform.shape)
        return [
            TrialRecord(trial=t, parameter=x, uniform_rate=u, optimal_rate=o,
                        q=q, dim_s1=s1, dim_s2=s2)
            for t, (us, opts, q, s1, s2) in enumerate(zip(
                self.uniform.tolist(), optimal.tolist(), self.q.tolist(),
                self.dim_s1.tolist(), self.dim_s2.tolist()))
            for x, u, o in zip(grid, us, opts)
        ]


def _key(seed, trial, stream):
    """The Philox key of one (seed, trial, stream) matrix draw."""
    return (int(seed) << 64) | (int(trial) << 8) | stream


def _box_muller(u1, u2):
    """Complex standard normals from uniforms: radius = sqrt(-2 log1p(-u1))
    (so u1 = 0 is safe), and the two resulting standard normals become the
    real and imaginary parts."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _rayleigh(seed, trial, stream, rows, cols, variance):
    """One CN(0, variance) i.i.d. matrix from the (seed, trial, stream) key:
    Box-Muller over the generator's uniforms u1, u2, drawn as flat arrays."""
    gen = np.random.Generator(np.random.Philox(key=_key(seed, trial, stream)))
    n = rows * cols
    z = _box_muller(gen.random(n), gen.random(n))
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


def _draw(config, substreams):
    """The channel pairs [hr; he] of the given substreams, each as
    sample_channel draws it, as one (len(substreams), n_r + n_e, n_t)
    complex stack. Box-Muller runs once over the stack."""
    split = config.n_r * config.n_t
    size = split + config.n_e * config.n_t
    u1, u2 = np.empty((2, len(substreams), size))
    # One generator serves every key: restoring a fresh Philox state with
    # the key swapped in is the stream Philox(key=key) starts.
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = bits.state
    for row, trial in enumerate(substreams):
        for stream, part in ((_STREAM_HR, slice(0, split)),
                             (_STREAM_HE, slice(split, size))):
            key = _key(config.seed, trial, stream)
            fresh["state"]["key"] = np.array([key & _U64, key >> 64],
                                             dtype=np.uint64)
            bits.state = fresh
            gen.random(out=u1[row, part])
            gen.random(out=u2[row, part])
    scale = np.repeat([math.sqrt(config.sigma_r2 / 2.0) + 0j,
                       math.sqrt(config.sigma_e2 / 2.0) + 0j],
                      [split, size - split])
    z = scale * _box_muller(u1, u2)
    return z.reshape(len(substreams), -1, config.n_t)


def _factor_trials(config, trials):
    """(c, d, a, resampled): the gains of the given trials, one row each,
    and the number of degenerate draws replaced.

    Every draw of the chunk is factored at once. Retry k redraws only the
    trials whose draws failed the rank test, each from the substream at
    trial + trials*k, which no other trial uses, so resampling one trial
    never perturbs the rest.
    """
    q = min(config.n_t, config.n_r + config.n_e)
    c, d, a = (np.empty((trials.size, q)) for _ in range(3))
    pending = np.arange(trials.size)
    resampled = 0
    for k in range(_MAX_RESAMPLE + 1):
        full, *gains = _stacked_gains(
            _draw(config, trials[pending] + config.trials * k), config.n_r)
        done = pending[full]
        c[done], d[done], a[done] = gains
        pending = pending[~full]
        if not pending.size:
            return c, d, a, resampled
        resampled += pending.size
    raise RuntimeError(f"trial {trials[pending[0]]}: {_MAX_RESAMPLE + 1} "
                       "degenerate channel draws in a row")


def _run_campaign(config, grid, uniform_rates, budgets):
    """Factor the trials and take their uniform-baseline rates over the
    grid chunk by chunk, then solve the optimum at each of budgets for
    every trial in batches.

    uniform_rates(c, d, a, s1, s2) returns the uniform-baseline rates of a
    chunk of trials, from their (trials, q) gains and S1/S2 masks: one row
    per trial, one column per grid point. The optimum has one column per
    budget.
    """
    trials = config.trials
    q = min(config.n_t, config.n_r + config.n_e)
    c, d, a = (np.empty((trials, q)) for _ in range(3))
    s1, s2 = (np.empty((trials, q), dtype=bool) for _ in range(2))
    uniform = np.empty((trials, grid.size))
    resampled = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        rows = np.arange(start, min(start + _TRIAL_CHUNK, trials))
        c[rows], d[rows], a[rows], redrawn = _factor_trials(config, rows)
        resampled += redrawn
        s1[rows], s2[rows] = _subspace_masks(c[rows], d[rows])
        uniform[rows] = uniform_rates(c[rows], d[rows], a[rows], s1[rows],
                                      s2[rows])
    optimal = _optimal_rates(c, d, a, budgets)
    return CampaignResult(
        grid=grid, uniform=uniform, optimal=optimal, q=np.full(trials, q),
        dim_s1=np.count_nonzero(s1, axis=1),
        dim_s2=np.count_nonzero(s2, axis=1),
        curve=RateCurve(param=grid, rate_bits=uniform.mean(axis=0)),
        aggregates=_aggregates(grid, uniform, optimal),
        resampled=resampled)


def _optimal_rates(c, d, a, budgets):
    """(trials, budgets) optimal secrecy rates, clamped at zero as
    max(0.0, .) would, solved _SOLVE_CHUNK (trial, budget) rows at a time."""
    n = c.shape[0] * budgets.size
    rates = np.empty(n)
    for start in range(0, n, _SOLVE_CHUNK):
        rows = np.arange(start, min(start + _SOLVE_CHUNK, n))
        trial = rows // budgets.size
        cs, ds = c[trial], d[trial]
        p = _solve_batch(cs, ds, a[trial], budgets[rows % budgets.size])[0]
        rates[rows] = _rate_bits(p, cs, ds)
    return _clamp(rates).reshape(c.shape[0], budgets.size)


def _clamp(rates):
    """max(0.0, r) per entry: negative, zero and NaN rates become 0."""
    return np.where(rates > 0.0, rates, 0.0)


def run_fraction_experiment(config, mode="transmit", threads=None):
    """Sweep the uniform baseline's rho grid and solve the optimum per trial.

    Each trial's optimal rate is budget-fixed, so the result's optimal
    column has one entry per trial. threads is accepted and ignored.
    """
    if config.budget is None or config.rho_grid is None:
        raise ValueError("fraction campaign needs budget and rho_grid")
    if config.n_t <= config.n_e:
        warnings.warn(
            "n_t <= n_e leaves no eavesdropper nullspace; the rho sweep "
            "degenerates to the all-S2 split", stacklevel=2)
    grid = np.asarray(config.rho_grid, dtype=float)

    def uniform_rates(c, d, a, s1, s2):
        return _fraction_rates(c, d, a, s1, s2, config.budget, grid, mode)

    return _run_campaign(config, grid, uniform_rates,
                         np.array([config.budget], dtype=float))


def _snr_budgets(snr_db):
    """Radiated power budgets 10**(snr_db/10) of an SNR grid."""
    return 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)


def run_snr_sweep(config, mode="transmit", threads=None):
    """Compare optimal and secure-set-uniform rates across an SNR grid.

    The factorization is SNR-independent, so each trial factors once and
    the allocation is solved per budget 10**(snr_db/10). threads is
    accepted and ignored.
    """
    if config.snr_db_grid is None:
        raise ValueError("snr campaign needs snr_db_grid")
    grid = np.asarray(config.snr_db_grid, dtype=float)
    budgets = _snr_budgets(grid)

    def uniform_rates(c, d, a, s1, s2):
        p = _uniform_secure_powers(c, d, a, budgets, mode)
        return _clamp(_rate_bits(p, c[:, None, :], d[:, None, :]))

    return _run_campaign(config, grid, uniform_rates, budgets)


def _aggregates(grid, uniform, optimal):
    """One AggregateRow per grid point: across-trial means and standard
    errors, reduced along the rows of contiguous (grid, trials) arrays."""
    trials = uniform.shape[0]
    columns = []
    for rates in (uniform, optimal):
        by_point = np.ascontiguousarray(rates.T)
        mean = by_point.mean(axis=1)
        if trials < 2:
            se = np.zeros_like(mean)
        else:
            se = by_point.std(axis=1, ddof=1) / math.sqrt(trials)
        columns += [np.broadcast_to(x, grid.shape).tolist() for x in (mean, se)]
    return [AggregateRow(param=x, mean_uniform=mu, se_uniform=su,
                         mean_optimal=mo, se_optimal=so, trials=trials)
            for x, mu, su, mo, so in zip(grid.tolist(), *columns)]


def _fmt(x):
    return format(float(x), ".12g")


def _write_chunks(path, chunks):
    """Write an iterable of text chunks to path, in order."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _trial_header(param_column):
    if param_column not in ("rho", "snr_db"):
        raise ValueError(f"unknown parameter column {param_column!r}")
    return f"trial,{param_column},uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2\n"


def _trial_line(trial, param, uniform, optimal, dims):
    """One trial CSV row from formatted fields; dims is "q,dim_s1,dim_s2"."""
    return f"{trial},{param},{uniform},{optimal},{dims}\n"


def write_csv(records, path, param_column):
    """Write trial records as CSV with LF endings and %.12g floats.

    param_column names the second column ("rho" or "snr_db").
    """
    header = _trial_header(param_column)
    lines = (_trial_line(r.trial, _fmt(r.parameter), _fmt(r.uniform_rate),
                         _fmt(r.optimal_rate), f"{r.q},{r.dim_s1},{r.dim_s2}")
             for r in records)
    _write_chunks(path, [header, "".join(lines)])


def write_campaign_csv(result, path, param_column):
    """Write a CampaignResult's trial records as write_csv does, bytes and
    all, from its columns, one trial at a time.

    Each grid value is formatted once, and a budget-fixed optimal rate once
    per trial.
    """
    header = _trial_header(param_column)
    params = [_fmt(x) for x in result.grid.tolist()]

    def chunks():
        yield header
        for t, (us, opts, q, s1, s2) in enumerate(zip(
                result.uniform.tolist(), result.optimal.tolist(),
                result.q.tolist(), result.dim_s1.tolist(),
                result.dim_s2.tolist())):
            dims = f"{q},{s1},{s2}"
            optimal = [_fmt(o) for o in opts]
            if len(optimal) == 1:
                optimal *= len(params)
            yield "".join(_trial_line(t, x, _fmt(u), o, dims)
                          for x, u, o in zip(params, us, optimal))

    _write_chunks(path, chunks())


def write_aggregate_csv(rows, path):
    """Write aggregate rows (means and standard errors) as CSV."""
    lines = ["param,mean_uniform,se_uniform,mean_optimal,se_optimal,trials\n"]
    for r in rows:
        lines.append(
            f"{_fmt(r.param)},{_fmt(r.mean_uniform)},{_fmt(r.se_uniform)},"
            f"{_fmt(r.mean_optimal)},{_fmt(r.se_optimal)},{r.trials}\n")
    _write_chunks(path, lines)


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
