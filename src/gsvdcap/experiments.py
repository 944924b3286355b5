"""Monte Carlo campaigns over random Rayleigh channel pairs.

Channel draws are counter-based: every (seed, trial, matrix) triple keys its
own Philox stream, so trial t is byte-for-byte identical whatever else the
campaign holds. Two campaigns are provided: a sweep over the uniform
baseline's power-split fraction rho at fixed budget, and a sweep over SNR
comparing the closed-form optimum against a secure-set uniform baseline.
Both run on one columnar engine and emit deterministic CSV. The engine
makes one pass over the trials, a chunk at a time, in stacked array calls:
each chunk is drawn and factored, the optimum of its (trial, budget) pairs
is a batched Newton solve on the water level in blocks of at most
_SOLVE_CHUNK rows, and only then is the chunk's uniform baseline swept and
its S1/S2 directions counted. Records, aggregates and the trial CSV come
from the (trials, grid) arrays the chunks fill. Every stacked
row equals the one-pair path sample_channel -> gsvd -> subchannel_gains ->
classify_subspaces bit for bit, errors included: a trial whose draw fails
gsvd's rank test raises DegenerateChannelError, naming the trial, and a
chunk's fault is raised before any later chunk is drawn. Campaigns
run in one thread; the threads argument is accepted and ignored. Every
file goes through linalg._opened, so a rerun into an existing directory
rewrites its CSVs in place.
"""

from __future__ import annotations

import csv
import json
import math
import threading
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

# gsvd, subchannel_gains, classify_subspaces, fraction_sweep, solve_mu,
# secrecy_rate and uniform_secure_allocation are the one-pair forms of what
# the engine computes on stacks of trials. Nothing here calls them; they
# stay bound because perfbench/tracer.py wraps them under this module's
# names.
from .allocation import _check_budget, _solve_batch, solve_mu  # noqa: F401
from .capacity import (RateCurve, _clamp, _rate_bits,  # noqa: F401
                       _spread, _subspace_masks, _uniform_powers,
                       classify_subspaces, fraction_sweep, secrecy_rate,
                       uniform_secure_allocation)
from .gsvd import (ChannelPair, DegenerateChannelError,  # noqa: F401
                   _stacked_gains, gsvd, subchannel_gains)
from .linalg import _check_int, _load_json, _opened

_STREAM_HR = 0
_STREAM_HE = 1
_U64 = 2**64 - 1
# Trials index bits 8-63 of the Philox key (see _key): every trial is below.
_TRIAL_LIMIT = 2**56
_local = threading.local()  # each thread's keyed generator, see _generator
# Trials per chunk of the campaign's one pass: at most _TRIAL_CHUNK, and at
# most _CHUNK_CELLS (trial, grid point) cells, so the sweep's (trials, grid,
# q) stacks stay small on a wide grid. Rows of (trial, budget) pairs per
# batched solve: at most _SOLVE_CHUNK, a memory bound. Larger blocks solve
# no faster, but one 70 001-row solve quadruples a wide grid's peak memory.
_TRIAL_CHUNK = 256
_CHUNK_CELLS = 2**15
_SOLVE_CHUNK = 1024
# Every CSV float is written as "%.12g" % x, the bytes of
# format(float(x), ".12g"), and every integer as "%s" % n.
_TRIAL_ROW = "%s,%.12g,%.12g,%.12g,%s,%s,%s\n"
_AGGREGATE_HEADER = "param,mean_uniform,se_uniform,mean_optimal,se_optimal,trials\n"
_AGGREGATE_ROW = "%.12g,%.12g,%.12g,%.12g,%.12g,%s\n"


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
        for name in ("n_t", "n_r", "n_e"):
            _check_int(name, getattr(self, name), 1)
        _check_int("trials", self.trials, 1, _TRIAL_LIMIT + 1)
        _check_int("seed", self.seed, 0, 2**64)
        for name in ("sigma_r2", "sigma_e2", "budget"):
            # Python and numpy count booleans as numbers; a config does not.
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool")
        for name in ("sigma_r2", "sigma_e2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.budget is not None:
            _check_budget(self.budget)
        for name in ("rho_grid", "snr_db_grid"):
            grid = getattr(self, name)
            if grid is None:
                continue
            if isinstance(grid, (str, bytes, bytearray)):
                raise ValueError(f"{name} must be a sequence of numbers, not "
                                 f"{type(grid).__name__} {grid!r}")
            grid = tuple(grid)
            if any(isinstance(g, (bool, np.bool_)) for g in grid):
                raise ValueError(f"{name} entries must be numbers, not bools")
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
            if not ((budgets > 0) & (budgets < math.inf)).all():
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
    dim_s1 and dim_s2 are per-trial integer arrays. mean_uniform,
    se_uniform, mean_optimal and se_optimal are the across-trial means and
    standard errors at each grid point, (grid,) arrays. curve is the mean
    uniform-rate curve over the grid: its rates are mean_uniform.
    """

    grid: np.ndarray
    uniform: np.ndarray
    optimal: np.ndarray
    q: np.ndarray
    dim_s1: np.ndarray
    dim_s2: np.ndarray
    curve: RateCurve
    mean_uniform: np.ndarray
    se_uniform: np.ndarray
    mean_optimal: np.ndarray
    se_optimal: np.ndarray

    @property
    def aggregates(self):
        """One AggregateRow per grid point, built on each access."""
        return [AggregateRow(*row) for row in self._aggregate_rows()]

    def _aggregate_rows(self):
        """(param, mean_uniform, se_uniform, mean_optimal, se_optimal,
        trials) per grid point, as Python numbers."""
        columns = (self.grid, self.mean_uniform, self.se_uniform,
                   self.mean_optimal, self.se_optimal)
        return zip(*(x.tolist() for x in columns),
                   [self.uniform.shape[0]] * self.grid.size)

    @property
    def records(self):
        """One TrialRecord per (trial, grid point), trial-major, built on
        each access."""
        grid = self.grid.tolist()
        optimal = np.broadcast_to(self.optimal, self.uniform.shape)
        return [
            TrialRecord(t, x, u, o, q, s1, s2)
            for t, (us, opts, q, s1, s2) in enumerate(zip(
                self.uniform.tolist(), optimal.tolist(), self.q.tolist(),
                self.dim_s1.tolist(), self.dim_s2.tolist()))
            for x, u, o in zip(grid, us, opts)
        ]


def _key(seed, trial, stream):
    """The Philox key of one (seed, trial, stream) matrix draw: the seed in
    bits 64-127, the trial in bits 8-63 and the stream in bits 0-7. A trial
    at or above _TRIAL_LIMIT would spill into the seed's bits; callers
    check seed and trial with linalg._check_int first."""
    return (int(seed) << 64) | (int(trial) << 8) | stream


def _box_muller(u1, u2):
    """Complex standard normals from uniforms: radius = sqrt(-2 log1p(-u1))
    (so u1 = 0 is safe), and the two resulting standard normals become the
    real and imaginary parts."""
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return radius * np.cos(angle) + 1j * (radius * np.sin(angle))


def _generator(key):
    """This thread's generator, restarted at the Philox key.

    Restoring a fresh Philox state with the key swapped in gives the stream
    that Philox(key=key) starts, at a tenth of the cost of building one.
    Each thread keeps its own generator, so concurrent draws stay apart.
    """
    if not hasattr(_local, "generator"):
        bits = np.random.Philox(key=0)
        _local.generator = bits, np.random.Generator(bits), bits.state
    bits, gen, fresh = _local.generator
    fresh["state"]["key"] = np.array([key & _U64, key >> 64], dtype=np.uint64)
    bits.state = fresh
    return gen


def sample_channel(config, trial):
    """Draw the trial's channel pair (hr from stream 0, he from stream 1):
    the trial's one-row _draw split at n_r. The trial must be an integer
    from 0 to 2**56 - 1."""
    _check_int("trial", trial, 0, _TRIAL_LIMIT)
    h = _draw(config, (trial,))[0]
    return ChannelPair(hr=h[:config.n_r], he=h[config.n_r:])


def _draw(config, trials):
    """The channel pairs [hr; he] of the given trials as one
    (len(trials), n_r + n_e, n_t) complex stack, hr CN(0, sigma_r2) and he
    CN(0, sigma_e2) i.i.d.: this thread's generator, restarted at each
    (seed, trial, stream) key, fills that matrix's uniforms u1, u2 as flat
    arrays, Box-Muller runs once over the stack, and each stream's slice is
    scaled in place by sqrt(sigma / 2). Callers check the trials."""
    split = config.n_r * config.n_t
    size = split + config.n_e * config.n_t
    u1, u2 = np.empty((2, len(trials), size))
    for row, trial in enumerate(trials):
        for stream, part in ((_STREAM_HR, slice(0, split)),
                             (_STREAM_HE, slice(split, size))):
            gen = _generator(_key(config.seed, trial, stream))
            gen.random(out=u1[row, part])
            gen.random(out=u2[row, part])
    z = _box_muller(u1, u2)
    z[:, :split] *= math.sqrt(config.sigma_r2 / 2.0)
    z[:, split:] *= math.sqrt(config.sigma_e2 / 2.0)
    return z.reshape(len(trials), -1, config.n_t)


def _run_campaign(config, grid, uniform_powers, budgets):
    """Run the trials in one pass, a chunk at a time: draw and factor the
    chunk, solve its optimum at each of budgets, then sweep its uniform
    baseline over the grid and count its S1/S2 directions.

    uniform_powers(c, d, a) returns the uniform-baseline powers of a chunk
    of trials, from their (trials, q) gains: (trials, grid, q), one row
    per grid point, whose clamped rates the engine takes. The optimum has
    one column per budget, and is solved before the chunk's baselines so
    that a budget no multiplier reaches fails before a baseline overflows
    on it. No gain array outlives its chunk.
    """
    trials = config.trials
    q = min(config.n_t, config.n_r + config.n_e)
    uniform = np.empty((trials, grid.size))
    optimal = np.empty((trials, budgets.size))
    dims = np.empty((2, trials), dtype=np.intp)
    chunk = max(1, min(_TRIAL_CHUNK, _CHUNK_CELLS // grid.size))
    for start in range(0, trials, chunk):
        rows = np.arange(start, min(start + chunk, trials))
        rank, c, d, a = _stacked_gains(_draw(config, rows), config.n_r)
        short = rank < q
        if short.any():
            # gsvd's DegenerateChannelError, naming the trial.
            bad = short.argmax()
            error = DegenerateChannelError(int(rank[bad]), q)
            error.args = (f"trial {rows[bad]}: {error}",)
            raise error
        optimal[rows] = _optimal_rates(c, d, a, budgets)
        uniform[rows] = _clamp(_rate_bits(uniform_powers(c, d, a),
                                          c[:, None, :], d[:, None, :]))
        dims[:, rows] = [m.sum(axis=1) for m in _subspace_masks(c, d)]
    columns = _aggregates(grid, uniform, optimal)
    return CampaignResult(
        grid=grid, uniform=uniform, optimal=optimal, q=np.full(trials, q),
        dim_s1=dims[0], dim_s2=dims[1],
        curve=RateCurve(param=grid, rate_bits=columns["mean_uniform"]),
        **columns)


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

    def uniform_powers(c, d, a):
        return _uniform_powers(c, d, a, config.budget, grid, mode, True)

    return _run_campaign(config, grid, uniform_powers,
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

    def uniform_powers(c, d, a):
        return _spread(c > d, budgets[:, None], a, mode)

    return _run_campaign(config, grid, uniform_powers, budgets)


def _aggregates(grid, uniform, optimal):
    """CampaignResult's mean_uniform, se_uniform, mean_optimal and
    se_optimal: (grid,) across-trial means and standard errors, reduced
    along the rows of contiguous (grid, trials) arrays.

    Each column is one pass of the ufunc steps of numpy's own mean(axis=1)
    and std(axis=1, ddof=1): the row sum over trials, then the centred
    squares summed over trials - 1, so the bits are theirs. A column
    narrower than the grid (a budget-fixed optimum) is broadcast.
    """
    trials = uniform.shape[0]
    columns = {}
    for name, rates in (("uniform", uniform), ("optimal", optimal)):
        by_point = np.ascontiguousarray(rates.T)
        mean = by_point.sum(axis=1, keepdims=True) / trials
        if trials > 1:
            dev = by_point - mean
            dev *= dev
            se = np.sqrt(dev.sum(axis=1) / (trials - 1)) / math.sqrt(trials)
        else:
            se = np.zeros(by_point.shape[0])
        mean = mean[:, 0]
        if mean.shape != grid.shape:
            mean, se = (np.broadcast_to(x, grid.shape) for x in (mean, se))
        columns["mean_" + name], columns["se_" + name] = mean, se
    return columns


def _write_chunks(path, chunks):
    """Write an iterable of text chunks to path, in order."""
    with _opened(path, "w", "") as fh:
        fh.writelines(chunks)


def _trial_header(param_column):
    if param_column not in ("rho", "snr_db"):
        raise ValueError(f"unknown parameter column {param_column!r}")
    return f"trial,{param_column},uniform_rate_bits,optimal_rate_bits,q,dim_s1,dim_s2\n"


def write_csv(records, path, param_column):
    """Write trial records as CSV with LF endings and %.12g floats.

    param_column names the second column ("rho" or "snr_db").
    """
    lines = (_TRIAL_ROW % (r.trial, r.parameter, r.uniform_rate,
                           r.optimal_rate, r.q, r.dim_s1, r.dim_s2)
             for r in records)
    _write_chunks(path, [_trial_header(param_column), "".join(lines)])


def write_campaign_csv(result, path, param_column):
    """Write a CampaignResult's trial records as write_csv does, bytes and
    all, from its columns, one trial at a time.

    Each trial's rows are one template: the grid values, the trial's
    integers and a budget-fixed optimal rate are formatted into it once,
    and its rates fill the remaining %.12g slots.
    """
    header = _trial_header(param_column)
    # "%.12g" never writes a "%", so these strings are safe in a template.
    params = ["%.12g" % x for x in result.grid.tolist()]

    def chunks():
        yield header
        for t, (us, opts, q, s1, s2) in enumerate(zip(
                result.uniform, result.optimal, result.q.tolist(),
                result.dim_s1.tolist(), result.dim_s2.tolist())):
            us, opts = us.tolist(), opts.tolist()
            if len(opts) == 1:
                rates, tail = us, "%.12g,%s,%s,%s\n" % (opts[0], q, s1, s2)
            else:
                rates = [r for pair in zip(us, opts) for r in pair]
                tail = "%%.12g,%s,%s,%s\n" % (q, s1, s2)
            lead, glue = "%s," % t, ",%.12g," + tail
            yield (lead + (glue + lead).join(params) + glue) % tuple(rates)

    _write_chunks(path, chunks())


def write_aggregate_csv(rows, path):
    """Write aggregate rows (means and standard errors) as CSV."""
    lines = "".join(_AGGREGATE_ROW % (r.param, r.mean_uniform, r.se_uniform,
                                      r.mean_optimal, r.se_optimal, r.trials)
                    for r in rows)
    _write_chunks(path, [_AGGREGATE_HEADER, lines])


def write_campaign_aggregate_csv(result, path):
    """Write a CampaignResult's aggregates as write_aggregate_csv does,
    bytes and all, from its columns."""
    lines = "".join(_AGGREGATE_ROW % row for row in result._aggregate_rows())
    _write_chunks(path, [_AGGREGATE_HEADER, lines])


def read_trial_csv(path):
    """Read back a trial CSV written by write_csv."""
    try:
        with _opened(path, "r", "") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames  # None for an empty file: no rows
            records = [TrialRecord(
                int(row["trial"]), float(row[header[1]]),
                float(row["uniform_rate_bits"]), float(row["optimal_rate_bits"]),
                int(row["q"]), int(row["dim_s1"]), int(row["dim_s2"]))
                for row in reader]
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed trial CSV: {exc}") from exc
    if header is None:
        raise ValueError(f"{path}: empty CSV")
    return records


def load_config(path):
    """Read an ExperimentConfig from JSON (field names mirror the class)."""
    obj = _load_json(path, "config ")
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"{path}: unknown config fields {sorted(unknown)}")
    try:
        return ExperimentConfig(**obj)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad config: {exc}") from exc


def save_config(config, path):
    """Write an ExperimentConfig as the JSON load_config reads."""
    with _opened(path, "w", "config ") as fh:
        json.dump(asdict(config), fh, indent=2)
        fh.write("\n")
