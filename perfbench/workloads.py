"""The four benchmark workloads: inputs made from the seed, one timed block
of work, and the correctness check of a block's outputs.

Every block of a run repeats the same inputs, so the blocks of a run do
identical work: their wall times are samples of one quantity, and a traced
block's call counts are exact. A block whose outputs are bit-identical to
the first block's inherits its verdict; any other block is checked in full.

Functions of the package are looked up through their modules at call time
(``gsvd_mod.gsvd``, not a local binding), so the traced run's wrappers see
every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import math
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from gsvdcap import allocation, capacity, cli, experiments, oracle
from spec import DEFAULT_SEED

# The package re-exports the function gsvd under the submodule's name.
gsvd_mod = importlib.import_module("gsvdcap.gsvd")


DOMINATION_TOL = 1e-9  # optimal >= uniform - tol, per campaign record
AGGREGATE_TOL = 1e-9  # relative; the CSVs carry 12 significant digits
REFERENCE_TOL_BITS = 1e-8  # allowed drift from the reference CSVs
KKT_TOL = 1e-6
MATRIX_RATE_TOL_BITS = 1e-8
FACTOR_TOL = 1e-8

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_TRIALS = 10


class _Workload:
    threads = 1
    _failure_reported = False

    def _report_failure(self, label):
        """Print the first failure's traceback; later failures only count."""
        if not self._failure_reported:
            self._failure_reported = True
            print(f"{label} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


class Campaign(_Workload):
    """A few `gsvdcap sweep-*` invocations through ``cli.main`` per block,
    each with a seed derived from the workload's seed and a directory of
    its own for its CSVs.

    The operation whose latency `call_ref_*` reports is one invocation,
    which is what a user of the campaign command waits on.
    """

    pauses_per_invocation = 2

    def __init__(self, name, argv, trials, invocations, threads, seed, out_dir):
        self.name = name
        self.trials = trials
        self.threads = threads
        self.out_dir = Path(out_dir)
        self._argv = argv
        self.outs = [self.out_dir / "block" / str(i) for i in range(invocations)]
        seeds = np.random.SeedSequence(seed).generate_state(invocations, np.uint64)
        self.argvs = [self._campaign_argv(trials, int(s), out)
                      for s, out in zip(seeds, self.outs)]
        cli.build_parser().parse_args(self.argvs[0])
        self.grid_points = None
        self._verdict = None

    def _campaign_argv(self, trials, seed, out):
        return self._argv + ["--threads", str(self.threads), "--trials",
                             str(trials), "--seed", str(seed), "--out", str(out)]

    def _paths(self, out):
        return out / f"{self.name}_trials.csv", out / f"{self.name}_aggregate.csv"

    @staticmethod
    def _run_cli(argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def warm_up(self):
        self._run_cli(self._campaign_argv(2, DEFAULT_SEED, self.out_dir / "warmup"))

    def block(self, latencies, tracer=None, pause=None):
        statuses = []
        for argv in self.argvs:
            start = time.perf_counter()
            try:
                status = self._run_cli(argv)
            except Exception:
                self._report_failure(self.name)
                status = None
            latencies.append(time.perf_counter() - start)
            statuses.append(status)
            for _ in range(self.pauses_per_invocation if pause else 0):
                pause()
        return statuses

    def check(self, statuses):
        """(attempted, failed) over the block's trial and aggregate rows."""
        attempted = failed = 0
        for status, out in zip(statuses, self.outs):
            a, f = self._check_invocation(status, out)
            attempted += a
            failed += f
        return attempted, failed

    def _check_invocation(self, status, out):
        trials_path, agg_path = self._paths(out)
        if status != 0 or not trials_path.exists():
            expected = (self.trials + 1) * (self.grid_points or 1)
            return expected, expected
        digest = _file_digest(trials_path, agg_path)
        if self._verdict is not None and self._verdict[0] == digest:
            return self._verdict[1]
        verdict = check_campaign_csvs(trials_path, agg_path, self.trials)
        self.grid_points = verdict[2]
        if self._verdict is None:
            self._verdict = (digest, verdict[:2])
        return verdict[:2]

    def output_bytes(self):
        return sum(p.stat().st_size for out in self.outs for p in self._paths(out))

    def reference_check(self):
        """Rerun the default-seed reference campaign and diff it against the
        CSVs committed with the benchmark.

        Returns (attempted, failed, worst deviation in bits over the rows
        that could be compared).
        """
        out = self.out_dir / "reference"
        status = self._run_cli(self._campaign_argv(
            REFERENCE_TRIALS, DEFAULT_SEED, out))
        ref_trials, ref_agg = self._paths(REFERENCE_DIR / self.name)
        new_trials, new_agg = self._paths(out)
        ref_rows = _read_rows(ref_trials) + _read_rows(ref_agg)
        if status != 0:
            return len(ref_rows), len(ref_rows), 0.0
        new_rows = _read_rows(new_trials) + _read_rows(new_agg)
        failed = abs(len(ref_rows) - len(new_rows))
        worst = 0.0
        for ref, new in zip(ref_rows, new_rows):
            dev = _row_deviation(ref, new)
            if dev is None or dev > REFERENCE_TOL_BITS:
                failed += 1
            if dev is not None:
                worst = max(worst, dev)
        return max(len(ref_rows), len(new_rows)), failed, worst


def _file_digest(*paths):
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_deviation(ref, new):
    """Largest absolute difference over a row's fields, integer columns
    included; None when the rows cannot be compared."""
    if ref.keys() != new.keys():
        return None
    try:
        pairs = [(float(value), float(new[key])) for key, value in ref.items()]
    except ValueError:
        return None
    if not all(math.isfinite(a) and math.isfinite(b) for a, b in pairs):
        return None
    return max(abs(a - b) for a, b in pairs)


def _record_ok(r):
    return (math.isfinite(r.uniform_rate) and math.isfinite(r.optimal_rate)
            and r.uniform_rate >= 0 and r.optimal_rate >= 0
            and r.optimal_rate >= r.uniform_rate - DOMINATION_TOL)


def _close(value, expected):
    return abs(value - expected) <= AGGREGATE_TOL * max(1.0, abs(expected))


def check_campaign_csvs(trials_path, agg_path, trials):
    """Check a campaign's CSV pair.

    Every trial record must be finite, nonnegative and have the optimum at
    least the uniform rate; every aggregate row must match the mean and
    standard error recomputed from the trial CSV. Returns (attempted,
    failed, grid points).
    """
    records = experiments.read_trial_csv(trials_path)
    by_param = defaultdict(list)
    for r in records:
        by_param[r.parameter].append(r)
    failed = sum(not _record_ok(r) for r in records)
    expected_records = trials * len(by_param)
    failed += abs(expected_records - len(records))

    aggregates = _read_rows(agg_path)
    failed += abs(len(aggregates) - len(by_param))
    for row in aggregates:
        group = by_param.get(float(row["param"]), [])
        if not _aggregate_ok(row, group):
            failed += 1
    attempted = max(expected_records, len(records)) + max(len(aggregates), len(by_param))
    return attempted, failed, len(by_param)


def _aggregate_ok(row, group):
    if len(group) != int(row["trials"]) or not group:
        return False
    for column, values in (("uniform", [r.uniform_rate for r in group]),
                           ("optimal", [r.optimal_rate for r in group])):
        se = statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
        if not (_close(float(row[f"mean_{column}"]), statistics.fmean(values))
                and _close(float(row[f"se_{column}"]), se)):
            return False
    return True


class LibraryLoop(_Workload):
    """A closed loop of single library calls: the next call starts when the
    previous one returns. Subclasses define the inputs, one call, and its
    check."""

    def __init__(self, name, seed):
        self.name = name
        self.inputs = self.make_inputs(seed)
        self._verdict = None

    def warm_up(self):
        for item in self.inputs[:self.warm_up_calls]:
            self.call(item)

    def block(self, latencies, tracer=None, pause=None):
        outputs = []
        for index, item in enumerate(self.inputs):
            if pause is not None and index % self.calls_per_pause == 0:
                pause()
            if tracer is not None:
                tracer.set_request(f"c{index}")
            start = time.perf_counter()
            try:
                out = self.call(item)
            except Exception:
                self._report_failure(self.name)
                out = None
            latencies.append(time.perf_counter() - start)
            outputs.append(out)
        return outputs

    def check(self, outputs):
        """(attempted, failed) over the block's calls."""
        digest = hashlib.sha256()
        for out in outputs:
            digest.update(b"-" if out is None else self.fingerprint(out))
        digest = digest.hexdigest()
        if self._verdict is not None and self._verdict[0] == digest:
            return self._verdict[1]
        failed = 0
        for item, out in zip(self.inputs, outputs):
            try:
                failed += out is None or not self.verify(item, out)
            except Exception:
                self._report_failure(f"{self.name} check")
                failed += 1
        verdict = (len(outputs), failed)
        if self._verdict is None:
            self._verdict = (digest, verdict)
        return verdict

    def output_bytes(self):
        return 0

    def reference_check(self):
        return 0, 0, 0.0


class Allocate(LibraryLoop):
    """gsvd -> subchannel_gains -> solve_mu -> secrecy_rate, one pair per call,
    as in the README's library example."""

    # (n_t, n_r, n_e): square, large, wide with a non-empty eavesdropper
    # nullspace (8, 3, 2), and tall (4, 6, 6).
    SHAPES = ((2, 2, 2), (4, 4, 4), (8, 8, 6), (8, 3, 2), (4, 6, 6))
    BUDGETS_DB = (0, 5, 10, 15, 20, 25, 30)
    CALLS_PER_BLOCK = 175  # five passes over the 35 shape x budget pairs
    warm_up_calls = 35
    calls_per_pause = 10

    def make_inputs(self, seed):
        rng = np.random.default_rng(seed)

        def cn(rows, cols):
            return (rng.standard_normal((rows, cols))
                    + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)

        inputs = []
        for i in range(self.CALLS_PER_BLOCK):
            n_t, n_r, n_e = self.SHAPES[i % len(self.SHAPES)]
            budget = 10.0 ** (self.BUDGETS_DB[i % len(self.BUDGETS_DB)] / 10.0)
            inputs.append((cn(n_r, n_t), cn(n_e, n_t), budget))
        return inputs

    @staticmethod
    def call(item):
        hr, he, budget = item
        pair = gsvd_mod.ChannelPair(hr, he)
        factors = gsvd_mod.gsvd(pair)
        gains = gsvd_mod.subchannel_gains(factors)
        alloc = allocation.solve_mu(gains, budget)
        return pair, factors, gains, alloc, capacity.secrecy_rate(gains, alloc)

    @staticmethod
    def fingerprint(out):
        _, _, _, alloc, rate = out
        return alloc.p.tobytes() + np.float64(rate).tobytes()

    @staticmethod
    def verify(item, out):
        budget = item[2]
        pair, factors, gains, alloc, rate = out
        if not oracle.kkt_check(gains, alloc, budget).passed(KKT_TOL):
            return False
        qx = allocation.input_covariance(factors, alloc)
        return abs(capacity.matrix_rate(pair, qx) - rate) <= MATRIX_RATE_TOL_BITS


class FactorCheck(LibraryLoop):
    """sample_channel -> gsvd -> verify_factors per pair: the work of
    `gsvdcap gsvd-check` and of acceptance criterion 1."""

    # The acceptance suite's eight shapes, plus a large and a tall one.
    SHAPES = ((5, 5, 4), (4, 3, 3), (6, 3, 3), (8, 3, 3), (3, 2, 5),
              (5, 4, 2), (5, 3, 4), (2, 2, 2), (16, 16, 12), (12, 4, 4))
    TRIALS_PER_SHAPE = 50
    warm_up_calls = len(SHAPES)
    calls_per_pause = 25

    def make_inputs(self, seed):
        configs = [experiments.ExperimentConfig(
            n_t=n_t, n_r=n_r, n_e=n_e, trials=self.TRIALS_PER_SHAPE, seed=seed)
            for n_t, n_r, n_e in self.SHAPES]
        return [(config, trial) for trial in range(self.TRIALS_PER_SHAPE)
                for config in configs]

    @staticmethod
    def call(item):
        config, trial = item
        channels = experiments.sample_channel(config, trial)
        factors = gsvd_mod.gsvd(channels)
        return gsvd_mod.verify_factors(factors, channels, FACTOR_TOL)

    @staticmethod
    def fingerprint(out):
        return np.float64(out.max_residual).tobytes() + bytes([out.ordering_ok])

    @staticmethod
    def verify(item, out):
        return out.passed(FACTOR_TOL)


FRACTION_ARGV = ["sweep-fraction", "--nt", "5", "--nr", "5", "--ne", "4",
                 "--power", "100", "--rho-grid", "0:0.01:1"]
SNR_ARGV = ["sweep-snr", "--nt", "4", "--nr", "4", "--ne", "4",
            "--snr-db", "0:5:30"]


def build(name, seed, out_dir):
    """The named workload with its inputs made from seed."""
    if name == "fraction":
        return Campaign(name, FRACTION_ARGV, trials=10, invocations=4,
                        threads=2, seed=seed, out_dir=out_dir)
    if name == "snr":
        return Campaign(name, SNR_ARGV, trials=5, invocations=6,
                        threads=1, seed=seed, out_dir=out_dir)
    if name == "allocate":
        return Allocate(name, seed)
    if name == "factor-check":
        return FactorCheck(name, seed)
    raise ValueError(f"unknown workload {name!r}")
