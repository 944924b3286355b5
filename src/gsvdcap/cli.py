"""Command-line front end.

Subcommands: gsvd-check (factor invariants on random pairs), allocate
(one-shot closed-form allocation from matrix files), sweep-fraction and
sweep-snr (Monte Carlo campaigns writing CSV), oracle-verify (closed form
against the grid search). Results go to stdout or files; diagnostics go to
stderr. Exit codes: 0 success, 1 numerical/verification failure, 2 usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import experiments, linalg, oracle
from .allocation import solve_mu
from .capacity import secrecy_rate
from .experiments import ExperimentConfig
from .gsvd import ChannelPair, gsvd, subchannel_gains, verify_factors
from .oracle import grid_maximize, random_gains

MAX_RANGE_POINTS = 10**6


def parse_range(text):
    """Parse start:step:stop into an inclusive tuple of floats.

    stop is included when it lands within linalg.RANGE_EPS of a grid point;
    the last value is clamped to stop exactly so 0:0.01:1 really ends at
    1.0. A range of more than MAX_RANGE_POINTS points is rejected before any
    is built.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected start:step:stop, got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise argparse.ArgumentTypeError(f"range {text!r} must be finite")
    if not step > 0:
        raise argparse.ArgumentTypeError("range step must be positive")
    if stop < start:
        raise argparse.ArgumentTypeError("range stop must be >= start")
    # Point k is start + k * step, which never decreases in k, so the points
    # are the first `count` k. The quotient estimates count - 1; the loops
    # correct its rounding, and the cap keeps a huge quotient finite.
    last = stop + linalg.RANGE_EPS
    count = int(min((last - start) / step, MAX_RANGE_POINTS)) + 1
    while count <= MAX_RANGE_POINTS and start + count * step <= last:
        count += 1
    while start + (count - 1) * step > last:
        count -= 1
    if count > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} has more than {MAX_RANGE_POINTS} points")
    return tuple(min(start + k * step, stop) for k in range(count))


def _rho_range(text):
    values = parse_range(text)
    if values and (values[0] < 0 or values[-1] > 1):
        raise argparse.ArgumentTypeError("rho grid must lie in [0, 1]")
    return values


def _bounded(kind, check):
    """argparse type: parse text as kind, then check(value); a ValueError
    from check rejects the value with its message."""
    noun = "an integer" if kind is int else "a number"

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _integer(name, lo, hi=None):
    """argparse type: an integer that linalg._check_int takes as name, so
    the command line accepts the library's range and no other."""
    return _bounded(int, lambda v: linalg._check_int(name, v, lo, hi))


def _finite(zero_ok, requirement):
    """argparse type: a finite number above 0, or equal to 0 if zero_ok."""
    def check(value):
        if not (0 < value < math.inf or (zero_ok and value == 0)):
            raise ValueError(f"must be {requirement}")
    return _bounded(float, check)


_trials = _integer("trials", 1, experiments._TRIAL_LIMIT + 1)
_seed = _integer("seed", 0, 2**64)
_positive_float = _finite(False, "positive and finite")
_nonneg_float = _finite(True, "nonnegative and finite")


def _add_dims(parser):
    for flag, role in (("nt", "transmit"), ("nr", "receiver"),
                       ("ne", "eavesdropper")):
        parser.add_argument(f"--{flag}", type=_integer(f"n_{flag[1]}", 1),
                            required=True, help=f"{role} antennas")


def _add_sweep_common(parser):
    parser.add_argument("--trials", type=_trials, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--sigma-r2", type=_nonneg_float, default=1.0,
                        help="receiver channel variance (default 1)")
    parser.add_argument("--sigma-e2", type=_nonneg_float, default=1.0,
                        help="eavesdropper channel variance (default 1)")
    parser.add_argument("--uniform-mode", choices=("transmit", "symbol"),
                        default="transmit",
                        help="equalize radiated power (transmit) or symbol "
                             "power (symbol) across directions")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--threads", type=_integer("threads", 1),
                        default=os.cpu_count() or 1,
                        help="accepted for compatibility and ignored: "
                             "campaigns run in one thread")


@functools.cache  # one parser per process: parse_args leaves it as it is
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsvdcap",
        description="Secrecy capacity of the Gaussian MIMO wiretap channel "
                    "under GSVD beamforming.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gsvd-check",
                       help="verify factorization invariants on random pairs")
    _add_dims(p)
    p.add_argument("--trials", type=_trials, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-8)
    p.set_defaults(func=_cmd_gsvd_check)

    p = sub.add_parser("allocate",
                       help="closed-form allocation for explicit channels")
    p.add_argument("--hr", required=True, help="receiver channel JSON file")
    p.add_argument("--he", required=True, help="eavesdropper channel JSON file")
    p.add_argument("--power", type=_positive_float, required=True,
                   help="radiated power budget")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_allocate)

    p = sub.add_parser("sweep-fraction",
                       help="uniform-baseline rho sweep vs the optimum")
    _add_dims(p)
    p.add_argument("--power", type=_positive_float, required=True)
    p.add_argument("--rho-grid", type=_rho_range, default=parse_range("0:0.01:1"),
                   metavar="START:STEP:STOP")
    _add_sweep_common(p)
    p.set_defaults(func=_cmd_sweep, campaign="fraction")

    p = sub.add_parser("sweep-snr",
                       help="optimal vs secure-uniform rates across SNR")
    _add_dims(p)
    p.add_argument("--snr-db", type=parse_range, required=True,
                   metavar="START:STEP:STOP",
                   help="join a range below 0 with =, as in --snr-db=-10:10:10")
    _add_sweep_common(p)
    p.set_defaults(func=_cmd_sweep, campaign="snr")

    p = sub.add_parser("oracle-verify",
                       help="closed form vs grid search on synthetic gains")
    p.add_argument("--q", type=_integer("q", 1, oracle._MAX_GRID_Q + 1),
                   required=True)
    p.add_argument("--trials", type=_trials, required=True)
    p.add_argument("--budget", type=_positive_float, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--resolution", type=_integer("resolution", 50),
                   default=200)
    p.set_defaults(func=_cmd_oracle_verify)

    return parser


def _cmd_gsvd_check(args):
    config = ExperimentConfig(n_t=args.nt, n_r=args.nr, n_e=args.ne,
                              trials=args.trials, seed=args.seed)
    worst, failures = 0.0, 0
    for trial in range(args.trials):
        channels = experiments.sample_channel(config, trial)
        check = verify_factors(gsvd(channels), channels)
        worst = np.maximum(worst, check.max_residual)  # keeps a NaN
        if not check.passed(args.tol):
            failures += 1
    print(f"checked {args.trials} pairs: worst residual {worst:.6e}")
    if failures:
        print(f"{failures}/{args.trials} pairs failed at tol {args.tol:g}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_allocate(args):
    factors = gsvd(ChannelPair(hr=linalg.load_matrix(args.hr),
                               he=linalg.load_matrix(args.he)))
    gains = subchannel_gains(factors)
    alloc = solve_mu(gains, args.power)
    rate = secrecy_rate(gains, alloc)
    if args.json:
        print(json.dumps(dict(
            c=gains.c.tolist(), d=gains.d.tolist(), a=gains.a.tolist(),
            p=alloc.p.tolist(), mu=alloc.mu,
            effective_power=alloc.effective_power, rate_bits=rate)))
        return 0
    print(f"{'i':>3} {'c_i':>14} {'d_i':>14} {'a_i':>14} {'p_i':>14}")
    for i in range(gains.q):
        print(f"{i:>3} {gains.c[i]:>14.6g} {gains.d[i]:>14.6g} "
              f"{gains.a[i]:>14.6g} {alloc.p[i]:>14.6g}")
    print(f"mu = {alloc.mu:.10g}")
    print(f"effective power = {alloc.effective_power:.10g} (budget {args.power:g})")
    print(f"secrecy rate = {rate:.10g} bits")
    return 0


def _cmd_sweep(args):
    fraction = args.campaign == "fraction"
    if fraction:
        grid = dict(budget=args.power, rho_grid=args.rho_grid)
        run, column = experiments.run_fraction_experiment, "rho"
    else:
        grid = dict(snr_db_grid=args.snr_db)
        run, column = experiments.run_snr_sweep, "snr_db"
    config = ExperimentConfig(
        n_t=args.nt, n_r=args.nr, n_e=args.ne, sigma_r2=args.sigma_r2,
        sigma_e2=args.sigma_e2, trials=args.trials, seed=args.seed, **grid)
    show = warnings.showwarning

    def show_line(message, category, *rest):
        # A campaign's UserWarning is one "warning:" line, free of source
        # paths; every other warning keeps its filters and its format.
        if not issubclass(category, UserWarning):
            return show(message, category, *rest)
        print(f"warning: {message}", file=sys.stderr)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = show_line
            result = run(config, mode=args.uniform_mode, threads=args.threads)
    except MemoryError:
        points = len(config.rho_grid if fraction else config.snr_db_grid)
        raise MemoryError(
            f"a campaign of {args.trials} trials x {points} grid points does "
            "not fit in memory") from None
    os.makedirs(args.out, exist_ok=True)
    trials_path = os.path.join(args.out, f"{args.campaign}_trials.csv")
    agg_path = os.path.join(args.out, f"{args.campaign}_aggregate.csv")
    experiments.write_campaign_csv(result, trials_path, column)
    experiments.write_campaign_aggregate_csv(result, agg_path)
    print(f"wrote {trials_path}", file=sys.stderr)
    print(f"wrote {agg_path}", file=sys.stderr)
    if fraction:
        best = int(np.argmax(result.curve.rate_bits))
        print(f"mean optimal rate {result.mean_optimal[0]:.6g} "
              f"bits; best uniform rho {result.curve.param[best]:.4g} "
              f"({result.curve.rate_bits[best]:.6g} bits)", file=sys.stderr)
    return 0


def _cmd_oracle_verify(args):
    worst = 0.0
    losses = 0
    for trial in range(args.trials):
        gains = random_gains(args.q, args.seed, trial)
        closed_rate = secrecy_rate(gains, solve_mu(gains, args.budget))
        _, grid_rate = grid_maximize(gains, args.budget, args.resolution)
        worst = max(worst, abs(closed_rate - grid_rate))
        if closed_rate < grid_rate - 1e-9:
            losses += 1
    print(f"{args.trials} instances: worst |closed - grid| = {worst:.6e} bits")
    if worst > 1e-3 or losses:
        print(f"verification failed: worst deviation {worst:.3e}, "
              f"{losses} instances where the grid beat the closed form",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
