"""One workload in one fresh process: set up, then a timed or a traced run.

Started by run.py, which measures set-up time from spawn to the "READY"
line. After the run the worker prints one line "RESULT <json>" on stdout.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gsvdcap
import spec
import tracer as tracing
import workloads

MIN_BLOCKS = 5
TRACE_PAIRS = 4  # untraced/traced block pairs in a traced run

# The reference kernel: a fixed mix of the kinds of work gsvdcap spends its
# time on, in about equal shares: a bytecode loop, small objects and calls,
# and complex linear algebra in numpy on 4 x 4 and 12 x 12 matrices. It never
# touches gsvdcap, so no change to the package can move it. One piece takes
# about 4 ms on a 2-core VM.
REF_LOOP = 6000
REF_OBJECTS = 1500
REF_SMALL = 30
REF_LARGE = 6
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = [m[0] + 1j * m[1] for m in _REF_RNG.standard_normal((8, 2, 4, 4))]
_REF_LARGE = [m[0] + 1j * m[1] for m in _REF_RNG.standard_normal((2, 2, 12, 12))]


class _Pair:
    __slots__ = ("index", "items")

    def __init__(self, index, items):
        self.index = index
        self.items = items


def reference_piece():
    """Seconds one piece of the reference kernel takes now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(REF_LOOP):
        acc += (i * i) % 7
        table[i & 255] = acc
    for i in range(REF_OBJECTS):
        pair = _Pair(i, [i, i + 1])
        acc += len(pair.items) + max(pair.index, 3) + len(f"{i}")
    for i in range(REF_SMALL):
        a = _REF_SMALL[i & 7]
        acc += np.linalg.svd(a)[1][0] + np.abs(a @ a.conj().T).sum()
    for i in range(REF_LARGE):
        a = _REF_LARGE[i & 1]
        q, r = np.linalg.qr(a)
        acc += np.linalg.svd(a)[1][0] + np.abs(q @ r).sum()
    return time.perf_counter() - start


def _percentile(values, pct):
    """(value, samples beyond it) at the given percentile."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return cut, sum(x > cut for x in values)


def timed_run(workload, seconds):
    """Repeat the workload's block for `seconds` of wall time.

    The block pauses every few operations for one piece of the reference
    kernel, and its times are divided by the mean time of those pieces. The
    host this runs on changes speed by up to a factor of two from one second
    to the next; the work and the pieces interleaved with it slow together,
    so the ratio stays put. Kernel time is not counted in the block's time.
    """
    end = time.perf_counter() + seconds
    walls, refs, ratios, call_ratios, latencies = [], [], [], [], []
    attempted = failed = 0
    reference_piece()  # warm-up
    while time.perf_counter() < end or len(walls) < MIN_BLOCKS:
        pieces, block_latencies = [], []
        start = time.perf_counter()
        outputs = workload.block(block_latencies,
                                 pause=lambda: pieces.append(reference_piece()))
        wall = time.perf_counter() - start - sum(pieces)
        ref = statistics.fmean(pieces)
        walls.append(wall)
        refs.append(ref)
        ratios.append(wall / ref)
        latencies += block_latencies
        call_ratios += [x / ref for x in block_latencies]
        a, f = workload.check(outputs)
        attempted += a
        failed += f
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p99_ref, beyond = _percentile(call_ratios, 99)
    return {
        "blocks": len(walls),
        "calls": len(latencies),
        "wall_ref": statistics.median(ratios),
        "call_ref_p50": statistics.median(call_ratios),
        "call_ref_p99": p99_ref,
        "beyond_p99": beyond,
        "peak_rss_mb": peak_rss_mb,
        "ref_s": statistics.median(refs),
        "wall_s": statistics.median(walls),
        "call_ms_p50": statistics.median(latencies) * 1e3,
        "call_ms_p99": _percentile(latencies, 99)[0] * 1e3,
        "attempted": attempted,
        "failed": failed,
    }


def traced_run(workload, spans_path):
    """Alternate untraced and traced blocks a fixed number of times.

    The count is fixed, not timed, so the call counts of two traced runs at
    one seed are comparable; the alternation makes the overhead ratio
    compare blocks run under the same machine load.
    """
    tracer = tracing.Tracer()
    plain, traced = [], []
    attempted = failed = 0
    for index in range(TRACE_PAIRS):
        for walls in (plain, traced):
            if walls is traced:
                tracer.install()
                tracer.set_request(f"b{index}")
            start = time.perf_counter()
            try:
                outputs = workload.block([], tracer if walls is traced else None)
            finally:
                tracer.uninstall()
            walls.append(time.perf_counter() - start)
            a, f = workload.check(outputs)
            attempted += a
            failed += f
    metrics = tracer.layer_metrics(TRACE_PAIRS, workload.threads)
    metrics["experiments.write_csv.bytes"] = workload.output_bytes()
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    tracer.write_spans(spans_path)
    return {"blocks": TRACE_PAIRS, "metrics": metrics,
            "attempted": attempted, "failed": failed}


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = (args.root / "src").resolve()
    if source not in Path(gsvdcap.__file__).resolve().parents:
        print(f"gsvdcap was imported from {gsvdcap.__file__}, not {source}",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.out)
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        result = traced_run(workload, args.out / "spans.jsonl")
    else:
        result = timed_run(workload, args.seconds)
    ref_attempted, ref_failed, worst = workload.reference_check()
    result["attempted"] += ref_attempted
    result["failed"] += ref_failed
    result["max_rate_dev_bits"] = worst
    result["threads"] = workload.threads
    result["machine"] = machine()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
