"""Benchmark of gsvdcap: one workload per invocation.

    python3 perfbench/run.py --workload snr --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off; with --trace 1 the per-layer metrics of a separate traced
run. Every workload runs in fresh single Python processes started from here
with the checkout's src/ on the path and one BLAS thread. Set-up time is the
median over several fresh processes. Block and call times are reported as
multiples of a piece of a reference kernel timed next to each block (see
worker.py), so the host's changes of speed cancel; set-up time is scaled by
the same kernel to a fixed piece time. The raw times are printed in the
table.

The lines before the last are a readable table and the run record (machine,
versions, seed, commit). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Outputs go to .bench_out/ in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only processes before and after the one that measures, so that
# set-up time is sampled at both ends of the run.
SETUP_PROCESSES = 5
DEADLINE_S = 170  # a run ends within this, stuck workers included


def _seed(text):
    if text in spec.SEED_NAMES:
        return spec.SEED_NAMES[text]
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed: {text!r}") from None
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError("seed must lie in [0, 2**63)")
    return seed


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(args, out_dir, setup_only, deadline):
    """Start one worker; return (seconds from spawn to READY, its result).

    The worker is killed if it is still running at `deadline`
    (a time.perf_counter value).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=_child_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read().splitlines()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
        status = proc.wait()
    if ready.strip() != "READY" or status != 0:
        raise RuntimeError(f"worker exited with status {status}")
    if setup_only:
        return setup_s, None
    results = [line[len("RESULT "):] for line in rest if line.startswith("RESULT ")]
    if not results:
        raise RuntimeError("worker printed no result")
    return setup_s, json.loads(results[-1])


def _git_commit():
    """HEAD of the checkout when it is a git repository, read without git
    (which would search parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gsvdcap benchmark", epilog="Seeds may be given by name: "
        + ", ".join(f"{k}={v}" for k, v in spec.SEED_NAMES.items()))
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "gsvdcap" / "__init__.py").is_file():
        print(f"error: no gsvdcap source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = 0 if args.trace else SETUP_PROCESSES
        setup_times = [run_worker(args, out_dir, True, deadline)[0]
                       for _ in range(setups)]
        setup_s, result = run_worker(args, out_dir, False, deadline)
        setup_times.append(setup_s)
        setup_times += [run_worker(args, out_dir, True, deadline)[0]
                        for _ in range(setups)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = {**result["metrics"],
                  "experiments.max_rate_dev_bits": result["max_rate_dev_bits"]}
        notes = {}
    else:
        values = {name: result[name] for name in
                  ("wall_ref", "call_ref_p50", "call_ref_p99", "peak_rss_mb")}
        setup_raw_s = statistics.median(setup_times)
        values["setup_s"] = setup_raw_s / result["ref_s"] * spec.REF_PIECE_S
        notes = {
            "setup_s": f"median of {len(setup_times)} fresh processes, "
                       f"at {spec.REF_PIECE_S * 1e3:g} ms per reference piece",
            "wall_ref": f"median of {result['blocks']} blocks",
            "call_ref_p50": f"{result['calls']} calls",
            "call_ref_p99": f"{result['calls']} calls, {result['beyond_p99']} beyond",
        }
        raw = {"ref_s": (result["ref_s"], "s", "reference kernel piece, median of its block means"),
               "setup_raw_s": (setup_raw_s, "s", "set-up, not normalized"),
               "wall_s": (result["wall_s"], "s", "block, not normalized"),
               "call_ms_p50": (result["call_ms_p50"], "ms", "call, not normalized"),
               "call_ms_p99": (result["call_ms_p99"], "ms", "call, not normalized")}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric is not a finite number", file=sys.stderr)
        return 1

    seed_name = next((k for k, v in spec.SEED_NAMES.items() if v == args.seed), None)
    print(f"gsvdcap benchmark: workload {args.workload}, seed {args.seed}"
          f"{f' ({seed_name})' if seed_name else ''}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if not args.trace:
        for name, (value, unit, note) in raw.items():
            print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<40} {fail_frac:>14.6g} {'ratio':<6} "
          f"{result['failed']} of {result['attempted']} operations failed")
    record = dict(result["machine"], nproc=os.cpu_count(), workload=args.workload,
                  seed=args.seed, seed_name=seed_name, seconds=args.seconds,
                  trace=args.trace, threads=result["threads"],
                  blocks=result["blocks"], commit=_git_commit(),
                  source_sha256=_source_digest())
    print("record " + json.dumps(record))
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    with open(out_dir / f"run_trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
