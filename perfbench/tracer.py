"""Spans and call counts around gsvdcap's public functions, recorded from
outside the package.

`Tracer.install` swaps the names that the package's modules look up
(``experiments.solve_mu``, ``allocation.power_for_mu``, ...) for wrappers;
`uninstall` puts the originals back. One wrapper serves every namespace that
binds the same function, so a call is recorded once whichever module makes
it. Package source is not touched.

Each span records name, start, end, parent and request id. Every thread keeps
its own stack and span list, so the two pool workers of a threaded campaign
stay separate; a pool thread's outermost spans take the open campaign span as
their parent. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

# Layer name -> the (module, attribute) bindings that resolve to it.
SPANS = {
    "cli.main": [("gsvdcap.cli", "main")],
    "experiments.campaign": [("gsvdcap.experiments", "run_fraction_experiment"),
                             ("gsvdcap.experiments", "run_snr_sweep")],
    "experiments.sample_channel": [("gsvdcap.experiments", "sample_channel")],
    "experiments.write_csv": [("gsvdcap.experiments", "write_csv"),
                              ("gsvdcap.experiments", "write_aggregate_csv")],
    "gsvd.gsvd": [("gsvdcap.experiments", "gsvd"), ("gsvdcap.gsvd", "gsvd")],
    "gsvd.subchannel_gains": [("gsvdcap.experiments", "subchannel_gains"),
                              ("gsvdcap.gsvd", "subchannel_gains")],
    "gsvd.verify_factors": [("gsvdcap.gsvd", "verify_factors")],
    "linalg.svd": [("gsvdcap.linalg", "svd")],
    "allocation.solve_mu": [("gsvdcap.experiments", "solve_mu"),
                            ("gsvdcap.allocation", "solve_mu")],
    "allocation.power_for_mu": [("gsvdcap.allocation", "power_for_mu")],
    "capacity.classify_subspaces": [("gsvdcap.experiments", "classify_subspaces")],
    "capacity.fraction_sweep": [("gsvdcap.experiments", "fraction_sweep")],
    "capacity.uniform_allocation": [("gsvdcap.capacity", "uniform_allocation")],
    "capacity.uniform_secure_allocation": [
        ("gsvdcap.experiments", "uniform_secure_allocation")],
    "capacity.secrecy_rate": [("gsvdcap.experiments", "secrecy_rate"),
                              ("gsvdcap.capacity", "secrecy_rate")],
}
# Called too often for a span each; only counted.
COUNTED = {
    "allocation.largest_root": [("gsvdcap.allocation", "largest_root")],
}
# Spans whose pool threads' spans are their children.
CAMPAIGN = "experiments.campaign"
# A campaign trial starts by sampling its channel; its trial index becomes
# the request id of the spans that follow on that thread.
TRIAL_START = "experiments.sample_channel"

NAME, START, END, PARENT, REQUEST = range(5)


class _ThreadState:
    __slots__ = ("index", "stack", "spans", "counts", "request")

    def __init__(self, index):
        self.index = index
        self.stack = []
        self.spans = []
        self.counts = defaultdict(int)
        self.request = None


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []
        self._campaign = None  # id of the open campaign span

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    def set_request(self, request):
        self._state().request = request

    def _span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            if name == TRIAL_START:
                state.request = f"t{args[1]}"
            request = state.request
            parent = state.stack[-1] if state.stack else tracer._campaign
            span_id = (state.index, len(state.spans))
            record = [name, 0.0, 0.0, parent, request]
            state.spans.append(record)
            state.stack.append(span_id)
            if name == CAMPAIGN:
                tracer._campaign = span_id
            record[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                state.stack.pop()
                if name == CAMPAIGN:
                    tracer._campaign = None
                    state.request = request

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        wrappers = {}
        for table, make in ((SPANS, self._span), (COUNTED, self._counter)):
            for name, bindings in table.items():
                for module_name, attr in bindings:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    if id(original) not in wrappers:
                        wrappers[id(original)] = make(name, original)
                    setattr(module, attr, wrappers[id(original)])
                    self._patched.append((module, attr, original))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _spans(self):
        """{span id: record} over every thread."""
        return {(state.index, i): record for state in self._states
                for i, record in enumerate(state.spans)}

    def layer_metrics(self, blocks, threads):
        """Per-block calls and self times per layer, plus the campaign's
        self time and pool busy ratio."""
        spans = self._spans()
        children = defaultdict(list)
        for record in spans.values():
            if record[PARENT] is not None:
                children[record[PARENT]].append(record)

        calls = defaultdict(int)
        busy = defaultdict(float)
        for state in self._states:
            for name, count in state.counts.items():
                calls[name] += count
        pool_busy = pool_capacity = 0.0
        for span_id, record in spans.items():
            name = record[NAME]
            kids = children.get(span_id, [])
            calls[name] += 1
            busy[name] += _self_time(record, kids)
            if name == CAMPAIGN:
                pool_busy += sum(k[END] - k[START] for k in kids)
                pool_capacity += (record[END] - record[START]) * threads

        metrics = {f"{name}.calls": _per_block(calls[name], blocks)
                   for name in list(SPANS) + list(COUNTED)}
        metrics.update({f"{name}.busy_s": busy[name] / blocks for name in SPANS})
        metrics["experiments.campaign.self_s"] = metrics.pop(f"{CAMPAIGN}.busy_s")
        metrics["cli.main.self_s"] = metrics.pop("cli.main.busy_s")
        solves = calls["allocation.solve_mu"]
        metrics["allocation.evals_per_solve"] = (
            calls["allocation.power_for_mu"] / solves if solves else 0.0)
        metrics["experiments.pool.busy_ratio"] = (
            pool_busy / pool_capacity if pool_capacity else 0.0)
        return metrics

    def write_spans(self, path):
        """Write every span as one JSON object per line."""
        def ident(span_id):
            return None if span_id is None else f"{span_id[0]}.{span_id[1]}"

        with open(path, "w", encoding="utf-8") as fh:
            for span_id, record in self._spans().items():
                fh.write(json.dumps({
                    "id": ident(span_id), "name": record[NAME],
                    "start": record[START], "end": record[END],
                    "parent": ident(record[PARENT]),
                    "request": record[REQUEST], "thread": span_id[0],
                }) + "\n")


def _per_block(count, blocks):
    """Exact per-block count; blocks repeat identical work, so it divides."""
    return count // blocks if count % blocks == 0 else count / blocks


def _self_time(record, children):
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    edge = record[START]
    for start, end in sorted((max(k[START], record[START]), min(k[END], record[END]))
                             for k in children):
        start = max(start, edge)
        if end > start:
            covered += end - start
            edge = end
    return record[END] - record[START] - covered
