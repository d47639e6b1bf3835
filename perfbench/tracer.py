"""Traced runs: wrappers around the public functions of each program module,
installed from the benchmark's side, that record spans in memory.

A span is (name, start, end, parent, operation id). Spans are kept in flat
arrays during the run, written out when it ends, and self times are derived
from them afterwards: a span's self time is its duration minus the durations
of its direct children. Counts of work (cells, rounds, days, evictions,
bytes) are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def setup_op(rep: int) -> int:
    """Operation id of set-up repetition ``rep``; operations count from 0."""
    return -1 - rep


class Tracer:
    """Spans and counters of one traced run, and the wrappers that record them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self.op_id = setup_op(0)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.maxima: dict[tuple[int, str], float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[(self.op_id, counter)] += value

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call, then ``count(tracer, args, result)``."""
        # open() and close() inlined: this runs on every call of a traced function
        nid = self._name_id(name)
        start, end, names, parent, op = self.start, self.end, self.name, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(tracer, args, result)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def install(self, ep) -> None:
        """Wrap every traced function of the program package ``ep``."""
        for owner, attr, name, count in _targets(ep):
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        children = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                               minlength=len(dur))
        return {"start": start, "end": end, "parent": parent,
                "name": np.frombuffer(self.name, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "duration": dur, "self": dur - children}

    def write(self, path: Path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), start=a["start"], end=a["end"],
                 parent=a["parent"], name=a["name"], op=a["op"])


def _count_cells(tr, args, result):
    tr.add("streams.loss_block.cells", result.size)


def _count_rounds(tr, args, result):
    tr.add("mwu.run_block.rounds", len(result))


def _count_days(tr, args, result):
    tr.add("hierarchy.process_block.days", len(result[0]))


def _count_eviction(tr, args, result):
    survivors, evicted = result
    tr.add("baseline.evicted", len(evicted))
    key = (tr.op_id, "baseline.pool_max")
    tr.maxima[key] = max(tr.maxima[key], len(survivors))


def _count_trace_bytes(tr, args, result):
    tr.add("bench.trace_bytes", os.path.getsize(args[0].path))


def _count_dump_bytes(tr, args, result):
    tr.add("bench.dump_bytes", os.path.getsize(args[1]))


def _targets(ep):
    """(owner, attribute, span name, counter) for every traced function.

    A function imported by name into another module is wrapped at the name
    its caller looks up, so ``evict_pass`` is traced once per calling module.
    """
    s, m, b, h, bench = ep.streams, ep.mwu, ep.baseline, ep.hierarchy, ep.bench
    oracles = (s.ConstantOracle, s.BernoulliOracle, s.EpochSpoilerOracle, s.CsvOracle)
    return [
        *[(cls, "loss_block", "streams.loss_block", _count_cells) for cls in oracles],
        (s, "make_oracle", "streams.make_oracle", None),
        (bench, "make_oracle", "streams.make_oracle", None),
        (m.MwuState, "run_block", "mwu.run_block", _count_rounds),
        (b.BaselineLearner, "advance", "baseline.advance", None),
        (b, "evict_pass", "baseline.evict_pass", _count_eviction),
        (h.LevelState, "process_block", "hierarchy.process_block", _count_days),
        (h, "evict_pass", "hierarchy.evict_pass", None),
        (h.HierarchyLearner, "audit_words", "hierarchy.audit_words", None),
        (ep.meter.WordMeter, "charge", "meter.charge", None),
        (ep.meter.WordMeter, "release", "meter.release", None),
        (bench, "oracle_best_expert", "bench.oracle_best_expert", None),
        (bench.TraceWriter, "__init__", "bench.trace_init", None),
        (bench.TraceWriter, "record", "bench.trace_record", None),
        (bench.TraceWriter, "flush", "bench.trace_flush", _count_trace_bytes),
        (bench, "check_pool", "bench.check_pool", None),
        (bench, "check_memory", "bench.check_memory", None),
        (bench, "dump_stream", "bench.dump_stream", _count_dump_bytes),
    ]


# Per-layer metrics: (name, unit, how it is derived). Kinds:
#   calls/s/self_s  span count, inclusive or self seconds per traced operation
#   count           counter per traced operation
#   ratio           counter a / counter b over all traced operations
#   max             largest value seen in a traced operation
#   setup           median over set-up repetitions of a span's seconds or a counter
LAYER_METRICS = [
    ("streams.loss_block.calls", "count", ("calls", "streams.loss_block")),
    ("streams.loss_block.s", "s", ("s", "streams.loss_block")),
    ("streams.loss_block.cells", "count", ("count", "streams.loss_block.cells")),
    ("streams.cells_per_needed", "ratio",
     ("ratio", "streams.loss_block.cells", "needed_cells")),
    ("streams.make_oracle.s", "s", ("s", "streams.make_oracle")),
    ("mwu.run_block.calls", "count", ("calls", "mwu.run_block")),
    ("mwu.run_block.s", "s", ("s", "mwu.run_block")),
    ("mwu.run_block.rounds_per_call", "rounds",
     ("ratio", "mwu.run_block.rounds", "calls:mwu.run_block")),
    ("baseline.advance.calls", "count", ("calls", "baseline.advance")),
    ("baseline.advance.self_s", "s", ("self_s", "baseline.advance")),
    ("baseline.evict_pass.calls", "count", ("calls", "baseline.evict_pass")),
    ("baseline.evict_pass.s", "s", ("s", "baseline.evict_pass")),
    ("baseline.evicted", "count", ("count", "baseline.evicted")),
    ("baseline.pool_max", "count", ("max", "baseline.pool_max")),
    ("hierarchy.process_block.calls", "count", ("calls", "hierarchy.process_block")),
    ("hierarchy.process_block.self_s", "s", ("self_s", "hierarchy.process_block")),
    ("hierarchy.days_per_call", "days",
     ("ratio", "hierarchy.process_block.days", "calls:hierarchy.process_block")),
    ("hierarchy.evict_pass.s", "s", ("s", "hierarchy.evict_pass")),
    ("hierarchy.audit_words.calls", "count", ("calls", "hierarchy.audit_words")),
    ("hierarchy.audit_words.s", "s", ("s", "hierarchy.audit_words")),
    ("meter.charge.calls", "count", ("calls", "meter.charge")),
    ("meter.release.calls", "count", ("calls", "meter.release")),
    ("meter.s", "s", ("s", "meter.charge", "meter.release")),
    ("bench.oracle_best_expert.s", "s", ("s", "bench.oracle_best_expert")),
    ("bench.trace_init.s", "s", ("s", "bench.trace_init")),
    ("bench.trace_record.s", "s", ("s", "bench.trace_record")),
    ("bench.trace_flush.s", "s", ("s", "bench.trace_flush")),
    ("bench.trace_bytes", "bytes", ("count", "bench.trace_bytes")),
    ("bench.check_pool.calls", "count", ("calls", "bench.check_pool")),
    ("bench.check_pool.s", "s", ("s", "bench.check_pool")),
    ("bench.check_memory.s", "s", ("s", "bench.check_memory")),
    ("bench.dump_stream.s", "s", ("setup", "bench.dump_stream")),
    ("bench.dump_bytes", "bytes", ("setup", "bench.dump_bytes")),
    ("op.self_s", "s", ("self_s", "op")),
]


def layer_metrics(tracer: Tracer, ops: int, needed_cells: int,
                  setup_reps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of ``ops`` traced operations (op ids 0..ops-1) and of
    ``setup_reps`` traced set-ups (op ids -1, -2, ...)."""
    a = tracer.arrays()
    by_name = {n: i for i, n in enumerate(tracer.names)}

    def select(name, op=None):
        mask = a["name"] == by_name.get(name, -1)
        return mask & (a["op"] >= 0 if op is None else a["op"] == op)

    def total(counter):
        if counter.startswith("calls:"):
            return float(select(counter[6:]).sum())
        if counter == "needed_cells":
            return float(needed_cells)
        return sum(v for (op, c), v in tracer.counts.items() if c == counter and op >= 0)

    def per_setup(name):
        reps = [setup_op(r) for r in range(setup_reps)]
        if name in by_name:
            return [a["duration"][select(name, op)].sum() for op in reps]
        return [tracer.counts.get((op, name), 0.0) for op in reps]

    out = {}
    for metric, unit, (kind, *args) in LAYER_METRICS:
        if kind == "calls":
            value = select(args[0]).sum() / ops
        elif kind == "s":
            value = sum(a["duration"][select(n)].sum() for n in args) / ops
        elif kind == "self_s":
            value = a["self"][select(args[0])].sum() / ops
        elif kind == "count":
            value = total(args[0]) / ops
        elif kind == "ratio":
            den = total(args[1])
            value = total(args[0]) / den if den else 0.0
        elif kind == "max":
            value = max((v for (op, c), v in tracer.maxima.items()
                         if c == args[0] and op >= 0), default=0.0)
        else:  # setup
            value = statistics.median(per_setup(args[0]))
        out[metric] = (float(value), unit)
    return out
