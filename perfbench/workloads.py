"""The benchmark's workloads: inputs derived from a seed, set-up, and one
closed-loop operation each, driven only through the program's public entry
points (``run_experiment``, ``dump_stream`` and ``make_oracle``).

Every operation input is drawn from a fixed pool per workload, and the pool is
visited in an order shuffled by the workload seed. ``references.json`` holds
the outputs of every pool input, so each operation of any seed is checked
exactly.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Fixture of the csv-file replay stream: a Bernoulli stream written by
# dump_stream during set-up, as the acceptance sweep's fixture is.
FIXTURE_SEED = 99
FIXTURE_STREAM = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}

SWEEP_STREAMS = {
    "iid-bernoulli": {"generator": "iid-bernoulli", "mean-range": [0.4, 0.6],
                      "overrides": {"1": 0.3}},
    "epoch-spoiler": {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.2,
                      "decoy-loss": 0.05, "epoch-length": 1000},
    "csv-file": {"generator": "csv-file"},  # path filled in per run
}
# The acceptance sweep's six configs, in the order one cycle visits them.
SWEEP_CONFIGS = [(eps, stream) for eps in (0.1, 0.2) for stream in SWEEP_STREAMS]

HIERARCHY_STREAM = SWEEP_STREAMS["iid-bernoulli"]

SIZES = {
    "sweep": {"full": {"n": 128, "T": 100_000}, "smoke": {"n": 128, "T": 2_000}},
    "hierarchy": {"full": {"n": 16, "T": 65_536}, "smoke": {"n": 16, "T": 16_384}},
}
POOL = {"sweep": 8, "hierarchy": 16}
SETUP_REPS = 3


@dataclass
class OpResult:
    seconds: float
    days: int  # learner days completed
    outputs: dict  # compared against the reference of the input
    problems: list[str]  # violations reported by the program itself
    needed_cells: int  # n*T of the operation's trial


@dataclass
class Context:
    """What one run of a workload shares between set-up and operations."""

    ep: object  # the expertpool package
    size: str
    workdir: Path
    tracer: object = None  # set while a traced operation runs

    @property
    def fixture(self) -> Path:
        return self.workdir / f"fixture-{self.size}.csv"

    def call(self, fn):
        """(fn(), seconds); while tracing, the call is the operation's root span."""
        span = self.tracer.open("op") if self.tracer is not None else None
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            seconds = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
        return result, seconds


@dataclass
class Workload:
    cycle: int  # operations per cycle; a run measures whole cycles
    op_input: Callable[[str, int], dict]  # (size, pool index) -> input
    run_op: Callable[[Context, dict], OpResult]
    setup_fixture: Callable[[Context], None]


def pool_order(workload: str, seed: int) -> list[int]:
    """Seeded visiting order of the workload's input pool."""
    order = list(range(POOL[workload]))
    random.Random(seed).shuffle(order)
    return order


def input_for(wl: Workload, size: str, order: list[int], i: int) -> dict:
    """Input of operation i: cycle position i % cycle, pool entry by cycle."""
    return wl.op_input(size, order[(i // wl.cycle) % len(order)] * wl.cycle + i % wl.cycle)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# -- sweep --------------------------------------------------------------------

def _sweep_input(size: str, k: int) -> dict:
    eps, stream = SWEEP_CONFIGS[k % len(SWEEP_CONFIGS)]
    trial = k // len(SWEEP_CONFIGS)
    return {"key": f"eps={eps},stream={stream},trial={trial}", "size": size,
            "eps": eps, "stream": stream, "trial": trial}


def _sweep_setup(ctx: Context) -> None:
    dims = SIZES["sweep"][ctx.size]
    oracle = ctx.ep.streams.make_oracle(
        ctx.ep.streams.StreamParams(dims["n"], dims["T"], seed=FIXTURE_SEED),
        FIXTURE_STREAM)
    ctx.ep.bench.dump_stream(oracle, ctx.fixture)


def _sweep_op(ctx: Context, inp: dict) -> OpResult:
    dims = SIZES["sweep"][inp["size"]]
    stream = dict(SWEEP_STREAMS[inp["stream"]])
    if stream["generator"] == "csv-file":
        # the smoke warm-up replays the first rows of the full-size fixture
        stream["path"] = str(ctx.fixture)
    out = ctx.workdir / "traces"
    config = ctx.ep.bench.ExperimentConfig.from_dict({
        "learner": "baseline", "n": dims["n"], "T": dims["T"], "stream": stream,
        "learner-params": {"eps": inp["eps"]}, "trials": [inp["trial"]],
        "output": str(out), "checks": "epoch",
    })
    (r,), seconds = ctx.call(lambda: ctx.ep.bench.run_experiment(config))
    outputs = {"regret": r.regret, "cumulative_loss": r.cumulative_loss,
               "peak_words": r.peak_words, "trace_sha256": None}
    if r.trace_path is not None:
        trace = Path(r.trace_path)
        outputs["trace_sha256"] = _sha256(trace)
        trace.unlink()
    return OpResult(seconds, dims["T"], outputs, list(r.violations),
                    dims["n"] * dims["T"])


# -- hierarchy ----------------------------------------------------------------

def _hierarchy_input(size: str, k: int) -> dict:
    return {"key": f"trial={k}", "size": size, "trial": k}


def _hierarchy_op(ctx: Context, inp: dict) -> OpResult:
    dims = SIZES["hierarchy"][inp["size"]]
    config = ctx.ep.bench.ExperimentConfig.from_dict({
        "learner": "full-hierarchy", "n": dims["n"], "T": dims["T"],
        "stream": HIERARCHY_STREAM, "learner-params": {"delta": 0.5},
        "trials": [inp["trial"]], "checks": "epoch",
    })
    (r,), seconds = ctx.call(lambda: ctx.ep.bench.run_experiment(config))
    outputs = {"regret": r.regret, "cumulative_loss": r.cumulative_loss,
               "peak_words": r.peak_words}
    return OpResult(seconds, dims["T"], outputs, list(r.violations),
                    dims["n"] * dims["T"])


WORKLOADS = {
    "sweep": Workload(len(SWEEP_CONFIGS), _sweep_input, _sweep_op, _sweep_setup),
    "hierarchy": Workload(1, _hierarchy_input, _hierarchy_op, lambda ctx: None),
}


def compare(reference: dict | None, outputs: dict) -> list[str]:
    """Differences between an operation's outputs and its reference."""
    if reference is None:
        return ["no reference for this input"]
    diffs = []
    for name in sorted(set(reference) | set(outputs)):
        want, got = reference.get(name), outputs.get(name)
        if isinstance(want, float) and isinstance(got, float):
            # traces pin the bytes; the scalars allow for summation order only
            same = abs(want - got) <= 1e-9 * max(1.0, abs(want))
        else:
            same = want == got
        if not same:
            diffs.append(f"{name}: got {got!r}, reference {want!r}")
    return diffs
