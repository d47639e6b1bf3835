"""Benchmark of the expertpool program: runs one workload as a closed loop
(one client in one process; the next operation starts when the previous one
returns), checks every operation's outputs against recorded references and
prints its metrics, one per line with its unit, then one JSON line.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs each operation once untraced and once traced, prints the
per-layer metrics derived from the traced spans and the tracing overhead,
and writes the spans to ``.bench_out/``. ``--size smoke`` runs the small
inputs the benchmark's own tests use. The exit code is 0 only if every
operation matched its reference and reported no violation.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer, layer_metrics, setup_op  # noqa: E402
from workloads import (  # noqa: E402
    SETUP_REPS, WORKLOADS, Context, compare, input_for, pool_order)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT = ROOT / ".bench_out"


class ProgramMissing(Exception):
    pass


def load_program():
    """Import expertpool from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "expertpool" / "__init__.py").is_file():
        raise ProgramMissing(f"no program source at {src / 'expertpool'}")
    sys.path.insert(0, str(src))
    ep = importlib.import_module("expertpool")
    if Path(ep.__file__).resolve().parent != (src / "expertpool").resolve():
        raise ProgramMissing(f"expertpool imported from {ep.__file__}, not {src}")
    return ep


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def _checked(wl, ctx, inp, refs) -> dict:
    """Run one operation and compare it with its reference."""
    record = {"key": inp["key"], "size": inp["size"]}
    try:
        res = wl.run_op(ctx, inp)
    except Exception:  # one failing operation must not stop the run
        record.update(ok=False, error=traceback.format_exc())
        return record
    diffs = compare(refs[inp["size"]].get(inp["key"]), res.outputs)
    record.update(seconds=res.seconds, days=res.days, needed_cells=res.needed_cells,
                  outputs=res.outputs, problems=res.problems, diffs=diffs,
                  ok=not diffs and not res.problems)
    return record


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Measure one workload; returns the metrics and every operation record."""
    ep = load_program()
    refs = json.loads(REFERENCES.read_text())["workloads"][workload]
    wl = WORKLOADS[workload]
    order = pool_order(workload, seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(ep, size, workdir)
    tracer = Tracer() if trace else None
    records: list[dict] = []
    try:
        # Set-up: write the fixture, then warm up on one smoke cycle.
        setup_times = []
        for rep in range(SETUP_REPS):
            if tracer is not None:
                tracer.install(ep)
                tracer.op_id = setup_op(rep)
            t0 = time.perf_counter()
            wl.setup_fixture(ctx)
            for j in range(wl.cycle):
                inp = input_for(wl, "smoke", order, rep * wl.cycle + j)
                records.append(_checked(wl, ctx, inp, refs) | {"phase": "setup"})
            setup_times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()

        # Measurement: as many whole cycles as fit in ``seconds``, at least
        # one; a cycle is not started if, at the mean cycle time so far, it
        # would end after ``seconds``.
        overheads = []
        start = time.perf_counter()
        i = 0
        while True:
            inp = input_for(wl, size, order, i)
            if tracer is None:
                records.append(_checked(wl, ctx, inp, refs) | {"phase": "op"})
            else:
                # alternate which side of the pair runs first
                pair = {}
                for traced in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced:
                        tracer.install(ep)
                        tracer.op_id, ctx.tracer = i, tracer
                    try:
                        pair[traced] = _checked(wl, ctx, inp, refs) | {
                            "phase": "traced" if traced else "untraced"}
                    finally:
                        ctx.tracer = None
                        tracer.uninstall()
                records.extend(pair.values())
                if pair[True]["ok"] and pair[False]["ok"]:
                    overheads.append(pair[True]["seconds"] - pair[False]["seconds"])
            i += 1
            if i % wl.cycle == 0:
                elapsed = time.perf_counter() - start
                if elapsed * (i + wl.cycle) / i > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [r for r in records if r["phase"] in ("op", "traced") and "seconds" in r]
    result = {"workload": workload, "seed": seed, "size": size, "trace": int(trace),
              "environment": environment(), "records": records,
              "attempted": len(records),
              "failed": sum(not r["ok"] for r in records)}
    if tracer is None:
        result["metrics"] = _end_to_end(ops, setup_times)
        result["extra"] = _quality(ops, result)
    else:
        metrics = layer_metrics(tracer, i, sum(r["needed_cells"] for r in ops),
                                SETUP_REPS)
        metrics["trace.overhead_s"] = (
            statistics.median(overheads) if overheads else 0.0, "s")
        result["metrics"] = metrics
        result["tracer"] = tracer
    return result


def _end_to_end(ops: list[dict], setup_times: list[float]) -> dict:
    times = [r["seconds"] for r in ops]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "trial_s.p50": (statistics.median(times) if times else 0.0, "s"),
        # median over operations, like trial_s.p50, so that one operation
        # slowed by the host does not move it
        "days_per_s": (statistics.median(r["days"] / r["seconds"] for r in ops)
                       if ops else 0.0, "days/s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _quality(ops: list[dict], result: dict) -> dict:
    """The paper's own metrics and the failure share, printed alongside."""
    out = {"failed_share": (result["failed"] / result["attempted"], "share")}
    if ops:
        out["regret.mean"] = (statistics.fmean(r["outputs"]["regret"] for r in ops), "loss")
        out["peak_words.max"] = (max(r["outputs"]["peak_words"] for r in ops), "words")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (ProgramMissing, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    OUT.mkdir(exist_ok=True)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write(OUT / f"{tag}.spans.npz")
    ops = sum(r["phase"] in ("op", "traced") for r in result["records"])
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"trace {args.trace}: {ops} measured operations, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for r in result["records"]:
        if not r["ok"]:
            print(f"FAILED {r['phase']} {r['key']}: "
                  f"{r.get('error') or '; '.join(r['problems'] + r['diffs'])}")
    shown = result["metrics"] | result.get("extra", {})
    for name, (value, unit) in shown.items():
        note = f" ({ops} operations)" if name == "trial_s.p50" else ""
        print(f"metric {name} = {value!r} {unit}{note}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    (OUT / f"{tag}.json").write_text(json.dumps(result | {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()}},
        indent=1, default=str))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
