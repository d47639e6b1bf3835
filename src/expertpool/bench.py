"""Experiment runner and verification harness: wires oracles to learners,
computes exact regret against brute-force enumeration, runs the adaptive
game demonstration, and emits CSV traces and summary reports.

Everything in this module is evaluation machinery and stays outside the
learner's word meter.
"""

from __future__ import annotations

import errno
import math
import os
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path

import numpy as np

from .baseline import BaselineLearner, BaselineParams, pool_potential
from .hierarchy import HierarchyLearner, LevelState
from .meter import WordMeter
from .mwu import MwuState
from .streams import (GameOracle, LossOracle, StreamParams, check_int_list, check_keys,
                      check_number, check_object, check_path, check_present, make_oracle,
                      stream_builder)

__all__ = [
    "ExperimentConfig",
    "HindsightPass",
    "TrialResult",
    "oracle_best_expert",
    "run_experiment",
    "run_lowerbound_demo",
    "check_pool",
    "check_memory",
    "dump_stream",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ["day", "alg_loss_cum", "best_loss_cum", "regret",
                 "words_current", "words_peak", "pool_size"]

ENUMERATION_GUARD = 10**9
WINDOW_CELLS = 2**15  # cells per window of the stream pass and of dump_stream
TRACE_ROWS = 2**12  # trace rows formatted per write
# Each learner kind: (the parameter keys it reads, the keys it cannot do
# without). Trials build TRIAL_KINDS; the demo builds every kind but
# full-hierarchy, and only it builds the fixed strategies.
LEARNERS = {"mwu-full-memory": ((), ()), "baseline": (("eps", "B"), ()),
            "full-hierarchy": (("delta",), ()), "equilibrium": ((), ()),
            "fixed-uniform-subset": (("subset",), ("subset",))}
TRIAL_KINDS = ("mwu-full-memory", "baseline", "full-hierarchy")


def _window_days(n: int) -> int:
    """Days per window of all n experts: at most ``WINDOW_CELLS`` cells."""
    return max(1, WINDOW_CELLS // n)


class HindsightPass(LossOracle):
    """One in-order pass over an oblivious stream, serving the learner's
    queries and the regret oracle from the same reads.

    The stream is read in windows of all n experts, each exactly once. Every
    window is folded into the running totals and the per-day best cumulative
    loss so far: the totals are carried into its first row before its cumsum,
    so every sum is the same sequence of additions as one cumsum over the
    whole matrix. The cumsum runs only over the experts that can hold some
    day's minimum in the window, those whose first-day total is at most the
    smallest end-of-window total. A query that lies inside the last window read is answered
    by one ``take`` into a fresh array of its own, at most one window in size.
    Any other query is answered by ``take``-ing from the kept windows and the
    ones it makes the pass read into one C-contiguous answer buffer, which the
    next such query overwrites: every learner consumes a block before its next
    query, and a fresh megabyte-sized answer per block left glibc trimming and
    re-faulting the heap top every block. The last two windows
    read are kept, so repeated queries for the same days (the hierarchy's
    levels each ask for their bottom block) are served from them as long as
    those days span at most two windows; a query for days before them goes
    straight to the oracle. Memory is O(n + T) beyond those two windows and
    the largest answer. Every query is checked by ``_checked``, as the oracles' are.
    """

    def __init__(self, oracle: LossOracle):
        if isinstance(oracle, GameOracle):
            raise ValueError("best expert is undefined for an adaptive stream")
        if oracle.n * oracle.T > ENUMERATION_GUARD:
            raise ValueError(f"n*T = {oracle.n * oracle.T} exceeds the enumeration guard")
        super().__init__(oracle.params)
        self.oracle = oracle
        self.best_so_far = np.empty(self.T)
        self.read = 0  # the last day read
        self._days = _window_days(self.n)
        self._ids = np.arange(1, self.n + 1)
        self._run = np.zeros(self.n)
        self._cum = np.empty((min(self._days, self.T), self.n))
        # (first day, window) of the last two windows read, oldest first
        self._kept = [(1, np.empty((0, self.n)))]
        self._answer = np.empty(0)  # grown to the largest query

    def _read(self) -> None:
        """Read the next window and fold it into the totals and best column."""
        w0 = self.read + 1
        self.read = min(self.read + self._days, self.T)
        win = self.oracle.loss_block(w0, self.read, self._ids)
        self._kept = [self._kept[-1], (w0, win)]
        cum = self._cum[:len(win)]
        np.copyto(cum, win)
        cum[0] += self._run
        # at n >= 2 numpy reduces axis 0 a row at a time: the cumsum's last row
        ends = np.add.reduce(cum, axis=0)
        # losses are >= 0 and rounded addition is monotone, so an expert whose
        # first-day total exceeds the smallest end total leads on no day here
        lead = np.flatnonzero(cum[0] <= ends.min())
        if len(lead) < self.n:
            cum = cum.take(lead, axis=1)
        np.cumsum(cum, axis=0, out=cum)
        cum.min(axis=1, out=self.best_so_far[w0 - 1:self.read])
        self._run[:] = ends

    def loss_block(self, t0, t1, ids):
        cols = self._checked(t0, t1, ids) - 1
        w0, win = self._kept[-1]
        if w0 <= t0 <= t1 < w0 + len(win):
            return win[t0 - w0:t1 - w0 + 1].take(cols, axis=1)
        if t0 < self._kept[0][0]:  # behind the kept windows
            return self.oracle.loss_block(t0, t1, ids)
        size = (t1 - t0 + 1) * len(cols)
        if len(self._answer) < size:
            self._answer = np.empty(size)
        out = self._answer[:size].reshape(t1 - t0 + 1, len(cols))
        t = t0  # the first day not yet served
        # each window is served as soon as it is read, while it is in cache
        while True:
            for w0, win in self._kept:
                b = min(t1, w0 + len(win) - 1)
                if w0 <= t <= b:
                    win[t - w0:b - w0 + 1].take(cols, axis=1, out=out[t - t0:b - t0 + 1])
                    t = b + 1
            if t > t1:
                return out
            self._read()

    def best(self, t0: int, t1: int) -> np.ndarray:
        """The best cumulative loss so far on each of days t0..t1."""
        while self.read < t1:
            self._read()
        return self.best_so_far[t0 - 1:t1]

    def finish(self) -> tuple[int, float]:
        """Read the rest of the stream; the best expert in hindsight (ties to
        the lowest id) and its total."""
        self.best(self.T, self.T)
        best = int(np.argmin(self._run)) + 1
        return best, float(self._run[best - 1])


def oracle_best_expert(oracle: LossOracle) -> tuple[int, float]:
    """Best expert in hindsight by full enumeration, ties to the lowest id."""
    return HindsightPass(oracle).finish()


# ---------------------------------------------------------------------------
# Invariant checks
# ---------------------------------------------------------------------------

def check_pool(entries, threshold: float, cap: int, raw: bool = True) -> list[str]:
    """Post-eviction pool invariants; returns human-readable violations.

    Checks the size cap and pairwise domination-freedom. When the averages are
    on the raw [0, 1] scale (``raw``, the baseline's pool, whose threshold is
    its eps), it also checks the potential increase and the loss-vs-length
    dichotomy at alpha = eps/2; a hierarchy level's truncated-loss pool passes
    ``raw=False``.
    """
    bad: list[str] = []
    if len(entries) > cap:
        bad.append(f"pool size {len(entries)} exceeds cap {cap}")
    alphas = [e.alpha for e in entries]
    if len(set(alphas)) != len(alphas):
        bad.append(f"duplicate entry epochs {alphas}")
    if len(entries) < 2:  # every other check is over pairs of entries
        return bad
    for yi in range(1, len(entries)):
        young = entries[yi]
        bar = young.average + threshold
        for older in entries[:yi]:
            cross = older.average_over(young)
            if not cross > bar:
                bad.append(
                    f"domination: expert {older.id} over expert {young.id}'s "
                    f"interval averages {cross:.6g} <= {young.average:.6g} + {threshold:.6g}"
                )
    if not raw:
        return bad
    phi = pool_potential(entries)
    for a, b in zip(phi, phi[1:]):
        if b - a < threshold - 1e-9:
            bad.append(f"potential increase {b - a:.6g} below {threshold:.6g}")
    half = threshold / 2.0
    growth = 1.0 + half / (1.0 - half)
    for yi in range(1, len(entries)):
        young = entries[yi]
        loss_bar = young.average + half - 1e-9
        length_bar = growth * young.count - 1e-9
        for older in entries[:yi]:
            if not (older.average >= loss_bar or older.count >= length_bar):
                bad.append(f"dichotomy: experts ({older.id}, {young.id}) violate "
                           f"both loss and length conditions")
    return bad


def check_memory(learner) -> list[str]:
    """Meter audit of any learner: its metered words against the words
    ``audit_words`` recomputes from live state."""
    audit = learner.audit_words()
    if audit != learner.meter.current:
        return [f"meter {learner.meter.current} != audited {audit} words "
                f"at day {learner.day}"]
    return []


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

class TraceWriter:
    """Per-day CSV trace with exact regret against the enumerated best expert,
    whose per-day column the trial's stream pass supplies.

    Rows are written as they are recorded, to a temporary file beside
    ``path``; ``flush`` renames it to ``path`` and ``discard`` deletes it.
    """

    def __init__(self, path: Path, stream: HindsightPass):
        self.stream = stream
        self.path = path
        self.alg_cum = 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        self.partial = path.with_name(path.name + ".tmp")
        self.out = open(self.partial, "w", newline="")
        self.out.write(",".join(TRACE_COLUMNS) + "\r\n")

    def record(self, t0: int, realized: np.ndarray, meter: WordMeter,
               pool_size: int) -> None:
        # seeded like the per-day running sum, so every partial sum is the same
        alg = np.array(realized, dtype=np.float64)
        alg[0] += self.alg_cum
        np.cumsum(alg, out=alg)
        self.alg_cum = float(alg[-1])
        best = self.stream.best(t0, t0 - 1 + len(alg))
        # the words and pool columns are read once per block, after it
        tail = np.frombuffer(f"{meter.current},{meter.peak},{pool_size}\r\n".encode(),
                             np.uint8)
        # a slice at a time: a block can be a whole baseline epoch, up to the horizon
        for s in range(0, len(alg), TRACE_ROWS):
            a, b = alg[s:s + TRACE_ROWS], best[s:s + TRACE_ROWS]
            rows = np.concatenate([_int_fields(range(t0 + s, t0 + s + len(a))).view(np.uint8),
                                   _cells(a), _cells(b), _cells(a - b),
                                   np.broadcast_to(tail, (len(a), len(tail)))], axis=1)
            self.out.write(rows.tobytes().translate(None, b" ").decode("ascii"))

    def flush(self) -> None:
        """Close the trace and move it to ``path``."""
        self.out.close()
        os.replace(self.partial, self.path)

    def discard(self) -> None:
        """Close the trace and delete it, unless ``flush`` has moved it."""
        self.out.close()
        self.partial.unlink(missing_ok=True)


def _fields(fmt: str, values, width: int) -> np.ndarray:
    """``fmt``, which prints a value blank-padded to ``width`` bytes, applied
    to every value in one ``%``: one row per value, of unsigned ints."""
    item = min(width, 8)  # width is 2, 4 or a multiple of 8
    text = (fmt * len(values)) % tuple(values)
    return np.frombuffer(text.encode("ascii"), dtype=f"u{item}").reshape(-1, width // item)


def _int_fields(values: range) -> np.ndarray:
    """A range of ints as ``_fields``, each ending in ","; the width fits."""
    chars = max(len(str(values[0])), len(str(values[-1]))) + 1
    width = 2 if chars <= 2 else 4 if chars <= 4 else -(-chars // 8) * 8
    return _fields(f"%-{width - 1}d,", values, width)


def _cells(values: np.ndarray) -> np.ndarray:
    """The ``.12g`` text of each C-contiguous float64 in ``values``, blank-padded
    and ending in ",": one row of bytes per value, in C order.

    The values are codes into a table of fields, which one ``take`` gathers.
    Integers below 1e12 in magnitude, none -0.0, spanning fewer values than
    there are, are coded by value range into a ``%d`` table (``.12g`` prints
    them so); any others by ``np.unique`` of their bits (-0.0 keeps its string).
    """
    values = values.reshape(-1)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the round trip
        ints = values.astype(np.int64)
    lo, hi = int(ints.min()), int(ints.max())
    # bit for bit, so -0.0, fractions and |x| >= 2^63 fail it too
    if (-1e12 < lo and hi < 1e12 and hi - lo + 1 < values.size
            and np.array_equal(ints.astype(float).view("u8"), values.view("u8"))):
        table, codes = _int_fields(range(lo, hi + 1)), ints - lo
    else:
        keys, codes = np.unique(values.view(np.uint64), return_inverse=True)
        # the longest .12g text has 19 characters
        table = _fields("%-23.12g,", keys.view(np.float64).tolist(), 24)
    return table.take(codes.reshape(-1), axis=0).view(np.uint8)


def dump_stream(oracle: LossOracle, path: Path) -> None:
    """Write the full loss matrix in the csv-file oracle schema, one window of
    days at a time, as the csv writer with ``.12g`` would.

    A window's rows are its day fields and its ``_cells``; dropping the blanks
    leaves its CSV bytes.
    The file is written beside ``path`` and renamed to it when complete, so an
    error leaves ``path`` as it was; a directory at ``path`` is refused first.
    """
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    ids = np.arange(1, oracle.n + 1)
    days = _window_days(oracle.n)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(path.name + ".tmp")
    try:
        with open(partial, "wb") as fh:
            fh.write(",".join(["t"] + [f"e{i}" for i in ids]).encode() + b"\r\n")
            for t0 in range(1, oracle.T + 1, days):
                t1 = min(t0 + days - 1, oracle.T)
                window = np.ascontiguousarray(oracle.loss_block(t0, t1, ids),
                                              dtype=np.float64)
                rows = np.concatenate([_int_fields(range(t0, t1 + 1)).view(np.uint8),
                                       _cells(window).reshape(len(window), -1),
                                       np.full((len(window), 1), ord("\n"), np.uint8)],
                                      axis=1)
                rows[:, -2] = ord("\r")  # over the last field's ","
                fh.write(rows.tobytes().translate(None, b" "))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)  # a no-op once renamed


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    learner: str  # one of TRIAL_KINDS
    n: int
    T: int
    stream: dict
    trials: list[int] = field(default_factory=lambda: [0])
    learner_params: dict = field(default_factory=dict)
    output: str | None = None
    checks: str = "epoch"  # one of CHECK_LEVELS
    CHECK_LEVELS = ("off", "epoch", "paranoid")  # not a field: it has no annotation

    def __post_init__(self):
        if self.learner not in TRIAL_KINDS:
            raise ValueError(f"unknown learner {self.learner!r}")
        check_int_list("trials", self.trials)
        check_object("learner-params", self.learner_params)
        check_keys(f"{self.learner} learner-params", self.learner_params,
                   LEARNERS[self.learner][0])  # no trial kind needs a key
        if self.output is not None:
            check_path("output", self.output)
        if self.checks not in self.CHECK_LEVELS:
            raise ValueError(f"unknown check level {self.checks!r}")
        for seed in self.trials:  # the checks every trial's stream makes
            StreamParams(self.n, self.T, seed)
        stream_builder(self.stream)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config whose keys are the field names, with "-" for "_"."""
        names = {f.name.replace("_", "-"): f.name for f in fields(cls)}
        check_keys("config keys", d, names)
        check_present("config", d, ("learner", "n", "T", "stream"))
        return cls(**{names[k]: v for k, v in d.items()})


@dataclass
class TrialResult:
    seed: int
    regret: float
    cumulative_loss: float
    best_total: float
    peak_words: int
    violations: list[str]
    trace_path: str | None = None


class _FullMemoryLearner:
    """Exponential weights over all n experts, stepped like the pool learners:
    ``next_block`` plays at most one stream-pass window of days, or at most
    ``days`` days, so no block it reads is more than a window in size."""

    def __init__(self, n: int, T: int, seed: int | np.random.SeedSequence):
        self.state = MwuState(n, horizon=T)
        self.ids = np.arange(1, n + 1)
        self.meter = WordMeter()
        self.meter.charge("mwu", n + 4)
        self.rng = np.random.default_rng(seed)
        self.T = T
        self.pool_size = n
        self.day = 0

    def next_block(self, oracle: LossOracle, days: int | None = None
                   ) -> tuple[int, np.ndarray, np.ndarray]:
        t0 = self.day + 1
        t1 = min(self.day + (_window_days(len(self.ids)) if days is None else days), self.T)
        losses = oracle.loss_block(t0, t1, self.ids)
        picks = self.state.run_block(losses, self.rng)
        realized = losses[np.arange(len(losses)), picks]
        self.day = t1
        return t0, realized, picks + 1

    def commit_distribution(self) -> np.ndarray:
        return self.state.distribution()

    def audit_words(self) -> int:
        return len(self.state.cum) + 4

    @property
    def word_cap(self) -> int:
        return len(self.ids) + 4


def _make_learner(kind: str, spec: dict, n: int, T: int, seed: int | np.random.SeedSequence,
                  on_epoch_close=None, game: GameOracle | None = None):
    """A ``kind`` learner over n experts and T days, reading only the ``spec``
    keys its ``LEARNERS`` entry names; every pool gets ``on_epoch_close``, and
    a fixed strategy of the demo plays against ``game``."""
    if kind == "baseline":
        p = BaselineParams(n, T, spec.get("eps", 0.1), spec.get("B"), seed)
        return BaselineLearner(p, on_epoch_close=on_epoch_close)
    if kind == "full-hierarchy":
        return HierarchyLearner(n, T, spec.get("delta", 1.0), seed, on_epoch_close)
    if kind == "equilibrium":
        return _FixedLearner(game.game.equilibrium())
    if kind == "fixed-uniform-subset":
        check_int_list("subset", spec["subset"])
        ids = np.asarray(spec["subset"])
        if not np.all((ids >= 1) & (ids <= n)):
            raise ValueError(f"subset ids {spec['subset']} must be integers in [1, {n}]")
        values, counts = np.unique(ids, return_counts=True)
        if counts.max() > 1:  # uniform play would weigh the repeat twice
            raise ValueError(f"subset {spec['subset']} repeats id {values[counts > 1][0]}")
        p = np.zeros(n)
        p[ids - 1] = 1.0 / len(ids)
        return _FixedLearner(p)
    return _FullMemoryLearner(n, T, seed)


def _check_closed_pool(violations: list[str], level) -> None:
    """``check_pool`` after an epoch close of any pool (the baseline's, or a
    hierarchy level's), into ``violations``."""
    if isinstance(level, LevelState):
        violations.extend(check_pool(level.entries, level.lp.theta,
                                     level.lp.pool_cap, raw=False))
    else:
        p = level.params
        violations.extend(check_pool(level.entries, p.eps, p.pool_cap))


def _run_trial(config: ExperimentConfig, seed: int, learner, stream: HindsightPass,
               trace: TraceWriter | None, violations: list[str]) -> TrialResult:
    """Play blocks to the horizon, totalling the realized losses block by
    block, then keep the trace. With checks on, the meter is audited after
    every block and the peak is checked against the learner's word cap at the
    end; paranoid checks play the baseline in one-day blocks."""
    checks = config.checks != "off"
    one_day = config.checks == "paranoid" and config.learner == "baseline"
    loss = 0.0
    while learner.day < config.T:
        t0, realized, _ = (learner.next_block(stream, 1) if one_day
                           else learner.next_block(stream))
        loss += float(np.add.reduce(realized))
        if checks:
            violations.extend(check_memory(learner))
        if trace is not None:
            trace.record(t0, realized, learner.meter, learner.pool_size)
    if checks and learner.meter.peak > learner.word_cap:
        violations.append(f"metered peak of {learner.meter.peak} words exceeds cap "
                          f"{learner.word_cap}")
    _, best_total = stream.finish()
    if trace is not None:
        trace.flush()
    return TrialResult(seed, loss - best_total, loss, best_total, learner.meter.peak,
                       violations, None if trace is None else str(trace.path))


def _aborted(seed: int, exc: Exception) -> TrialResult:
    return TrialResult(seed, math.nan, math.nan, math.nan, 0,
                       [f"trial aborted: {type(exc).__name__}: {exc}"])


def run_experiment(config: ExperimentConfig) -> list[TrialResult]:
    """One deterministic run per seed; optional CSV traces and invariants.

    Each trial reads its stream once, through one ``HindsightPass`` that
    serves the learner's queries, the trace's best column and the regret.
    Only an input error met while a trial is built, or an I/O error of its
    trace, aborts the trial; the others run on, and any other error propagates.
    A trial's trace is written as it runs and kept only if the trial ends.
    """
    results: list[TrialResult] = []
    for seed in config.trials:
        violations: list[str] = []
        hook = partial(_check_closed_pool, violations) if config.checks != "off" else None
        try:  # one bad trial must not sink the rest
            stream = HindsightPass(make_oracle(StreamParams(config.n, config.T, seed=seed),
                                               config.stream))
            learner = _make_learner(config.learner, config.learner_params, config.n,
                                    config.T, seed, hook)
            trace = (None if config.output is None else
                     TraceWriter(Path(config.output) / f"trace_seed{seed}.csv", stream))
        except (ValueError, OSError) as exc:
            results.append(_aborted(seed, exc))
            continue
        try:
            results.append(_run_trial(config, seed, learner, stream, trace, violations))
        except OSError as exc:  # the trace's writes or rename
            results.append(_aborted(seed, exc))
        finally:
            if trace is not None:
                trace.discard()  # a no-op once flushed
    return results


def summarize(results: list[TrialResult]) -> dict:
    regrets = [r.regret for r in results if not math.isnan(r.regret)]
    summary = {
        "trials": len(results),
        "violations": sum(len(r.violations) for r in results),
        "peak_words_max": max((r.peak_words for r in results), default=0),
    }
    if regrets:
        summary.update(
            regret_mean=float(np.mean(regrets)),
            regret_max=float(np.max(regrets)),
            regret_p99=float(np.percentile(regrets, 99)),
        )
    return summary


# ---------------------------------------------------------------------------
# Adaptive-adversary demonstration
# ---------------------------------------------------------------------------

class _FixedLearner:
    """A fixed mixed strategy, which reads no losses."""

    def __init__(self, p: np.ndarray):
        self.p = p

    def commit_distribution(self) -> np.ndarray:
        return self.p

    def next_block(self, oracle: LossOracle, days: int | None = None) -> None:
        pass


@dataclass
class DemoResult:
    seed: int
    support: tuple[int, ...]
    avg_raw_loss: float
    thresholds: dict[str, float]


def run_lowerbound_demo(n: int, epsilon_prime: float, rounds: int,
                        learner_spec: dict, seeds: list[int]) -> list[DemoResult]:
    """Repeated play against the best-responding column player.

    Each round the learner commits its exact mixed strategy
    (``commit_distribution``), the column player best-responds, and the learner
    plays that day (``next_block(oracle, 1)``). Reported losses are on the raw
    [0, 4] scale for direct comparison with the 1/k thresholds.
    """
    check_int_list("seeds", seeds)
    games = [StreamParams(n, rounds, seed) for seed in seeds]  # all checked before play
    check_number("eps-prime", epsilon_prime)
    # above 1/2 the support would be under 2; compared first, as a huge int
    # eps-prime has no float
    if not (0 < epsilon_prime <= 0.5 and math.isfinite(1.0 / (2.0 * epsilon_prime))):
        raise ValueError(f"eps-prime must lie in (0, 1/2] with 1/(2 eps-prime) finite, "
                         f"got {epsilon_prime}")
    check_object("demo learner", learner_spec)
    kind = learner_spec.get("kind", "mwu-full-memory")
    if kind == "full-hierarchy":
        raise ValueError("demo-lb cannot play full-hierarchy: it reads a whole bottom "
                         "epoch ahead and commits no distribution")
    if kind not in list(LEARNERS):  # list(): a JSON list is unhashable
        raise ValueError(f"unknown demo learner {kind!r}")
    keys, needs = LEARNERS[kind]
    check_keys(f"{kind} demo learner keys", learner_spec, ("kind", *keys))
    check_present(f"{kind} demo learner", learner_spec, needs)
    k = round(1.0 / (2.0 * epsilon_prime))
    if k < 2 or k > n:
        raise ValueError(f"support size k={k} outside [2, {n}]")
    out: list[DemoResult] = []
    for seed, params in zip(seeds, games):
        oracle = GameOracle(params, k=k)
        coins = np.random.SeedSequence(seed).spawn(1)[0]  # apart from the game's draws
        learner = _make_learner(kind, learner_spec, n, rounds, coins, game=oracle)
        total = 0.0
        for _ in range(rounds):
            p = learner.commit_distribution()
            y, _ = oracle.adversary_step(p)
            total += float(p @ oracle.game.column(y))
            learner.next_block(oracle, 1)
        out.append(DemoResult(
            seed=seed,
            support=tuple(sorted(oracle.game.S)),
            avg_raw_loss=total / rounds,
            thresholds={
                "minmax": 1.0 / k,
                "approx": 3.0 / (2.0 * k),
                "uncovered": 19.0 / (10.0 * k),
            },
        ))
    return out
