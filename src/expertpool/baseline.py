"""Epoch-structured pool learner: uniform sampling of fresh experts, a
per-epoch exponential-weights run over the pool, best-of-sample retention and
the age-respecting domination eviction rule, with triangular interval-loss
bookkeeping (each older entry tracks its average over every younger entry's
residence interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .meter import WordMeter
from .mwu import MwuState
from .streams import LossOracle

__all__ = [
    "BaselineParams",
    "IntervalAccumulator",
    "PoolEntry",
    "Pool",
    "Epoch",
    "BaselineLearner",
    "best_of_sample",
    "evict_pass",
    "pool_potential",
    "default_epoch_length",
]

EVICT_GUARD = 1e-12


def default_epoch_length(n: int, T: int, eps: float) -> int:
    """Epoch length balancing the sampling and MWU regret terms."""
    return int(min(max(round((T / (eps**2 * n)) ** (2.0 / 3.0)), 1), T))


@dataclass(frozen=True)
class BaselineParams:
    n: int
    T: int
    eps: float
    B: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.T < 1:
            raise ValueError(f"need T >= 1, got {self.T}")
        # the upper end is inclusive so the hierarchy's eps = n^(-delta/2)
        # is admissible at n = 4, delta = 1
        if not 0.0 < self.eps <= 0.5:
            raise ValueError(f"eviction threshold must lie in (0, 1/2], got {self.eps}")
        if self.B is None:
            object.__setattr__(self, "B", default_epoch_length(self.n, self.T, self.eps))
        if not 1 <= self.B <= self.T:
            raise ValueError(f"epoch length {self.B} outside [1, {self.T}]")

    @property
    def sample_size(self) -> int:
        return min(math.ceil(self.eps**-2), self.n)

    @property
    def pool_cap(self) -> int:
        """Post-eviction bound on the persistent pool size."""
        return math.ceil(4.0 / self.eps * math.log(self.T))


@dataclass
class IntervalAccumulator:
    """Running sum and count of per-epoch average losses."""

    sum: float = 0.0
    count: int = 0

    def add(self, value: float) -> None:
        self.sum += value
        self.count += 1

    @property
    def average(self) -> float:
        if self.count == 0:
            raise ValueError("average of an empty interval")
        return self.sum / self.count


@dataclass
class PoolEntry:
    """A persistent pool member and its triangular loss table.

    ``cross`` holds this (older) expert's accumulator over the residence
    interval of each strictly younger pool member, keyed by that member's id.
    """

    id: int
    alpha: int
    own: IntervalAccumulator = field(default_factory=IntervalAccumulator)
    cross: dict[int, IntervalAccumulator] = field(default_factory=dict)

    @property
    def words(self) -> int:
        # id + entry epoch + own (sum, count) + 2 per cross accumulator
        return 4 + 2 * len(self.cross)


def best_of_sample(epoch_avgs: dict[int, float]) -> int:
    """The sampled expert with minimum epoch-average loss, ties to lowest id."""
    if not epoch_avgs:
        raise ValueError("empty sample")
    return min(epoch_avgs, key=lambda i: (epoch_avgs[i], i))


def evict_pass(entries: list[PoolEntry], threshold: float) -> tuple[list[PoolEntry], list[PoolEntry]]:
    """One domination pass against the pre-pass snapshot.

    Entry i is evicted iff some strictly older j has, over i's own interval,
    an average no more than ``threshold`` above i's. All comparisons read the
    snapshot, so an entry evicted in this pass can still evict younger ones.
    Returns (survivors, evicted); survivors' cross tables are pruned of
    references to evicted entries.
    """
    survivors: list[PoolEntry] = []
    evicted: list[PoolEntry] = []
    for idx, entry in enumerate(entries):
        doomed = False
        own_avg = entry.own.average
        for older in entries[:idx]:
            if own_avg >= older.cross[entry.id].average - threshold - EVICT_GUARD:
                doomed = True
                break
        (evicted if doomed else survivors).append(entry)
    if evicted:
        gone = {e.id for e in evicted}
        for entry in survivors:
            for dead in gone & entry.cross.keys():
                del entry.cross[dead]
    return survivors, evicted


def pool_potential(entries: list[PoolEntry]) -> list[float]:
    """Potential 2*ln|interval| + own-average per entry, youngest first.

    Consecutive differences are at least the eviction threshold for any pool
    that survived an eviction pass.
    """
    return [2.0 * math.log(e.own.count) + e.own.average for e in reversed(entries)]


class Pool:
    """Persistent entries (oldest first) and their ``pool`` words: the one pool
    procedure of the baseline and of every hierarchy level."""

    def __init__(self, meter: WordMeter):
        self.meter = meter
        self.entries: list[PoolEntry] = []

    @property
    def words(self) -> int:
        return sum(e.words for e in self.entries)

    def draw(self, rng: np.random.Generator, n: int, size: int,
             full: bool) -> tuple[list[int], list[int]]:
        """An epoch's members and fresh ids, sampled for full epochs or an empty
        pool; the pool copy wins on collisions."""
        pool_ids = [e.id for e in self.entries]
        r_ids = []
        if full or not pool_ids:
            drawn = (rng.choice(n, size=size, replace=False) + 1).tolist()
            in_pool = set(pool_ids)
            r_ids = [i for i in drawn if i not in in_pool]
        return pool_ids + r_ids, r_ids

    def admit(self, by_id: dict[int, float], r_ids: list[int], alpha: int) -> None:
        """Add the best of the sample as the youngest entry."""
        survivor = best_of_sample({i: by_id[i] for i in r_ids})
        fresh = PoolEntry(survivor, alpha=alpha)
        fresh.own.add(by_id[survivor])
        for older in self.entries:
            older.cross[survivor] = IntervalAccumulator(by_id[older.id], 1)
        self.meter.charge("pool", 4 + 2 * len(self.entries))
        self.entries.append(fresh)

    def settle(self, evict, threshold: float) -> list[PoolEntry]:
        """Run ``evict(entries, threshold)`` and release the words it frees."""
        before = self.words
        self.entries, evicted = evict(self.entries, threshold)
        if evicted:
            self.meter.release("pool", before - self.words)
        return evicted

    def close_epoch(self, members: list[int], avgs: np.ndarray, r_ids: list[int],
                    alpha: int, evict, threshold: float) -> None:
        """Fold one full epoch's averages, admit, then ``evict`` (the caller's
        ``evict_pass``, so each module's passes go through its own name)."""
        by_id = dict(zip(members, avgs.tolist()))
        for entry in self.entries:
            entry.own.add(by_id[entry.id])
            for acc in entry.cross.values():
                acc.add(by_id[entry.id])
        if r_ids:
            self.admit(by_id, r_ids, alpha)
        self.settle(evict, threshold)

    def clear(self) -> None:
        """Drop every entry at episode end."""
        self.meter.release("pool", self.words)
        self.entries = []


class Epoch:
    """An open epoch of the baseline or of any hierarchy level: its members
    (pool copies, then fresh ids; ``ids`` holds them as an int64 array),
    exponential weights over them, per-member loss sums and the round count.
    Its ``mwu`` and ``epoch`` words are charged on opening and released by
    ``close``."""

    def __init__(self, pool: Pool, rng: np.random.Generator, n: int,
                 sample_size: int, B: int, full: bool, eta: float | None = None):
        self.pool = pool
        self.full = full
        self.members, self.r_ids = pool.draw(rng, n, sample_size, full)
        self.ids = np.array(self.members, dtype=np.int64)
        self.mwu = MwuState(self.members, horizon=B, eta=eta)
        self.sums = np.zeros(len(self.members))
        self.rounds = 0
        # MWU cumulative losses + constants; loss sums + fresh ids
        self._words = {"mwu": len(self.members) + 4,
                       "epoch": len(self.members) + len(self.r_ids)}
        for category, words in self._words.items():
            pool.meter.charge(category, words)

    @property
    def words(self) -> int:
        return sum(self._words.values())

    def add(self, sums: np.ndarray, rounds: int) -> None:
        """Count ``rounds`` more rounds whose per-member losses sum to ``sums``."""
        self.sums += sums
        self.rounds += rounds

    def close(self, alpha: int, evict, threshold: float) -> None:
        """Fold a full epoch's average losses into the pool (a shorter tail
        epoch skips retention, eviction and bookkeeping), then release."""
        if self.full:
            self.pool.close_epoch(self.members, self.sums / self.rounds, self.r_ids,
                                  alpha, evict, threshold)
        for category, words in self._words.items():
            self.pool.meter.release(category, words)


class BaselineLearner:
    """Sequential driver for the epoch learner.

    ``next_block`` plays the rest of the open epoch (or a shorter block) and
    is the one stepping API; ``step_day`` is its one-day form, needed against
    adaptive streams.
    """

    def __init__(self, params: BaselineParams, meter: WordMeter | None = None,
                 rng: np.random.Generator | None = None):
        self.params = params
        self.rng = np.random.default_rng(params.seed) if rng is None else rng
        self.meter = WordMeter() if meter is None else meter
        self.meter.charge("overhead", 8)
        self.pool = Pool(self.meter)
        self.day = 0  # days completed
        self.epoch = 0  # current epoch index once begun
        self.cumulative_loss = 0.0
        self.queries = 0
        self._epoch: Epoch | None = None
        self._epoch_len = 0
        self.on_epoch_close = None  # optional callback(learner)

    @property
    def entries(self) -> list[PoolEntry]:
        return self.pool.entries

    @property
    def pool_size(self) -> int:
        return len(self.pool.entries)

    # -- epoch lifecycle ----------------------------------------------------

    @property
    def in_epoch(self) -> bool:
        return self._epoch is not None

    @property
    def members(self) -> list[int]:
        return self._epoch.members if self.in_epoch else []

    def epoch_rest(self) -> tuple[np.ndarray, int]:
        """Member ids (an int64 array) and days left of the open epoch,
        beginning one if none is open."""
        if not self.in_epoch:
            p = self.params
            self.epoch += 1
            self._epoch_len = min(p.B, p.T - self.day)
            self._epoch = Epoch(self.pool, self.rng, p.n, p.sample_size, p.B,
                                full=self._epoch_len == p.B)
        return self._epoch.ids, self._epoch_len - self._epoch.rounds

    def advance(self, losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Play the next ``len(losses)`` days of the current epoch.

        losses has one row per day and one column per current member, in the
        order of ``members``. Returns the realized per-day losses and the
        expert ids played.
        """
        ep = self._epoch
        days = losses.shape[0]
        if ep.rounds + days > self._epoch_len:
            raise ValueError("block crosses an epoch boundary")
        picks = ep.mwu.run_block(losses, self.rng)
        realized = losses[np.arange(days), picks]
        played = ep.ids[picks]
        ep.add(losses.sum(axis=0), days)
        self.day += days
        self.cumulative_loss += float(realized.sum())
        self.queries += days * len(ep.members)
        if ep.rounds == self._epoch_len:
            ep.close(self.epoch, evict_pass, self.params.eps)
            self._epoch = None
            if self.on_epoch_close is not None:
                self.on_epoch_close(self)
        return realized, played

    def next_block(self, oracle: LossOracle, days: int | None = None
                   ) -> tuple[int, np.ndarray, np.ndarray]:
        """Play the rest of the open epoch, or at most ``days`` days of it.

        Returns (first day, realized losses, played ids).
        """
        ids, left = self.epoch_rest()
        t0 = self.day + 1
        t1 = self.day + (left if days is None else min(days, left))
        realized, played = self.advance(oracle.loss_block(t0, t1, ids))
        return t0, realized, played

    def step_day(self, oracle: LossOracle) -> int:
        """Advance exactly one day, querying the oracle for current members."""
        return int(self.next_block(oracle, 1)[2][0])

    def commit_distribution(self) -> np.ndarray:
        """Exact current mixed strategy mapped onto [n] (zero off-pool mass)."""
        self.epoch_rest()
        p = np.zeros(self.params.n)
        for i, prob in zip(self._epoch.members, self._epoch.mwu.distribution()):
            p[i - 1] += prob
        return p

    # -- whole-run driver ---------------------------------------------------

    def run(self, oracle: LossOracle) -> None:
        """Run the full horizon against an oblivious oracle, epoch at a time."""
        while self.day < self.params.T:
            self.next_block(oracle)

    # -- accounting ---------------------------------------------------------

    def audit_words(self) -> int:
        """Recompute the metered word count from live state."""
        return 8 + self.pool.words + (self._epoch.words if self.in_epoch else 0)
