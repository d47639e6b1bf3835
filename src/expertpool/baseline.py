"""Epoch-structured pool learner: uniform sampling of fresh experts, a
per-epoch exponential-weights run over the pool, best-of-sample retention and
the age-respecting domination eviction rule, with triangular interval-loss
bookkeeping (each older entry keeps its loss sum over every younger entry's
residence interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .meter import WordMeter
from .mwu import MwuState
from .streams import LossOracle, check_number

__all__ = [
    "BaselineParams",
    "PoolEntry",
    "Pool",
    "Epoch",
    "BaselineLearner",
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
        check_number("eps", self.eps)
        if not 0.0 < self.eps <= 0.5:
            raise ValueError(f"eviction threshold must lie in (0, 1/2], got {self.eps}")
        if self.B is None:
            object.__setattr__(self, "B", default_epoch_length(self.n, self.T, self.eps))
        check_number("B", self.B, integral=True)
        if not 1 <= self.B <= self.T:
            raise ValueError(f"epoch length {self.B} outside [1, {self.T}]")

    @cached_property
    def sample_size(self) -> int:
        return min(math.ceil(self.eps**-2), self.n)

    @cached_property
    def pool_cap(self) -> int:
        """Post-eviction bound on the persistent pool size; at least 1, since
        a one-day epoch admits its best sampled expert where ln T is 0."""
        return max(1, math.ceil(4.0 / self.eps * math.log(self.T)))

    @property
    def word_cap(self) -> int:
        """Word budget 2*S^2 + 4*S + 4*m + 16 with S the during-epoch pool bound."""
        s_hat = self.pool_cap + self.sample_size
        return 2 * s_hat * s_hat + 4 * s_hat + 4 * self.sample_size + 16


@dataclass(slots=True)
class PoolEntry:
    """A persistent pool member and its triangular loss table.

    ``sum`` totals this expert's per-epoch average losses over its residence
    interval of ``count`` full epochs. ``cross`` maps the id of each strictly
    younger pool member to this (older) expert's sum over that member's
    interval, whose length is the younger member's own ``count``.
    """

    id: int
    alpha: int
    sum: float
    count: int
    cross: dict[int, float] = field(default_factory=dict)

    @property
    def average(self) -> float:
        return self.sum / self.count

    def average_over(self, young: PoolEntry) -> float:
        """This expert's average over ``young``'s residence interval."""
        return self.cross[young.id] / young.count


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
        own_avg = entry.average
        for older in entries[:idx]:
            if own_avg >= older.average_over(entry) - threshold - EVICT_GUARD:
                evicted.append(entry)
                break
        else:
            survivors.append(entry)
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
    return [2.0 * math.log(e.count) + e.average for e in reversed(entries)]


class Pool:
    """Persistent entries (oldest first) and their ``pool`` words: the one pool
    procedure of the baseline and of every hierarchy level. ``evict`` and
    ``threshold`` are the rule its epoch closes evict by (each module passes
    its own ``evict_pass``, so its passes go through its own name)."""

    def __init__(self, meter: WordMeter, evict, threshold: float):
        self.meter = meter
        self.evict = evict
        self.threshold = threshold
        self.entries: list[PoolEntry] = []

    @property
    def words(self) -> int:
        """Per entry: id, entry epoch, sum and count, and 2 per cross cell (the
        younger id and the sum); recomputed from the live tables."""
        return 4 * len(self.entries) + 2 * sum([len(e.cross) for e in self.entries])

    def draw(self, rng: np.random.Generator, n: int, size: int,
             full: bool) -> tuple[list[int], list[int]]:
        """An epoch's members and fresh ids, sampled for full epochs or an empty
        pool; the pool copy wins on collisions."""
        pool_ids = [e.id for e in self.entries]
        if pool_ids and not full:
            return pool_ids, []
        in_pool = set(pool_ids)
        r_ids = [i + 1 for i in rng.choice(n, size=size, replace=False).tolist()
                 if i + 1 not in in_pool]
        return pool_ids + r_ids, r_ids

    def close_epoch(self, avgs: list[float], r_ids: list[int], alpha: int) -> None:
        """Fold one full epoch's averages (the pool's entries in order, then
        ``r_ids``) into every entry, admit the sample's best (ties go to the
        lowest id) as the youngest entry, then evict. Every cross table holds
        each younger entry, so s entries hold 4s + 2 * s(s-1)/2 words."""
        for entry, avg in zip(self.entries, avgs):
            entry.sum += avg
            entry.count += 1
            cross = entry.cross
            for young in cross:
                cross[young] += avg
        s = len(self.entries)
        if r_ids:
            avg, survivor = min(zip(avgs[s:], r_ids))
            for older, older_avg in zip(self.entries, avgs):
                older.cross[survivor] = older_avg
            self.meter.charge("pool", 4 + 2 * s)
            self.entries.append(PoolEntry(survivor, alpha, avg, 1))
            s += 1
        self.entries, evicted = self.evict(self.entries, self.threshold)
        if evicted:
            k = len(self.entries)
            self.meter.release("pool", s * (s + 3) - k * (k + 3))

    def clear(self) -> None:
        """Drop every entry at episode end."""
        self.meter.release("pool", self.words)
        self.entries = []


class Epoch:
    """An open epoch of the baseline or of any hierarchy level: its members
    ``ids`` (an int64 array of pool copies, then the fresh ``r_ids``),
    exponential weights over them, per-member loss sums and the round count.
    Its ``mwu`` and ``epoch`` words are charged on opening and released by
    ``close``."""

    def __init__(self, pool: Pool, rng: np.random.Generator, n: int,
                 sample_size: int, B: int, full: bool, eta: float | None = None):
        self.pool = pool
        self.full = full
        members, self.r_ids = pool.draw(rng, n, sample_size, full)
        m = len(members)
        self.ids = np.array(members, dtype=np.int64)
        self.mwu = MwuState(m, horizon=B, eta=eta)
        self.sums = np.zeros(m)
        self.rounds = 0
        # MWU cumulative losses + constants; loss sums + fresh ids
        self.mwu_words = m + 4
        self.epoch_words = m + len(self.r_ids)
        pool.meter.charge("mwu", self.mwu_words)
        pool.meter.charge("epoch", self.epoch_words)

    @property
    def words(self) -> int:
        return self.mwu_words + self.epoch_words

    def add(self, sums: np.ndarray, rounds: int) -> None:
        """Count ``rounds`` more rounds whose per-member losses sum to ``sums``."""
        self.sums += sums
        self.rounds += rounds

    def close(self, alpha: int) -> None:
        """Fold a full epoch's average losses into the pool (a shorter tail
        epoch skips retention, eviction and bookkeeping), then release."""
        if self.full:
            avgs = [s / self.rounds for s in self.sums.tolist()]
            self.pool.close_epoch(avgs, self.r_ids, alpha)
        self.pool.meter.release("mwu", self.mwu_words)
        self.pool.meter.release("epoch", self.epoch_words)


class BaselineLearner:
    """Sequential driver for the epoch learner.

    ``advance(oracle, t0, days)`` plays the rest of the open epoch (or a
    shorter block) from day t0 and is the one stepping API; ``next_block`` is
    ``advance`` from the next day, and ``next_block(oracle, 1)`` after
    ``commit_distribution`` faces an adaptive stream. ``on_epoch_close``, if
    given, is called with the learner after every epoch close.
    """

    def __init__(self, params: BaselineParams, meter: WordMeter | None = None,
                 rng: np.random.Generator | None = None, on_epoch_close=None):
        self.params = params
        self.rng = np.random.default_rng(params.seed) if rng is None else rng
        self.meter = WordMeter() if meter is None else meter
        self.meter.charge("overhead", 8)
        self.pool = Pool(self.meter, evict_pass, params.eps)
        self.day = 0  # days completed
        self.epoch = 0  # current epoch index once begun
        self.queries = 0
        self._epoch: Epoch | None = None
        self._epoch_len = 0
        self.on_epoch_close = on_epoch_close

    @property
    def entries(self) -> list[PoolEntry]:
        return self.pool.entries

    @property
    def pool_size(self) -> int:
        return len(self.pool.entries)

    @property
    def word_cap(self) -> int:
        return self.params.word_cap

    # -- epoch lifecycle ----------------------------------------------------

    def epoch_rest(self) -> tuple[np.ndarray, int]:
        """Member ids (an int64 array) and days left of the open epoch,
        beginning one if none is open."""
        if self._epoch is None:
            p = self.params
            self.epoch += 1
            self._epoch_len = min(p.B, p.T - self.day)
            self._epoch = Epoch(self.pool, self.rng, p.n, p.sample_size, p.B,
                                full=self._epoch_len == p.B)
        return self._epoch.ids, self._epoch_len - self._epoch.rounds

    def advance(self, oracle: LossOracle, t0: int, days: int | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Play the rest of the open epoch (opening one if none is), or at most
        ``days`` days of it, on its members' losses from ``oracle`` at days t0
        on. Returns the realized per-day losses and the expert ids played.
        """
        ids, left = self.epoch_rest()
        days = left if days is None else min(days, left)
        losses = oracle.loss_block(t0, t0 + days - 1, ids)
        ep = self._epoch
        m = len(ids)
        picks = ep.mwu.run_block(losses, self.rng)
        flat = np.arange(0, days * m, m)  # each day's first cell
        flat += picks
        realized = losses.take(flat)
        played = ids.take(picks)
        ep.add(np.add.reduce(losses, axis=0), days)
        self.day += days
        self.queries += days * m
        if ep.rounds == self._epoch_len:
            ep.close(self.epoch)
            self._epoch = None
            if self.on_epoch_close is not None:
                self.on_epoch_close(self)
        return realized, played

    def close(self) -> None:
        """Release every word once the horizon is played: the pool, then 8 own."""
        self.pool.clear()
        self.meter.release("overhead", 8)

    def next_block(self, oracle: LossOracle, days: int | None = None
                   ) -> tuple[int, np.ndarray, np.ndarray]:
        """``advance`` from the next day. Returns (first day, realized losses,
        played ids)."""
        t0 = self.day + 1
        return (t0, *self.advance(oracle, t0, days))

    def commit_distribution(self) -> np.ndarray:
        """Exact current mixed strategy mapped onto [n] (zero off-pool mass)."""
        self.epoch_rest()
        p = np.zeros(self.params.n)
        p[self._epoch.ids - 1] += self._epoch.mwu.distribution()
        return p

    # -- accounting ---------------------------------------------------------

    def audit_words(self) -> int:
        """Recompute the metered word count from live state."""
        words = 8 + self.pool.words
        if self._epoch is not None:
            words += self._epoch.words
        return words
