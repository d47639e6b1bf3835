"""Multi-level learner: each level treats a block of lower-level days as one
decision round, merges every candidate expert with the level below via a
two-way exponential-weights race, and runs the pool/eviction machinery on
truncated loss differences whose width shrinks level by level.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .baseline import (BaselineLearner, BaselineParams, Epoch, Pool, PoolEntry, engine_words,
                       evict_pass)
from .meter import WordMeter
from .streams import GameOracle, LossOracle, check_number

__all__ = ["LevelParams", "LevelState", "HierarchyLearner", "build_levels"]


@dataclass(frozen=True)
class LevelParams:
    """Per-level constants. ``day_span`` is the calendar length of one decision
    round; one epoch is ``B`` decision rounds and one episode ``epochs_per_episode``
    epochs, so episode_days = epochs_per_episode * B * day_span.
    """

    k: int
    eps: float
    B: int
    day_span: int
    epochs_per_episode: int
    theta: float
    width: float
    sample_size: int
    pool_cap: int

    @property
    def episode_days(self) -> int:
        return self.epochs_per_episode * self.B * self.day_span


def build_levels(n: int, T: int, delta: float) -> tuple[float, int, list[LevelParams]]:
    """Materialize the level ladder for a horizon-T run.

    eps = n^(-delta/2); level day spans nest exactly: a level-k decision round
    spans one full level-(k-1) episode. Counts are rounded up where the ideal
    values are non-integral, and K is the deepest level whose episode fits in T
    (at least 1; a warning marks the degenerate single-level regime). The
    eviction threshold eps must not exceed 1/2, so n^delta >= 4.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_number("delta", delta)
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if T < n:
        raise ValueError(f"need T >= n, got T={T}, n={n}")
    eps = n ** (-delta / 2.0)
    if eps > 0.5:
        raise ValueError(f"eps = n^(-delta/2) = {eps:.4g} exceeds 1/2; need n^delta >= 4")
    B = math.ceil(eps**-2)
    log_nt = math.log(n * T)
    cap = math.ceil(8.0 / eps * math.log(T))

    levels: list[LevelParams] = []
    # level 1: a baseline over one episode (or T, if shorter) on raw day losses
    e1 = math.ceil(eps * n * n)
    p1 = BaselineParams(n, min(e1 * B, T), eps, B=B)
    levels.append(LevelParams(1, eps, B, 1, e1, eps, 1.0, p1.sample_size, p1.pool_cap))
    while True:
        k = len(levels) + 1
        span = levels[-1].episode_days
        ek = math.ceil(eps * n)
        lp = LevelParams(
            k, eps, B, span, ek,
            theta=eps**k * log_nt ** (2 * k - 1),
            width=eps ** (k - 1) * log_nt ** (2 * k - 1),
            sample_size=p1.sample_size,
            pool_cap=cap,
        )
        if lp.episode_days > T:
            break
        levels.append(lp)
    if levels[0].episode_days > T:
        warnings.warn(
            f"horizon T={T} is shorter than one bottom-level episode "
            f"({levels[0].episode_days} days); running a single truncated level"
        )
    return eps, len(levels), levels


def _follow_own_probability(block: np.ndarray, base_realized: np.ndarray,
                            cum_own: np.ndarray, cum_descend: np.ndarray,
                            eta: float) -> np.ndarray:
    """The merge race's two-way exponential weights: p(follow own expert) per
    day of the block and member, 1 / (1 + exp(-eta * (descend - own))).

    Row r of ``own`` and ``descend`` is the round's carry plus the cumulative
    sum of rows 0..r-1 of the block's losses and of the lower level's realized
    losses.
    """
    L, m = block.shape
    own = np.zeros((L, m))
    np.add.accumulate(block[:-1], axis=0, out=own[1:])
    own += cum_own
    shifted = np.zeros(L)
    np.add.accumulate(base_realized[:-1], out=shifted[1:])
    x = np.add(shifted[:, None], cum_descend)
    x -= own
    x *= -eta
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


class LevelState:
    """One level (k >= 2): pool over merged experts, truncated-loss eviction.
    ``on_epoch_close``, if given, is called with the level after every epoch
    close."""

    def __init__(self, lp: LevelParams, n: int, T: int, meter: WordMeter,
                 on_epoch_close=None):
        self.lp = lp
        self.n = n
        self.T = T
        self.meter = meter
        self.meter.charge("level", 8)
        self.merge_eta = math.sqrt(math.log(2.0) / lp.day_span)
        self.mwu_eta = math.sqrt(math.log(lp.pool_cap) / lp.B)
        self.pool = Pool(meter, evict_pass, lp.theta)
        self.epoch_count = 0
        self.day_in_dd = 0
        self.queries = 0
        self.width_exceedances = 0
        self.min_truncated = math.inf  # most negative truncated loss seen
        self.on_epoch_close = on_epoch_close
        self._epoch: Epoch | None = None  # its rounds' losses are truncated
        # merge race of the open epoch (its charged words) and decision round
        self._merge_words = 0
        self._committed = -1
        self._cum_own: np.ndarray | None = None
        self._cum_descend: np.ndarray | None = None
        self._dd_sum_e: np.ndarray | None = None

    @property
    def entries(self) -> list[PoolEntry]:
        return self.pool.entries

    # -- lifecycle ----------------------------------------------------------

    def _begin_epoch(self, remaining_days: int, rng: np.random.Generator) -> None:
        lp = self.lp
        self._epoch = Epoch(self.pool, rng, self.n, lp.sample_size, lp.B,
                            full=remaining_days >= lp.B * lp.day_span,
                            eta=self.mwu_eta)
        # id, own, descend and round sums per member, and the epoch's round count
        self._merge_words = 4 * len(self._epoch.ids) + 1
        self.meter.charge("merge", self._merge_words)

    def _start_decision_day(self, rng: np.random.Generator) -> None:
        m = len(self._epoch.ids)
        self._committed = self._epoch.mwu.sample(rng)
        self._cum_own = np.zeros(m)
        self._cum_descend = np.zeros(m)
        self._dd_sum_e = np.zeros(m)

    def process_block(self, oracle: LossOracle, t0: int,
                      base_realized: np.ndarray, base_played: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Advance the block of days from t0 (never crossing a decision-round
        boundary) on which the lower level realized the per-day losses
        base_realized and played the expert ids base_played.
        """
        lp = self.lp
        L = len(base_realized)
        if self._epoch is None:
            self._begin_epoch(self.T - (t0 - 1), rng)
        if self.day_in_dd == 0:
            self._start_decision_day(rng)
        if self.day_in_dd + L > lp.day_span:
            raise ValueError("block crosses a decision-round boundary")
        ids = self._epoch.ids
        m = len(ids)
        block = oracle.loss_block(t0, t0 + L - 1, ids)
        self.queries += L * m
        p_own = _follow_own_probability(block, base_realized, self._cum_own,
                                        self._cum_descend, self.merge_eta)
        follow_own = rng.random((L, m)) < p_own
        realized_e = np.where(follow_own, block, base_realized[:, None])
        self._cum_own += np.add.reduce(block, axis=0)
        self._cum_descend += np.add.reduce(base_realized)
        c = self._committed
        realized = realized_e[:, c]  # a column of this block's scratch
        played = np.where(follow_own[:, c], ids[c], base_played)
        self._dd_sum_e += np.add.reduce(realized_e, axis=0)
        self.day_in_dd += L
        if self.day_in_dd == lp.day_span:
            self._close_decision_day()
        return realized, played

    def _close_decision_day(self) -> None:
        lp = self.lp
        avg_e = self._dd_sum_e / lp.day_span
        avg_base = self._cum_descend[0] / lp.day_span  # the lower level's, in every entry
        truncated = np.maximum(avg_e - avg_base, -lp.width)  # floored at -width
        self.min_truncated = min(self.min_truncated, float(truncated.min()))
        normalized = (truncated + lp.width) / (2.0 * lp.width)
        self.width_exceedances += int((normalized > 1.0 + 1e-12).sum())
        np.clip(normalized, 0.0, 1.0, out=normalized)
        self._epoch.mwu.update(normalized)
        self._epoch.add(truncated, 1)
        self.day_in_dd = 0
        if self._epoch.rounds == lp.B:
            self._close_epoch()

    def _close_epoch(self) -> None:
        lp = self.lp
        self._epoch.close(self.epoch_count + 1)
        self.meter.release("merge", self._merge_words)
        self._epoch = None
        self.epoch_count += 1
        if self.on_epoch_close is not None:
            self.on_epoch_close(self)
        if self.epoch_count % lp.epochs_per_episode == 0:
            self.pool.clear()

    def audit_words(self) -> int:
        """Recount the metered words from live state, the merge race's too."""
        words = 8 + self.pool.words
        if self._epoch is not None:
            race = (self._cum_own, self._cum_descend, self._dd_sum_e, self._epoch.ids)
            words += self._epoch.words + sum([len(v) for v in race]) + 1
        return words


class HierarchyLearner:
    """Full multi-level algorithm: plays the top level's decision every day.
    ``on_epoch_close`` is handed to every level-1 learner and every level."""

    def __init__(self, n: int, T: int, delta: float, seed: int = 0,
                 on_epoch_close=None):
        self.n = n
        self.T = T
        self.eps, self.K, self.level_params = build_levels(n, T, delta)
        self.B = self.level_params[0].B
        self.rng = np.random.default_rng(seed)
        self.meter = WordMeter()
        self.day = 0
        self.on_epoch_close = on_epoch_close
        self.levels = [
            LevelState(lp, n, T, self.meter, on_epoch_close)
            for lp in self.level_params[1:]
        ]
        self._lvl1: BaselineLearner | None = None

    def _level1_params(self, days_left: int) -> BaselineParams:
        """Level-1 parameters for one full episode, or the shorter tail when
        ``days_left`` is less; level 1 draws from the hierarchy's generator."""
        ep_len = min(self.level_params[0].episode_days, days_left)
        return BaselineParams(self.n, ep_len, self.eps, B=min(self.B, ep_len))

    @property
    def word_cap(self) -> int:
        """Word budget from the ladder: per level, 8 words and its pool and open
        epoch (``engine_words``; level 1's learner's ``word_cap``), and 4S + 1
        merge words at each level k >= 2, for S = pool_cap + sample_size."""
        words = 0
        for lp in self.level_params:
            merge = 0 if lp.k == 1 else 4 * (lp.pool_cap + lp.sample_size) + 1
            words += 8 + engine_words(lp.pool_cap, lp.sample_size) + merge
        return words

    @property
    def pool_size(self) -> int:
        """Size of the top level's pool."""
        top = self.levels[-1] if self.levels else self._lvl1
        return 0 if top is None else len(top.entries)

    def next_block(self, oracle: LossOracle) -> tuple[int, np.ndarray, np.ndarray]:
        """Play one bottom-level epoch (or the final shorter tail).

        Oblivious streams only. Returns (first day, realized losses, played ids).
        """
        if isinstance(oracle, GameOracle):
            raise ValueError("the hierarchy reads a whole bottom epoch ahead; "
                             "oblivious streams only")
        # a level-1 episode starts once the previous one has played out
        if self.day % self.level_params[0].episode_days == 0:
            if self._lvl1 is not None:
                self._lvl1.close()
            self._lvl1 = BaselineLearner(self._level1_params(self.T - self.day),
                                         meter=self.meter, rng=self.rng,
                                         on_epoch_close=self.on_epoch_close)
        # level 1 counts days within its own episode; t0 is the global day
        t0 = self.day + 1
        realized, played = self._lvl1.advance(oracle, t0)
        for lvl in self.levels:
            realized, played = lvl.process_block(oracle, t0, realized, played, self.rng)
        self.day += len(realized)
        return t0, realized, played

    def audit_words(self) -> int:
        words = 0 if self._lvl1 is None else self._lvl1.audit_words()
        for lvl in self.levels:
            words += lvl.audit_words()
        return words
