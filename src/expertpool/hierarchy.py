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

from .baseline import BaselineLearner, BaselineParams, Epoch, Pool, PoolEntry, evict_pass
from .meter import WordMeter
from .streams import LossOracle

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
    (at least 1; a warning marks the degenerate single-level regime).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if T < n:
        raise ValueError(f"need T >= n, got T={T}, n={n}")
    eps = n ** (-delta / 2.0)
    B = math.ceil(eps**-2)
    log_nt = math.log(n * T)
    sample = min(math.ceil(eps**-2), n)
    cap = math.ceil(8.0 / eps * math.log(T))

    levels: list[LevelParams] = []
    # level 1: plain epoch learner over raw day losses
    e1 = math.ceil(eps * n * n)
    levels.append(LevelParams(1, eps, B, 1, e1, eps, 1.0, sample, cap))
    while True:
        k = len(levels) + 1
        span = levels[-1].episode_days
        ek = math.ceil(eps * n)
        lp = LevelParams(
            k, eps, B, span, ek,
            theta=eps**k * log_nt ** (2 * k - 1),
            width=eps ** (k - 1) * log_nt ** (2 * k - 1),
            sample_size=sample,
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
    own = np.empty((L, m))
    own[0] = 0.0
    np.add.accumulate(block[:-1], axis=0, out=own[1:])
    own += cum_own
    shifted = np.empty(L)
    shifted[0] = 0.0
    np.add.accumulate(base_realized[:-1], out=shifted[1:])
    x = np.add(shifted[:, None], cum_descend)
    x -= own
    x *= -eta
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


class LevelState:
    """One level (k >= 2): pool over merged experts, truncated-loss eviction."""

    def __init__(self, lp: LevelParams, n: int, T: int, meter: WordMeter):
        self.lp = lp
        self.n = n
        self.T = T
        self.meter = meter
        self.meter.charge("level", 8)
        self.merge_eta = math.sqrt(math.log(2.0) / lp.day_span)
        self.mwu_eta = math.sqrt(math.log(lp.pool_cap) / lp.B)
        self.pool = Pool(meter)
        self.epoch_in_episode = 0
        self.epoch_count = 0
        self.day_in_dd = 0
        self.cumulative_loss = 0.0
        self.queries = 0
        self.width_exceedances = 0
        self.min_truncated = math.inf  # most negative truncated loss seen
        self.dd_close_days: list[int] = []  # global day indices of closed rounds
        self.episode_close_days: list[int] = []
        self.on_epoch_close = None
        self._epoch: Epoch | None = None  # its rounds' losses are truncated
        # merge race of the open epoch and decision round
        self._committed = -1
        self._cum_own: np.ndarray | None = None
        self._cum_descend: np.ndarray | None = None
        self._dd_sum_e: np.ndarray | None = None
        self._dd_sum_base = 0.0

    @property
    def entries(self) -> list[PoolEntry]:
        return self.pool.entries

    # -- lifecycle ----------------------------------------------------------

    @property
    def _merge_words(self) -> int:
        # id, own, descend and round sums per member, and the epoch's round count
        return 4 * len(self._epoch.ids) + 1

    def _begin_epoch(self, remaining_days: int, rng: np.random.Generator) -> None:
        lp = self.lp
        self._epoch = Epoch(self.pool, rng, self.n, lp.sample_size, lp.B,
                            full=remaining_days >= lp.B * lp.day_span,
                            eta=self.mwu_eta)
        self.meter.charge("merge", self._merge_words)

    def _start_decision_day(self, rng: np.random.Generator) -> None:
        m = len(self._epoch.ids)
        self._committed = self._epoch.members.index(self._epoch.mwu.sample(rng))
        self._cum_own = np.zeros(m)
        self._cum_descend = np.zeros(m)
        self._dd_sum_e = np.zeros(m)
        self._dd_sum_base = 0.0

    def process_block(self, oracle: LossOracle, t0: int, L: int,
                      base_realized: np.ndarray, base_played: np.ndarray,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Advance L days (never crossing a decision-round boundary).

        base_realized / base_played are the lower level's per-day realized
        losses and played expert ids over the same days.
        """
        lp = self.lp
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
        base_sum = base_realized.sum()
        self._cum_own += block.sum(axis=0)
        self._cum_descend += base_sum
        realized = realized_e[:, self._committed].copy()
        played = np.where(
            follow_own[:, self._committed],
            ids[self._committed],
            base_played,
        )
        self._dd_sum_e += realized_e.sum(axis=0)
        self._dd_sum_base += float(base_sum)
        self.day_in_dd += L
        self.cumulative_loss += float(realized.sum())
        if self.day_in_dd == lp.day_span:
            self._close_decision_day(t0 + L - 1)
        return realized, played

    def _close_decision_day(self, global_day: int) -> None:
        lp = self.lp
        avg_e = self._dd_sum_e / lp.day_span
        avg_base = self._dd_sum_base / lp.day_span
        truncated = np.maximum(avg_e - avg_base, -lp.width)  # floored at -width
        self.min_truncated = min(self.min_truncated, float(truncated.min()))
        normalized = (truncated + lp.width) / (2.0 * lp.width)
        self.width_exceedances += int((normalized > 1.0 + 1e-12).sum())
        np.clip(normalized, 0.0, 1.0, out=normalized)
        self._epoch.mwu.update(normalized)
        self._epoch.add(truncated, 1)
        self.day_in_dd = 0
        self.dd_close_days.append(global_day)
        if self._epoch.rounds == lp.B:
            self._close_epoch(global_day)

    def _close_epoch(self, global_day: int) -> None:
        lp = self.lp
        self._epoch.close(self.epoch_count + 1, evict_pass, lp.theta)
        self.meter.release("merge", self._merge_words)
        self._epoch = None
        self.epoch_count += 1
        self.epoch_in_episode += 1
        if self.on_epoch_close is not None:
            self.on_epoch_close(self)
        if self.epoch_in_episode == lp.epochs_per_episode:
            self.pool.clear()
            self.epoch_in_episode = 0
            self.episode_close_days.append(global_day)

    def audit_words(self) -> int:
        words = 8 + self.pool.words
        if self._epoch is not None:
            words += self._epoch.words + self._merge_words
        return words


class HierarchyLearner:
    """Full multi-level algorithm: plays the top level's decision every day."""

    def __init__(self, n: int, T: int, delta: float, seed: int = 0):
        self.n = n
        self.T = T
        self.delta = delta
        self.seed = seed
        self.eps, self.K, self.level_params = build_levels(n, T, delta)
        self.B = self.level_params[0].B
        self.rng = np.random.default_rng(seed)
        self.meter = WordMeter()
        self.day = 0
        self.cumulative_loss = 0.0
        self.levels = [
            LevelState(lp, n, T, self.meter) for lp in self.level_params[1:]
        ]
        self._lvl1: BaselineLearner | None = None
        self.on_level1_epoch_close = None

    def _ensure_level1(self) -> None:
        """Start a level-1 episode once the previous one has played out."""
        lvl1 = self._lvl1
        if lvl1 is not None and lvl1.day < lvl1.params.T:
            return
        if lvl1 is not None:
            lvl1.pool.clear()
            self.meter.release("overhead", 8)
        ep_len = min(self.level_params[0].episode_days, self.T - self.day)
        params = BaselineParams(
            self.n,
            ep_len,
            self.eps,
            B=min(self.B, ep_len),
            seed=self.seed,
        )
        self._lvl1 = BaselineLearner(params, meter=self.meter, rng=self.rng)
        if self.on_level1_epoch_close is not None:
            self._lvl1.on_epoch_close = self.on_level1_epoch_close

    @property
    def pool_size(self) -> int:
        """Size of the top level's pool."""
        top = self.levels[-1] if self.levels else self._lvl1
        return 0 if top is None else len(top.entries)

    def next_block(self, oracle: LossOracle) -> tuple[int, np.ndarray, np.ndarray]:
        """Play one bottom-level epoch (or the final shorter tail).

        Oblivious streams only. Returns (first day, realized losses, played ids).
        """
        if oracle.mode == "adaptive-game":
            raise ValueError("the hierarchy reads a whole bottom epoch ahead; "
                             "oblivious streams only")
        self._ensure_level1()
        # level 1 counts days within its own episode; the oracle is global
        ids, L = self._lvl1.epoch_rest()
        t0 = self.day + 1
        realized, played = self._lvl1.advance(oracle.loss_block(t0, t0 + L - 1, ids))
        for lvl in self.levels:
            realized, played = lvl.process_block(
                oracle, t0, L, realized, played, self.rng
            )
        self.day += L
        self.cumulative_loss += float(realized.sum())
        return t0, realized, played

    def run(self, oracle: LossOracle) -> None:
        while self.day < self.T:
            self.next_block(oracle)

    def audit_words(self) -> int:
        words = sum(lvl.audit_words() for lvl in self.levels)
        if self._lvl1 is not None:
            words += self._lvl1.audit_words()
        return words
