"""Exponential-weights learner over a fixed finite expert set.

Losses lie in [0, 1]. Weights are never stored: the state keeps cumulative
losses and derives the distribution on demand, relative to the running minimum
so the exp arguments stay bounded.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

__all__ = ["MwuState"]


class MwuState:
    """Distribution over tracked ids with p(i) proportional to exp(-eta * cum(i))."""

    def __init__(self, ids: Sequence[Hashable], horizon: int,
                 eta: float | None = None):
        ids = list(ids)
        if not ids:
            raise ValueError("expert set must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError("expert ids must be distinct")
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.ids = ids
        self.horizon = horizon
        if eta is None:
            # eta = sqrt(ln m / horizon); a singleton set has no meaningful
            # rate, so fall back to 1.
            eta = 1.0 if len(ids) == 1 else np.sqrt(np.log(len(ids)) / horizon)
        self.eta = float(eta)
        self.cum = np.zeros(len(ids))

    # -- distribution -------------------------------------------------------

    def weights(self) -> np.ndarray:
        return np.exp(-self.eta * (self.cum - self.cum.min()))

    def distribution(self) -> np.ndarray:
        w = self.weights()
        return w / w.sum()

    def probability(self, i: Hashable) -> float:
        return float(self.distribution()[self.ids.index(i)])

    # -- updates ------------------------------------------------------------

    def update(self, losses: Mapping[Hashable, float] | Sequence[float]) -> None:
        """Add one round of losses (one entry per tracked id, in range)."""
        if isinstance(losses, Mapping):
            missing = [i for i in self.ids if i not in losses]
            if missing:
                raise KeyError(f"missing losses for {missing}")
            vec = np.array([losses[i] for i in self.ids], dtype=np.float64)
        else:
            vec = np.asarray(losses, dtype=np.float64)
            if vec.shape != self.cum.shape:
                raise ValueError(f"expected {len(self.ids)} losses, got {vec.shape}")
        if vec.min() < -1e-12 or vec.max() > 1.0 + 1e-12:
            raise ValueError("loss outside range [0, 1]")
        self.cum += vec
        self.cum -= self.cum.min()

    def sample(self, rng: np.random.Generator) -> Hashable:
        """Draw one id from the current distribution (one uniform consumed)."""
        cdf = np.cumsum(self.weights())
        k = int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))
        return self.ids[min(k, len(self.ids) - 1)]

    def run_block(self, losses: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample-then-update over a block of rounds in one vectorized pass.

        losses has shape (rounds, len(ids)); returns the sampled column index
        per round. Equivalent to repeated sample()/update() with one uniform
        per round, up to floating rounding in the cumulative sums.
        """
        losses = np.asarray(losses, dtype=np.float64)
        rounds = losses.shape[0]
        if losses.shape != (rounds, len(self.ids)):
            raise ValueError(f"expected shape (rounds, {len(self.ids)})")
        if rounds == 0:
            return np.empty(0, dtype=np.int64)
        if losses.min() < -1e-12 or losses.max() > 1.0 + 1e-12:
            raise ValueError("loss outside range [0, 1]")
        pre = self.cum + np.vstack([np.zeros(len(self.ids)), np.cumsum(losses, axis=0)[:-1]])
        w = np.exp(-self.eta * (pre - pre.min(axis=1, keepdims=True)))
        cdf = np.cumsum(w, axis=1)
        u = rng.random(rounds) * cdf[:, -1]
        picks = (cdf < u[:, None]).sum(axis=1)
        np.minimum(picks, len(self.ids) - 1, out=picks)
        self.cum += losses.sum(axis=0)
        self.cum -= self.cum.min()
        return picks

    def __len__(self) -> int:
        return len(self.ids)
