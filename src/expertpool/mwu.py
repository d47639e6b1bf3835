"""Exponential-weights learner over a fixed finite expert set.

Losses lie in [0, 1]. Weights are never stored: the state keeps cumulative
losses and derives the distribution on demand, relative to the running minimum
so the exp arguments stay bounded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = ["MwuState"]


@lru_cache(maxsize=256)
def _default_eta(m: int, horizon: int) -> float:
    """eta = sqrt(ln m / horizon); a singleton set has no meaningful rate, so
    it falls back to 1."""
    return 1.0 if m == 1 else float(np.sqrt(np.log(m) / horizon))


def _check_losses(losses: np.ndarray) -> None:
    """Reject losses outside [0, 1] (within 1e-12), NaN included: ``min`` and
    ``max`` return NaN for an array holding one, and NaN fails both comparisons."""
    if not (np.minimum.reduce(losses, axis=None) >= -1e-12
            and np.maximum.reduce(losses, axis=None) <= 1.0 + 1e-12):
        raise ValueError("loss outside range [0, 1]")


class MwuState:
    """Distribution over positions 0..m-1 with p(i) proportional to exp(-eta * cum(i))."""

    def __init__(self, m: int, horizon: int, eta: float | None = None):
        if m < 1:
            raise ValueError(f"expert set must be nonempty, got m={m}")
        if horizon < 1:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self.eta = _default_eta(m, horizon) if eta is None else float(eta)
        self.cum = np.zeros(m)

    # -- distribution -------------------------------------------------------

    def distribution(self) -> np.ndarray:
        w = np.exp(-self.eta * (self.cum - self.cum.min()))
        return w / w.sum()

    # -- updates ------------------------------------------------------------

    def update(self, losses: Sequence[float]) -> None:
        """Add one round of losses (one entry per position, in order, in range)."""
        vec = np.asarray(losses, dtype=np.float64)
        if vec.shape != self.cum.shape:
            raise ValueError(f"expected {len(self.cum)} losses, got {vec.shape}")
        _check_losses(vec)
        self.cum += vec
        self.cum -= np.minimum.reduce(self.cum)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one position (one uniform consumed): a zero-loss round of
        ``run_block``, which leaves ``cum``, already rebased to 0, as it was."""
        return int(self.run_block(np.zeros((1, len(self.cum))), rng)[0])

    def run_block(self, losses: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample-then-update over a block of rounds in one vectorized pass.

        losses has shape (rounds, m); returns the sampled position per round.
        Equivalent to repeated sample()/update() with one uniform per round,
        up to floating rounding in the cumulative sums.
        """
        losses = np.asarray(losses, dtype=np.float64)
        rounds, m = losses.shape[0], len(self.cum)
        if losses.shape != (rounds, m):
            raise ValueError(f"expected shape (rounds, {m})")
        if rounds == 0:
            return np.empty(0, dtype=np.int64)
        _check_losses(losses)
        # rows 0..rounds-1: cum plus the losses of the earlier rounds; the last
        # row: the block's column sums
        pre = np.empty((rounds + 1, m))
        pre[0] = 0.0
        np.add.accumulate(losses, axis=0, out=pre[1:])
        w = pre[:-1]
        w += self.cum
        w -= np.minimum.reduce(w, axis=1, keepdims=True)
        w *= -self.eta
        np.exp(w, out=w)
        cdf = np.add.accumulate(w, axis=1, out=w)
        u = rng.random(rounds)
        u *= cdf[:, -1]
        # the steps rise, so counting over the first m-1 is min(count(cdf < u), m-1)
        picks = np.add.reduce(cdf[:, :-1] < u[:, None], axis=1)
        self.cum += pre[-1]
        self.cum -= np.minimum.reduce(self.cum)
        return picks
