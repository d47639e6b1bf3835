"""Loss-stream oracles: seeded oblivious generators, CSV-backed streams and
the adaptive zero-sum-game adversary, all behind one query interface.

Expert ids and day indices are 1-based throughout the public API.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "StreamParams",
    "LossOracle",
    "ConstantOracle",
    "BernoulliOracle",
    "EpochSpoilerOracle",
    "CsvOracle",
    "GameInstance",
    "GameOracle",
    "make_oracle",
    "count_covered_sets",
]

_GOLD_T = np.uint64(0x9E3779B97F4A7C15)
_GOLD_I = np.uint64(0xC2B2AE3D27D4EB4F)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization round, in place on a uint64 array.

    Array arithmetic wraps silently, so no error state is needed.
    """
    tmp = np.empty_like(x)
    x += _GOLD_T
    np.right_shift(x, _S30, out=tmp)
    x ^= tmp
    x *= _MIX_1
    np.right_shift(x, _S27, out=tmp)
    x ^= tmp
    x *= _MIX_2
    np.right_shift(x, _S31, out=tmp)
    x ^= tmp
    return x


def _day_half(seed: int, t: np.ndarray) -> np.ndarray:
    """The first splitmix64 round of the hash, keyed by (seed, day) only."""
    t = np.asarray(t, dtype=np.uint64)
    h = np.multiply(t, _GOLD_T, out=np.empty(t.shape, np.uint64))
    h ^= np.uint64(seed)
    return _splitmix64(h)


def _cell_half(day: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The second round on ``day ^ key`` (broadcast), as its top 53 bits."""
    h = np.bitwise_xor(day, key)
    _splitmix64(h)
    h >>= _S11
    return h


def _bits53(seed: int, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The top 53 bits of the two-round splitmix64 hash of (seed, t, i)."""
    i = np.asarray(i, dtype=np.uint64)
    return _cell_half(_day_half(seed, t),
                      np.multiply(i, _GOLD_I, out=np.empty(i.shape, np.uint64)))


def _uniform01(seed: int, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Deterministic uniform in [0, 1) as a pure function of (seed, t, i)."""
    return _bits53(seed, t, i) * (1.0 / (1 << 53))


@dataclass(frozen=True)
class StreamParams:
    """Problem dimensions shared by every oracle: expert count, horizon, seed."""

    n: int
    T: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need at least 2 experts, got n={self.n}")
        if self.T < 1:
            raise ValueError(f"horizon must be positive, got T={self.T}")


class LossOracle:
    """Query access to the day-t loss of expert i, always in [0, 1].

    Oblivious oracles are pure functions of (seed, t, i): query order and the
    learner's decisions never affect the returned values.
    """

    mode = "oblivious-generator"

    def __init__(self, params: StreamParams):
        self.params = params

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def T(self) -> int:
        return self.params.T

    def _check(self, t: int, i: int) -> None:
        if not 1 <= t <= self.params.T:
            raise IndexError(f"day {t} outside [1, {self.params.T}]")
        if not 1 <= i <= self.params.n:
            raise IndexError(f"expert {i} outside [1, {self.params.n}]")

    def loss(self, t: int, i: int) -> float:
        self._check(t, i)
        return float(self.loss_block(t, t, np.array([i]))[0, 0])

    def loss_block(self, t0: int, t1: int, ids: Sequence[int]) -> np.ndarray:
        """Losses for days t0..t1 (inclusive) and the given ids, shape (days, len(ids))."""
        raise NotImplementedError

    def full_matrix(self) -> np.ndarray:
        """The entire T x n loss matrix (harness-side use only; not metered)."""
        return self.loss_block(1, self.params.T, np.arange(1, self.params.n + 1))


def _check_unit(values: np.ndarray, what: str) -> None:
    """Reject values outside [0, 1], NaN included: ``min`` and ``max`` return
    NaN for an array holding one, and NaN fails both comparisons."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1]")


class _HashedOracle(LossOracle):
    """An oracle whose cells are ``_bits53(seed, t, i)``. The day half of the
    hash (one word per day) and each expert's key ``i * _GOLD_I`` are computed
    once, harness-side and unmetered, so a block costs one splitmix round per
    cell."""

    def __init__(self, params: StreamParams):
        super().__init__(params)
        self._day = _day_half(params.seed, np.arange(params.T + 1))
        self._key = np.arange(params.n + 1, dtype=np.uint64) * _GOLD_I

    def _bits(self, t0: int, t1: int, ids: np.ndarray) -> np.ndarray:
        """``_bits53`` over days t0..t1 and the given ids, shape (days, len(ids))."""
        if not 1 <= t0 <= t1 + 1 <= self.params.T + 1:
            raise IndexError(f"days {t0}..{t1} outside [1, {self.params.T}]")
        return _cell_half(self._day[t0:t1 + 1, None], self._key[ids])


class ConstantOracle(LossOracle):
    """Each expert has a fixed loss every day."""

    def __init__(self, params: StreamParams, means: Sequence[float]):
        super().__init__(params)
        means = np.asarray(means, dtype=np.float64)
        if means.shape != (params.n,):
            raise ValueError(f"need {params.n} means, got {means.shape}")
        _check_unit(means, "constant losses")
        self.means = means

    def loss_block(self, t0, t1, ids):
        ids = np.asarray(ids, dtype=np.int64)
        row = self.means[ids - 1]
        return np.broadcast_to(row, (t1 - t0 + 1, len(ids))).copy()


def _resolve_means(params: StreamParams, spec: dict) -> np.ndarray:
    if "means" in spec:
        means = np.asarray(spec["means"], dtype=np.float64)
        if means.shape != (params.n,):
            raise ValueError(f"need {params.n} means, got {means.shape}")
    elif "mean-range" in spec:
        lo, hi = spec["mean-range"]
        rng = np.random.default_rng(params.seed)
        means = rng.uniform(lo, hi, size=params.n)
        for sid, m in spec.get("overrides", {}).items():
            means[int(sid) - 1] = m
    else:
        raise ValueError("iid-bernoulli needs 'means' or 'mean-range'")
    _check_unit(means, "Bernoulli means")
    return means


class BernoulliOracle(_HashedOracle):
    """Independent 0/1 losses; expert i succeeds with probability 1 - mean_i."""

    def __init__(self, params: StreamParams, means: np.ndarray):
        super().__init__(params)
        self.means = np.asarray(means, dtype=np.float64)
        if np.isnan(self.means).any():
            raise ValueError("Bernoulli means must not be NaN")
        # u < mean with u = k / 2^53 and integer k is exactly k < ceil(mean * 2^53)
        self._cut = np.ceil(np.clip(self.means, 0.0, 1.0) * 2.0**53).astype(np.uint64)

    def loss_block(self, t0, t1, ids):
        ids = np.asarray(ids, dtype=np.int64)
        return (self._bits(t0, t1, ids) < self._cut[ids - 1]).astype(np.float64)


class EpochSpoilerOracle(_HashedOracle):
    """One designated best expert with constant low loss; in every third epoch,
    freshly keyed decoy experts undercut it to bait eviction of the incumbent.
    """

    def __init__(self, params: StreamParams, best_id: int, base_loss: float,
                 decoy_loss: float, epoch_length: int, decoy_count: int = 2):
        super().__init__(params)
        if not 1 <= best_id <= params.n:
            raise ValueError(f"best-id {best_id} outside [1, {params.n}]")
        if not (0.0 <= decoy_loss < base_loss <= 1.0):
            raise ValueError("need 0 <= decoy-loss < base-loss <= 1")
        if epoch_length < 1:
            raise ValueError("epoch-length must be positive")
        self.best_id = best_id
        self.base_loss = base_loss
        self.decoy_loss = decoy_loss
        self.epoch_length = epoch_length
        self.decoy_count = min(decoy_count, params.n - 1)

    def _decoys(self, epoch: int) -> set[int]:
        """Seed-derived decoy ids for one spoiler epoch."""
        picked: set[int] = set()
        j = 0
        while len(picked) < self.decoy_count:
            h = _uniform01(self.params.seed ^ 0x5B0C0FFEE, np.array([epoch]),
                           np.array([j]))[0]
            cand = 1 + int(h * self.params.n)
            if cand != self.best_id:
                picked.add(cand)
            j += 1
        return picked

    def loss_block(self, t0, t1, ids):
        ids = np.asarray(ids, dtype=np.int64)
        days = np.arange(t0, t1 + 1, dtype=np.int64)
        # Field losses sit well above base_loss so the designated expert wins.
        jitter = self._bits(t0, t1, ids) * (1.0 / (1 << 53))
        hi = min(1.0, self.base_loss + 0.3)
        out = np.minimum(1.0, hi + 0.2 * jitter)
        out[:, ids == self.best_id] = self.base_loss
        epochs = (days - 1) // self.epoch_length
        for e in np.unique(epochs):
            if e % 3 != 1:
                continue
            rows = epochs == e
            decoys = self._decoys(int(e))
            for c, i in enumerate(ids):
                if int(i) in decoys:
                    out[rows, c] = self.decoy_loss
        return out


class CsvOracle(LossOracle):
    """Losses replayed from a CSV file with header ``t,e1,...,en``."""

    mode = "oblivious-file"

    def __init__(self, params: StreamParams, path: str):
        super().__init__(params)
        try:
            with open(path, newline="") as fh:
                header = next(csv.reader(fh), None)
                if header is None:
                    raise ValueError(f"loss file {path!r} is empty")
                expected = ["t"] + [f"e{i}" for i in range(1, params.n + 1)]
                if header != expected:
                    raise ValueError(f"bad header in {path!r}: {header}")
                try:
                    data = np.loadtxt(fh, delimiter=",", ndmin=2,
                                      max_rows=params.T)
                except ValueError as exc:
                    raise ValueError(f"malformed rows in {path!r}: {exc}") from exc
        except OSError as exc:
            raise FileNotFoundError(f"loss file {path!r}: {exc}") from exc
        if data.shape[0] < params.T:
            raise ValueError(f"loss file has {data.shape[0]} days, need {params.T}")
        if data.shape != (params.T, params.n + 1):
            raise ValueError(f"ragged rows in {path!r}")
        if not np.array_equal(data[:, 0], np.arange(1, params.T + 1)):
            raise ValueError(f"day column in {path!r} is not 1..{params.T}")
        mat = data[:, 1:]
        _check_unit(mat, f"losses in {path!r}")
        self.matrix = np.ascontiguousarray(mat)

    def loss_block(self, t0, t1, ids):
        ids = np.asarray(ids, dtype=np.int64)
        return self.matrix[t0 - 1 : t1, :][:, ids - 1].copy()


# ---------------------------------------------------------------------------
# Zero-sum game adversary
# ---------------------------------------------------------------------------

@dataclass
class GameInstance:
    """Generalized matching-penny game on a hidden support S of size k.

    The row player's raw loss is 4 off-support, 1 when matched on support and
    0 otherwise; the minmax value is 1/k, attained by uniform play on S.
    """

    n: int
    k: int
    seed: int = 0
    S: frozenset[int] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"support size {self.k} outside [1, {self.n}]")
        rng = np.random.default_rng(self.seed)
        members = rng.choice(self.n, size=self.k, replace=False) + 1
        self.S = frozenset(int(v) for v in members)

    def matrix_entry(self, i: int, j: int) -> float:
        """Raw loss A[i, j] of the row player."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"action pair ({i}, {j}) outside [1, {self.n}]^2")
        if i not in self.S:
            return 4.0
        return 1.0 if i == j else 0.0

    def column(self, j: int) -> np.ndarray:
        """Raw loss column A[:, j], 0-indexed internally."""
        col = np.full(self.n, 4.0)
        for i in self.S:
            col[i - 1] = 1.0 if i == j else 0.0
        return col

    def column_losses(self, p: np.ndarray) -> np.ndarray:
        """p^T A e_j for every column j.

        Off-support rows pay 4 against every column; on-support row i pays 1
        only against column i, so the value is 4 * (off-support mass) plus,
        for on-support columns, the mass the row player puts there.
        """
        p = _check_distribution(p, self.n)
        support = np.array(sorted(self.S)) - 1
        off_mass = float(p.sum() - p[support].sum())
        vals = np.full(self.n, 4.0 * off_mass)
        vals[support] += p[support]
        return vals

    def worst_case_loss(self, p: np.ndarray) -> float:
        """max_j p^T A e_j on the raw [0, 4] scale."""
        return float(self.column_losses(p).max())

    def best_response(self, p: np.ndarray) -> tuple[int, float]:
        """Maximizing column and its value; ties break to the lowest index."""
        vals = self.column_losses(p)
        j = int(np.argmax(vals)) + 1
        return j, float(vals[j - 1])

    def equilibrium(self) -> np.ndarray:
        p = np.zeros(self.n)
        for i in self.S:
            p[i - 1] = 1.0 / self.k
        return p


def _check_distribution(p: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (n,):
        raise ValueError(f"strategy must have shape ({n},), got {p.shape}")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("strategy is not a probability distribution")
    return p


def count_covered_sets(n: int, k: int, p: np.ndarray) -> int:
    """Number of size-k supports whose worst-case raw loss under p is < 2/k.

    Exhaustive enumeration; guarded to binomial(n, k) <= 1e6.
    """
    if math.comb(n, k) > 10**6:
        raise ValueError(f"binomial({n}, {k}) exceeds the enumeration guard")
    p = _check_distribution(p, n)
    total = p.sum()
    count = 0
    for S in combinations(range(1, n + 1), k):
        mass = sum(p[i - 1] for i in S)
        worst = 4.0 * (total - mass) + max(p[i - 1] for i in S)
        if worst < 2.0 / k:
            count += 1
    return count


class GameOracle(LossOracle):
    """Adaptive adversary: per round, commits Bob's best response to the
    learner's mixed strategy and serves the normalized loss column.
    """

    mode = "adaptive-game"

    def __init__(self, params: StreamParams, k: int, seed: int | None = None):
        super().__init__(params)
        self.game = GameInstance(params.n, k, params.seed if seed is None else seed)
        self._round = 0
        self._columns: dict[int, np.ndarray] = {}
        self._responses: dict[int, int] = {}

    def adversary_step(self, p: np.ndarray) -> tuple[int, np.ndarray]:
        """Commit round t: best-respond to p, return (action, normalized losses)."""
        y, _ = self.game.best_response(p)
        self._round += 1
        vec = self.game.column(y) / 4.0
        self._columns[self._round] = vec
        self._responses[self._round] = y
        return y, vec

    def loss(self, t: int, i: int) -> float:
        self._check(t, i)
        if t not in self._columns:
            raise RuntimeError(f"uncommitted round {t}: call adversary_step first")
        return float(self._columns[t][i - 1])

    def loss_block(self, t0, t1, ids):
        ids = np.asarray(ids, dtype=np.int64)
        out = np.empty((t1 - t0 + 1, len(ids)))
        for r, t in enumerate(range(t0, t1 + 1)):
            if t not in self._columns:
                raise RuntimeError(f"uncommitted round {t}: call adversary_step first")
            out[r] = self._columns[t][ids - 1]
        return out


_GENERATORS = {"constant", "iid-bernoulli", "epoch-spoiler", "csv-file", "adaptive-game"}


def make_oracle(params: StreamParams, spec: dict) -> LossOracle:
    """Build an oracle from a generator descriptor (see the config schema)."""
    kind = spec.get("generator")
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; expected one of {sorted(_GENERATORS)}")
    if kind == "constant":
        return ConstantOracle(params, spec["means"])
    if kind == "iid-bernoulli":
        return BernoulliOracle(params, _resolve_means(params, spec))
    if kind == "epoch-spoiler":
        return EpochSpoilerOracle(
            params,
            best_id=spec["best-id"],
            base_loss=spec["base-loss"],
            decoy_loss=spec["decoy-loss"],
            epoch_length=spec["epoch-length"],
            decoy_count=spec.get("decoy-count", 2),
        )
    if kind == "csv-file":
        return CsvOracle(params, spec["path"])
    return GameOracle(params, k=spec["k"], seed=spec.get("game-seed"))
