"""Loss-stream oracles behind one query interface: the oblivious streams
that ``make_oracle`` builds by name from its one generator table (seeded
generators and CSV replay), and the adaptive zero-sum-game adversary, which
only the lower-bound demo builds.

Expert ids and day indices are 1-based throughout the public API.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import numbers
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
    "GENERATORS",
    "stream_builder",
    "make_oracle",
    "count_covered_sets",
    "check_number",
    "check_int_list",
    "check_object",
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


def check_number(name: str, value, integral: bool = False) -> None:
    """ValueError unless ``value`` is a number (an integer if ``integral``) and
    not a bool: a config's "16" or 1e3 is bad input, not a programming error."""
    kind, what = (numbers.Integral, "an integer") if integral else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def check_int_list(name: str, value) -> None:
    """ValueError unless ``value`` is a nonempty list of integers (not bools)."""
    if not (isinstance(value, list) and value
            and all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                    for v in value)):
        raise ValueError(f"{name} must be a nonempty list of integers, got {value!r}")


def check_object(name: str, value) -> None:
    """ValueError unless ``value`` is a JSON object (a dict)."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")


@dataclass(frozen=True)
class StreamParams:
    """Problem dimensions shared by every oracle: expert count, horizon, seed."""

    n: int
    T: int
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "T", "seed"):
            check_number(name, getattr(self, name), integral=True)
        if self.n < 2:
            raise ValueError(f"need at least 2 experts, got n={self.n}")
        if self.T < 1:
            raise ValueError(f"horizon must be positive, got T={self.T}")


class LossOracle:
    """Daily expert losses in [0, 1], read only through ``loss_block``.

    Oblivious oracles are pure functions of (seed, t, i): query order and the
    learner's decisions never affect the returned values.
    """

    def __init__(self, params: StreamParams):
        self.params = params

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def T(self) -> int:
        return self.params.T

    def loss_block(self, t0: int, t1: int, ids: Sequence[int]) -> np.ndarray:
        """Losses for days t0..t1 (inclusive) and the given ids, shape (days, len(ids))."""
        raise NotImplementedError


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
        overrides = spec.get("overrides", {})
        check_object("overrides", overrides)
        rng = np.random.default_rng(params.seed)
        means = rng.uniform(lo, hi, size=params.n)
        for sid, m in overrides.items():
            if not 1 <= int(sid) <= params.n:
                raise ValueError(f"override id {sid!r} outside [1, {params.n}]")
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
    two freshly keyed decoy experts (one when n = 2) undercut it to bait
    eviction of the incumbent.
    """

    def __init__(self, params: StreamParams, best_id: int, base_loss: float,
                 decoy_loss: float, epoch_length: int):
        super().__init__(params)
        check_number("best-id", best_id, integral=True)
        check_number("epoch-length", epoch_length, integral=True)
        check_number("base-loss", base_loss)
        check_number("decoy-loss", decoy_loss)
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
        self._decoy_memo: dict[int, set[int]] = {}  # harness-side, unmetered

    def _decoys(self, epoch: int) -> set[int]:
        """Seed-derived decoy ids for one spoiler epoch, drawn once per epoch:
        the windows of a stream pass split an epoch over several blocks."""
        if epoch not in self._decoy_memo:
            self._decoy_memo[epoch] = self._draw_decoys(epoch)
        return self._decoy_memo[epoch]

    def _draw_decoys(self, epoch: int) -> set[int]:
        picked: set[int] = set()
        j = 0
        while len(picked) < min(2, self.params.n - 1):
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


_CHUNK = 1 << 20  # bytes per read of a loss file
# The last loss file parsed, at most one entry: (sha256 of its bytes, n, T) ->
# its checked (T, n + 1) matrix, day column first, read-only.
_PARSED: dict[tuple[bytes, int, int], np.ndarray] = {}


class _HashingReader(io.RawIOBase):
    """A raw binary file that feeds every byte read from it into a sha256."""

    def __init__(self, raw):
        self.raw = raw
        self.sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self.raw.readinto(b)
        self.sha.update(memoryview(b)[:n])
        return n

    def digest(self) -> bytes:
        """The sha256 of all bytes read, once the rest of the file is read."""
        chunk = bytearray(_CHUNK)
        while self.readinto(chunk):
            pass
        return self.sha.digest()


def _load_csv(path: str, params: StreamParams) -> np.ndarray:
    """The checked (T, n + 1) matrix of a loss file, day column first, read-only.

    A process parses each (content, n, T) once. The last matrix parsed is kept
    under the sha256 of the very bytes its parse read (not those of the lookup
    hash, should the file change in between) and served to every later oracle
    whose file hashes the same.
    """
    with open(path, "rb", buffering=0) as raw:
        key = (_HashingReader(raw).digest(), params.n, params.T)
        if key in _PARSED:
            return _PARSED[key]
        _PARSED.clear()  # free the kept matrix before parsing the next
        raw.seek(0)
        parsed = _HashingReader(raw)
        with io.TextIOWrapper(io.BufferedReader(parsed, _CHUNK), newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"loss file {path!r} is empty")
            expected = ["t"] + [f"e{i}" for i in range(1, params.n + 1)]
            if header != expected:
                raise ValueError(f"bad header in {path!r}: {header}")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=params.T)
            except ValueError as exc:
                raise ValueError(f"malformed rows in {path!r}: {exc}") from exc
            key = (parsed.digest(), params.n, params.T)
    if data.shape[0] < params.T:
        raise ValueError(f"loss file has {data.shape[0]} days, need {params.T}")
    if data.shape != (params.T, params.n + 1):
        raise ValueError(f"ragged rows in {path!r}")
    if not np.array_equal(data[:, 0], np.arange(1, params.T + 1)):
        raise ValueError(f"day column in {path!r} is not 1..{params.T}")
    _check_unit(data[:, 1:], f"losses in {path!r}")
    data.flags.writeable = False
    _PARSED[key] = data
    return data


class CsvOracle(LossOracle):
    """Losses replayed from a CSV file with header ``t,e1,...,en``, parsed once
    per distinct content, n and T in a process (see ``_load_csv``)."""

    def __init__(self, params: StreamParams, path: str):
        super().__init__(params)
        if not isinstance(path, str):  # open() would take an int for a descriptor
            raise ValueError(f"loss file path must be a string, got {path!r}")
        try:
            data = _load_csv(path, params)
        except OSError as exc:
            raise FileNotFoundError(f"loss file {path!r}: {exc}") from exc
        self.matrix = data[:, 1:]  # a view: the day column stays beside it

    def loss_block(self, t0, t1, ids):
        # take, not fancy indexing: a[:, idx] comes back in Fortran order
        ids = np.asarray(ids, dtype=np.int64)
        return np.take(self.matrix[t0 - 1:t1], ids - 1, axis=1)


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
    learner's mixed strategy and serves that round's normalized loss column,
    the only one it keeps.
    """

    def __init__(self, params: StreamParams, k: int):
        super().__init__(params)
        self.game = GameInstance(params.n, k, params.seed)
        self._round = 0
        self._column = np.empty(0)

    def adversary_step(self, p: np.ndarray) -> tuple[int, np.ndarray]:
        """Commit round t: best-respond to p, return (action, normalized losses)."""
        y, _ = self.game.best_response(p)
        self._round += 1
        self._column = self.game.column(y) / 4.0
        return y, self._column

    def loss_block(self, t0, t1, ids):
        if not t0 == t1 == self._round > 0:
            raise RuntimeError(f"uncommitted round {t0}..{t1}: only round "
                               f"{self._round} is live; call adversary_step first")
        return self._column[np.asarray(ids, dtype=np.int64) - 1][None, :]


GENERATORS = {
    "constant": lambda params, spec: ConstantOracle(params, spec["means"]),
    "iid-bernoulli": lambda params, spec: BernoulliOracle(
        params, _resolve_means(params, spec)),
    "epoch-spoiler": lambda params, spec: EpochSpoilerOracle(
        params, best_id=spec["best-id"], base_loss=spec["base-loss"],
        decoy_loss=spec["decoy-loss"], epoch_length=spec["epoch-length"]),
    "csv-file": lambda params, spec: CsvOracle(params, spec["path"]),
}


def stream_builder(spec: dict):
    """The ``GENERATORS`` entry that ``spec["generator"]`` names."""
    kind = spec.get("generator") if isinstance(spec, dict) else None
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}; expected one of {sorted(GENERATORS)}")
    return GENERATORS[kind]


def make_oracle(params: StreamParams, spec: dict) -> LossOracle:
    """Build an oblivious oracle from a generator descriptor (see the config schema)."""
    return stream_builder(spec)(params, spec)
