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
import os
import re
import warnings
from dataclasses import dataclass, field
from itertools import chain, combinations
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
    "check_path",
    "check_keys",
    "check_present",
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


def _bits53(seed: int, t: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The top 53 bits of the two-round splitmix64 hash of (seed, t, i),
    broadcast: the first round runs once per day of ``t``, keyed by (seed,
    day), and the second once per cell, on that word xor ``i * _GOLD_I``."""
    t = np.asarray(t, dtype=np.uint64)
    i = np.asarray(i, dtype=np.uint64)
    day = np.multiply(t, _GOLD_T, out=np.empty(t.shape, np.uint64))
    day ^= np.uint64(seed)
    h = _splitmix64(day) ^ np.multiply(i, _GOLD_I, out=np.empty(i.shape, np.uint64))
    _splitmix64(h)
    h >>= _S11
    return h


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


def check_path(name: str, value) -> None:
    """ValueError unless ``value`` is a path, a string or ``os.PathLike``:
    ``open()`` would take a config's 3 for a file descriptor."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name} must be a string, got {value!r}")


def check_keys(what: str, d: dict, allowed) -> None:
    """ValueError on a key outside ``allowed``, which would run its default."""
    unknown = [k for k in d if k not in allowed]
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; allowed: {list(allowed)}")


def check_present(what: str, d: dict, required) -> None:
    """ValueError naming every key of ``required`` that ``d`` lacks."""
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{what} lacks {missing}")


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
        if not 0 <= self.seed < 2**64:  # the hash keys on the seed as a uint64
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


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

    def _checked(self, t0: int, t1: int, ids: Sequence[int]) -> np.ndarray:
        """``ids`` as int64, once days t0..t1 lie in [1, T] (t1 = t0 - 1 reads no
        day) and ids in [1, n]: numpy would read id 0 as expert n. Else IndexError."""
        if not 1 <= t0 <= t1 + 1 <= self.T + 1:
            raise IndexError(f"days {t0}..{t1} outside [1, {self.T}]")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and not (ids.min() >= 1 and ids.max() <= self.n):
            raise IndexError(f"ids {ids[(ids < 1) | (ids > self.n)]} outside [1, {self.n}]")
        return ids


def _check_unit(values: np.ndarray, what: str) -> None:
    """Reject values outside [0, 1], NaN included: ``min`` and ``max`` return
    NaN for an array holding one, and NaN fails both comparisons."""
    if not (values.min() >= 0.0 and values.max() <= 1.0):
        raise ValueError(f"{what} must lie in [0, 1]")


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
        ids = self._checked(t0, t1, ids)
        row = self.means[ids - 1]
        return np.broadcast_to(row, (t1 - t0 + 1, len(ids))).copy()


def _spec_means(spec: dict) -> list:
    """A stream spec's ``means``, checked to be a list of numbers."""
    means = spec["means"]
    if not isinstance(means, list):
        raise ValueError(f"means must be a list of numbers, got {means!r}")
    for m in means:
        check_number("means", m)
    return means


def _resolve_means(params: StreamParams, spec: dict) -> np.ndarray:
    if "means" in spec:  # mean-range and overrides would go unread
        check_keys("iid-bernoulli stream keys with means", spec, ("generator", "means"))
        means = np.asarray(_spec_means(spec), dtype=np.float64)
    elif "mean-range" in spec:
        bounds = spec["mean-range"]
        if not (isinstance(bounds, list) and len(bounds) == 2):
            raise ValueError(f"mean-range must be a list of two numbers, got {bounds!r}")
        for bound in bounds:
            check_number("mean-range", bound)
        lo, hi = bounds
        if lo > hi:
            raise ValueError(f"mean-range must be [low, high] with low <= high, got {bounds!r}")
        overrides = spec.get("overrides", {})
        check_object("overrides", overrides)
        rng = np.random.default_rng(params.seed)
        means = rng.uniform(lo, hi, size=params.n)
        seen: dict[int, str] = {}  # expert -> the id that named it
        for sid, m in overrides.items():
            if not (str(sid).isdecimal() and 1 <= int(sid) <= params.n):
                raise ValueError(f"override id {sid!r} outside [1, {params.n}]")
            if int(sid) in seen:
                raise ValueError(f"repeated override id: {seen[int(sid)]!r} and {sid!r} "
                                 f"both name expert {int(sid)}")
            seen[int(sid)] = sid
            check_number("overrides", m)
            means[int(sid) - 1] = m
    else:
        raise ValueError("iid-bernoulli needs 'means' or 'mean-range'")
    return means


class BernoulliOracle(LossOracle):
    """Independent 0/1 losses; expert i succeeds with probability 1 - mean_i."""

    def __init__(self, params: StreamParams, means: np.ndarray):
        super().__init__(params)
        self.means = np.asarray(means, dtype=np.float64)
        if self.means.shape != (params.n,):
            raise ValueError(f"need {params.n} means, got {self.means.shape}")
        if np.isnan(self.means).any():
            raise ValueError("Bernoulli means must not be NaN")
        _check_unit(self.means, "Bernoulli means")
        # u < mean with u = k / 2^53 and integer k is exactly k < ceil(mean * 2^53)
        self._cut = np.ceil(self.means * 2.0**53).astype(np.uint64)

    def loss_block(self, t0, t1, ids):
        ids = self._checked(t0, t1, ids)
        k = _bits53(self.params.seed, np.arange(t0, t1 + 1)[:, None], ids)
        return (k < self._cut[ids - 1]).astype(np.float64)


class EpochSpoilerOracle(LossOracle):
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
        ids = self._checked(t0, t1, ids)
        # Field losses sit well above base_loss so the designated expert wins.
        jitter = _uniform01(self.params.seed, np.arange(t0, t1 + 1)[:, None], ids)
        hi = min(1.0, self.base_loss + 0.3)
        out = np.minimum(1.0, hi + 0.2 * jitter)
        out[:, ids == self.best_id] = self.base_loss
        L = self.epoch_length
        for e in range((t0 - 1) // L, (t1 - 1) // L + 1):  # epoch e holds days eL+1..(e+1)L
            if e % 3 == 1:
                rows = slice(max(e * L + 1, t0) - t0, min((e + 1) * L, t1) - t0 + 1)
                out[rows, np.isin(ids, list(self._decoys(e)))] = self.decoy_loss
        return out


_CHUNK = 1 << 20  # bytes per read of a loss file
_PARSE_CELLS = 2**17  # cells per chunk of rows parsed from a loss file, day column included
# A loss file's checked losses, read-only: (one bit a cell, table) or (float64, None)
_Losses = tuple[np.ndarray, np.ndarray | None]
# The last loss file parsed, at most one entry: (sha256 of its bytes, n, T) ->
# its losses, see ``_read_losses``.
_PARSED: dict[tuple[bytes, int, int], _Losses] = {}


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


def _read_losses(fh, path: str, params: StreamParams, size: int) -> _Losses:
    """The checked losses in the rows after the header of a loss file of
    ``size`` bytes, parsed ``_PARSE_CELLS`` cells at a time, as read-only
    (store, table). While the file shows at most two distinct values (by bit
    pattern, so -0.0 and 0.0 differ), the table holds them, each keeping the
    position it took when first read, and the store holds each cell as one
    bit, its position in the table, packed 8 cells a byte along the row. Once a third value shows up,
    the store is the float64 losses themselves and the table is None. The day
    column is checked, not kept.

    The checks and messages are those of one read of all T rows: malformed
    rows anywhere come first, then a short file, then ragged rows, the day
    column and the range. Each chunk after the first is parsed behind a pad
    line as wide as the first row, so numpy itself reports a change of column
    count at the chunk's first row, in row order with any bad value after it.
    """
    n, T = params.n, params.T
    rows = max(1, _PARSE_CELLS // (n + 1))
    # a row of n + 1 cells takes at least 2(n + 1) bytes, the last one's
    # newline aside: the store is never larger than the file can fill
    days = min(T, (size + 1) // (2 * (n + 1)))
    keys = np.empty(0, np.uint64)  # the bit patterns of the table; None past two
    # a page is resident only once written, and a row seen while the table
    # holds one value keeps its zeros
    store = np.zeros((days, (n + 7) // 8), np.uint8)
    t = 0  # rows read
    pad = None  # a line of zeros as wide as the first row
    late = None  # a ragged-row or day-column error, raised once every row is read
    while t < days:
        skip = pad is not None
        try:
            with warnings.catch_warnings():  # numpy's blank-line notes count from the chunk
                warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
                chunk = np.loadtxt(chain([pad], fh) if skip else fh, delimiter=",", ndmin=2,
                                   max_rows=min(rows, days - t) + skip)[skip:]
        except ValueError as exc:  # numpy counts rows from the chunk's first line
            detail = re.sub(r"(?<=at row )\d+", lambda m: str(int(m[0]) + t - skip), str(exc),
                            count=1)
            raise ValueError(f"malformed rows in {path!r}: {detail}") from exc
        if not len(chunk):
            break
        if pad is None:
            pad = ",".join("0" * chunk.shape[1]) + "\n"
        r = len(chunk)
        if late is None:
            if chunk.shape[1] != n + 1:
                late = f"ragged rows in {path!r}"
            elif not np.array_equal(chunk[:, 0], np.arange(t + 1, t + r + 1)):
                late = f"day column in {path!r} is not 1..{T}"
            else:
                losses = chunk[:, 1:]
                if keys is not None:
                    bits = losses.view(np.uint64)
                    seen = np.isin(bits, keys)
                    if not seen.all():  # only chunks with new values pay
                        keys = np.concatenate([keys, np.unique(bits[~seen])])
                    if len(keys) > 2:  # float64 cells from here on
                        cells = np.empty((days, n))
                        table = keys[:2].view(np.float64)
                        for s in range(0, t, rows):  # decoded a chunk at a time
                            e = min(s + rows, t)
                            table.take(np.unpackbits(store[s:e], axis=1, count=n), out=cells[s:e])
                        store, keys = cells, None
                    elif len(keys) == 2:
                        store[t:t + r] = np.packbits(bits == keys[1], axis=1)
                if keys is None:
                    store[t:t + r] = losses
        t += r
    if t < T:
        raise ValueError(f"loss file has {t} days, need {T}")
    if late is not None:
        raise ValueError(late)
    table = None if keys is None else keys.view(np.float64)
    _check_unit(store if table is None else table, f"losses in {path!r}")
    for a in (store,) if table is None else (store, table):
        a.flags.writeable = False
    return store, table


def _load_csv(path: str, params: StreamParams) -> _Losses:
    """The checked losses of a loss file as read-only (store, table), see
    ``_read_losses``.

    A process parses each (content, n, T) once. The last file parsed is kept
    under the sha256 of the very bytes its parse read (not those of the lookup
    hash, should the file change in between) and served to every later oracle
    whose file hashes the same.
    """
    with open(path, "rb", buffering=0) as raw:
        key = (_HashingReader(raw).digest(), params.n, params.T)
        if key in _PARSED:
            return _PARSED[key]
        _PARSED.clear()  # free the kept losses before parsing the next
        size = raw.seek(0, os.SEEK_END)
        raw.seek(0)
        parsed = _HashingReader(raw)
        with io.TextIOWrapper(io.BufferedReader(parsed, _CHUNK), newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ValueError(f"loss file {path!r} is empty")
            expected = ["t"] + [f"e{i}" for i in range(1, params.n + 1)]
            if header != expected:
                raise ValueError(f"bad header in {path!r}: {header}")
            losses = _read_losses(fh, path, params, size)
            key = (parsed.digest(), params.n, params.T)
    _PARSED[key] = losses
    return losses


class CsvOracle(LossOracle):
    """Losses replayed from a CSV file with header ``t,e1,...,en``, parsed once
    per distinct content, n and T in a process (see ``_load_csv``).

    A file of at most two distinct values is kept in one bit a cell:
    ``store`` is a uint8 array of the cells' positions in ``table``, packed 8
    a byte along the row (see ``_read_losses``). Otherwise ``store`` holds
    the float64 losses and ``table`` is None.
    """

    def __init__(self, params: StreamParams, path: str):
        super().__init__(params)
        check_path("loss file path", path)
        try:
            self.store, self.table = _load_csv(path, params)
        except OSError as exc:
            raise FileNotFoundError(f"loss file {path!r}: {exc}") from exc

    def loss_block(self, t0, t1, ids):
        # take, not fancy indexing: a[:, idx] comes back in Fortran order
        cols = self._checked(t0, t1, ids) - 1
        if self.table is None:
            return np.take(self.store[t0 - 1:t1], cols, axis=1)
        block = np.take(np.unpackbits(self.store[t0 - 1:t1], axis=1, count=self.n), cols, axis=1)
        # every bit indexes the table, so "clip" only skips numpy's bounds
        # checks: 2.8x faster here than indexing by the uint8 bits
        return self.table.take(block, mode="clip")


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
        ids = self._checked(t0, t1, ids)
        if not t0 == t1 == self._round > 0:
            raise RuntimeError(f"uncommitted round {t0}..{t1}: only round "
                               f"{self._round} is live; call adversary_step first")
        return self._column[ids - 1][None, :]


_SPOILER_KEYS = ("best-id", "base-loss", "decoy-loss", "epoch-length")  # in argument order
# Each generator: (its builder, the keys it reads besides "generator", the keys it
# cannot do without); any other key is a typo. iid-bernoulli needs "means" or
# "mean-range", which _resolve_means checks.
GENERATORS = {
    "constant": (lambda params, spec: ConstantOracle(params, _spec_means(spec)),
                 ("means",), ("means",)),
    "iid-bernoulli": (lambda params, spec: BernoulliOracle(params, _resolve_means(params, spec)),
                      ("means", "mean-range", "overrides"), ()),
    "epoch-spoiler": (lambda params, spec: EpochSpoilerOracle(
        params, *(spec[k] for k in _SPOILER_KEYS)), _SPOILER_KEYS, _SPOILER_KEYS),
    "csv-file": (lambda params, spec: CsvOracle(params, spec["path"]), ("path",), ("path",)),
}


def stream_builder(spec: dict):
    """The builder of the ``GENERATORS`` entry that ``spec["generator"]``
    names, once the spec is checked to hold only the keys that entry reads and
    all of those it needs."""
    check_object("stream", spec)
    kind = spec.get("generator")
    if not (isinstance(kind, str) and kind in GENERATORS):
        raise ValueError(f"unknown generator {kind!r}; expected one of {sorted(GENERATORS)}")
    build, keys, needs = GENERATORS[kind]
    check_keys(f"{kind} stream keys", spec, ("generator", *keys))
    check_present(f"{kind} stream", spec, needs)
    return build


def make_oracle(params: StreamParams, spec: dict) -> LossOracle:
    """Build an oblivious oracle from a generator descriptor (see the config schema)."""
    return stream_builder(spec)(params, spec)
