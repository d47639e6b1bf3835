"""Tests for the loss-stream oracles and the zero-sum game adversary."""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from expertpool import streams
from expertpool.streams import (
    BernoulliOracle,
    ConstantOracle,
    CsvOracle,
    EpochSpoilerOracle,
    GameInstance,
    GameOracle,
    StreamParams,
    _bits53,
    _uniform01,
    count_covered_sets,
    make_oracle,
)

MASK64 = (1 << 64) - 1


def matrix(o):
    """The whole T x n loss matrix, read through ``loss_block``."""
    return o.loss_block(1, o.T, np.arange(1, o.n + 1))


def _splitmix64_int(x: int) -> int:
    """Reference splitmix64 finalization round on a Python int."""
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class TestStreamParams:
    def test_rejects_single_expert(self):
        with pytest.raises(ValueError):
            StreamParams(1, 10)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ValueError):
            StreamParams(4, 0)

    @pytest.mark.parametrize("n,T,seed", [("16", 10, 0), (4, 1e3, 0), (4, 40.0, 0),
                                          (4, True, 0), (4, 10, "3"), (4, 10, None)])
    def test_rejects_non_integers(self, n, T, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            StreamParams(n, T, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    def test_rejects_seed_outside_uint64(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            StreamParams(4, 10, seed=seed)

    def test_accepts_uint64_extremes(self):
        for seed in (0, 2**64 - 1):
            o = make_oracle(StreamParams(4, 10, seed=seed),
                            {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]})
            assert o.loss_block(1, 10, [1, 2, 3, 4]).shape == (10, 4)


class TestConstantOracle:
    def test_fixed_values(self):
        o = ConstantOracle(StreamParams(2, 4, seed=7), [0.0, 1.0])
        for t in range(1, 5):
            assert o.loss_block(t, t, [1])[0, 0] == 0.0
            assert o.loss_block(t, t, [2])[0, 0] == 1.0

    def test_query_at_specific_cell(self):
        o = ConstantOracle(StreamParams(2, 4), [0.0, 1.0])
        assert o.loss_block(3, 3, [2])[0, 0] == 1.0

    def test_rejects_out_of_range_means(self):
        with pytest.raises(ValueError):
            ConstantOracle(StreamParams(2, 4), [0.0, 1.5])

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConstantOracle(StreamParams(2, 4), [math.nan, 0.5])

    @pytest.mark.parametrize("means", [[0.5], [0.1, 0.2, 0.3]])
    def test_rejects_wrong_number_of_means(self, means):
        with pytest.raises(ValueError, match=rf"need 2 means, got \({len(means)},\)"):
            ConstantOracle(StreamParams(2, 4), means)


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        {"generator": "constant", "means": [0.2, 0.8, 0.5]},
        {"generator": "iid-bernoulli", "means": [0.2, 0.8, 0.5]},
        {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.3,
         "decoy-loss": 0.1, "epoch-length": 7},
    ])
    def test_full_matrix_bit_identical(self, spec):
        params = StreamParams(3, 50, seed=11)
        a = matrix(make_oracle(params, spec))
        b = matrix(make_oracle(params, spec))
        assert np.array_equal(a, b)

    def test_query_order_independent(self):
        params = StreamParams(4, 30, seed=5)
        o = make_oracle(params, {"generator": "iid-bernoulli",
                                 "means": [0.3, 0.4, 0.5, 0.6]})
        forward = [o.loss_block(t, t, [2])[0, 0] for t in range(1, 31)]
        backward = [o.loss_block(t, t, [2])[0, 0] for t in range(30, 0, -1)][::-1]
        assert forward == backward

    def test_losses_in_unit_interval(self):
        params = StreamParams(6, 200, seed=3)
        for spec in (
            {"generator": "iid-bernoulli", "mean-range": [0.0, 1.0]},
            {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.9,
             "decoy-loss": 0.0, "epoch-length": 3},
        ):
            m = matrix(make_oracle(params, spec))
            assert m.min() >= 0.0 and m.max() <= 1.0


class TestBernoulliOracle:
    def test_mean_range_with_override_makes_expert_one_best(self):
        # one 0.1-gapped best expert: its total should sit near 0.3*T
        params = StreamParams(64, 10**5, seed=1)
        o = make_oracle(params, {"generator": "iid-bernoulli",
                                 "mean-range": [0.4, 0.6],
                                 "overrides": {"1": 0.3}})
        totals = matrix(o).sum(axis=0)
        assert int(np.argmin(totals)) == 0
        slack = 3.0 * math.sqrt(params.T * 0.25 * math.log(params.T))
        assert abs(totals[0] - 0.3 * params.T) <= slack

    def test_losses_are_binary(self):
        o = make_oracle(StreamParams(4, 100, seed=2),
                        {"generator": "iid-bernoulli", "means": [0.1, 0.5, 0.5, 0.9]})
        m = matrix(o)
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_empirical_rate_tracks_mean(self):
        o = make_oracle(StreamParams(2, 20000, seed=9),
                        {"generator": "iid-bernoulli", "means": [0.25, 0.75]})
        m = matrix(o)
        assert abs(m[:, 0].mean() - 0.25) < 0.02
        assert abs(m[:, 1].mean() - 0.75) < 0.02

    @pytest.mark.parametrize("sid", ["0", "5", "9", "-1"])
    def test_override_id_outside_range_rejected(self, sid):
        # "0" would set expert 4's mean through negative indexing
        with pytest.raises(ValueError, match=f"override id '{sid}' outside"):
            make_oracle(StreamParams(4, 10), {"generator": "iid-bernoulli",
                                              "mean-range": [0.2, 0.8],
                                              "overrides": {sid: 0.1}})

    def test_missing_means_spec_rejected(self):
        with pytest.raises(ValueError):
            make_oracle(StreamParams(2, 5), {"generator": "iid-bernoulli"})

    @pytest.mark.parametrize("bounds,overrides", [
        ([math.nan, 0.5], {}), ([0, math.inf], {}), ([-math.inf, 0.5], {}),
        ([0.2, math.nan], {}), ([-1e308, 1e308], {}), ([2, 3], {"1": 0.1, "2": 0.2})],
        ids=["nan-low", "inf-high", "-inf-low", "nan-high", "huge", "all-overridden"])
    def test_mean_range_outside_unit_interval_rejected(self, bounds, overrides):
        # numpy's uniform raised OverflowError on the first five; [2, 3] was
        # accepted while every expert's mean was overridden
        with pytest.raises(ValueError, match=r"^mean-range must lie in \[0, 1\]$"):
            make_oracle(StreamParams(2, 5), {"generator": "iid-bernoulli",
                                             "mean-range": bounds, "overrides": overrides})

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match=r"Bernoulli means must lie in \[0, 1\]"):
            BernoulliOracle(StreamParams(2, 5), np.array([0.5, math.nan]))

    @pytest.mark.parametrize("means", [[1.5, -0.5], [0.5, 1.0 + 1e-12], [-0.0, -1e-300]])
    def test_rejects_means_outside_unit_interval(self, means):
        # once clipped: [1.5, -0.5] made expert 1 lose every day and expert 2 never
        with pytest.raises(ValueError, match=r"Bernoulli means must lie in \[0, 1\]"):
            BernoulliOracle(StreamParams(2, 5), means)

    @pytest.mark.parametrize("means", [[0.5], [0.1, 0.2, 0.3, 0.4]])
    def test_rejects_wrong_number_of_means_when_built(self, means):
        # not at the first query
        with pytest.raises(ValueError, match=rf"need 3 means, got \({len(means)},\)"):
            BernoulliOracle(StreamParams(3, 5), means)


def _edge_means() -> list[float]:
    """0, 1/2, 1, k/2^53 and the float neighbours of each inside [0, 1]."""
    base = [0.0, 0.5, 1.0, 1 / 2**53, 3 / 2**53, (2**52 + 1) / 2**53,
            (2**53 - 1) / 2**53, 0.3]
    out = set()
    for m in base:
        for v in (m, np.nextafter(m, 0.0), np.nextafter(m, 1.0)):
            out.add(float(v))
    return sorted(out)


class TestHashExactness:
    def test_bits53_matches_integer_reference(self):
        seed, days, ids = 12345, np.arange(1, 40), np.arange(1, 7)
        k = _bits53(seed, days[:, None], ids[None, :])
        for r, t in enumerate(days.tolist()):
            for c, i in enumerate(ids.tolist()):
                h = _splitmix64_int(seed ^ ((t * 0x9E3779B97F4A7C15) & MASK64))
                h = _splitmix64_int(h ^ ((i * 0xC2B2AE3D27D4EB4F) & MASK64))
                assert int(k[r, c]) == h >> 11

    def test_uniform01_is_bits53_scaled(self):
        days, ids = np.arange(1, 9)[:, None], np.arange(1, 5)[None, :]
        u = _uniform01(7, days, ids)
        assert np.array_equal(u, _bits53(7, days, ids).astype(np.float64) / 2.0**53)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_integer_compare_equals_float_compare_at_the_cut(self):
        # k just below, at and above each cut: k < cut iff k / 2^53 < mean
        means = np.array(_edge_means())
        o = BernoulliOracle(StreamParams(len(means), 10), means)
        for m, cut in zip(means.tolist(), o._cut.tolist()):
            for k in {max(cut + d, 0) for d in (-2, -1, 0, 1, 2)}:
                if k < 2**53:
                    assert (k < cut) == (k / 2.0**53 < m), (m, k, cut)

    def test_loss_block_equals_float_compare(self):
        means = np.array(_edge_means())
        params = StreamParams(len(means), 3000, seed=4)
        o = BernoulliOracle(params, means)
        days = np.arange(1, params.T + 1)[:, None]
        ids = np.arange(1, params.n + 1)[None, :]
        want = (_uniform01(params.seed, days, ids) < means).astype(np.float64)
        assert np.array_equal(matrix(o), want)


def _spoiler_reference(o: EpochSpoilerOracle, t0: int, t1: int, ids: np.ndarray) -> np.ndarray:
    """Epoch-spoiler losses computed cell by cell from ``_uniform01``."""
    out = np.empty((t1 - t0 + 1, len(ids)))
    hi = min(1.0, o.base_loss + 0.3)
    for r, t in enumerate(range(t0, t1 + 1)):
        epoch = (t - 1) // o.epoch_length
        decoys = o._decoys(epoch) if epoch % 3 == 1 else set()
        for c, i in enumerate(ids.tolist()):
            if i in decoys:
                out[r, c] = o.decoy_loss
            elif i == o.best_id:
                out[r, c] = o.base_loss
            else:
                u = _uniform01(o.params.seed, np.array([t]), np.array([i]))[0]
                out[r, c] = min(1.0, hi + 0.2 * u)
    return out


class TestHashedLossBlock:
    """Each oracle's blocks against the per-cell reference: the Bernoulli cut
    on ``_bits53`` and ``_uniform01``, and the spoiler rule cell by cell."""

    T = 300
    # (t0, t1, ids): day 1, day T, one day, the whole horizon, unsorted and
    # repeated ids; a late window comes before an early one
    QUERIES = [
        (1, 1, [1]),
        (T, T, [7, 1]),
        (150, 150, [3, 3, 6, 2]),
        (290, 300, [5, 2, 7, 2, 1]),
        (1, 12, [6, 4, 4]),
        (1, T, [1, 2, 3, 4, 5, 6, 7]),
        (40, 95, [7, 6, 5, 4, 3, 2, 1, 1]),
    ]

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 17])
    def test_bernoulli_matches_direct_hash(self, seed):
        means = np.array([0.0, 0.1, 0.35, 0.5, 0.77, 0.9, 1.0])
        o = BernoulliOracle(StreamParams(7, self.T, seed=seed), means)
        for t0, t1, ids in self.QUERIES:
            ids = np.array(ids)
            days = np.arange(t0, t1 + 1)[:, None]
            k = _bits53(seed, days, ids[None, :])
            got = o.loss_block(t0, t1, ids)
            assert np.array_equal(got, (k < o._cut[ids - 1]).astype(np.float64))
            want = (_uniform01(seed, days, ids[None, :]) < means[ids - 1])
            assert np.array_equal(got, want.astype(np.float64))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_spoiler_matches_direct_hash(self, seed):
        o = EpochSpoilerOracle(StreamParams(7, self.T, seed=seed), best_id=2,
                               base_loss=0.3, decoy_loss=0.1, epoch_length=9)
        for t0, t1, ids in self.QUERIES:
            ids = np.array(ids)
            assert np.array_equal(o.loss_block(t0, t1, ids),
                                  _spoiler_reference(o, t0, t1, ids))

    @pytest.mark.parametrize("n,epoch_length", [(7, 1), (2, 9)], ids=["epoch-length-1", "n-2"])
    def test_spoiler_edges_match_direct_hash(self, n, epoch_length):
        o = EpochSpoilerOracle(StreamParams(n, self.T, seed=5), best_id=2,
                               base_loss=0.3, decoy_loss=0.1, epoch_length=epoch_length)
        for t0, t1, ids in self.QUERIES:
            ids = (np.array(ids) - 1) % n + 1
            assert np.array_equal(o.loss_block(t0, t1, ids),
                                  _spoiler_reference(o, t0, t1, ids))
        if n == 2:  # one decoy per decoy epoch: the expert that is not best
            assert o._decoy_memo and all(d == {1} for d in o._decoy_memo.values())

    @pytest.mark.parametrize("t0", [1, 11, 150, T + 1])
    def test_empty_block_matches_direct_hash(self, t0):
        # t1 = t0 - 1 reads no day; day 11 lies inside the first decoy epoch
        params, ids = StreamParams(7, self.T, seed=3), np.array([3, 1, 3])
        b = BernoulliOracle(params, np.full(7, 0.5))
        s = EpochSpoilerOracle(params, best_id=2, base_loss=0.3, decoy_loss=0.1,
                               epoch_length=9)
        k = _bits53(params.seed, np.arange(t0, t0)[:, None], ids)
        for got, want in [(b.loss_block(t0, t0 - 1, ids), (k < b._cut[ids - 1]) * 1.0),
                          (s.loss_block(t0, t0 - 1, ids), _spoiler_reference(s, t0, t0 - 1, ids))]:
            assert got.shape == want.shape == (0, 3) and got.dtype == np.float64
            assert np.array_equal(got, want)


class TestEpochSpoiler:
    def test_best_expert_has_constant_base_loss_outside_spoilers(self):
        o = EpochSpoilerOracle(StreamParams(8, 90, seed=4), best_id=3,
                               base_loss=0.2, decoy_loss=0.05, epoch_length=10)
        col = matrix(o)[:, 2]
        assert np.all(col == 0.2)

    def test_every_third_epoch_has_decoys(self):
        o = EpochSpoilerOracle(StreamParams(8, 90, seed=4), best_id=3,
                               base_loss=0.2, decoy_loss=0.05, epoch_length=10)
        m = matrix(o)
        for epoch in range(9):
            rows = m[epoch * 10:(epoch + 1) * 10]
            has_decoy = (rows == 0.05).any()
            assert has_decoy == (epoch % 3 == 1)

    def test_field_losses_exceed_base(self):
        o = EpochSpoilerOracle(StreamParams(8, 30, seed=4), best_id=1,
                               base_loss=0.2, decoy_loss=0.0, epoch_length=10)
        m = matrix(o)
        field = m[:10, 1:]  # first epoch is never a spoiler
        assert field.min() >= 0.5

    def test_decoys_never_include_best(self):
        o = EpochSpoilerOracle(StreamParams(5, 300, seed=12), best_id=2,
                               base_loss=0.3, decoy_loss=0.1, epoch_length=10)
        assert np.all(matrix(o)[:, 1] == 0.3)

    def test_decoy_memo_equals_fresh_draws(self):
        # windows split a spoiler epoch over several blocks; its decoys are
        # drawn once and must be what a fresh draw gives
        params = StreamParams(9, 400, seed=6)
        o = EpochSpoilerOracle(params, best_id=4, base_loss=0.3, decoy_loss=0.1,
                               epoch_length=25)
        blocks = [o.loss_block(t0, min(t0 + 6, params.T), np.arange(1, 10))
                  for t0 in range(1, params.T + 1, 7)]
        assert sorted(o._decoy_memo) == list(range(1, 16, 3))
        fresh = EpochSpoilerOracle(params, best_id=4, base_loss=0.3, decoy_loss=0.1,
                                   epoch_length=25)
        for epoch, decoys in o._decoy_memo.items():
            assert decoys == fresh._draw_decoys(epoch) == o._draw_decoys(epoch)
        assert np.array_equal(np.concatenate(blocks), matrix(fresh))
        assert fresh._decoy_memo == o._decoy_memo

    def test_rejects_decoy_above_base(self):
        with pytest.raises(ValueError):
            EpochSpoilerOracle(StreamParams(4, 10), best_id=1,
                               base_loss=0.2, decoy_loss=0.3, epoch_length=5)

    @pytest.mark.parametrize("best_id,epoch_length,message", [
        (0, 5, r"best-id 0 outside \[1, 4\]"),
        (5, 5, r"best-id 5 outside \[1, 4\]"),
        (1, 0, "epoch-length must be positive"),
        (1, -3, "epoch-length must be positive"),
    ])
    def test_rejects_best_id_and_epoch_length_out_of_range(self, best_id, epoch_length,
                                                           message):
        with pytest.raises(ValueError, match=message):
            EpochSpoilerOracle(StreamParams(4, 10), best_id=best_id, base_loss=0.3,
                               decoy_loss=0.1, epoch_length=epoch_length)


class TestCsvOracle:
    @pytest.fixture(autouse=True)
    def _no_kept_parse(self):
        streams._PARSED.clear()
        yield
        streams._PARSED.clear()

    def _write(self, path, n, rows):
        lines = ["t," + ",".join(f"e{i}" for i in range(1, n + 1))]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def _write_values(self, path, values):
        self._write(path, values.shape[1], [[t, *row] for t, row in enumerate(values.tolist(), 1)])

    def _count_parses(self, monkeypatch):
        """The number of kept matrices at each ``np.loadtxt`` call, one entry a call."""
        kept_at_parse = []
        loadtxt = np.loadtxt

        def counting(*args, **kwargs):
            kept_at_parse.append(len(streams._PARSED))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        return kept_at_parse

    def test_same_content_parses_once(self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        values = np.random.default_rng(2).random((12, 3))
        for name in ("a.csv", "b.csv"):
            self._write_values(tmp_path / name, values)
        a = CsvOracle(StreamParams(3, 12, seed=1), str(tmp_path / "a.csv"))
        b = CsvOracle(StreamParams(3, 12, seed=2), str(tmp_path / "b.csv"))
        assert len(parses) == 1
        assert matrix(a).tobytes() == matrix(b).tobytes() == values.tobytes()

    def test_rewritten_file_serves_new_values(self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        f = tmp_path / "s.csv"
        old, new = np.random.default_rng(3).random((2, 10, 2))
        self._write_values(f, old)
        assert matrix(CsvOracle(StreamParams(2, 10), str(f))).tobytes() == old.tobytes()
        self._write_values(f, new)
        assert matrix(CsvOracle(StreamParams(2, 10), str(f))).tobytes() == new.tobytes()
        assert len(parses) == 2

    def test_other_n_or_T_parses_again(self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        f = tmp_path / "s.csv"
        values = np.random.default_rng(4).random((10, 2))
        self._write_values(f, values)
        assert CsvOracle(StreamParams(2, 10), str(f)).store.shape == (10, 2)
        assert CsvOracle(StreamParams(2, 6), str(f)).store.shape == (6, 2)
        assert len(parses) == 2
        with pytest.raises(ValueError, match="header"):  # read again, not served
            CsvOracle(StreamParams(3, 6), str(f))

    def test_malformed_file_raises_on_every_construction(self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.1, 0.2], [3, 0.1, 0.2]])
        for _ in range(2):
            with pytest.raises(ValueError, match="day column"):
                CsvOracle(StreamParams(2, 2), str(f))
        assert len(parses) == 2 and not streams._PARSED

    @pytest.mark.parametrize("pool", [None, [0.25, 0.75]], ids=["float64", "one-bit"])
    def test_kept_matrix_is_read_only_and_blocks_are_fresh(self, tmp_path, pool):
        f = tmp_path / "s.csv"
        rng = np.random.default_rng(5)
        values = rng.random((8, 3)) if pool is None else rng.choice(pool, (8, 3))
        self._write_values(f, values)
        o = CsvOracle(StreamParams(3, 8), str(f))
        assert (o.table is None) == (pool is None)
        for kept in (o.store,) if pool is None else (o.store, o.table):
            assert not kept.flags.writeable
            with pytest.raises(ValueError):
                kept[0] = 1
        block = o.loss_block(2, 5, [3, 1])
        assert block.flags.c_contiguous and block.flags.owndata and block.flags.writeable
        block[:] = -1.0
        again = CsvOracle(StreamParams(3, 8), str(f)).loss_block(2, 5, [3, 1])
        assert again.tobytes() == values[1:5][:, [2, 0]].tobytes()

    def test_file_changed_after_hashing_is_kept_under_the_parsed_bytes(
            self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        f = tmp_path / "s.csv"
        old, new = np.random.default_rng(6).random((2, 10, 2))
        self._write_values(f, old)
        digest = streams._HashingReader.digest
        hashed = []

        def rewrite_after_first_hash(reader):
            out = digest(reader)
            if not hashed:  # the lookup hash of the first oracle
                self._write_values(f, new)
            hashed.append(out)
            return out

        monkeypatch.setattr(streams._HashingReader, "digest", rewrite_after_first_hash)
        assert matrix(CsvOracle(StreamParams(2, 10), str(f))).tobytes() == new.tobytes()
        # kept under the digest of the bytes parsed, not of the bytes first hashed
        assert list(streams._PARSED) == [(hashlib.sha256(f.read_bytes()).digest(), 2, 10)]
        self._write_values(f, old)
        assert matrix(CsvOracle(StreamParams(2, 10), str(f))).tobytes() == old.tobytes()
        assert len(parses) == 2

    def test_only_the_last_parsed_file_is_kept(self, tmp_path, monkeypatch):
        parses = self._count_parses(monkeypatch)
        rng = np.random.default_rng(7)
        oracles = []
        for name in ("a.csv", "b.csv", "c.csv"):
            self._write_values(tmp_path / name, rng.random((6, 2)))
            oracles.append(CsvOracle(StreamParams(2, 6), str(tmp_path / name)))
        # the kept losses are dropped before the next parse starts
        assert parses == [0, 0, 0]
        ((store, table),) = streams._PARSED.values()
        assert oracles[-1].store is store and oracles[-1].table is table

    def test_replays_file_values(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.25, 0.5], [2, 0.0, 1.0]])
        o = CsvOracle(StreamParams(2, 2), str(f))
        assert o.loss_block(2, 2, [1])[0, 0] == 0.0
        assert o.loss_block(1, 1, [1])[0, 0] == 0.25

    def test_served_blocks_are_c_contiguous_file_values(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.random((30, 5))
        f = tmp_path / "s.csv"
        self._write(f, 5, [[t, *row] for t, row in enumerate(values.tolist(), 1)])
        o = CsvOracle(StreamParams(5, 30), str(f))
        for t0, t1, ids in [(1, 30, [1, 2, 3, 4, 5]), (4, 9, [5, 1, 1]),
                            (30, 30, [3]), (2, 17, [2, 4])]:
            got = o.loss_block(t0, t1, ids)
            assert got.flags.c_contiguous and got.flags.owndata
            assert got.tobytes() == values[t0 - 1:t1, np.array(ids) - 1].tobytes()

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            CsvOracle(StreamParams(2, 2), "/nonexistent/x.csv")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"")
        with pytest.raises(ValueError, match=r"loss file '.*s\.csv' is empty"):
            CsvOracle(StreamParams(2, 1), str(f))

    def test_bad_header(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("day,a,b\n1,0.1,0.2\n")
        with pytest.raises(ValueError, match="header"):
            CsvOracle(StreamParams(2, 1), str(f))

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.1, 0.2]])
        with pytest.raises(ValueError):
            CsvOracle(StreamParams(2, 5), str(f))

    def test_out_of_range_losses(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.1, 1.2]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CsvOracle(StreamParams(2, 1), str(f))

    def test_nan_cell_rejected(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.1, "nan"]])
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            CsvOracle(StreamParams(2, 1), str(f))

    def test_bad_day_column(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[5, 0.1, 0.2]])
        with pytest.raises(ValueError, match="day column"):
            CsvOracle(StreamParams(2, 1), str(f))

    @pytest.fixture
    def rows_per_chunk(self, monkeypatch):
        """Set the parse to read this many rows of n + 1 cells a chunk."""
        return lambda rows, n: monkeypatch.setattr(streams, "_PARSE_CELLS", rows * (n + 1))

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (0.25, 0.75), (-0.0, 0.0)],
                             ids=["0-1", "quarters", "signed-zeros"])
    def test_two_valued_file_keeps_one_bit_a_cell(self, tmp_path, rows_per_chunk, pair):
        rows_per_chunk(7, 4)
        values = np.array(pair)[np.random.default_rng(8).integers(0, 2, (50, 4))]
        self._write_values(tmp_path / "s.csv", values)
        o = CsvOracle(StreamParams(4, 50), str(tmp_path / "s.csv"))
        # 4 cells a row in one byte; -0.0 and 0.0 differ by bit pattern
        assert o.store.dtype == np.uint8 and o.store.shape == (50, 1) and o.store.nbytes == 50
        assert sorted(o.table.view(np.uint64).tolist()) == sorted(
            np.array(pair).view(np.uint64).tolist())
        assert matrix(o).tobytes() == values.tobytes()

    def test_signed_zeros_replay_bit_exactly(self, tmp_path, rows_per_chunk):
        # two values by ==, three by bit pattern: -0.0 is not kept as 0.0
        rows_per_chunk(2, 2)
        values = np.array([[0.0, 1.0], [1.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [1.0, -0.0]])
        self._write_values(tmp_path / "s.csv", values)
        o = CsvOracle(StreamParams(2, 5), str(tmp_path / "s.csv"))
        assert o.table is None and o.store.dtype == np.float64
        assert matrix(o).tobytes() == values.tobytes()

    @pytest.mark.parametrize("rows", [1, 9, 1000])
    @pytest.mark.parametrize("distinct", [1, 2, 3, 256, 257])
    def test_distinct_values_replay_bit_exactly(self, tmp_path, rows_per_chunk, rows,
                                                distinct):
        # past two values the file is kept as float64, decoding the bits of
        # what chunks before read
        rows_per_chunk(rows, 3)
        rng = np.random.default_rng(distinct)
        pool = rng.random(distinct)
        picks = np.concatenate([rng.permutation(distinct), rng.integers(0, distinct, 300)])
        values = pool[picks[:300]].reshape(100, 3)
        values.flat[rng.permutation(300)[:distinct]] = pool  # every value shows
        self._write_values(tmp_path / "s.csv", values)
        o = CsvOracle(StreamParams(3, 100), str(tmp_path / "s.csv"))
        if distinct <= 2:  # 3 cells a row in one byte
            assert len(o.table) == distinct and not o.table.flags.writeable
            assert o.store.dtype == np.uint8 and o.store.shape == (100, 1)
        else:
            assert o.store.dtype == np.float64 and o.table is None
            assert o.store.shape == (100, 3)
        assert not o.store.flags.writeable
        assert matrix(o).tobytes() == values.tobytes()
        assert o.loss_block(40, 62, [3, 1]).tobytes() == values[39:62][:, [2, 0]].tobytes()

    @pytest.mark.parametrize("rows", [1, 3, 1000])
    @pytest.mark.parametrize("late", [2, 3], ids=["second-value-late", "third-value-late"])
    def test_value_first_shown_in_a_later_chunk_replays_bit_exactly(
            self, tmp_path, rows_per_chunk, rows, late):
        # 0.75 alone on days 1-1,100, 0.25 too from day 1,101 and -0.0 from
        # day 2,201: a third value switches to float64 and decodes the bits
        # read before
        rows_per_chunk(rows, 3)
        rng = np.random.default_rng(late)
        values = np.full((2400, 3), 0.75)
        values[1100:] = rng.choice([0.75, 0.25], (1300, 3))
        values[1100, 0] = 0.25
        if late == 3:
            values[2200:] = rng.choice([0.75, 0.25, -0.0], (200, 3))
            values[2200, 1] = -0.0
        self._write_values(tmp_path / "s.csv", values)
        o = CsvOracle(StreamParams(3, 2400), str(tmp_path / "s.csv"))
        if late == 2:
            assert o.store.dtype == np.uint8 and o.table.tolist() == [0.75, 0.25]
        else:
            assert o.store.dtype == np.float64 and o.table is None
        assert matrix(o).tobytes() == values.tobytes()
        assert o.loss_block(1090, 2210, [2, 3]).tobytes() == values[1089:2210, 1:].tobytes()

    # a table grown from one value to two, and into the float64 cells from
    # one or two values
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(sorted),
           seed=st.integers(0, 2**32 - 1))
    @example(sizes=[1], seed=0)
    @example(sizes=[1, 2], seed=1)
    @example(sizes=[2, 3], seed=2)
    @example(sizes=[1, 3], seed=3)
    @example(sizes=[1, 2, 3, 5], seed=4)
    @example(sizes=[2, 257], seed=5)
    def test_table_grown_in_later_chunks_replays_bit_exactly(self, tmp_path, rows_per_chunk,
                                                             sizes, seed):
        # the table holds pool[:size] once a stage of sizes is read; each stage
        # starts a chunk, shows its new values and repeats older ones
        n, rows = 3, 4
        rows_per_chunk(rows, n)
        rng = np.random.default_rng(seed)
        pool = np.concatenate([[-0.0, 0.0], rng.random(298)])
        stages, have = [], 0
        for size in sizes:
            chunks = -(-(size - have + 2) // (rows * n))
            cells = rng.permutation(np.concatenate(
                [pool[have:size], pool[rng.integers(0, size, chunks * rows * n - size + have)]]))
            stages.append(cells.reshape(-1, n))
            have = size
        values = np.concatenate(stages)
        self._write_values(tmp_path / "s.csv", values)
        T = len(values)
        o = CsvOracle(StreamParams(n, T), str(tmp_path / "s.csv"))
        if sizes[-1] <= 2:
            assert len(o.table) == sizes[-1] and o.store.dtype == np.uint8
        else:
            assert o.table is None and o.store.dtype == np.float64
        assert matrix(o).tobytes() == values.tobytes()
        for _ in range(20):
            t0, t1 = sorted(rng.integers(1, T + 1, 2))
            ids = rng.integers(1, n + 1, rng.integers(1, 2 * n))
            assert o.loss_block(t0, t1, ids).tobytes() == values[t0 - 1:t1][:, ids - 1].tobytes()

    def _lines(self, n, T, fault=None):
        """The lines of a 0/1 loss file of T days, with ``fault`` lines
        replacing those from day 8 on."""
        row = [",".join("0" * n), ",".join(str(i % 2) for i in range(1, n + 1))]
        lines = [f"{t},{row[t % 2]}" for t in range(1, T + 1)]
        return lines if fault is None else lines[:7] + fault

    # faults from day 8 on in a 2-expert file of 12 days: in the third chunk of
    # three rows, in the eighth of one row, or in the one chunk of all rows
    FAULTS = {
        "bad-value": ["8,x,0"],
        "bad-value-after-blank-lines": ["", "# note", "8,1,x"],
        "columns-change-in-chunk": ["8,0,1", "9,0"],
        "columns-change-at-chunk-start": ["8,0,1", "9,0,1", "10,0", "11,0"],
        "columns-change-at-chunk-start-then-bad-value": ["8,0,1", "9,0,1", "10,0", "11,x"],
        "short-at-chunk-end": ["8,0,1", "9,0,1"],
        "short-in-chunk": ["8,0,1"],
        "day-column": ["8,0,1", "10,0,1", "11,0,0", "12,0,0"],
        "nan": ["8,0,nan", "9,0,1", "10,0,1", "11,0,0", "12,0,0"],
        "out-of-range": ["8,0,1", "9,0,1.5", "10,0,1", "11,0,0", "12,0,0"],
        "day-column-then-bad-value": ["8,0,1", "10,0,1", "11,x,0"],
        "day-column-then-short": ["8,0,1", "10,0,1"],
    }

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_faults_in_later_chunks_raise_as_one_read(self, tmp_path, rows_per_chunk,
                                                       fault):
        f = tmp_path / "s.csv"
        f.write_text("t,e1,e2\n" + "\n".join(self._lines(2, 12, self.FAULTS[fault])) + "\n")
        messages = []
        for rows in (100, 3, 1):
            rows_per_chunk(rows, 2)
            with pytest.raises(ValueError) as exc:
                CsvOracle(StreamParams(2, 12), str(f))
            messages.append(str(exc.value))
        assert messages[1] == messages[2] == messages[0]
        assert not streams._PARSED

    @pytest.mark.parametrize("rows", [1, 3, 1000])
    def test_blank_and_comment_lines_parse_without_warnings(self, tmp_path, rows_per_chunk,
                                                             rows):
        # numpy notes each chunk's first line without data, counted from the
        # chunk's own input; the parse counts the rows itself, so no note shows
        rows_per_chunk(rows, 2)
        lines = self._lines(2, 12)
        f = tmp_path / "s.csv"
        f.write_text("t,e1,e2\n" + "\n".join(
            ["", "# head"] + lines[:4] + ["", "# note", ""] + lines[4:9] + ["#", ""]
            + lines[9:]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = CsvOracle(StreamParams(2, 12), str(f))
        assert matrix(o).tolist() == [[t % 2, 0] for t in range(1, 13)]

    @pytest.mark.parametrize("lines,message", [
        (["1,0,1,0"] * 12, "ragged rows"),
        (["1,0,1,0"] * 8, "loss file has 8 days, need 12"),
        (["1,0,1", "2,0,1", "3,0"], "malformed rows .* the number of columns changed "
                                    "from 3 to 2 at row 3"),
    ], ids=["ragged", "ragged-and-short", "columns-change"])
    def test_whole_file_faults_keep_their_messages(self, tmp_path, rows_per_chunk, lines,
                                                   message):
        rows_per_chunk(2, 2)
        f = tmp_path / "s.csv"
        f.write_text("t,e1,e2\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            CsvOracle(StreamParams(2, 12), str(f))

    def test_zero_one_parse_peak_is_one_plane_and_64_bytes_a_chunk_cell(self, tmp_path):
        # the chunk term covers the parse's own buffers (about 43 bytes a chunk
        # cell measured); a store of one byte a cell, 8 times the plane, fails
        n, T = 200, 60_000
        f = tmp_path / "s.csv"
        f.write_text("t," + ",".join(f"e{i}" for i in range(1, n + 1)) + "\n"
                     + "\n".join(self._lines(n, T)) + "\n")
        tracemalloc.start()
        try:
            CsvOracle(StreamParams(n, T), str(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * -(-n // 8) + 64 * streams._PARSE_CELLS


class TestGameInstance:
    def test_matrix_entries(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.column(1)[2] == 4.0  # off the support
        assert g.column(1)[0] == 1.0  # matched on the support
        assert g.column(2)[0] == 0.0

    def test_support_sampled_with_right_size(self):
        for seed in range(10):
            g = GameInstance(10, 3, seed=seed)
            assert len(g.S) == 3
            assert all(1 <= i <= 10 for i in g.S)

    def test_worst_case_uniform_on_support(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.best_response(np.array([0.5, 0.5, 0.0, 0.0]))[1] == 0.5

    def test_worst_case_equilibrium_is_minmax(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.best_response(g.equilibrium())[1] == 0.5

    def test_worst_case_off_support_mass(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 3})
        # column 1: 0.5*1 (matched) + 0.5*4 (expert 2 off support)
        assert g.best_response(np.array([0.5, 0.5, 0.0, 0.0]))[1] == 2.5

    def test_column_losses_match_direct_enumeration(self):
        rng = np.random.default_rng(0)
        for seed in range(15):
            g = GameInstance(9, 3, seed=seed)
            p = rng.dirichlet(np.ones(9))
            direct = np.array([p @ g.column(j) for j in range(1, 10)])
            assert np.allclose(direct, g.column_losses(p), atol=1e-12)

    def test_best_response_attains_worst_case(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            g = GameInstance(8, 2, seed=seed)
            p = rng.dirichlet(np.ones(8))
            y, val = g.best_response(p)
            assert val == g.column_losses(p).max()
            assert np.all(g.column_losses(p) <= val + 1e-15)

    def test_best_response_tie_breaks_low(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        y, _ = g.best_response(np.array([0.5, 0.5, 0.0, 0.0]))
        assert y == 1

    def test_rejects_non_distribution(self):
        g = GameInstance(4, 2)
        with pytest.raises(ValueError):
            g.best_response(np.array([0.5, 0.5, 0.5, 0.0]))

    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.2] * 5, [[0.25] * 4]])
    def test_rejects_strategy_of_wrong_shape(self, p):
        shape = np.shape(p)
        with pytest.raises(ValueError, match=rf"strategy must have shape \(4,\), "
                                             rf"got {re.escape(str(shape))}"):
            GameInstance(4, 2).best_response(np.array(p))

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_support_size_outside_the_experts(self, k):
        with pytest.raises(ValueError, match=rf"support size {k} outside \[1, 4\]"):
            GameInstance(4, k)


class TestGameOracle:
    def test_adversary_step_uniform_on_support(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.game.S = frozenset({1, 2})
        y, vec = o.adversary_step(np.array([0.5, 0.5, 0.0, 0.0]))
        assert y == 1
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert p @ o.game.column(y) == 0.5  # raw 1/k
        assert p @ vec == 0.125  # normalized

    def test_point_mass_off_support(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.game.S = frozenset({1, 2})
        p = np.array([0.0, 0.0, 1.0, 0.0])
        _, vec = o.adversary_step(p)
        assert vec[2] == 1.0  # raw 4, normalized
        assert p @ (vec * 4.0) == 4.0

    def test_point_mass_on_support(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.game.S = frozenset({1, 2})
        y, vec = o.adversary_step(np.array([1.0, 0.0, 0.0, 0.0]))
        assert y == 1
        assert vec[0] == 0.25  # raw 1

    def test_query_before_commit_errors(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        with pytest.raises(RuntimeError, match="uncommitted round"):
            o.loss_block(1, 1, [1])

    def test_committed_rounds_replayable(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.adversary_step(np.full(4, 0.25))
        first = o.loss_block(1, 1, [1])[0, 0]
        assert o.loss_block(1, 1, [1])[0, 0] == first

    def test_days_and_ids_outside_the_game_rejected(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.adversary_step(np.full(4, 0.25))
        for ids in ([0], [5], [1, 0]):  # id 0 would read expert 4
            with pytest.raises(IndexError, match=r"ids \[.*\] outside \[1, 4\]"):
                o.loss_block(1, 1, ids)
        for t0, t1 in [(0, 0), (11, 11)]:
            with pytest.raises(IndexError, match=r"outside \[1, 10\]"):
                o.loss_block(t0, t1, [1])

    def test_only_the_committed_round_is_live(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        for _ in range(3):
            _, vec = o.adversary_step(np.full(4, 0.25))
        ids = np.arange(1, 5)
        for t0, t1 in [(2, 2), (2, 3), (3, 4), (4, 4)]:
            with pytest.raises(RuntimeError, match="uncommitted round"):
                o.loss_block(t0, t1, ids)
        assert np.array_equal(o.loss_block(3, 3, ids), vec[None, :])
        assert np.array_equal(o.loss_block(3, 3, [4, 2]), vec[None, [3, 1]])


class TestCountCoveredSets:
    def test_uniform_on_true_support(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        assert count_covered_sets(4, 2, p) == 1  # only S={1,2}

    def test_point_mass_covers_nothing(self):
        p = np.array([1.0, 0.0, 0.0, 0.0])
        assert count_covered_sets(4, 2, p) == 0

    def test_guard(self):
        with pytest.raises(ValueError, match="guard"):
            count_covered_sets(300, 150, np.full(300, 1 / 300))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_covering_bound(self, seed):
        # at most binomial(n, ceil(3k/4)) supports can be covered
        rng = np.random.default_rng(seed)
        n, k = 10, 4
        p = rng.dirichlet(np.ones(n))
        assert count_covered_sets(n, k, p) <= math.comb(n, math.ceil(3 * k / 4))


class TestMakeOracle:
    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="unknown generator"):
            make_oracle(StreamParams(2, 5), {"generator": "bogus"})

    @pytest.mark.parametrize("spec,unknown", [
        ({"generator": "iid-bernoulli", "mean-range": [0.4, 0.6], "override": {"1": 0.0}},
         "iid-bernoulli stream keys ['override']"),
        ({"generator": "constant", "means": [0.1, 0.2], "seed": 3},
         "constant stream keys ['seed']"),
        ({"generator": "csv-file", "path": "s.csv", "n": 2}, "csv-file stream keys ['n']"),
        ({"generator": "iid-bernoulli", "means": [0.5, 0.5], "overrides": {"1": 0.0}},
         "iid-bernoulli stream keys with means ['overrides']"),
        ({"generator": "iid-bernoulli", "means": [0.5, 0.5], "mean-range": [0.0, 0.1]},
         "iid-bernoulli stream keys with means ['mean-range']"),
    ])
    def test_keys_the_generator_does_not_read(self, spec, unknown):
        # a typo would otherwise run the stream without what it meant to set
        with pytest.raises(ValueError) as exc:
            make_oracle(StreamParams(2, 5), spec)
        assert str(exc.value).startswith(f"unknown {unknown}; allowed: ")

    @pytest.mark.parametrize("spec,message", [
        ({"generator": "constant", "means": {"a": 1}}, "means must be a list of numbers"),
        ({"generator": "iid-bernoulli", "means": (0.1, 0.2)}, "means must be a list of numbers"),
        ({"generator": "iid-bernoulli", "means": ["0.1", 0.2]}, "means must be a number"),
        ({"generator": "constant", "means": [0.1, True]}, "means must be a number"),
        ({"generator": "iid-bernoulli", "mean-range": [0.4, 0.6], "overrides": {"1": "0.3"}},
         "overrides must be a number, got '0.3'"),
    ])
    def test_means_and_overrides_must_be_numbers(self, spec, message):
        with pytest.raises(ValueError, match=message):
            make_oracle(StreamParams(2, 5), spec)

    def test_adaptive_game_is_not_a_stream(self):
        with pytest.raises(ValueError, match="unknown generator 'adaptive-game'"):
            make_oracle(StreamParams(4, 5), {"generator": "adaptive-game", "k": 2})

    def test_dispatch_types(self):
        params = StreamParams(3, 5, seed=1)
        assert isinstance(make_oracle(params, {"generator": "constant",
                                               "means": [0.1, 0.2, 0.3]}),
                          ConstantOracle)
        assert isinstance(make_oracle(params, {"generator": "iid-bernoulli",
                                               "means": [0.1, 0.2, 0.3]}),
                          BernoulliOracle)


# Example specs of every GENERATORS entry at n=3, which together hold all of
# its keys (a spec with "means" takes no other iid-bernoulli key); each
# csv-file path is a file written per test.
GENERATOR_EXAMPLES = {
    "constant": [{"means": [0.2, 0.5, 0.8]}],
    "iid-bernoulli": [{"means": [0.0, 0.0, 1.0]},
                      {"mean-range": [0.2, 0.8], "overrides": {"3": 1.0}}],
    "epoch-spoiler": [{"best-id": 3, "base-loss": 0.3, "decoy-loss": 0.1, "epoch-length": 2}],
    "csv-file": [{"path": "written per test"}],
}


def _examples(name: str, tmp_path, T: int = 5) -> list[dict]:
    """The stream specs of ``GENERATOR_EXAMPLES[name]`` for n=3 and T days."""
    assert name in GENERATOR_EXAMPLES, f"no example spec for generator {name!r}"
    path = tmp_path / "losses.csv"
    path.write_text("t,e1,e2,e3\n" + "".join(f"{t},0,0.5,1\n" for t in range(1, T + 1)))
    return [{"generator": name, **ex, **({"path": str(path)} if "path" in ex else {})}
            for ex in GENERATOR_EXAMPLES[name]]


@pytest.mark.parametrize("name", sorted(streams.GENERATORS))
class TestEveryGenerator:
    """Each ``GENERATORS`` entry, from its examples: a generator added without
    one fails here."""

    PARAMS = StreamParams(3, 5)

    def test_examples_hold_the_entry_keys_and_build(self, name, tmp_path):
        _, keys, needs = streams.GENERATORS[name]
        specs = _examples(name, tmp_path)
        assert set().union(*specs) == {"generator", *keys}
        for spec in specs:
            assert set(needs) <= set(spec)
            assert make_oracle(self.PARAMS, spec).loss_block(1, 5, [3, 1]).shape == (5, 2)

    def test_dropped_needed_key_named(self, name, tmp_path):
        _, _, needs = streams.GENERATORS[name]
        for spec in _examples(name, tmp_path):
            for k in needs:
                with pytest.raises(ValueError) as exc:
                    make_oracle(self.PARAMS, {key: v for key, v in spec.items() if key != k})
                assert str(exc.value) == f"{name} stream lacks [{k!r}]"

    def test_extra_key_named(self, name, tmp_path):
        for spec in _examples(name, tmp_path):
            with pytest.raises(ValueError) as exc:
                make_oracle(self.PARAMS, {**spec, "x": 1})
            assert str(exc.value).startswith(f"unknown {name} stream keys ['x']; allowed: ")

    def test_days_outside_the_horizon_rejected(self, name, tmp_path):
        o = make_oracle(self.PARAMS, _examples(name, tmp_path)[0])
        assert o.loss_block(3, 2, [1]).shape == (0, 1)  # t1 = t0 - 1 reads no day
        for t0, t1 in [(0, 2), (0, 3), (5, 7), (4, 9), (6, 6)]:
            with pytest.raises(IndexError, match=rf"days {t0}\.\.{t1} outside \[1, 5\]"):
                o.loss_block(t0, t1, [1])

    def test_ids_outside_the_experts_rejected(self, name, tmp_path):
        # id 0 would read expert n: the last column, or expert n's Bernoulli cut
        o = make_oracle(self.PARAMS, _examples(name, tmp_path)[0])
        for ids in ([0], [4], [2, 0, 4]):
            with pytest.raises(IndexError, match=r"ids \[.*\] outside \[1, 3\]"):
                o.loss_block(1, 2, ids)
