"""Tests for the loss-stream oracles and the zero-sum game adversary."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


class TestConstantOracle:
    def test_fixed_values(self):
        o = ConstantOracle(StreamParams(2, 4, seed=7), [0.0, 1.0])
        for t in range(1, 5):
            assert o.loss(t, 1) == 0.0
            assert o.loss(t, 2) == 1.0

    def test_query_at_specific_cell(self):
        o = ConstantOracle(StreamParams(2, 4), [0.0, 1.0])
        assert o.loss(3, 2) == 1.0

    def test_rejects_out_of_range_means(self):
        with pytest.raises(ValueError):
            ConstantOracle(StreamParams(2, 4), [0.0, 1.5])

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ConstantOracle(StreamParams(2, 4), [math.nan, 0.5])

    def test_index_bounds(self):
        o = ConstantOracle(StreamParams(2, 4), [0.1, 0.2])
        with pytest.raises(IndexError):
            o.loss(5, 1)
        with pytest.raises(IndexError):
            o.loss(1, 3)


class TestDeterminism:
    @pytest.mark.parametrize("spec", [
        {"generator": "constant", "means": [0.2, 0.8, 0.5]},
        {"generator": "iid-bernoulli", "means": [0.2, 0.8, 0.5]},
        {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.3,
         "decoy-loss": 0.1, "epoch-length": 7},
    ])
    def test_full_matrix_bit_identical(self, spec):
        params = StreamParams(3, 50, seed=11)
        a = make_oracle(params, spec).full_matrix()
        b = make_oracle(params, spec).full_matrix()
        assert np.array_equal(a, b)

    def test_query_order_independent(self):
        params = StreamParams(4, 30, seed=5)
        o = make_oracle(params, {"generator": "iid-bernoulli",
                                 "means": [0.3, 0.4, 0.5, 0.6]})
        forward = [o.loss(t, 2) for t in range(1, 31)]
        backward = [o.loss(t, 2) for t in range(30, 0, -1)][::-1]
        assert forward == backward

    def test_losses_in_unit_interval(self):
        params = StreamParams(6, 200, seed=3)
        for spec in (
            {"generator": "iid-bernoulli", "mean-range": [0.0, 1.0]},
            {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.9,
             "decoy-loss": 0.0, "epoch-length": 3},
        ):
            m = make_oracle(params, spec).full_matrix()
            assert m.min() >= 0.0 and m.max() <= 1.0


class TestBernoulliOracle:
    def test_mean_range_with_override_makes_expert_one_best(self):
        # one 0.1-gapped best expert: its total should sit near 0.3*T
        params = StreamParams(64, 10**5, seed=1)
        o = make_oracle(params, {"generator": "iid-bernoulli",
                                 "mean-range": [0.4, 0.6],
                                 "overrides": {"1": 0.3}})
        totals = o.full_matrix().sum(axis=0)
        assert int(np.argmin(totals)) == 0
        slack = 3.0 * math.sqrt(params.T * 0.25 * math.log(params.T))
        assert abs(totals[0] - 0.3 * params.T) <= slack

    def test_losses_are_binary(self):
        o = make_oracle(StreamParams(4, 100, seed=2),
                        {"generator": "iid-bernoulli", "means": [0.1, 0.5, 0.5, 0.9]})
        m = o.full_matrix()
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_empirical_rate_tracks_mean(self):
        o = make_oracle(StreamParams(2, 20000, seed=9),
                        {"generator": "iid-bernoulli", "means": [0.25, 0.75]})
        m = o.full_matrix()
        assert abs(m[:, 0].mean() - 0.25) < 0.02
        assert abs(m[:, 1].mean() - 0.75) < 0.02

    def test_missing_means_spec_rejected(self):
        with pytest.raises(ValueError):
            make_oracle(StreamParams(2, 5), {"generator": "iid-bernoulli"})

    def test_rejects_nan_mean(self):
        with pytest.raises(ValueError, match="NaN"):
            BernoulliOracle(StreamParams(2, 5), np.array([0.5, math.nan]))


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
        assert np.array_equal(o.full_matrix(), want)


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
    """The oracles' per-day hash table against the hash computed directly."""

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

    def test_days_outside_the_horizon_rejected(self):
        o = BernoulliOracle(StreamParams(3, 10), np.array([0.5, 0.5, 0.5]))
        for t0, t1 in [(0, 3), (5, 11), (11, 11)]:
            with pytest.raises(IndexError):
                o.loss_block(t0, t1, np.array([1]))


class TestEpochSpoiler:
    def test_best_expert_has_constant_base_loss_outside_spoilers(self):
        o = EpochSpoilerOracle(StreamParams(8, 90, seed=4), best_id=3,
                               base_loss=0.2, decoy_loss=0.05, epoch_length=10)
        col = o.full_matrix()[:, 2]
        assert np.all(col == 0.2)

    def test_every_third_epoch_has_decoys(self):
        o = EpochSpoilerOracle(StreamParams(8, 90, seed=4), best_id=3,
                               base_loss=0.2, decoy_loss=0.05, epoch_length=10)
        m = o.full_matrix()
        for epoch in range(9):
            rows = m[epoch * 10:(epoch + 1) * 10]
            has_decoy = (rows == 0.05).any()
            assert has_decoy == (epoch % 3 == 1)

    def test_field_losses_exceed_base(self):
        o = EpochSpoilerOracle(StreamParams(8, 30, seed=4), best_id=1,
                               base_loss=0.2, decoy_loss=0.0, epoch_length=10)
        m = o.full_matrix()
        field = m[:10, 1:]  # first epoch is never a spoiler
        assert field.min() >= 0.5

    def test_decoys_never_include_best(self):
        o = EpochSpoilerOracle(StreamParams(5, 300, seed=12), best_id=2,
                               base_loss=0.3, decoy_loss=0.1, epoch_length=10)
        assert np.all(o.full_matrix()[:, 1] == 0.3)

    def test_rejects_decoy_above_base(self):
        with pytest.raises(ValueError):
            EpochSpoilerOracle(StreamParams(4, 10), best_id=1,
                               base_loss=0.2, decoy_loss=0.3, epoch_length=5)


class TestCsvOracle:
    def _write(self, path, n, rows):
        lines = ["t," + ",".join(f"e{i}" for i in range(1, n + 1))]
        lines += [",".join(str(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_replays_file_values(self, tmp_path):
        f = tmp_path / "s.csv"
        self._write(f, 2, [[1, 0.25, 0.5], [2, 0.0, 1.0]])
        o = CsvOracle(StreamParams(2, 2), str(f))
        assert o.loss(2, 1) == 0.0
        assert o.loss(1, 1) == 0.25

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            CsvOracle(StreamParams(2, 2), "/nonexistent/x.csv")

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


class TestGameInstance:
    def test_matrix_entries(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.matrix_entry(3, 1) == 4.0
        assert g.matrix_entry(1, 1) == 1.0
        assert g.matrix_entry(1, 2) == 0.0

    def test_support_sampled_with_right_size(self):
        for seed in range(10):
            g = GameInstance(10, 3, seed=seed)
            assert len(g.S) == 3
            assert all(1 <= i <= 10 for i in g.S)

    def test_worst_case_uniform_on_support(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.worst_case_loss(np.array([0.5, 0.5, 0.0, 0.0])) == 0.5

    def test_worst_case_equilibrium_is_minmax(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        assert g.worst_case_loss(g.equilibrium()) == 0.5

    def test_worst_case_off_support_mass(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 3})
        # column 1: 0.5*1 (matched) + 0.5*4 (expert 2 off support)
        assert g.worst_case_loss(np.array([0.5, 0.5, 0.0, 0.0])) == 2.5

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
            assert val == g.worst_case_loss(p)
            assert np.all(g.column_losses(p) <= val + 1e-15)

    def test_best_response_tie_breaks_low(self):
        g = GameInstance(4, 2)
        g.S = frozenset({1, 2})
        y, _ = g.best_response(np.array([0.5, 0.5, 0.0, 0.0]))
        assert y == 1

    def test_rejects_non_distribution(self):
        g = GameInstance(4, 2)
        with pytest.raises(ValueError):
            g.worst_case_loss(np.array([0.5, 0.5, 0.5, 0.0]))


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
            o.loss(1, 1)

    def test_committed_rounds_replayable(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        o.adversary_step(np.full(4, 0.25))
        first = o.loss(1, 1)
        assert o.loss(1, 1) == first


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

    def test_dispatch_types(self):
        params = StreamParams(3, 5, seed=1)
        assert isinstance(make_oracle(params, {"generator": "constant",
                                               "means": [0.1, 0.2, 0.3]}),
                          ConstantOracle)
        assert isinstance(make_oracle(params, {"generator": "iid-bernoulli",
                                               "means": [0.1, 0.2, 0.3]}),
                          BernoulliOracle)
        assert isinstance(make_oracle(params, {"generator": "adaptive-game",
                                               "k": 2}),
                          GameOracle)
