"""Tests for the exponential-weights core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expertpool.mwu import MwuState


class TestInit:
    def test_uniform_at_start(self):
        s = MwuState(["a", "b", "c"], horizon=10)
        assert np.allclose(s.distribution(), [1 / 3, 1 / 3, 1 / 3])

    def test_default_eta(self):
        s = MwuState(["a", "b"], horizon=100)
        assert s.eta == pytest.approx(math.sqrt(math.log(2) / 100), abs=1e-12)
        assert s.eta == pytest.approx(0.08326, abs=1e-5)

    def test_singleton(self):
        s = MwuState(["a"], horizon=5)
        assert s.distribution().tolist() == [1.0]
        assert s.eta == 1.0

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            MwuState([], horizon=5)
        with pytest.raises(ValueError):
            MwuState(["a", "a"], horizon=5)


class TestUpdate:
    def test_closed_form_two_experts(self):
        s = MwuState(["a", "b"], horizon=10, eta=math.log(2))
        s.update({"a": 0.0, "b": 1.0})
        # weights proportional to (1, 1/2)
        assert np.allclose(s.distribution(), [2 / 3, 1 / 3])

    def test_equal_losses_leave_distribution_unchanged(self):
        s = MwuState(["a", "b", "c"], horizon=10)
        before = s.distribution().copy()
        s.update({"a": 0.7, "b": 0.7, "c": 0.7})
        assert np.allclose(s.distribution(), before, atol=1e-12)

    def test_persistent_loser_vanishes(self):
        s = MwuState(["a", "b"], horizon=100)
        for _ in range(100):
            s.update({"a": 0.0, "b": 1.0})
        assert s.probability("a") > 0.99

    def test_out_of_range_loss_rejected(self):
        s = MwuState(["a", "b"], horizon=10)
        with pytest.raises(ValueError):
            s.update({"a": 0.0, "b": 1.5})

    def test_nan_loss_rejected(self):
        s = MwuState(["a", "b"], horizon=10)
        s.update([0.25, 0.0])
        before = s.cum.copy()
        with pytest.raises(ValueError):
            s.update([math.nan, 0.5])
        assert np.array_equal(s.cum, before)

    def test_missing_id_rejected(self):
        s = MwuState(["a", "b"], horizon=10)
        with pytest.raises(KeyError):
            s.update({"a": 0.0})

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(0.0, 0.3))
    def test_shift_invariance(self, losses, shift):
        # adding a constant to every loss leaves the distribution identical
        a = MwuState(["x", "y", "z"], horizon=20)
        b = MwuState(["x", "y", "z"], horizon=20)
        a.update([min(v, 1.0 - shift) for v in losses])
        b.update([min(v, 1.0 - shift) + shift for v in losses])
        assert np.allclose(a.distribution(), b.distribution(), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                    min_size=1, max_size=10))
    def test_distribution_normalized(self, rounds):
        s = MwuState(list("wxyz"), horizon=50)
        for vec in rounds:
            s.update(vec)
        assert abs(s.distribution().sum() - 1.0) < 1e-9


class TestSample:
    def test_singleton_always_sampled(self):
        s = MwuState(["only"], horizon=5)
        rng = np.random.default_rng(0)
        assert all(s.sample(rng) == "only" for _ in range(20))

    def test_uniform_frequency(self):
        s = MwuState(["a", "b"], horizon=5)
        rng = np.random.default_rng(42)
        hits = sum(s.sample(rng) == "a" for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_fixed_seed_reproducible(self):
        s = MwuState(list("abcd"), horizon=5)
        draws1 = [s.sample(np.random.default_rng(7)) for _ in range(1)]
        draws2 = [s.sample(np.random.default_rng(7)) for _ in range(1)]
        s2 = MwuState(list("abcd"), horizon=5)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        seq1 = [s.sample(r1) for _ in range(50)]
        seq2 = [s2.sample(r2) for _ in range(50)]
        assert draws1 == draws2
        assert seq1 == seq2


class TestRunBlock:
    def test_matches_stepwise_sample_update(self):
        # one uniform per round; the vectorized path must replay exactly
        rng_block = np.random.default_rng(3)
        rng_step = np.random.default_rng(3)
        losses = np.random.default_rng(9).random((40, 5))
        ids = list(range(5))
        block_state = MwuState(ids, horizon=40)
        step_state = MwuState(ids, horizon=40)
        picks = block_state.run_block(losses, rng_block)
        step_picks = []
        for row in losses:
            step_picks.append(step_state.sample(rng_step))
            step_state.update(row)
        assert picks.tolist() == step_picks
        assert np.allclose(block_state.distribution(), step_state.distribution(),
                           atol=1e-9)

    @pytest.mark.parametrize("rounds,m", [(1, 2), (4, 16), (10, 3), (37, 7)])
    def test_matches_reference_exactly(self, rounds, m):
        # the reference stacks a zero row over the shifted cumulative sums
        data = np.random.default_rng(rounds * m)
        state = MwuState(list(range(m)), horizon=100)
        ref_cum = state.cum.copy()
        rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
        for _ in range(6):
            losses = data.random((rounds, m))
            pre = ref_cum + np.vstack([np.zeros(m), np.cumsum(losses, axis=0)[:-1]])
            w = np.exp(-state.eta * (pre - pre.min(axis=1, keepdims=True)))
            cdf = np.cumsum(w, axis=1)
            u = ref_rng.random(rounds) * cdf[:, -1]
            want = np.minimum((cdf < u[:, None]).sum(axis=1), m - 1)
            ref_cum += losses.sum(axis=0)
            ref_cum -= ref_cum.min()
            assert np.array_equal(state.run_block(losses, rng), want)
            assert np.array_equal(state.cum, ref_cum)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_empty_block(self):
        s = MwuState(["a", "b"], horizon=5)
        assert s.run_block(np.empty((0, 2)), np.random.default_rng(0)).size == 0

    def test_range_checked(self):
        s = MwuState(["a", "b"], horizon=5)
        with pytest.raises(ValueError):
            s.run_block(np.array([[0.0, 2.0]]), np.random.default_rng(0))

    def test_nan_cell_rejected(self):
        s = MwuState(["a", "b"], horizon=5)
        s.run_block(np.array([[0.5, 0.25]]), np.random.default_rng(0))
        before = s.cum.copy()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            s.run_block(np.array([[0.5, 0.25], [math.nan, 0.5]]), rng)
        assert np.array_equal(s.cum, before)
        assert rng.bit_generator.state == state


class TestRegretBound:
    def test_high_probability_regret(self):
        # realized loss <= best + (ln m)/eta + eta*T + 4*sqrt(T ln(mT)),
        # allowed to fail in at most 1 of 100 seeded trials
        m, T = 8, 2000
        eta = math.sqrt(math.log(m) / T)
        bound = math.log(m) / eta + eta * T + 4 * math.sqrt(T * math.log(m * T))
        failures = 0
        for seed in range(100):
            gen = np.random.default_rng(1000 + seed)
            losses = gen.random((T, m))
            losses[:, 0] = gen.random(T) * 0.5  # a clearly better expert
            s = MwuState(list(range(m)), horizon=T)
            picks = s.run_block(losses, np.random.default_rng(seed))
            realized = losses[np.arange(T), picks].sum()
            if realized - losses.sum(axis=0).min() > bound:
                failures += 1
        assert failures <= 1
