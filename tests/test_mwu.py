"""Tests for the exponential-weights core."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expertpool.mwu import MwuState
from expertpool.streams import ConstantOracle, StreamParams


class TestInit:
    def test_uniform_at_start(self):
        s = MwuState(3, horizon=10)
        assert np.allclose(s.distribution(), [1 / 3, 1 / 3, 1 / 3])

    def test_default_eta(self):
        s = MwuState(2, horizon=100)
        assert s.eta == pytest.approx(math.sqrt(math.log(2) / 100), abs=1e-12)
        assert s.eta == pytest.approx(0.08326, abs=1e-5)

    def test_singleton(self):
        s = MwuState(1, horizon=5)
        assert s.distribution().tolist() == [1.0]
        assert s.eta == 1.0

    def test_rejects_empty_and_zero_horizon(self):
        with pytest.raises(ValueError):
            MwuState(0, horizon=5)
        with pytest.raises(ValueError):
            MwuState(2, horizon=0)


class TestUpdate:
    def test_closed_form_two_experts(self):
        s = MwuState(2, horizon=10, eta=math.log(2))
        s.update([0.0, 1.0])
        # weights proportional to (1, 1/2)
        assert np.allclose(s.distribution(), [2 / 3, 1 / 3])

    def test_equal_losses_leave_distribution_unchanged(self):
        s = MwuState(3, horizon=10)
        before = s.distribution().copy()
        s.update([0.7, 0.7, 0.7])
        assert np.allclose(s.distribution(), before, atol=1e-12)

    def test_persistent_loser_vanishes(self):
        s = MwuState(2, horizon=100)
        for _ in range(100):
            s.update([0.0, 1.0])
        assert s.distribution()[0] > 0.99

    def test_out_of_range_loss_rejected(self):
        s = MwuState(2, horizon=10)
        with pytest.raises(ValueError):
            s.update([0.0, 1.5])

    def test_nan_loss_rejected(self):
        s = MwuState(2, horizon=10)
        s.update([0.25, 0.0])
        before = s.cum.copy()
        with pytest.raises(ValueError):
            s.update([math.nan, 0.5])
        assert np.array_equal(s.cum, before)

    def test_missing_id_rejected(self):
        # one loss for two experts: the sequence must have one entry per position
        s = MwuState(2, horizon=10)
        with pytest.raises(ValueError, match="expected 2 losses"):
            s.update([0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
           st.floats(0.0, 0.3))
    def test_shift_invariance(self, losses, shift):
        # adding a constant to every loss leaves the distribution identical
        a = MwuState(3, horizon=20)
        b = MwuState(3, horizon=20)
        a.update([min(v, 1.0 - shift) for v in losses])
        b.update([min(v, 1.0 - shift) + shift for v in losses])
        assert np.allclose(a.distribution(), b.distribution(), atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
                    min_size=1, max_size=10))
    def test_distribution_normalized(self, rounds):
        s = MwuState(4, horizon=50)
        for vec in rounds:
            s.update(vec)
        assert abs(s.distribution().sum() - 1.0) < 1e-9


class TestSample:
    def test_singleton_always_sampled(self):
        s = MwuState(1, horizon=5)
        rng = np.random.default_rng(0)
        assert all(s.sample(rng) == 0 for _ in range(20))

    def test_uniform_frequency(self):
        s = MwuState(2, horizon=5)
        rng = np.random.default_rng(42)
        hits = sum(s.sample(rng) == 0 for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01

    def test_fixed_seed_reproducible(self):
        s = MwuState(4, horizon=5)
        draws1 = [s.sample(np.random.default_rng(7)) for _ in range(1)]
        draws2 = [s.sample(np.random.default_rng(7)) for _ in range(1)]
        s2 = MwuState(4, horizon=5)
        r1, r2 = np.random.default_rng(7), np.random.default_rng(7)
        seq1 = [s.sample(r1) for _ in range(50)]
        seq2 = [s2.sample(r2) for _ in range(50)]
        assert draws1 == draws2
        assert seq1 == seq2

    def test_leaves_cum_as_it_was_and_draws_one_uniform(self):
        s = MwuState(5, horizon=50)
        s.update([0.3, 0.1, 0.7, 0.1, 1.0])
        s.update([0.2, 0.9, 0.0, 0.4, 0.6])
        before = s.cum.tobytes()
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(10):
            s.sample(rng)
            ref.random()
            assert s.cum.tobytes() == before
            assert rng.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=12),
           st.floats(1e-3, 5.0), st.integers(0, 2**32 - 1))
    def test_position_equals_first_pick_of_run_block(self, cum, eta, seed):
        # the same uniform picks the same position on both paths; a uniform
        # landing exactly on a cdf step has probability zero
        m = len(cum)
        one, block = (MwuState(m, horizon=10, eta=eta) for _ in range(2))
        one.cum[:] = block.cum[:] = cum
        pos = one.sample(np.random.default_rng(seed))
        assert isinstance(pos, int) and 0 <= pos < m
        assert pos == block.run_block(np.zeros((1, m)), np.random.default_rng(seed))[0]


class TestRunBlock:
    def test_matches_stepwise_sample_update(self):
        # one uniform per round; the vectorized path must replay exactly
        rng_block = np.random.default_rng(3)
        rng_step = np.random.default_rng(3)
        losses = np.random.default_rng(9).random((40, 5))
        block_state = MwuState(5, horizon=40)
        step_state = MwuState(5, horizon=40)
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
        state = MwuState(m, horizon=100)
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

    @pytest.mark.parametrize("cum,losses,uniforms", [
        # random weights and uniforms
        (np.random.default_rng(5).random(6) * 3, np.random.default_rng(6).random((5, 6)),
         np.random.default_rng(7).random(5)),
        # tied weights, with u landing exactly on each step of the cdf
        (np.zeros(4), np.zeros((5, 4)), [0.0, 0.25, 0.5, 0.75, 0.999]),
        # trailing weights that underflow to 0: the cdf is flat over them
        ([0.0, 0.5, 900.0, 1000.0], np.zeros((4, 4)), [0.0, 0.5, 0.999999, 1 - 2**-53]),
        # u equal to the row total: never a zero-weight expert
        ([0.0, 0.5, 900.0, 1000.0], np.zeros((2, 4)), [1.0, 1.0]),
        ([0.0, 0.0], np.zeros((3, 2)), [1.0, 1.0, 1.0]),
    ], ids=["random", "tied", "underflow", "u-at-total", "u-at-total-tied"])
    def test_pick_rule(self, cum, losses, uniforms):
        # the pick is min(count(cdf < u), m-1) for the row's u = uniform * total
        class Uniforms:
            def random(self, size):
                assert size == len(uniforms)
                return np.array(uniforms, dtype=np.float64)

        m = len(cum)
        state = MwuState(m, horizon=10, eta=1.0)
        state.cum[:] = cum
        pre = state.cum + np.vstack([np.zeros(m), np.cumsum(losses, axis=0)[:-1]])
        w = np.exp(-(pre - pre.min(axis=1, keepdims=True)))
        cdf = np.cumsum(w, axis=1)
        u = np.array(uniforms) * cdf[:, -1]
        want = np.minimum((cdf < u[:, None]).sum(axis=1), m - 1)
        got = state.run_block(np.asarray(losses, dtype=np.float64), Uniforms())
        assert got.tolist() == want.tolist()
        assert np.all(w[np.arange(len(got)), got] > 0)  # never a zero-weight expert

        # sample() picks by the same rule, from each round's cumulative losses
        class Uniform:
            def __init__(self, v):
                self.v = v

            def random(self, size):
                assert size == 1
                return np.array([self.v])

        for row, v, k in zip(pre, uniforms, want):
            state.cum[:] = row
            assert state.sample(Uniform(float(v))) == k

    @pytest.mark.parametrize("shape", [(2, 3), (1, 1), (2,)])
    def test_wrong_width_rejected(self, shape):
        s = MwuState(2, horizon=5)
        with pytest.raises(ValueError, match=r"expected shape \(rounds, 2\)"):
            s.run_block(np.zeros(shape), np.random.default_rng(0))

    def test_empty_block(self):
        s = MwuState(2, horizon=5)
        assert s.run_block(np.empty((0, 2)), np.random.default_rng(0)).size == 0

    def test_range_checked(self):
        s = MwuState(2, horizon=5)
        with pytest.raises(ValueError):
            s.run_block(np.array([[0.0, 2.0]]), np.random.default_rng(0))

    def test_one_exact_range_rule(self):
        # one ulp above 1 is refused by the learner and by a stream alike
        over = 1.0 + 2.0**-52
        with pytest.raises(ValueError, match=r"^losses must lie in \[0, 1\]$"):
            MwuState(2, horizon=5).run_block(np.array([[0.0, over]]), np.random.default_rng(0))
        with pytest.raises(ValueError, match=r"^losses must lie in \[0, 1\]$"):
            MwuState(2, horizon=5).update([over, 0.0])
        with pytest.raises(ValueError, match=r"^constant losses must lie in \[0, 1\]$"):
            ConstantOracle(StreamParams(2, 5), [0.5, over])

    def test_nan_cell_rejected(self):
        s = MwuState(2, horizon=5)
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
            s = MwuState(m, horizon=T)
            picks = s.run_block(losses, np.random.default_rng(seed))
            realized = losses[np.arange(T), picks].sum()
            if realized - losses.sum(axis=0).min() > bound:
                failures += 1
        assert failures <= 1
