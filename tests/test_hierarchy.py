"""Tests for the multi-level merge learner."""

import copy
import math
import warnings

import numpy as np
import pytest

from expertpool.baseline import BaselineLearner, BaselineParams
from expertpool.hierarchy import (HierarchyLearner, LevelParams, LevelState,
                                  _follow_own_probability, build_levels)
from expertpool.meter import WordMeter
from expertpool.streams import (ConstantOracle, GameOracle, LossOracle, StreamParams,
                                make_oracle)


def play(learner, oracle):
    """Step ``learner`` through ``next_block`` to the oracle's horizon; the
    total realized loss, summed block by block as the harness sums it."""
    loss = 0.0
    while learner.day < oracle.T:
        loss += float(learner.next_block(oracle)[1].sum())
    return loss


def _episode_position(lvl):
    """Days into the level's episode: its closed epochs, the open epoch's
    closed decision rounds and the open round's days."""
    rounds = 0 if lvl._epoch is None else lvl._epoch.rounds
    lp = lvl.lp
    return (((lvl.epoch_count % lp.epochs_per_episode) * lp.B + rounds) * lp.day_span
            + lvl.day_in_dd)


def _assert_aligned(lvl, day):
    """After ``day`` days, the level sits at ``day`` modulo its round and
    episode lengths."""
    assert lvl.day_in_dd == day % lvl.lp.day_span, (lvl.lp.k, day)
    assert _episode_position(lvl) == day % lvl.lp.episode_days, (lvl.lp.k, day)


def run_aligned(h, oracle):
    """Step ``h`` to its horizon, checking every level's alignment (level 1's
    too) after every block. Returns (day, pool size per level k >= 2) per block
    and the total realized loss."""
    episode1 = h.level_params[0].episode_days
    log = []
    loss = 0.0
    while h.day < h.T:
        loss += float(h.next_block(oracle)[1].sum())
        assert h._lvl1.day % episode1 == h.day % episode1
        for lvl in h.levels:
            _assert_aligned(lvl, h.day)
        log.append((h.day, tuple(len(lvl.entries) for lvl in h.levels)))
    return log, loss


class TestBuildLevels:
    def test_n16_delta1(self):
        eps, K, levels = build_levels(16, 65536, 1.0)
        assert eps == 0.25
        assert K == 2
        assert levels[0].B == 16
        assert levels[0].episode_days == 1024
        assert levels[1].episode_days == 65536
        assert levels[1].day_span == 1024

    def test_n4_delta1(self):
        eps, K, levels = build_levels(4, 256, 1.0)
        assert eps == 0.5
        assert K == 2
        assert levels[0].B == 4
        assert levels[0].episode_days == 32
        assert levels[1].episode_days == 256

    @pytest.mark.parametrize("delta,cap1,cap2", [(0.5, 50, 178), (1.0, 111, 355)])
    def test_level1_records_its_learners_pool_cap(self, delta, cap1, cap2):
        # level 1 is a baseline over one episode, ceil(4/eps ln episode_days);
        # a level k >= 2 takes ceil(8/eps ln T)
        h = HierarchyLearner(16, 65536, delta)
        lvl1, lvl2 = h.level_params
        assert lvl1.pool_cap == h._level1_params(h.T).pool_cap == cap1
        assert lvl2.pool_cap == cap2

    def test_horizon_between_ladder_steps(self):
        # T=70000 sits between T_2=65536 and T_3; sized for T_2, run truncated
        eps, K, levels = build_levels(16, 70000, 1.0)
        assert K == 2
        assert levels[1].episode_days == 65536

    def test_nesting_is_exact(self):
        for n, T in ((16, 65536), (4, 256), (9, 10**5)):
            _, _, levels = build_levels(n, T, 1.0)
            for lower, upper in zip(levels, levels[1:]):
                assert upper.day_span == lower.episode_days
                assert upper.episode_days % upper.day_span == 0

    def test_degenerate_single_level_warns(self):
        with pytest.warns(UserWarning, match="single truncated level"):
            eps, K, levels = build_levels(16, 100, 1.0)
        assert K == 1

    def test_theta_and_width_formulas(self):
        eps, _, levels = build_levels(16, 65536, 1.0)
        log_nt = math.log(16 * 65536)
        lvl2 = levels[1]
        assert lvl2.theta == pytest.approx(eps**2 * log_nt**3)
        assert lvl2.width == pytest.approx(eps * log_nt**3)

    def test_eps_above_half_rejected(self):
        # eps = 8^(-1/4) = 0.5946: the eviction threshold must be at most 1/2
        with pytest.raises(ValueError, match="exceeds 1/2"):
            build_levels(8, 4096, 0.5)
        with pytest.raises(ValueError, match="exceeds 1/2"):
            HierarchyLearner(8, 4096, 0.5)
        assert build_levels(4, 256, 1.0)[0] == 0.5  # the boundary is admissible

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_levels(16, 65536, 0.0)
        with pytest.raises(ValueError):
            build_levels(16, 65536, 1.5)
        with pytest.raises(ValueError):
            build_levels(16, 8, 1.0)  # T < n
        with pytest.raises(ValueError, match="need n >= 2, got 1"):
            build_levels(1, 65536, 1.0)


class TestDegenerateEqualsBaseline:
    def test_k1_matches_baseline_exactly(self):
        n, T = 6, 90  # one bottom-level episode exactly
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = HierarchyLearner(n, T, delta=1.0, seed=3)
        assert h.K == 1
        spec = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}
        oracle = make_oracle(StreamParams(n, T, seed=11), spec)
        b = BaselineLearner(BaselineParams(n, T, eps=h.eps, B=h.B, seed=3))
        assert play(h, oracle) == play(b, oracle)


class TestHierarchyRun:
    @pytest.fixture()
    def oracle(self):
        return make_oracle(StreamParams(4, 512, seed=7),
                           {"generator": "iid-bernoulli",
                            "means": [0.2, 0.5, 0.5, 0.8]})

    def test_truncation_floor_exact(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=0)
        play(h, oracle)
        lvl2 = h.levels[0]
        assert lvl2.min_truncated >= -lvl2.lp.width

    def test_identical_losses_play_common_loss(self):
        oracle = ConstantOracle(StreamParams(4, 256, seed=0), [0.4] * 4)
        h = HierarchyLearner(4, 256, delta=1.0, seed=1)
        assert play(h, oracle) == pytest.approx(0.4 * 256)
        assert h.levels[0].min_truncated >= -h.levels[0].lp.width

    def test_decision_day_alignment(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=2)
        sizes = dict(run_aligned(h, oracle)[0])
        lvl2 = h.levels[0]
        assert (lvl2.lp.day_span, lvl2.lp.episode_days) == (32, 256)
        assert any(size for day, (size,) in sizes.items() if day < 256)
        assert sizes[256] == sizes[512] == (0,)  # cleared at episode end
        assert lvl2.entries == []

    def test_tail_episode_alignment(self):
        # K=2 over 133 full 90-day level-1 episodes and a 30-day tail, which
        # also ends level 2's eighth episode early
        n, T = 6, 12000
        h = HierarchyLearner(n, T, delta=1.0, seed=3)
        assert (h.K, h.level_params[0].episode_days, T % 90) == (2, 90, 30)
        oracle = make_oracle(StreamParams(n, T, seed=3),
                             {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]})
        log, _ = run_aligned(h, oracle)
        assert (h._lvl1.params.T, h._lvl1.day) == (30, 30)
        assert [day for day, _ in log if day > T - 30] == list(range(T - 24, T + 1, 6))
        assert h.levels[0].epoch_count == T // (6 * 90)
        assert h.audit_words() == h.meter.current

    def test_pool_cap_every_epoch(self, oracle):
        eps, _, _ = build_levels(4, 512, 1.0)
        cap = math.ceil(8.0 / eps * math.log(512))
        sizes = {BaselineLearner: [], LevelState: []}
        h = HierarchyLearner(4, 512, delta=1.0, seed=2,
                             on_epoch_close=lambda s: sizes[type(s)].append(len(s.entries)))
        play(h, oracle)
        # one hook sees all 128 level-1 closes (16 episodes) and 4 level-2 closes
        assert (len(sizes[BaselineLearner]), len(sizes[LevelState])) == (128, 4)
        assert max(sizes[BaselineLearner] + sizes[LevelState]) <= cap

    def test_determinism(self, oracle):
        results = []
        for _ in range(2):
            h = HierarchyLearner(4, 512, delta=1.0, seed=5)
            log, loss = run_aligned(h, oracle)
            results.append((loss, h.meter.peak, tuple(log)))
        assert results[0] == results[1]

    def test_next_block_rejects_adaptive_oracle(self):
        h = HierarchyLearner(4, 64, delta=1.0, seed=0)
        before = copy.deepcopy(h.meter)
        state = h.rng.bit_generator.state
        with pytest.raises(ValueError, match="oblivious streams only"):
            h.next_block(GameOracle(StreamParams(4, 64, seed=0), k=2))
        assert h.day == 0
        assert h.meter == before
        assert h.rng.bit_generator.state == state

    def test_next_block_protocol(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=9)
        t0, realized, played = h.next_block(oracle)
        assert t0 == 1
        assert len(realized) == len(played) == h.day == h.B
        assert set(played.tolist()) <= {1, 2, 3, 4}
        # each day's realized loss is the played expert's loss that day
        assert np.array_equal(realized, oracle.loss_block(1, h.B, played).diagonal())

    def test_meter_audit(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=4)
        play(h, oracle)
        assert h.audit_words() == h.meter.current

    def test_width_exceedances_logged_not_fatal(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=4)
        play(h, oracle)
        assert h.levels[0].width_exceedances >= 0  # counter exists and counts


class TestHeadToHead:
    def test_monitored_spoiler_comparison(self):
        # Monitored expectation, not an assertion: at this desk scale the
        # baseline re-samples every expert each epoch (sample size = n), so
        # the hierarchy's episode resets usually cost more than they save.
        n, T = 4, 256
        hier, base = [], []
        for seed in range(5):
            oracle = make_oracle(StreamParams(n, T, seed=seed),
                                 {"generator": "epoch-spoiler", "best-id": 1,
                                  "base-loss": 0.3, "decoy-loss": 0.05,
                                  "epoch-length": 8})
            h = HierarchyLearner(n, T, delta=1.0, seed=seed)
            hier.append(play(h, oracle))
            b = BaselineLearner(BaselineParams(n, T, eps=0.5, seed=seed))
            base.append(play(b, oracle))
        if np.mean(hier) >= np.mean(base):
            warnings.warn(
                f"hierarchy mean loss {np.mean(hier):.1f} not below "
                f"baseline {np.mean(base):.1f} on the spoiler stream "
                "(monitored expectation)",
                stacklevel=1,
            )


class _MatrixOracle(LossOracle):
    """Fixed non-integer losses, served as a file replay serves them."""

    def __init__(self, matrix: np.ndarray):
        super().__init__(StreamParams(matrix.shape[1], matrix.shape[0]))
        self.matrix = matrix

    def loss_block(self, t0, t1, ids):
        return self.matrix[t0 - 1:t1][:, np.asarray(ids) - 1].copy()


def _shifted_cumsum(x):
    c = np.cumsum(x, axis=0)
    return np.vstack([np.zeros_like(c[:1]), c[:-1]])


def _reference_probability(block, base_realized, cum_own, cum_descend, eta):
    """p(follow own expert), with cumulative sums shifted under a stacked zero
    row and each step a new array."""
    own_pre = cum_own[None, :] + _shifted_cumsum(block)
    descend_pre = cum_descend[None, :] + _shifted_cumsum(base_realized[:, None])
    return 1.0 / (1.0 + np.exp(-eta * (descend_pre - own_pre)))


def _reference_process_block(lvl, oracle, t0, base_realized, base_played, rng):
    """``LevelState.process_block`` on the reference merge race."""
    lp = lvl.lp
    L = len(base_realized)
    if lvl._epoch is None:
        lvl._begin_epoch(lvl.T - (t0 - 1), rng)
    if lvl.day_in_dd == 0:
        lvl._start_decision_day(rng)
    ids = lvl._epoch.ids
    m = len(ids)
    block = oracle.loss_block(t0, t0 + L - 1, ids)
    lvl.queries += L * m
    p_own = _reference_probability(block, base_realized, lvl._cum_own,
                                   lvl._cum_descend, lvl.merge_eta)
    follow_own = rng.random((L, m)) < p_own
    realized_e = np.where(follow_own, block, base_realized[:, None])
    lvl._cum_own += block.sum(axis=0)
    lvl._cum_descend += base_realized.sum()
    realized = realized_e[:, lvl._committed].copy()
    played = np.where(follow_own[:, lvl._committed], ids[lvl._committed],
                      base_played)
    lvl._dd_sum_e += realized_e.sum(axis=0)
    lvl.day_in_dd += L
    if lvl.day_in_dd == lp.day_span:
        lvl._close_decision_day()
    return realized, played


class TestLevelState:
    @pytest.mark.parametrize("first,L", [(0, 13), (4, 9), (11, 2)])
    def test_block_across_a_decision_round_rejected(self, first, L):
        # a 12-day decision round: after ``first`` days, L more cross it
        lp = LevelParams(k=2, eps=0.5, B=3, day_span=12, epochs_per_episode=2,
                         theta=0.05, width=1.0, sample_size=2, pool_cap=40)
        n, T = 4, 4 * lp.episode_days
        data = np.random.default_rng(0)
        oracle = _MatrixOracle(data.random((T, n)))
        base_realized, base_played = data.random(T), data.integers(1, n + 1, size=T)
        lvl, rng = LevelState(lp, n, T, WordMeter()), np.random.default_rng(1)
        if first:
            lvl.process_block(oracle, 1, base_realized[:first],
                              base_played[:first], rng)
        with pytest.raises(ValueError, match="block crosses a decision-round boundary"):
            lvl.process_block(oracle, first + 1, base_realized[first:first + L],
                              base_played[first:first + L], rng)
        assert lvl.day_in_dd == first


class TestMergeRaceDifferential:
    """The merge race against the reference, bit for bit, on non-integer losses
    where a reassociated sum would change the low bits."""

    @pytest.mark.parametrize("L,m", [(1, 1), (2, 3), (4, 16), (10, 1), (16, 8)])
    def test_probability_bit_identical(self, L, m):
        data = np.random.default_rng(10 * L + m)
        for _ in range(20):
            block, base = data.random((L, m)), data.random(L)
            cum_own = data.random(m) * data.integers(1, 500)
            cum_descend = np.full(m, data.random() * data.integers(1, 500))
            eta = math.sqrt(math.log(2.0) / data.integers(1, 1024))
            got = _follow_own_probability(block, base, cum_own, cum_descend, eta)
            want = _reference_probability(block, base, cum_own, cum_descend, eta)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,sample,day_span,L,seed", [
        (6, 3, 12, 4, 0),
        (5, 1, 20, 10, 1),  # one-member epochs, blocks long enough for pairwise sums
        (8, 4, 9, 1, 2),
        (4, 2, 16, 16, 3),
        (7, 5, 24, 8, 4),
    ])
    def test_bit_identical(self, n, sample, day_span, L, seed):
        lp = LevelParams(k=2, eps=0.5, B=3, day_span=day_span, epochs_per_episode=2,
                         theta=0.05, width=1.0, sample_size=sample, pool_cap=40)
        T = 4 * lp.episode_days
        data = np.random.default_rng(100 + seed)
        oracle = _MatrixOracle(data.random((T, n)))
        base_realized = data.random(T)
        base_played = data.integers(1, n + 1, size=T)
        lvl, ref = LevelState(lp, n, T, WordMeter()), LevelState(lp, n, T, WordMeter())
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        loss = ref_loss = 0.0  # the realized totals, summed block by block
        for t0 in range(1, T + 1, L):
            days = slice(t0 - 1, t0 - 1 + L)
            got = lvl.process_block(oracle, t0, base_realized[days],
                                    base_played[days], rng)
            want = _reference_process_block(ref, oracle, t0, base_realized[days],
                                            base_played[days], ref_rng)
            assert np.array_equal(got[0], want[0]), t0
            assert np.array_equal(got[1], want[1]), t0
            loss += float(got[0].sum())
            ref_loss += float(want[0].sum())
            for name in ("_cum_own", "_cum_descend", "_dd_sum_e"):
                assert np.array_equal(getattr(lvl, name), getattr(ref, name)), (t0, name)
            assert loss == ref_loss
            assert lvl.meter == ref.meter
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            _assert_aligned(lvl, t0 + L - 1)
            _assert_aligned(ref, t0 + L - 1)
        assert lvl.epoch_count == 8
