"""Tests for the multi-level merge learner."""

import math
import warnings

import numpy as np
import pytest

from expertpool.baseline import BaselineLearner, BaselineParams
from expertpool.hierarchy import HierarchyLearner, build_levels
from expertpool.streams import ConstantOracle, GameOracle, StreamParams, make_oracle


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

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_levels(16, 65536, 0.0)
        with pytest.raises(ValueError):
            build_levels(16, 65536, 1.5)
        with pytest.raises(ValueError):
            build_levels(16, 8, 1.0)  # T < n


class TestDegenerateEqualsBaseline:
    def test_k1_matches_baseline_exactly(self):
        n, T = 6, 90  # one bottom-level episode exactly
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            h = HierarchyLearner(n, T, delta=1.0, seed=3)
        assert h.K == 1
        spec = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}
        oracle = make_oracle(StreamParams(n, T, seed=11), spec)
        h.run(oracle)
        b = BaselineLearner(BaselineParams(n, T, eps=h.eps, B=h.B, seed=3))
        b.run(oracle)
        assert h.cumulative_loss == b.cumulative_loss


class TestHierarchyRun:
    @pytest.fixture()
    def oracle(self):
        return make_oracle(StreamParams(4, 512, seed=7),
                           {"generator": "iid-bernoulli",
                            "means": [0.2, 0.5, 0.5, 0.8]})

    def test_truncation_floor_exact(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=0)
        h.run(oracle)
        lvl2 = h.levels[0]
        assert lvl2.min_truncated >= -lvl2.lp.width

    def test_identical_losses_play_common_loss(self):
        oracle = ConstantOracle(StreamParams(4, 256, seed=0), [0.4] * 4)
        h = HierarchyLearner(4, 256, delta=1.0, seed=1)
        h.run(oracle)
        assert h.cumulative_loss == pytest.approx(0.4 * 256)
        assert h.levels[0].min_truncated >= -h.levels[0].lp.width

    def test_decision_day_alignment(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=2)
        h.run(oracle)
        lvl2 = h.levels[0]
        assert all(d % lvl2.lp.day_span == 0 for d in lvl2.dd_close_days)
        assert lvl2.episode_close_days == [256, 512]
        assert lvl2.entries == []  # cleared at episode end

    def test_pool_cap_every_epoch(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=2)
        cap = math.ceil(8.0 / h.eps * math.log(512))
        failures = []
        for lvl in h.levels:
            lvl.on_epoch_close = lambda s: failures.append(len(s.entries)) \
                if len(s.entries) > cap else None
        h.run(oracle)
        assert failures == []

    def test_determinism(self, oracle):
        results = []
        for _ in range(2):
            h = HierarchyLearner(4, 512, delta=1.0, seed=5)
            h.run(oracle)
            results.append((h.cumulative_loss, h.meter.peak,
                            tuple(h.levels[0].dd_close_days)))
        assert results[0] == results[1]

    def test_next_block_rejects_adaptive_oracle(self):
        h = HierarchyLearner(4, 64, delta=1.0, seed=0)
        before = h.meter.snapshot()
        state = h.rng.bit_generator.state
        with pytest.raises(ValueError, match="oblivious streams only"):
            h.next_block(GameOracle(StreamParams(4, 64, seed=0), k=2))
        assert h.day == 0
        assert h.meter.snapshot() == before
        assert h.rng.bit_generator.state == state

    def test_next_block_protocol(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=9)
        t0, realized, played = h.next_block(oracle)
        assert t0 == 1
        assert len(realized) == len(played) == h.day == h.B
        assert set(played.tolist()) <= {1, 2, 3, 4}
        assert h.cumulative_loss == pytest.approx(realized.sum())

    def test_meter_audit(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=4)
        h.run(oracle)
        assert h.audit_words() == h.meter.current

    def test_width_exceedances_logged_not_fatal(self, oracle):
        h = HierarchyLearner(4, 512, delta=1.0, seed=4)
        h.run(oracle)
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
            h.run(oracle)
            hier.append(h.cumulative_loss)
            b = BaselineLearner(BaselineParams(n, T, eps=0.5, seed=seed))
            b.run(oracle)
            base.append(b.cumulative_loss)
        if np.mean(hier) >= np.mean(base):
            warnings.warn(
                f"hierarchy mean loss {np.mean(hier):.1f} not below "
                f"baseline {np.mean(base):.1f} on the spoiler stream "
                "(monitored expectation)",
                stacklevel=1,
            )
