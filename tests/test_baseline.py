"""Tests for the epoch-structured pool learner."""

import math
import operator
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expertpool.baseline import (
    EVICT_GUARD,
    BaselineLearner,
    BaselineParams,
    Pool,
    PoolEntry,
    best_of_sample,
    default_epoch_length,
    evict_pass,
    pool_potential,
)
from expertpool.bench import check_pool
from expertpool.meter import WordMeter
from expertpool.streams import ConstantOracle, LossOracle, StreamParams, make_oracle


def play(learner, oracle):
    """Step ``learner`` through ``next_block`` to the oracle's horizon; the
    total realized loss, summed block by block as the harness sums it."""
    loss = 0.0
    while learner.day < oracle.T:
        loss += float(learner.next_block(oracle)[1].sum())
    return loss


def entry(id, alpha, own_avg, own_count=1, cross=None):
    """An entry averaging ``own_avg`` over ``own_count`` epochs; ``cross`` maps
    a younger id to (average, that entry's count)."""
    e = PoolEntry(id, alpha, own_avg * own_count, own_count)
    for younger_id, (avg, count) in (cross or {}).items():
        e.cross[younger_id] = avg * count
    return e


class TestParams:
    def test_sample_size_clamp(self):
        p = BaselineParams(8, 64, eps=0.25, B=4)
        assert p.sample_size == min(16, 8) == 8

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            BaselineParams(8, 64, eps=0.6)

    def test_pool_cap_formula(self):
        p = BaselineParams(128, 10**5, eps=0.1)
        assert p.pool_cap == math.ceil(40 * math.log(10**5)) == 461

    @pytest.mark.parametrize("eps", [0.01, 0.3, 0.5])
    def test_pool_cap_at_least_one(self, eps):
        # ln 1 = 0, yet a one-day epoch admits its best sampled expert
        assert BaselineParams(4, 1, eps=eps).pool_cap == 1
        assert BaselineParams(4, 2, eps=eps).pool_cap == math.ceil(4 / eps * math.log(2)) >= 6

    def test_default_epoch_length(self):
        n, T, eps = 64, 10**5, 0.1
        assert default_epoch_length(n, T, eps) == round((T / (eps**2 * n)) ** (2 / 3))
        assert default_epoch_length(2, 4, 0.49) >= 1

    def test_explicit_b_bounds(self):
        with pytest.raises(ValueError):
            BaselineParams(4, 10, eps=0.2, B=11)

    @pytest.mark.parametrize("n,T,message", [(0, 10, "need n >= 1, got 0"),
                                             (4, 0, "need T >= 1, got 0")])
    def test_rejects_empty_expert_set_and_horizon(self, n, T, message):
        with pytest.raises(ValueError, match=message):
            BaselineParams(n, T, eps=0.25, B=1)


class TestBestOfSample:
    def test_argmin(self):
        assert best_of_sample([5, 7, 9], [0.3, 0.2, 0.9]) == (0.2, 7)

    def test_tie_to_lowest_id(self):
        assert best_of_sample([4, 2], [0.2, 0.2]) == (0.2, 2)

    def test_singleton(self):
        assert best_of_sample([3], [0.8]) == (0.8, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            best_of_sample([], [])


class TestEvictPass:
    def test_dominated_younger_evicted(self):
        # eps=0.1: own 0.50 >= cross 0.55 - 0.1 -> evicted
        pool = [entry(1, 1, 0.9, cross={2: (0.55, 1)}),
                entry(2, 2, 0.50)]
        survivors, evicted = evict_pass(pool, 0.1)
        assert [e.id for e in survivors] == [1]
        assert [e.id for e in evicted] == [2]

    def test_clearly_better_younger_survives(self):
        # own 0.50 < cross 0.65 - 0.1 -> survives
        pool = [entry(1, 1, 0.9, cross={2: (0.65, 1)}),
                entry(2, 2, 0.50)]
        survivors, evicted = evict_pass(pool, 0.1)
        assert [e.id for e in survivors] == [1, 2]
        assert evicted == []

    def test_exact_boundary_evicts(self):
        # the rule is inclusive: own == cross - eps evicts
        pool = [entry(1, 1, 0.9, cross={2: (0.60, 1)}),
                entry(2, 2, 0.50)]
        survivors, _ = evict_pass(pool, 0.1)
        assert [e.id for e in survivors] == [1]

    def test_single_entry_unchanged(self):
        pool = [entry(1, 1, 0.4)]
        survivors, evicted = evict_pass(pool, 0.1)
        assert survivors == pool and evicted == []

    def test_snapshot_semantics(self):
        # b is evicted by a, yet still evicts c (comparisons read the snapshot)
        pool = [entry(1, 1, 0.9, cross={2: (0.2, 1), 3: (0.9, 1)}),
                entry(2, 2, 0.3, cross={3: (0.4, 1)}),
                entry(3, 3, 0.35)]
        survivors, evicted = evict_pass(pool, 0.1)
        assert [e.id for e in evicted] == [2, 3]
        assert [e.id for e in survivors] == [1]

    def test_cross_tables_pruned(self):
        pool = [entry(1, 1, 0.9, cross={2: (0.2, 1), 3: (0.95, 1)}),
                entry(2, 2, 0.3, cross={3: (0.95, 1)}),
                entry(3, 3, 0.5)]
        survivors, _ = evict_pass(pool, 0.1)
        assert [e.id for e in survivors] == [1, 3]
        assert set(survivors[0].cross) == {3}


class TestPool:
    def test_meter_balance_through_admit_settle_clear(self):
        meter = WordMeter()
        pool = Pool(meter)

        def balanced():
            return meter.by_category["pool"] == pool.words

        pool.admit([0.9], [1], alpha=1)
        assert balanced()
        pool.admit([0.2, 0.3], [2], alpha=2)
        assert balanced()
        pool.admit([0.95, 0.95, 0.5], [3], alpha=3)
        assert balanced() and pool.words == 18
        # 2 is dominated by 1; 1's cross row for 2 is pruned with it
        evicted = pool.settle(evict_pass, 0.1)
        assert [e.id for e in evicted] == [2]
        assert [e.id for e in pool.entries] == [1, 3]
        assert set(pool.entries[0].cross) == {3}
        assert balanced() and pool.words == 10
        pool.clear()
        assert balanced()
        assert pool.entries == [] and meter.by_category["pool"] == 0
        assert meter.current == 0

    def test_close_epoch_folds_before_admitting(self):
        pool = Pool(WordMeter())
        pool.admit([0.4], [1], alpha=1)
        pool.close_epoch([0.6, 0.3, 0.1], [2, 3], 2, evict_pass, 0.05)
        old, young = pool.entries
        assert (old.count, old.average) == (2, pytest.approx(0.5))
        assert (young.id, young.count, young.average) == (3, 1, 0.1)
        assert old.cross == {3: 0.6} and old.average_over(young) == 0.6

    def test_draw_skips_pooled_ids(self):
        pool = Pool(WordMeter())
        pool.admit([0.1], [1], alpha=1)
        pool.admit([0.9, 0.1], [3], alpha=2)
        members, drawn = pool.draw(np.random.default_rng(0), 4, 4, full=True)
        assert sorted(drawn) == [2, 4]
        assert members == [1, 3] + drawn
        # a tail epoch plays the pool alone
        assert pool.draw(np.random.default_rng(0), 4, 4, full=False) == ([1, 3], [])


class TestPoolPotential:
    def test_formula(self):
        e = entry(1, 1, 0.3, own_count=5)
        assert pool_potential([e])[0] == pytest.approx(2 * math.log(5) + 0.3)
        assert pool_potential([e])[0] == pytest.approx(3.5189, abs=1e-4)

    def test_youngest_first_order(self):
        old = entry(1, 1, 0.9, own_count=10)
        young = entry(2, 5, 0.1, own_count=2)
        phi = pool_potential([old, young])
        assert phi[0] == pytest.approx(2 * math.log(2) + 0.1)
        assert phi[1] == pytest.approx(2 * math.log(10) + 0.9)

    def test_illegal_pool_flagged_by_harness(self):
        # hand-built pool violating the potential increase
        old = entry(1, 1, 0.1, own_count=1, cross={2: (0.9, 1)})
        young = entry(2, 2, 0.1, own_count=1)
        bad = check_pool([old, young], threshold=0.3, cap=10)
        assert any("potential" in msg for msg in bad)


@st.composite
def pools(draw):
    """Pools of at most 6 entries whose (older, younger) gaps are often exactly
    the threshold, or the threshold plus or minus ``EVICT_GUARD``."""
    threshold = draw(st.sampled_from([0.05, 0.1, 0.25, 0.3]))
    size = draw(st.integers(1, 6))
    ids = draw(st.permutations(range(1, 11)))[:size]
    owns = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    counts = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
    boundary = st.sampled_from([threshold - EVICT_GUARD, threshold,
                                threshold + EVICT_GUARD])
    entries = []
    for k, (i, own, count) in enumerate(zip(ids, owns, counts)):
        young = entry(i, k + 1, own, own_count=count)
        for older in entries:
            gap = draw(st.one_of(boundary, st.floats(-1.0, 1.0)))
            older.cross[i] = (young.average + gap) * young.count
        entries.append(young)
    return entries, threshold


def reference_evict(entries, threshold):
    """Brute force over every (older, younger) pair of the snapshot: the ids
    kept, the ids evicted and each survivor's remaining cross keys."""
    doomed = {young.id for yi, young in enumerate(entries)
              for older in entries[:yi]
              if young.sum / young.count
              >= older.cross[young.id] / young.count - threshold - EVICT_GUARD}
    kept = [e for e in entries if e.id not in doomed]
    return ([e.id for e in kept], [e.id for e in entries if e.id in doomed],
            [set(e.cross) - doomed for e in kept])


def reference_dominated(entries, threshold):
    """Every (older, younger) pair that ``check_pool`` must report."""
    return {(older.id, young.id) for yi, young in enumerate(entries)
            for older in entries[:yi]
            if not older.cross[young.id] / young.count
            > young.sum / young.count + threshold}


def reported_dominated(entries, threshold):
    bad = check_pool(entries, threshold, cap=len(entries), raw=False)
    pairs = {tuple(map(int, m)) for m in
             (re.match(r"domination: expert (\d+) over expert (\d+)'s", b).groups()
              for b in bad)}
    assert len(pairs) == len(bad)  # nothing but domination is reported
    return pairs


class TestEvictionDifferential:
    @settings(max_examples=300, deadline=None)
    @given(pools())
    def test_evict_pass_matches_brute_force(self, pool):
        entries, threshold = pool
        kept, doomed, crosses = reference_evict(entries, threshold)
        survivors, evicted = evict_pass(list(entries), threshold)
        assert [e.id for e in survivors] == kept
        assert [e.id for e in evicted] == doomed
        assert [set(e.cross) for e in survivors] == crosses

    @settings(max_examples=300, deadline=None)
    @given(pools())
    def test_check_pool_domination_matches_brute_force(self, pool):
        entries, threshold = pool
        assert reported_dominated(entries, threshold) == \
            reference_dominated(entries, threshold)
        # whatever survives an eviction pass is domination-free
        survivors, _ = evict_pass(list(entries), threshold)
        assert reported_dominated(survivors, threshold) == set()


def fold(values):
    """Left-to-right sum, the order in which the pool adds an epoch's average
    (the builtin ``sum`` compensates on Python 3.12 and later)."""
    return reduce(operator.add, values)


class TestPoolHistory:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.05, 0.1, 0.25]), st.data())
    def test_table_matches_folded_history(self, threshold, data):
        # an epoch's averages: pool entries in order, then fresh ids (never
        # pooled ones); an entry's alpha is the epoch that admitted it. The
        # reference pool admits and evicts from the recorded averages alone.
        meter = WordMeter()
        pool = Pool(meter)
        avg = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
        played = {}  # id -> {epoch: its average that epoch}
        expected = []  # (id, alpha) of the reference pool, oldest first

        def average(i, span):
            return fold(played[i][e] for e in span) / len(span)

        for epoch in range(1, data.draw(st.integers(1, 12)) + 1):
            pooled = [e.id for e in pool.entries]
            free = [i for i in range(1, 21) if i not in pooled]
            r_ids = data.draw(st.lists(st.sampled_from(free), max_size=3, unique=True))
            avgs = data.draw(st.lists(avg, min_size=len(pooled) + len(r_ids),
                                      max_size=len(pooled) + len(r_ids)))
            for i, a in zip(pooled + r_ids, avgs):
                played.setdefault(i, {})[epoch] = a
            pool.close_epoch(avgs, r_ids, epoch, evict_pass, threshold)

            if r_ids:
                expected.append((min(zip(avgs[len(pooled):], r_ids))[1], epoch))
            spans = [range(alpha, epoch + 1) for _, alpha in expected]
            expected = [(i, alpha) for k, (i, alpha) in enumerate(expected)
                        if not any(average(i, spans[k])
                                   >= average(j, spans[k]) - threshold - EVICT_GUARD
                                   for j, _ in expected[:k])]
            assert [(e.id, e.alpha) for e in pool.entries] == expected
            assert meter.current == pool.words
            for yi, young in enumerate(pool.entries):
                span = range(young.alpha, epoch + 1)
                assert young.count == len(span)
                assert young.sum == fold(played[young.id][e] for e in span)
                assert set(young.cross) == {e.id for e in pool.entries[yi + 1:]}
                for older in pool.entries[:yi]:
                    assert older.average_over(young) == average(older.id, span)


class TestLearner:
    def test_advance_reads_its_block_from_t0(self):
        # advance reads its members on exactly the days it is told, whatever
        # its own day count, and plays no further than the open epoch
        matrix = np.random.default_rng(0).random((40, 4))
        reads = []

        class Recording(LossOracle):
            def loss_block(self, t0, t1, ids):
                reads.append((t0, t1, list(ids)))
                return matrix[t0 - 1:t1][:, np.asarray(ids) - 1]

        oracle = Recording(StreamParams(4, 40))
        learner = BaselineLearner(BaselineParams(4, 20, eps=0.5, B=5))
        realized, played = learner.advance(oracle, 17, 3)
        ids = learner.epoch_rest()[0].tolist()
        assert reads == [(17, 19, ids)]
        assert np.array_equal(realized, matrix[np.arange(16, 19), played - 1])
        assert learner.day == 3
        realized, played = learner.advance(oracle, 31, 4)  # 2 days are left
        assert reads[1:] == [(31, 32, ids)]
        assert np.array_equal(realized, matrix[np.arange(30, 32), played - 1])
        assert (learner.day, learner.epoch) == (5, 1)
        assert learner.meter.by_category["epoch"] == 0  # the epoch closed

    def test_first_epoch_covers_all_when_n_small(self):
        params = BaselineParams(4, 16, eps=0.5, B=4, seed=0)
        learner = BaselineLearner(params)
        members, days = learner.epoch_rest()
        assert sorted(members) == [1, 2, 3, 4]
        assert days == 4

    def test_negative_control_dominated_survivor_evicted(self):
        # expert 1 dominates; each later epoch's fresh survivor is evicted
        # at its first boundary, so the pool stays at the incumbent
        oracle = ConstantOracle(StreamParams(6, 40, seed=0),
                                [0.05, 0.9, 0.9, 0.9, 0.9, 0.9])
        params = BaselineParams(6, 40, eps=0.1, B=4, seed=1)
        pools = []
        learner = BaselineLearner(
            params, on_epoch_close=lambda l: pools.append([e.id for e in l.entries]))
        play(learner, oracle)
        assert pools[0] == [1]
        for snapshot in pools[1:]:
            assert snapshot == [1]

    def test_determinism(self):
        spec = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}
        oracle = make_oracle(StreamParams(8, 200, seed=5), spec)
        runs = []
        for _ in range(2):
            learner = BaselineLearner(BaselineParams(8, 200, eps=0.3, seed=9))
            runs.append((play(learner, oracle), [e.id for e in learner.entries]))
        assert runs[0] == runs[1]

    def test_day_step_equals_block_run(self):
        spec = {"generator": "iid-bernoulli", "mean-range": [0.1, 0.9]}
        oracle = make_oracle(StreamParams(6, 60, seed=2), spec)
        by_block = BaselineLearner(BaselineParams(6, 60, eps=0.3, B=5, seed=4))
        block_loss = play(by_block, oracle)
        by_day = BaselineLearner(BaselineParams(6, 60, eps=0.3, B=5, seed=4))
        day_loss = 0.0
        while by_day.day < 60:
            day_loss += float(by_day.next_block(oracle, 1)[1].sum())
        assert day_loss == block_loss
        assert [e.id for e in by_day.entries] == [e.id for e in by_block.entries]

    def test_next_block_plays_rest_of_epoch(self):
        spec = {"generator": "iid-bernoulli", "mean-range": [0.1, 0.9]}
        oracle = make_oracle(StreamParams(6, 60, seed=2), spec)
        learner = BaselineLearner(BaselineParams(6, 60, eps=0.3, B=5, seed=4))
        t0, realized, played = learner.next_block(oracle, 2)
        assert (t0, len(realized), learner.day) == (1, 2, 2)
        members, days = learner.epoch_rest()
        assert days == 3
        t0, realized, played = learner.next_block(oracle)
        assert (t0, len(realized), learner.day) == (3, 3, 5)
        assert set(played.tolist()) <= set(members.tolist())
        assert learner.meter.by_category["epoch"] == 0  # the epoch closed

    def test_tail_epoch_skips_retention_and_eviction(self):
        oracle = ConstantOracle(StreamParams(4, 10, seed=0),
                                [0.1, 0.5, 0.6, 0.7])
        learner = BaselineLearner(BaselineParams(4, 10, eps=0.2, B=4, seed=0))
        play(learner, oracle)
        # epochs: 4 + 4 + tail 2; the tail adds no pool entry and no epoch avg
        assert learner.day == 10
        for e in learner.entries:
            assert e.count <= 2

    def test_entry_epochs_distinct(self):
        spec = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}
        oracle = make_oracle(StreamParams(10, 300, seed=8), spec)
        seen = []
        def check(l):
            alphas = [e.alpha for e in l.entries]
            assert len(set(alphas)) == len(alphas)
            seen.append(tuple(alphas))
        learner = BaselineLearner(BaselineParams(10, 300, eps=0.25, B=10, seed=3),
                                  on_epoch_close=check)
        play(learner, oracle)
        assert seen

    def test_query_discipline(self):
        # per day, at most pool-cap + sample-size oracle queries
        params = BaselineParams(12, 240, eps=0.3, B=8, seed=6)
        oracle = make_oracle(StreamParams(12, 240, seed=1),
                             {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]})
        learner = BaselineLearner(params)
        play(learner, oracle)
        assert learner.queries <= 240 * (params.pool_cap + params.sample_size)

    def test_commit_distribution(self):
        params = BaselineParams(5, 20, eps=0.45, B=4, seed=0)
        learner = BaselineLearner(params)
        p = learner.commit_distribution()
        assert p.shape == (5,)
        assert abs(p.sum() - 1.0) < 1e-9
        assert set(np.nonzero(p)[0] + 1) <= set(learner.epoch_rest()[0].tolist())

    def test_meter_audit_matches(self):
        spec = {"generator": "iid-bernoulli", "mean-range": [0.1, 0.9]}
        oracle = make_oracle(StreamParams(8, 120, seed=7), spec)
        learner = BaselineLearner(
            BaselineParams(8, 120, eps=0.3, B=6, seed=2),
            on_epoch_close=lambda l: (
                None if l.audit_words() == l.meter.current
                else pytest.fail("meter drifted from live state")))
        play(learner, oracle)
        assert learner.audit_words() == learner.meter.current
