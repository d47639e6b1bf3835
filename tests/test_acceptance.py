"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy pool sweep (criteria 1, 2, 3, 6 share the same 60 runs) is built
once per session; every other criterion runs standalone within its stated
runtime budget.
"""

import math
import time

import numpy as np
import pytest

from expertpool.baseline import BaselineParams
from expertpool.bench import (
    ExperimentConfig,
    dump_stream,
    run_experiment,
    run_lowerbound_demo,
)
from expertpool.hierarchy import HierarchyLearner
from expertpool.mwu import MwuState
from expertpool.streams import GameInstance, StreamParams, count_covered_sets, make_oracle


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status} {detail}".rstrip())


# ---------------------------------------------------------------------------
# Shared sweep for criteria 1, 2, 3, 6:
# n=128, T=1e5, eps in {0.1, 0.2}, three generators, 10 seeds each
# ---------------------------------------------------------------------------

SWEEP_N, SWEEP_T = 128, 10**5


@pytest.fixture(scope="session")
def pool_sweep(tmp_path_factory):
    fixture = tmp_path_factory.mktemp("sweep") / "fixture.csv"
    oracle = make_oracle(StreamParams(SWEEP_N, SWEEP_T, seed=99),
                         {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]})
    dump_stream(oracle, fixture)
    streams = [
        {"generator": "iid-bernoulli", "mean-range": [0.4, 0.6],
         "overrides": {"1": 0.3}},
        {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.2,
         "decoy-loss": 0.05, "epoch-length": 1000},
        {"generator": "csv-file", "path": str(fixture)},
    ]
    violations: list[str] = []
    start = time.monotonic()
    for eps in (0.1, 0.2):
        for stream in streams:
            cfg = ExperimentConfig("baseline", SWEEP_N, SWEEP_T, stream,
                                   trials=list(range(10)),
                                   learner_params={"eps": eps}, checks="epoch")
            for r in run_experiment(cfg):
                violations.extend(r.violations)
    return {"violations": violations, "elapsed": time.monotonic() - start}


def test_criterion_01_pool_cap(pool_sweep):
    bad = [v for v in pool_sweep["violations"] if v.startswith("pool size")]
    elapsed = pool_sweep["elapsed"]
    ok = not bad and elapsed <= 120.0
    report("criterion 1 (pool cap, 60 runs)", ok,
           f"violations={len(bad)} elapsed={elapsed:.1f}s")
    assert bad == []
    assert elapsed <= 120.0


def test_criterion_02_domination_freedom(pool_sweep):
    bad = [v for v in pool_sweep["violations"] if v.startswith("domination")]
    report("criterion 2 (domination-freedom)", not bad, f"violations={len(bad)}")
    assert bad == []


def test_criterion_03_potential_monotonicity(pool_sweep):
    bad = [v for v in pool_sweep["violations"] if v.startswith("potential")]
    report("criterion 3 (potential monotonicity)", not bad,
           f"violations={len(bad)}")
    assert bad == []


def test_criterion_06_memory_cap_and_audit(pool_sweep):
    bad = [v for v in pool_sweep["violations"]
           if v.startswith("meter") or v.startswith("metered")]
    report("criterion 6 (memory cap + audit)", not bad, f"violations={len(bad)}")
    assert bad == []


def test_criterion_04_mwu_regret():
    n, T = 16, 10**4
    eta = math.sqrt(math.log(n) / T)
    bound = math.log(n) / eta + eta * T + 4 * math.sqrt(T * math.log(n * T))
    start = time.monotonic()
    failures = 0
    for seed in range(100):
        stream = ({"generator": "iid-bernoulli", "mean-range": [0.3, 0.7],
                   "overrides": {"1": 0.2}}
                  if seed % 2 == 0 else
                  {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.2,
                   "decoy-loss": 0.05, "epoch-length": 500})
        oracle = make_oracle(StreamParams(n, T, seed=seed), stream)
        matrix = oracle.loss_block(1, T, np.arange(1, n + 1))
        state = MwuState(n, horizon=T)
        picks = state.run_block(matrix, np.random.default_rng(seed))
        regret = matrix[np.arange(T), picks].sum() - matrix.sum(axis=0).min()
        if regret > bound:
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures <= 1 and elapsed <= 30.0
    report("criterion 4 (MWU regret, 100 seeds)", ok,
           f"failures={failures} bound={bound:.0f} elapsed={elapsed:.1f}s")
    assert failures <= 1
    assert elapsed <= 30.0


def test_criterion_05_baseline_regret_shape():
    n, T, eps = 64, 10**5, 0.1
    params = BaselineParams(n, T, eps=eps)
    B = params.B
    shape = (eps * T
             + T * B**-0.5 * math.sqrt(math.log(n * T))
             + eps**2 * n * B * math.log(T))
    # at constant 5 the bound exceeds T, so no regret can break it; at
    # constant 1 it is below T and can fail
    bound, tight = 5.0 * shape, shape
    start = time.monotonic()
    worst = -math.inf
    for stream in (
        {"generator": "iid-bernoulli", "mean-range": [0.4, 0.6],
         "overrides": {"1": 0.3}},
        {"generator": "epoch-spoiler", "best-id": 1, "base-loss": 0.3,
         "decoy-loss": 0.1, "epoch-length": B},
    ):
        cfg = ExperimentConfig("baseline", n, T, stream,
                               trials=list(range(10)),
                               learner_params={"eps": eps}, checks="off")
        for r in run_experiment(cfg):
            worst = max(worst, r.regret)
    elapsed = time.monotonic() - start
    ok = worst <= tight and elapsed <= 120.0
    report("criterion 5 (baseline regret shape)", ok,
           f"worst={worst:.0f} bound={bound:.0f} tight-bound={tight:.0f} "
           f"elapsed={elapsed:.1f}s")
    assert worst <= bound
    assert worst <= tight < T
    assert elapsed <= 120.0


def test_criterion_07_hierarchy_integrity(tmp_path):
    start = time.monotonic()
    problems = []
    for n, T in ((4, 256), (16, 65536)):
        traces = []
        for rerun in range(2):
            oracle = make_oracle(StreamParams(n, T, seed=21),
                                 {"generator": "iid-bernoulli",
                                  "mean-range": [0.3, 0.7],
                                  "overrides": {"1": 0.2}})
            # every pool's epoch closes, level 1's and each level k's
            caps_seen = []
            learner = HierarchyLearner(
                n, T, delta=1.0, seed=5,
                on_epoch_close=lambda s: caps_seen.append(len(s.entries)))
            cap = math.ceil(8.0 / learner.eps * math.log(T))
            log = []
            loss = 0.0  # summed block by block, as the harness sums it
            while learner.day < T:
                loss += float(learner.next_block(oracle)[1].sum())
                day = learner.day
                for lvl in learner.levels:
                    # position in the open round and in the episode, in days
                    rounds = 0 if lvl._epoch is None else lvl._epoch.rounds
                    closed = lvl.epoch_count % lvl.lp.epochs_per_episode
                    in_episode = ((closed * lvl.lp.B + rounds) * lvl.lp.day_span
                                  + lvl.day_in_dd)
                    where = f"n={n} level {lvl.lp.k}"
                    if lvl.day_in_dd != day % lvl.lp.day_span:
                        problems.append(f"{where}: round misaligned at day {day}")
                    if in_episode != day % lvl.lp.episode_days:
                        problems.append(f"{where}: episode misaligned at day {day}")
                log.append((day, tuple(len(lvl.entries) for lvl in learner.levels)))
            if learner.K != 2:
                problems.append(f"n={n}: K={learner.K} != 2")
            for lvl in learner.levels:
                if lvl.min_truncated < -lvl.lp.width:  # exact floor
                    problems.append(f"n={n} level {lvl.lp.k}: floor violated")
            if any(size > cap for size in caps_seen):
                problems.append(f"n={n}: pool cap {cap} exceeded")
            traces.append((loss, learner.meter.peak, tuple(log)))
        if traces[0] != traces[1]:
            problems.append(f"n={n}: reruns differ")
        # byte-level determinism of the serialized trace
        outs = []
        for rerun in range(2):
            out = tmp_path / f"h{n}_{rerun}"
            cfg = ExperimentConfig("full-hierarchy", n, T,
                                   {"generator": "iid-bernoulli",
                                    "mean-range": [0.3, 0.7]},
                                   trials=[5], output=str(out), checks="off")
            run_experiment(cfg)
            outs.append((out / "trace_seed5.csv").read_bytes())
        if outs[0] != outs[1]:
            problems.append(f"n={n}: trace bytes differ")
    elapsed = time.monotonic() - start
    ok = not problems and elapsed <= 60.0
    report("criterion 7 (hierarchy integrity)", ok,
           f"problems={problems} elapsed={elapsed:.1f}s")
    assert problems == []
    assert elapsed <= 60.0


def test_criterion_08_game_equilibrium():
    exact = all(
        GameInstance(64, 4, seed=seed).worst_case_loss(
            GameInstance(64, 4, seed=seed).equilibrium()) == 0.25
        for seed in range(50)
    )
    demo = run_lowerbound_demo(64, 1 / 8, 100, {"kind": "equilibrium"}, [0, 1])
    per_round = all(r.avg_raw_loss == 0.25 for r in demo)
    ok = exact and per_round
    report("criterion 8 (game equilibrium exact 1/k)", ok)
    assert exact
    assert per_round


def test_criterion_09_covering_bound():
    n, k = 12, 4
    limit = math.comb(n, math.ceil(3 * k / 4))
    assert limit == 220
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0
    for trial in range(100):
        if trial % 2 == 0:
            p = rng.dirichlet(rng.uniform(0.2, 3.0, size=n))
        else:
            # concentrated strategies actually cover sets, so the bound bites
            support = rng.choice(n, size=k, replace=False)
            p = np.zeros(n)
            p[support] = 1.0 / k
        covered = count_covered_sets(n, k, p)
        worst = max(worst, covered)
    elapsed = time.monotonic() - start
    ok = worst <= limit and elapsed <= 10.0
    report("criterion 9 (covering bound)", ok,
           f"worst={worst} limit={limit} elapsed={elapsed:.1f}s")
    assert worst <= limit
    assert elapsed <= 10.0


def test_criterion_10_adaptive_demo():
    n, rounds = 64, 10**4
    seeds = list(range(10))
    res = run_lowerbound_demo(n, 1 / 8, rounds, {"kind": "mwu-full-memory"}, seeds)
    worst_mwu = max(r.avg_raw_loss for r in res)
    mwu_ok = worst_mwu <= 0.375

    # a memory-capped strategy: uniform over a fixed 8-action subset; in
    # instances whose support misses the subset it pays the full off-support 4
    subset = list(range(57, 65))
    disjoint_seeds = [r.seed for r in res if not set(r.support) & set(subset)]
    capped_ok = bool(disjoint_seeds)
    if disjoint_seeds:
        capped = run_lowerbound_demo(
            n, 1 / 8, 200, {"kind": "fixed-uniform-subset", "subset": subset},
            disjoint_seeds[:2])
        capped_ok = all(r.avg_raw_loss > 0.475 for r in capped)
    ok = mwu_ok and capped_ok
    report("criterion 10 (adaptive demo)", ok,
           f"worst_mwu={worst_mwu:.4f} disjoint_seeds={disjoint_seeds}")
    assert mwu_ok
    assert capped_ok


def test_criterion_11_reproducibility(tmp_path):
    payload = {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.3,
               "decoy-loss": 0.1, "epoch-length": 25}
    blobs = {}
    for learner in ("baseline", "full-hierarchy", "mwu-full-memory"):
        pair = []
        for rerun in range(2):
            out = tmp_path / f"{learner}_{rerun}"
            cfg = ExperimentConfig(learner, 8, 400, payload, trials=[3],
                                   learner_params={"eps": 0.3} if learner == "baseline" else {},
                                   output=str(out))
            run_experiment(cfg)
            pair.append((out / "trace_seed3.csv").read_bytes())
        blobs[learner] = pair[0] == pair[1]
    ok = all(blobs.values())
    report("criterion 11 (byte-identical reruns)", ok, f"{blobs}")
    assert ok
