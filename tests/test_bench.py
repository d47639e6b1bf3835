"""Tests for the experiment harness, traces, adaptive demo, and CLI."""

import csv
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expertpool import bench, cli
from expertpool.baseline import BaselineLearner, BaselineParams, Epoch, PoolEntry
from expertpool.bench import (
    TRACE_COLUMNS,
    ExperimentConfig,
    TraceWriter,
    check_pool,
    dump_stream,
    oracle_best_expert,
    run_experiment,
    run_lowerbound_demo,
    summarize,
)
from expertpool.hierarchy import HierarchyLearner
from expertpool.streams import (
    BernoulliOracle,
    ConstantOracle,
    CsvOracle,
    GameOracle,
    LossOracle,
    StreamParams,
    make_oracle,
)

SPOILER = {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.3,
           "decoy-loss": 0.1, "epoch-length": 25}


class CountingOracle(BernoulliOracle):
    """A Bernoulli stream that counts the cells it serves."""

    def __init__(self, params, means):
        super().__init__(params, means)
        self.cells = 0

    def loss_block(self, t0, t1, ids):
        out = super().loss_block(t0, t1, ids)
        self.cells += out.size
        return out


class TestOracleBestExpert:
    def test_constant(self):
        o = ConstantOracle(StreamParams(2, 10), [0.0, 1.0])
        assert oracle_best_expert(o) == (1, 0.0)

    def test_tie_breaks_low(self):
        o = ConstantOracle(StreamParams(2, 10), [0.5, 0.5])
        assert oracle_best_expert(o) == (1, 5.0)

    def test_adaptive_rejected(self):
        o = GameOracle(StreamParams(4, 10), k=2)
        with pytest.raises(ValueError, match="adaptive"):
            oracle_best_expert(o)

    def test_enumeration_guard(self):
        o = ConstantOracle(StreamParams(2000, 10**6), [0.5] * 2000)
        with pytest.raises(ValueError, match="guard"):
            oracle_best_expert(o)

    def test_double_entry_against_dumped_matrix(self, tmp_path):
        # the csv round trip must reproduce the same best expert and total
        params = StreamParams(6, 300, seed=13)
        o = make_oracle(params, {"generator": "iid-bernoulli",
                                 "mean-range": [0.2, 0.8]})
        path = tmp_path / "m.csv"
        dump_stream(o, path)
        replay = CsvOracle(params, str(path))
        assert oracle_best_expert(replay) == oracle_best_expert(o)
        totals = replay.loss_block(1, params.T, np.arange(1, params.n + 1)).sum(axis=0)
        best, total = oracle_best_expert(o)
        assert abs(totals[best - 1] - total) < 1e-9


def _window(monkeypatch, days, n):
    """Windows of ``days`` days of all n experts; None keeps the default."""
    if days is not None:
        monkeypatch.setattr(bench, "WINDOW_CELLS", days * n)


class DirectPass(bench.HindsightPass):
    """The pass with every learner query sent to the oracle: the reference
    the shared windows must reproduce byte for byte."""

    def loss_block(self, t0, t1, ids):
        return self.oracle.loss_block(t0, t1, ids)


class MatrixOracle(LossOracle):
    """Replays a fixed T x n matrix."""

    def __init__(self, matrix):
        super().__init__(StreamParams(matrix.shape[1], matrix.shape[0]))
        self.matrix = matrix

    def loss_block(self, t0, t1, ids):
        return self.matrix[t0 - 1:t1, np.asarray(ids) - 1].copy()


class UnprunedPass(bench.HindsightPass):
    """The pass folding every window by one cumsum over all n experts: the
    reference the pruned fold must reproduce byte for byte."""

    def _read(self):
        w0 = self.read + 1
        self.read = min(self.read + self._days, self.T)
        win = self.oracle.loss_block(w0, self.read, self._ids)
        self._kept = [self._kept[-1], (w0, win)]
        cum = self._cum[:len(win)]
        np.copyto(cum, win)
        cum[0] += self._run
        np.cumsum(cum, axis=0, out=cum)
        cum.min(axis=1, out=self.best_so_far[w0 - 1:self.read])
        self._run[:] = cum[-1]


def _cumsum_widths(monkeypatch):
    """The width of every window the pass folds by cumsum, in order."""
    widths, cumsum = [], np.cumsum

    def spy(a, *args, **kwargs):
        if a.ndim == 2:  # not the trace's alg column
            widths.append(a.shape[1])
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(bench.np, "cumsum", spy)
    return widths


def _leader_changes(T, n):
    """Dyadic losses whose leader changes every few days: expert 1 pays 0.25 a
    day; experts 2 and 3 pay 0.5 on days 1-4 and 13-16 of every 16 and 0
    between, so they trail expert 1 on days 1-7 of the 16, tie it on days 8
    and 16, and lead on days 9-15; the others pay more."""
    t = np.arange(T)[:, None]
    twins = np.where((t % 16 < 4) | (t % 16 >= 12), 0.5, 0.0)
    rest = np.full((T, n - 3), 0.375) + (np.arange(n - 3) % 2) / 8
    return np.hstack([np.full((T, 1), 0.25), twins, twins, rest])


class TestHindsightPass:
    """The windowed stream pass: the regret oracle against one cumsum over the
    whole matrix, and the learner's queries against the oracle itself."""

    @pytest.mark.parametrize("window", [1, 7, 4096])
    @pytest.mark.parametrize("n", [2, 5])
    def test_pruned_fold_matches_full_cumsum_bit_for_bit(self, monkeypatch, window, n):
        # fractional losses of mixed scale, so a reordered sum shows in the bits
        rng = np.random.default_rng(window * 10 + n)
        T = 2 * window + 37
        full = rng.random((T, n)) * rng.choice([1e-6, 1.0, 1e6], size=(T, n))
        full[:, 0] *= 0.01  # one expert leads, so later windows are pruned
        _window(monkeypatch, window, n)
        widths = _cumsum_widths(monkeypatch)
        stream = bench.HindsightPass(MatrixOracle(full))
        best, total = stream.finish()
        monkeypatch.undo()
        want = full.cumsum(axis=0)
        assert stream.best_so_far.tobytes() == want.min(axis=1).tobytes()
        assert stream._run.tobytes() == want[-1].tobytes()  # the old totals
        assert (best, total) == (int(np.argmin(want[-1])) + 1, float(want[-1].min()))
        assert min(widths) < n

    @pytest.mark.parametrize("window", [1, 7, 4096])
    def test_pruned_fold_of_replay_with_leader_changes_and_ties(self, tmp_path,
                                                                monkeypatch, window):
        n, T = 6, 3 * 4096 + 16
        params = StreamParams(n, T)
        dump_stream(MatrixOracle(_leader_changes(T, n)), tmp_path / "s.csv")
        replay = CsvOracle(params, str(tmp_path / "s.csv"))
        _window(monkeypatch, window, n)
        widths = _cumsum_widths(monkeypatch)
        stream = bench.HindsightPass(replay)
        got = stream.finish()
        monkeypatch.undo()
        full = replay.loss_block(1, T, np.arange(1, n + 1))
        want = full.cumsum(axis=0)
        assert stream.best_so_far.tobytes() == want.min(axis=1).tobytes()
        assert stream._run.tobytes() == want[-1].tobytes()
        # experts 1-3 tie at the end: the lowest id wins
        assert got == (1, 0.25 * T)
        assert np.argmin(want[6]) == 0 and np.argmin(want[8]) == 1
        assert want[7, 0] == want[7, 1] == want[7, 2]
        assert min(widths) < n

    @pytest.mark.parametrize("window", [1, 7, 4096])
    def test_signed_zero_ties_print_as_unpruned(self, tmp_path, monkeypatch, window):
        # experts 1 and 2 lose -0.0 and 0.0 every day, and every other expert
        # is pruned: the zero minimum keeps the sign the unpruned fold gives
        n, T = 4, 3 * 4096 + 5
        matrix = np.hstack([np.full((T, 1), -0.0), np.zeros((T, 1)),
                            _leader_changes(T, 5)[:, 3:]])
        dump_stream(MatrixOracle(matrix), tmp_path / "z.csv")
        assert (tmp_path / "z.csv").read_text().splitlines()[1] == "1,-0,0,0.375,0.5"
        _window(monkeypatch, window, n)
        spec = {"generator": "csv-file", "path": str(tmp_path / "z.csv")}

        def run(out):
            cfg = ExperimentConfig("baseline", n, T, spec, trials=[0], output=str(out),
                                   learner_params={"eps": 0.3})
            (r,) = run_experiment(cfg)
            return (r.regret, r.best_total), Path(r.trace_path).read_bytes()

        widths = _cumsum_widths(monkeypatch)
        got = run(tmp_path / "pruned")
        assert set(widths[1:]) == {2}
        monkeypatch.setattr(bench, "HindsightPass", UnprunedPass)
        assert run(tmp_path / "unpruned") == got

    @pytest.mark.parametrize("window", [1, 7, 4096])
    @pytest.mark.parametrize("spec", [
        SPOILER,  # non-integer losses
        {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
    ], ids=["epoch-spoiler", "iid-bernoulli"])
    def test_matches_full_cumsum_bit_for_bit(self, monkeypatch, window, spec):
        params = StreamParams(5, 2 * window + 37, seed=8)
        _window(monkeypatch, window, params.n)
        assert window == 1 or params.T % window  # a last, shorter window
        o = make_oracle(params, spec)
        full = o.loss_block(1, params.T, np.arange(1, params.n + 1))
        stream = bench.HindsightPass(o)
        best, total = stream.finish()
        assert stream.best_so_far.tobytes() == full.cumsum(axis=0).min(axis=1).tobytes()
        # the whole-matrix result the oracle gave before the windowed pass
        totals = full.sum(axis=0)
        old_best = int(np.argmin(totals)) + 1
        assert oracle_best_expert(o) == (old_best, float(totals[old_best - 1]))
        assert (best, total) == (old_best, float(totals[old_best - 1]))

    @pytest.mark.parametrize("window", [1, 7, None])
    @pytest.mark.parametrize("spec", [
        SPOILER, {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
        {"generator": "constant", "means": [0.5, 0.25, 0.75, 0.125, 1.0, 0.0]},
    ], ids=["epoch-spoiler", "iid-bernoulli", "constant"])
    def test_served_blocks_equal_the_oracle(self, monkeypatch, window, spec):
        # in-order queries of every shape: one day, repeats of the same first
        # day, spans across windows, jumps ahead, unsorted and repeated ids
        _window(monkeypatch, window, 6)
        o = make_oracle(StreamParams(6, 300, seed=3), spec)
        stream = bench.HindsightPass(o)
        rng = np.random.default_rng(0)
        t0 = 1
        while t0 <= o.T:
            t1 = min(o.T, t0 + int(rng.integers(0, 40)))
            for k in range(int(rng.integers(1, 4))):
                ids = (np.arange(1, 7) if k == 0
                       else rng.integers(1, 7, size=int(rng.integers(1, 9))))
                got = stream.loss_block(t0, t1, ids)
                want = o.loss_block(t0, t1, ids)
                assert got.flags.c_contiguous and got.dtype == np.float64
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                got[:] = -1.0  # the pass's answer buffer: the windows are untouched
            t0 += int(rng.integers(0, t1 - t0 + 2)) or 1
        assert stream.read == o.T

    def test_query_behind_the_pass_reads_the_oracle(self, monkeypatch):
        n, T = 4, 200
        _window(monkeypatch, 16, n)
        o = CountingOracle(StreamParams(n, T, seed=1), np.linspace(0.2, 0.8, n))
        stream = bench.HindsightPass(o)
        ids = np.array([4, 1])
        for t0, t1 in [(150, 160), (170, 175)]:
            assert np.array_equal(stream.loss_block(t0, t1, ids), o.loss_block(t0, t1, ids))
        cells = o.cells
        assert np.array_equal(stream.loss_block(3, 9, ids), o.loss_block(3, 9, ids))
        assert o.cells == cells + 2 * 7 * len(ids)  # served by the oracle itself
        stream.finish()
        assert np.array_equal(stream.loss_block(160, 160, ids),
                              o.loss_block(160, 160, ids))

    def test_answers_reuse_one_buffer(self, monkeypatch):
        # each answer is overwritten by the next query; the buffer grows only
        # for a larger query
        _window(monkeypatch, 16, 4)
        o = make_oracle(StreamParams(4, 200, seed=2), {"generator": "iid-bernoulli",
                                                       "mean-range": [0.2, 0.8]})
        stream = bench.HindsightPass(o)
        first = stream.loss_block(1, 30, [1, 2, 3])
        second = stream.loss_block(31, 40, [4, 2])
        assert np.shares_memory(first, second)
        assert second.tobytes() == o.loss_block(31, 40, [4, 2]).tobytes()
        larger = stream.loss_block(41, 100, [1, 2, 3, 4])
        assert not np.shares_memory(second, larger)
        assert larger.tobytes() == o.loss_block(41, 100, [1, 2, 3, 4]).tobytes()

    @pytest.mark.parametrize("stream", [
        {"generator": "constant", "means": [0.2, 0.5, 0.8]},
        {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
        {**SPOILER, "epoch-length": 2},
        {"generator": "csv-file"}], ids=lambda s: s["generator"])
    def test_days_outside_the_horizon_rejected(self, tmp_path, stream):
        # the pass refuses them itself, with the oracles' message, before it
        # reads a cell
        if stream["generator"] == "csv-file":
            path = tmp_path / "losses.csv"
            path.write_text("t,e1,e2,e3\n" + "".join(f"{t},0,0.5,1\n" for t in range(1, 6)))
            stream = {**stream, "path": str(path)}
        counting = CountingOracle(StreamParams(3, 5), [0.2, 0.5, 0.8])
        for oracle in (make_oracle(StreamParams(3, 5), stream), counting):
            pass_ = bench.HindsightPass(oracle)
            for t0, t1 in [(0, 2), (0, 3), (5, 7), (4, 9), (6, 6)]:
                with pytest.raises(IndexError, match=rf"days {t0}\.\.{t1} outside \[1, 5\]"):
                    pass_.loss_block(t0, t1, np.array([1]))
            assert pass_.read == 0
        assert counting.cells == 0

    @pytest.mark.parametrize("ids,message", [
        ([0], r"ids \[0\] outside \[1, 3\]"),
        ([2, 0, 4], r"ids \[0 4\] outside \[1, 3\]"),
        ([4], r"ids \[4\] outside \[1, 3\]"),
    ], ids=["0", "2-0-4", "4"])
    @pytest.mark.parametrize("t0,t1", [(18, 20), (12, 20), (14, 30), (2, 4)],
                             ids=["last-window", "kept-windows", "across-a-read",
                                  "behind-the-pass"])
    def test_ids_outside_the_experts_rejected(self, monkeypatch, ids, message, t0, t1):
        # as the oracle refuses them: id 0 would read expert n's column
        _window(monkeypatch, 8, 3)
        o = ConstantOracle(StreamParams(3, 40), [0.2, 0.5, 0.8])
        stream = bench.HindsightPass(o)
        stream.loss_block(17, 17, [1])  # windows 9-16 and 17-24 are kept
        with pytest.raises(IndexError, match=message):
            stream.loss_block(t0, t1, ids)
        assert stream.read == 24  # refused before any read
        assert stream.loss_block(t0, t1, [3, 1]).tobytes() == o.loss_block(t0, t1,
                                                                           [3, 1]).tobytes()

    @pytest.mark.parametrize("window", [1, 7, None])
    @pytest.mark.parametrize("learner,checks", [
        ("baseline", "epoch"), ("baseline", "paranoid"),
        ("full-hierarchy", "epoch"), ("mwu-full-memory", "epoch")])
    @pytest.mark.parametrize("stream", [
        "iid-bernoulli", "epoch-spoiler", "csv-file", "constant"])
    def test_trial_matches_direct_queries(self, tmp_path, monkeypatch, window,
                                          learner, checks, stream):
        # traces, regret and peak with the learner served from the windows
        # equal those with every query sent to the oracle
        n, T = 6, 300
        spec = {"iid-bernoulli": {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
                "epoch-spoiler": SPOILER,
                "constant": {"generator": "constant",
                             "means": [0.5, 0.25, 0.75, 0.2, 1.0, 0.3]},
                "csv-file": {"generator": "csv-file", "path": str(tmp_path / "s.csv")},
                }[stream]
        dump_stream(make_oracle(StreamParams(n, T, seed=9), SPOILER), tmp_path / "s.csv")

        def run(out):
            cfg = ExperimentConfig(learner, n, T, spec, trials=[2],
                                   learner_params={"eps": 0.3} if learner == "baseline" else {},
                                   checks=checks, output=str(out))
            (r,) = run_experiment(cfg)
            assert r.violations == []
            return r, Path(r.trace_path).read_bytes()

        _window(monkeypatch, window, n)
        got, got_trace = run(tmp_path / "windows")
        monkeypatch.setattr(bench, "HindsightPass", DirectPass)
        want, want_trace = run(tmp_path / "direct")
        assert got_trace == want_trace
        assert (got.regret, got.cumulative_loss, got.best_total, got.peak_words) == \
            (want.regret, want.cumulative_loss, want.best_total, want.peak_words)

    def test_traced_trial_reads_the_stream_once(self, tmp_path, monkeypatch):
        # the learner's queries and the trace are served from the pass's reads
        self._assert_reads_once(monkeypatch, "baseline", str(tmp_path))
        # the learner's own counter is exactly the cells it reads
        n, T = 8, 1000
        learner = BaselineLearner(BaselineParams(n, T, eps=0.3, seed=4))
        solo = CountingOracle(StreamParams(n, T, seed=4), np.linspace(0.2, 0.8, n))
        while learner.day < T:
            learner.next_block(solo)
        assert learner.queries == solo.cells > 0

    @pytest.mark.parametrize("learner,output", [
        ("baseline", None), ("full-hierarchy", None), ("full-hierarchy", "out"),
        ("mwu-full-memory", None)])
    def test_trial_reads_the_stream_once(self, tmp_path, monkeypatch, learner, output):
        self._assert_reads_once(monkeypatch, learner,
                                output and str(tmp_path / output))

    @pytest.mark.parametrize("stream", ["epoch-spoiler", "uniform"])
    def test_full_memory_blocks_are_one_window(self, tmp_path, monkeypatch, stream):
        # mwu-full-memory asks the pass for a window at a time (four 512-day
        # windows here), and its trace is that of the whole horizon in one block
        n, T = 64, 2000
        if stream == "uniform":
            matrix = np.random.default_rng(5).random((T, n))
            monkeypatch.setattr(bench, "make_oracle", lambda params, spec: MatrixOracle(matrix))
        blocks = []
        serve = bench.HindsightPass.loss_block

        def spy(self, t0, t1, ids):
            blocks.append(t1 - t0 + 1)
            return serve(self, t0, t1, ids)

        def run(out):
            cfg = ExperimentConfig("mwu-full-memory", n, T, SPOILER, trials=[1],
                                   output=str(out))
            (r,) = run_experiment(cfg)
            assert r.violations == []
            return r, Path(r.trace_path).read_bytes()

        monkeypatch.setattr(bench.HindsightPass, "loss_block", spy)
        got, got_trace = run(tmp_path / "windows")
        assert blocks == [512, 512, 512, 464]
        blocks.clear()
        _window(monkeypatch, T, n)  # one window holds the whole horizon
        want, want_trace = run(tmp_path / "whole")
        assert blocks == [T]
        assert got_trace == want_trace and got_trace.count(b"\r\n") == T + 1
        assert (got.best_total, got.peak_words) == (want.best_total, want.peak_words)
        # the trial totals its loss block by block, so only the last digits move
        assert got.cumulative_loss == pytest.approx(want.cumulative_loss, rel=1e-12)

    def test_hierarchy_blocks_across_windows_read_once(self, monkeypatch):
        # B-day blocks (6 at n=6, delta 1) against 5,461-day windows: a block
        # crossing a window boundary is served to every level from the last
        # two windows
        B = HierarchyLearner(6, 12000, delta=1.0).B
        assert bench._window_days(6) % B and 12000 > 2 * bench._window_days(6)
        self._assert_reads_once(monkeypatch, "full-hierarchy", None, n=6, T=12000)

    def _assert_reads_once(self, monkeypatch, learner, output, n=8, T=1000):
        means = np.linspace(0.2, 0.8, n)
        oracles = []

        def counting(params, spec):
            oracles.append(CountingOracle(params, means))
            return oracles[-1]

        monkeypatch.setattr(bench, "make_oracle", counting)
        cfg = ExperimentConfig(learner, n, T, {"generator": "iid-bernoulli"}, trials=[4],
                               learner_params={"eps": 0.3} if learner == "baseline" else {},
                               output=output)
        (r,) = run_experiment(cfg)
        assert r.violations == []
        assert oracles[0].cells == n * T


def _dump_one_row_at_a_time(oracle, path):
    """The row-by-row csv writer dump_stream must match byte for byte."""
    matrix = oracle.loss_block(1, oracle.T, np.arange(1, oracle.n + 1))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"e{i}" for i in range(1, oracle.n + 1)])
        for t in range(1, oracle.T + 1):
            w.writerow([str(t)] + [f"{v:.12g}" for v in matrix[t - 1]])


def _by_range(window):
    """Whether ``dump_stream`` codes a window by value range: its cells are
    integers below 1e12 in magnitude, none -0.0, spanning fewer values than
    the window has cells."""
    v = window.ravel().tolist()
    return (all(x.is_integer() and abs(x) < 1e12 and str(x) != "-0.0" for x in v)
            and max(v) - min(v) + 1 < len(v))


class TestDumpStream:
    INTEGRAL = [0.0, 1.0, 7.0, -3.0, 42.0, 12345.0, -(1e12 - 1), 1e12 - 1]
    MIXED = [-0.0, 1 / 3, 2.5e-7, 1e-300, math.nan, 1.0]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([INTEGRAL, MIXED]), st.integers(1, len(INTEGRAL)),
           st.integers(2, 9), st.integers(1, 40), st.integers(1, 45), st.integers(0, 2**32))
    @example(MIXED, 6, 4, 11, 3, 0)
    @example(INTEGRAL, 2, 9, 40, 1, 1)  # one-day windows of 0 and 1
    @example(INTEGRAL, 8, 2, 40, 41, 2)  # 13-character ints, one window
    def test_bytes_match_row_writer(self, pool, k, n, T, days, seed):
        # cells from the first k values of a pool; short windows of the mixed
        # pool can hold only 1.0, so integral and other windows meet in a file
        rng = np.random.default_rng(seed)
        o = MatrixOracle(rng.choice(pool[:k], size=(T, n)))
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as d:
            _window(mp, days, n)
            dump_stream(o, Path(d) / "new.csv")
            _dump_one_row_at_a_time(o, Path(d) / "old.csv")
            assert (Path(d) / "new.csv").read_bytes() == (Path(d) / "old.csv").read_bytes()
            assert sorted(os.listdir(d)) == ["new.csv", "old.csv"]

    # windows about the range coder's edges: small ints; ints beside +-1e12,
    # where .12g turns to exponents; values the int64 round trip must refuse
    EDGE_POOLS = [[0.0, 1.0, 2.0, 3.0, -1.0], [1e12 - 3, 1e12 - 2, 1e12 - 1, 1e12],
                  [-1e12, -(1e12 - 1), -(1e12 - 2)],
                  [0.0, 1.0, -0.0, 0.5, math.nan, math.inf, -math.inf, 2.0**63, -(2.0**63)]]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(EDGE_POOLS).flatmap(
               lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=24)),
           st.integers(2, 4), st.integers(1, 12))
    @example([0.0, 1.0, 2.0, 0.0], 2, 2)  # 3 values in 4 cells: by range
    @example([0.0, 1.0, 2.0, 3.0], 2, 2)  # 4 values in 4 cells: by np.unique
    @example([1e12 - 1, 1e12 - 2] * 2, 2, 2)
    @example([1e12, 1e12 - 1] * 2, 2, 2)  # "1e+12"
    @example([-(1e12 - 1), -(1e12 - 2)] * 2, 2, 2)
    @example([-1e12, -(1e12 - 1)] * 2, 2, 2)
    @example([-(1e12 - 1), 1e12 - 1] * 2, 2, 2)  # a span of 2e12 - 1 values
    @example([0.0, 1.0, -0.0, 1.0], 2, 2)
    @example([math.nan, 0.0, 1.0, 0.0], 2, 2)
    @example([math.inf, 0.0, 1.0, 0.0], 2, 2)
    @example([-math.inf, 0.0, -1.0, 0.0], 2, 2)
    @example([2.0**63, 0.0, 1.0, 0.0], 2, 2)
    @example([2.0**63] * 4, 2, 2)
    @example([-(2.0**63)] * 4, 2, 2)  # an exact int64, past 1e12
    def test_range_and_unique_coders_match_row_writer(self, cells, n, days):
        matrix = np.resize(np.array(cells), (max(1, len(cells) // n), n))
        windows = [matrix[s:s + days] for s in range(0, len(matrix), days)]
        o = MatrixOracle(matrix)
        unique, int_fields, sorted_sizes = np.unique, bench._int_fields, []

        def fields(values):  # a day column or a range table, never a window's size
            assert len(values) < days * n
            return int_fields(values)

        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as d, \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # the int64 cast of NaN or inf warns
            _window(mp, days, n)
            mp.setattr(bench, "_int_fields", fields)
            mp.setattr(np, "unique", lambda a, **kw: sorted_sizes.append(a.size)
                       or unique(a, **kw))
            dump_stream(o, Path(d) / "new.csv")
            mp.undo()
            _dump_one_row_at_a_time(o, Path(d) / "old.csv")
            assert (Path(d) / "new.csv").read_bytes() == (Path(d) / "old.csv").read_bytes()
        assert sorted_sizes == [w.size for w in windows if not _by_range(w)]

    @pytest.mark.parametrize("spec", [
        SPOILER, {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
    ], ids=["epoch-spoiler", "iid-bernoulli"])
    def test_generated_stream_bytes_match_row_writer(self, tmp_path, monkeypatch, spec):
        _window(monkeypatch, 64, 6)
        o = make_oracle(StreamParams(6, 300, seed=5), spec)
        dump_stream(o, tmp_path / "new.csv")
        _dump_one_row_at_a_time(o, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_reads_one_window_at_a_time(self, tmp_path, monkeypatch):
        _window(monkeypatch, 7, 4)
        o = CountingOracle(StreamParams(4, 30, seed=2), np.linspace(0.2, 0.8, 4))
        spans = []
        serve = o.loss_block
        monkeypatch.setattr(o, "loss_block",
                            lambda t0, t1, ids: spans.append((t0, t1)) or serve(t0, t1, ids))
        dump_stream(o, tmp_path / "s.csv")
        assert spans == [(1, 7), (8, 14), (15, 21), (22, 28), (29, 30)]
        _dump_one_row_at_a_time(o, tmp_path / "old.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_error_mid_dump_leaves_path_as_it_was(self, tmp_path, monkeypatch):
        _window(monkeypatch, 5, 4)
        o = BernoulliOracle(StreamParams(4, 30, seed=2), np.linspace(0.2, 0.8, 4))
        serve, spans = o.loss_block, []

        def third_window_fails(t0, t1, ids):
            spans.append(t0)
            if len(spans) == 3:
                raise OSError("disk full")
            return serve(t0, t1, ids)

        monkeypatch.setattr(o, "loss_block", third_window_fails)
        (tmp_path / "kept.csv").write_bytes(b"t,e1\r\n1,0\r\n")
        for name in ("kept.csv", "new.csv"):
            with pytest.raises(OSError, match="disk full"):
                dump_stream(o, tmp_path / name)
            spans.clear()
        assert sorted(os.listdir(tmp_path)) == ["kept.csv"]  # no partial CSV, no .tmp
        assert (tmp_path / "kept.csv").read_bytes() == b"t,e1\r\n1,0\r\n"

    def test_negative_zero_and_non_dyadic_round_trip(self, tmp_path):
        matrix = np.array([[-0.0, 0.1], [0.1, 0.0], [0.0, -0.0]])
        path = tmp_path / "z.csv"
        dump_stream(MatrixOracle(matrix), path)
        assert path.read_text().splitlines()[1:] == ["1,-0,0.1", "2,0.1,0", "3,0,-0"]
        replay = CsvOracle(StreamParams(2, 3), str(path)).loss_block(1, 3, [1, 2])
        assert replay.tobytes() == matrix.tobytes()  # the sign of zero included


def _record_one_value_at_a_time(self, t0, realized, meter, pool_size):
    """``TraceWriter.record`` formatting every value with ``.12g``: the row
    writer the trace must match byte for byte."""
    alg = np.array(realized, dtype=np.float64)
    alg[0] += self.alg_cum
    np.cumsum(alg, out=alg)
    self.alg_cum = float(alg[-1])
    best = self.stream.best(t0, t0 - 1 + len(alg))
    tail = f"{meter.current},{meter.peak},{pool_size}\r\n"
    self.out.write("".join(
        f"{day},{a:.12g},{b:.12g},{r:.12g},{tail}"
        for day, a, b, r in zip(range(t0, t0 + len(alg)), alg.tolist(),
                                best.tolist(), (alg - best).tolist())))


# integers on both sides of the 1e12 cut-over to exponent notation, -0.0, 2^53
_EDGES = [0.0, -0.0, 1e12 - 1, -(1e12 - 1), 1e12, -1e12, 2.0**53, -7.0,
          0.5, -2.5e-7, math.nan, math.inf, -math.inf]
_INTEGRAL = st.integers(-(10**12), 10**12).map(float)
_INTEGRAL_TRACE = st.integers(-(10**12 - 1), 10**12 - 1).map(float)
_TRACE_CELLS = _INTEGRAL_TRACE | st.sampled_from([-0.0, 0.0, 0.5, 1 / 3, 2.5e-7])


def _trace_columns(days):
    """(realized losses, best column) of ``days`` rows each; best is either
    any cells or consecutive integers, which span as many values as rows."""
    cells = st.lists(_TRACE_CELLS, min_size=days, max_size=days)
    run = _INTEGRAL_TRACE.map(lambda lo: [lo + k for k in range(days)])
    return st.tuples(cells, cells | run)


class TestTraceFormat:
    @given(st.lists(_INTEGRAL, max_size=8)
           | st.lists(_INTEGRAL | st.sampled_from(_EDGES) | st.floats(), max_size=8))
    @example([-0.0])
    @example([3.0, -0.0, -7.0])
    @example([1e12 - 1, -(1e12 - 1), 0.0])
    @example([-1e12, 1.0])
    @example([2.0**53])
    @example([-7.0, 0.5])
    @example([math.nan, 1.0])
    @example([-math.inf, -2.0])
    def test_percent_g12_equals_per_value_format(self, values):
        # the trace's row template prints every float with "%.12g"
        for v in np.array(values, dtype=np.float64).tolist():
            assert "%.12g" % v == f"{v:.12g}"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(_trace_columns), st.integers(1, 9),
           st.sampled_from([0.0, -0.0, 7.0]))
    @example(([0.0], [0.0]), 1, 0.0)  # a 1-row slice
    @example(([-0.0, 1.0, 0.0, 1.0], [1.0, 2.0, 3.0, 4.0]), 4, -0.0)  # alg starts at -0.0
    @example(([1.0] * 4, [5.0] * 4), 4, 0.0)  # alg spans exactly as many values as rows
    @example(([1e12 - 1, 1.0, 0.0, 0.0], [0.0] * 4), 4, 0.0)  # alg reaches 1e12: "1e+12"
    @example(([1e12 - 1, 0.0], [-(1e12 - 1), 0.5]), 2, 0.0)  # regret is 2e12 - 2
    def test_record_coder_matches_per_value_writer(self, columns, slice_rows, alg_cum):
        # the alg and regret columns follow from the realized losses and best
        realized, best = (np.array(c, dtype=np.float64) for c in columns)
        meter = SimpleNamespace(current=12, peak=345)
        out = []
        for record in (TraceWriter.record, _record_one_value_at_a_time):
            writer = object.__new__(TraceWriter)
            writer.stream = SimpleNamespace(best=lambda t0, t1: best[t0 - 1:t1])
            writer.alg_cum, writer.out = alg_cum, io.StringIO()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bench, "TRACE_ROWS", slice_rows)
                # two blocks: the second carries the first one's alg total
                cut = len(realized) // 2
                if cut:
                    record(writer, 1, realized[:cut], meter, 6)
                record(writer, cut + 1, realized[cut:], meter, 7)
            out.append((writer.out.getvalue(), writer.alg_cum))
        assert out[0] == out[1]

    @pytest.mark.parametrize("learner,n,T,stream,params,checks,days", [
        # best-so-far is 0.5 t: integral on even days, not on odd ones
        ("baseline", 2, 41, {"generator": "constant", "means": [0.5, 1.0]},
         {"eps": 0.3}, "paranoid", {1}),
        # 128 blocks of 4 rows each
        ("full-hierarchy", 4, 512, SPOILER, {"delta": 1.0}, "epoch", {4}),
        ("baseline", 8, 300, SPOILER, {"eps": 0.3}, "epoch", None),
    ], ids=["constant-paranoid", "hierarchy-spoiler", "baseline-spoiler"])
    def test_trace_bytes_match_per_value_writer(self, tmp_path, monkeypatch, learner, n,
                                                T, stream, params, checks, days):
        lengths = set()  # of the blocks recorded
        record = TraceWriter.record

        def spy(self, t0, realized, *args):
            lengths.add(len(realized))
            record(self, t0, realized, *args)

        monkeypatch.setattr(TraceWriter, "record", spy)

        def trace(out):
            cfg = ExperimentConfig(learner, n, T, stream, trials=[1], checks=checks,
                                   learner_params=params, output=str(out))
            return Path(run_experiment(cfg)[0].trace_path).read_bytes()

        new = trace(tmp_path / "new")
        assert days is None or lengths == days
        monkeypatch.setattr(TraceWriter, "record", _record_one_value_at_a_time)
        old = trace(tmp_path / "old")
        assert new == old and new.count(b"\r\n") == T + 1


class TestTraceWriter:
    STREAM = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}

    def _config(self, out, **kwargs):
        return ExperimentConfig("baseline", 4, 200, kwargs.pop("stream", self.STREAM),
                                trials=[0], learner_params={"eps": 0.3}, output=str(out),
                                **kwargs)

    def _spy_record(self, monkeypatch):
        """The trace's size on disk after each ``record``, its buffer flushed."""
        sizes = []
        record = TraceWriter.record

        def spy(self, *args):
            record(self, *args)
            self.out.flush()
            sizes.append(self.partial.stat().st_size)
            assert not self.path.exists()  # moved there only when the trial ends

        monkeypatch.setattr(TraceWriter, "record", spy)
        return sizes

    def test_rows_are_written_as_recorded(self, tmp_path, monkeypatch):
        sizes = self._spy_record(monkeypatch)
        (r,) = run_experiment(self._config(tmp_path))
        assert len(sizes) > 1 and all(a < b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == Path(r.trace_path).stat().st_size
        assert [p.name for p in tmp_path.iterdir()] == ["trace_seed0.csv"]

    def test_one_block_trial_is_written_a_slice_at_a_time(self, tmp_path, monkeypatch):
        # a baseline whose one epoch is the whole horizon plays it as one block
        peaks = []
        for output in (None, tmp_path / "new"):
            cfg = ExperimentConfig("baseline", 4, 50_000, self.STREAM,
                                   learner_params={"eps": 0.5, "B": 50_000},
                                   output=output and str(output))
            tracemalloc.start()
            try:
                (r,) = run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        new = Path(r.trace_path).read_bytes()
        assert peaks[1] - peaks[0] < len(new) / 4
        monkeypatch.setattr(TraceWriter, "record", _record_one_value_at_a_time)
        cfg.output = str(tmp_path / "old")
        assert Path(run_experiment(cfg)[0].trace_path).read_bytes() == new

    @pytest.mark.parametrize("error", [ValueError("bad day"), RuntimeError("broken")],
                             ids=["input-error", "programming-error"])
    def test_trial_failing_mid_run_leaves_no_file(self, tmp_path, monkeypatch, error):
        # an error raised while the trial is played is not bad input: it
        # propagates, whatever its type
        _window(monkeypatch, 50, 4)

        def failing(params, spec):
            oracle = make_oracle(params, spec)
            serve = oracle.loss_block

            def loss_block(t0, t1, ids):
                if t1 > 120:
                    raise error
                return serve(t0, t1, ids)

            oracle.loss_block = loss_block
            return oracle

        monkeypatch.setattr(bench, "make_oracle", failing)
        sizes = self._spy_record(monkeypatch)
        with pytest.raises(type(error), match=str(error)):
            run_experiment(self._config(tmp_path / "out"))
        assert sizes  # rows were on disk before the failure
        assert list((tmp_path / "out").iterdir()) == []

    def test_trace_write_error_aborts_only_its_trial(self, tmp_path, monkeypatch):
        # an I/O error of the trace (here its final rename) is not a program
        # fault: that trial aborts, leaves no file, and the next one runs
        replace = os.replace

        def failing(src, dst):
            if str(dst).endswith("trace_seed0.csv"):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(bench.os, "replace", failing)
        cfg = self._config(tmp_path / "out")
        cfg.trials = [0, 1]
        bad, ok = run_experiment(cfg)
        assert bad.violations == ["trial aborted: OSError: disk full"]
        assert bad.trace_path is None and ok.violations == []
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["trace_seed1.csv"]

    def test_short_replay_file_leaves_no_trace(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("t,e1,e2,e3,e4\n" + "".join(f"{t},0,1,0,1\n" for t in range(1, 101)))
        cfg = self._config(tmp_path / "out", stream={"generator": "csv-file", "path": str(f)})
        (r,) = run_experiment(cfg)
        assert r.violations == ["trial aborted: ValueError: loss file has 100 days, need 200"]
        assert not list(tmp_path.glob("out/*"))

    def test_failed_trial_keeps_an_earlier_trace(self, tmp_path):
        (ok,) = run_experiment(self._config(tmp_path))
        before = Path(ok.trace_path).read_bytes()
        bad = {**self.STREAM, "mean-range": [0.2, "0.8"]}
        (r,) = run_experiment(self._config(tmp_path, stream=bad))
        assert r.violations == ["trial aborted: ValueError: mean-range must be a number, "
                                "got '0.8'"]
        assert Path(ok.trace_path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace_seed0.csv"]


class TestHierarchyMemoryCap:
    STREAM = {"generator": "iid-bernoulli", "mean-range": [0.3, 0.7],
              "overrides": {"1": 0.2}}

    # the caps of these configs: 8 words, the pool and its open epoch per
    # level (``engine_words``), and 4S + 1 merge words per level k >= 2
    @pytest.mark.parametrize("n,T,cap", [(4, 256, 10703), (16, 65536, 157801)],
                             ids=["4-256", "16-65536"])
    def test_criterion_7_configs_stay_under_cap(self, n, T, cap):
        cfg = ExperimentConfig("full-hierarchy", n, T, self.STREAM, trials=[5],
                               learner_params={"delta": 1.0}, checks="epoch")
        (r,) = run_experiment(cfg)
        assert r.violations == []
        assert HierarchyLearner(n, T, delta=1.0).word_cap == cap
        assert 0 < r.peak_words <= cap

    def test_cap_below_peak_is_flagged(self, monkeypatch):
        cfg = ExperimentConfig("full-hierarchy", 4, 256, self.STREAM, trials=[5])
        (clean,) = run_experiment(cfg)
        monkeypatch.setattr(HierarchyLearner, "word_cap", clean.peak_words - 1)
        (r,) = run_experiment(cfg)
        assert len(r.violations) == 1  # the first crossing, reported once
        assert f"peak of {clean.peak_words} words exceeds cap" in r.violations[0]

    def test_cap_unchecked_when_checks_off(self, monkeypatch):
        monkeypatch.setattr(HierarchyLearner, "word_cap", 0)
        cfg = ExperimentConfig("full-hierarchy", 4, 256, self.STREAM, trials=[5],
                               checks="off")
        assert run_experiment(cfg)[0].violations == []

    def test_cap_grows_with_levels(self):
        one = HierarchyLearner(16, 4096, delta=1.0)
        two = HierarchyLearner(4, 512, delta=1.0)
        assert one.K == 1 and two.K == 2
        lvl1 = BaselineParams(16, min(one.level_params[0].episode_days, 4096),
                              one.eps, B=one.B)
        assert one.word_cap == lvl1.word_cap == 16792
        lp = two.level_params[1]
        s_hat = lp.pool_cap + lp.sample_size
        lvl1 = BaselineParams(4, two.level_params[0].episode_days, two.eps, B=two.B)
        assert two.word_cap == (
            lvl1.word_cap + s_hat * s_hat + 9 * s_hat + lp.sample_size + 13) == 12969


class TestMemoryAudit:
    """``check_memory`` after every block of every learner, and the peak
    against the learner's cap once per trial. Criterion 6 keeps the violations
    that start with "meter" or "metered", so both kinds must."""

    CONFIGS = [("baseline", "epoch"), ("baseline", "paranoid"),
               ("full-hierarchy", "epoch"), ("mwu-full-memory", "epoch")]
    AUDITED = {"baseline": BaselineLearner, "full-hierarchy": HierarchyLearner,
               "mwu-full-memory": bench._FullMemoryLearner}

    def _config(self, learner, checks):
        return ExperimentConfig(learner, 8, 400, SPOILER, trials=[3], checks=checks,
                                learner_params={"eps": 0.3} if learner == "baseline" else {})

    @pytest.mark.parametrize("learner,checks", CONFIGS)
    def test_audit_drift_flagged(self, monkeypatch, learner, checks):
        cls = self.AUDITED[learner]
        honest = cls.audit_words
        monkeypatch.setattr(cls, "audit_words", lambda self: honest(self) + 1)
        (r,) = run_experiment(self._config(learner, checks))
        assert r.violations
        assert all(v.startswith("meter ") for v in r.violations)

    @pytest.mark.parametrize("learner,checks", CONFIGS)
    def test_cap_below_peak_flagged_once(self, monkeypatch, learner, checks):
        (clean,) = run_experiment(self._config(learner, checks))
        assert clean.violations == []
        monkeypatch.setattr(self.AUDITED[learner], "word_cap", clean.peak_words - 1)
        (r,) = run_experiment(self._config(learner, checks))
        assert len(r.violations) == 1
        assert r.violations[0].startswith("metered")
        assert f"peak of {clean.peak_words} words exceeds cap" in r.violations[0]

    def test_learner_caps(self):
        # S = 80 + 8 for the baseline: 8 + S(S + 3) + (S + 4) + (S + 8)
        for learner, params, want in (
            ("baseline", {"eps": 0.3}, 8204),
            ("full-hierarchy", {"delta": 1.0}, 4984),
            ("mwu-full-memory", {}, 8 + 4),
        ):
            assert bench._make_learner(learner, params, 8, 400, 3).word_cap == want
        assert BaselineLearner(BaselineParams(8, 400, 0.3)).word_cap == 8204

    @pytest.mark.parametrize("learner,checks,n,T", [
        ("baseline", "paranoid", 8, 400), ("full-hierarchy", "epoch", 4, 512)])
    def test_mis_metered_epoch_flagged(self, monkeypatch, learner, checks, n, T):
        """An epoch that charges one ``mwu`` word more than it holds, and
        releases it at close, is flagged: the audit recounts an open epoch from
        its live arrays, not from the words it charged. Under ``epoch`` checks
        a baseline epoch is never open at a block boundary, so only paranoid
        runs and the levels k >= 2 of a hierarchy can see it."""
        cfg = ExperimentConfig(learner, n, T, SPOILER, trials=[3], checks=checks,
                               learner_params={"eps": 0.3} if learner == "baseline" else {})
        assert run_experiment(cfg)[0].violations == []
        init = Epoch.__init__

        def charge_one_more(self, pool, *args, **kwargs):
            init(self, pool, *args, **kwargs)
            self.mwu_words += 1  # released by close with the rest
            pool.meter.charge("mwu", 1)

        monkeypatch.setattr(Epoch, "__init__", charge_one_more)
        (r,) = run_experiment(cfg)
        assert r.violations
        assert all(v.startswith("meter ") for v in r.violations)

    @pytest.mark.parametrize("learner,checks,calls", [
        ("full-hierarchy", "epoch", 132), ("baseline", "epoch", 6),
        ("baseline", "paranoid", 6)])
    def test_check_pool_once_per_epoch_close(self, monkeypatch, learner, checks, calls):
        n, T, stream = ((4, 512, {"generator": "iid-bernoulli", "mean-range": [0.3, 0.7]})
                        if learner == "full-hierarchy" else (8, 400, SPOILER))
        seen = []
        check = bench.check_pool
        monkeypatch.setattr(bench, "check_pool",
                            lambda *a, **k: seen.append(1) or check(*a, **k))
        cfg = ExperimentConfig(learner, n, T, stream, trials=[3], checks=checks,
                               learner_params={"eps": 0.3} if learner == "baseline" else {})
        assert run_experiment(cfg)[0].violations == []
        assert len(seen) == calls


def _entry(id, alpha, own_avg, own_count, cross=None):
    """``cross`` maps a younger id to (average, that entry's count)."""
    e = PoolEntry(id, alpha, own_avg * own_count, own_count)
    for younger, (avg, count) in (cross or {}).items():
        e.cross[younger] = avg * count
    return e


class TestCheckPool:
    # each pool breaks exactly one invariant at eps = threshold = 1/2: expert 1
    # averages 0.9 over expert 2's interval, above 0.3 + 1/2, and its potential
    # is 2 ln(count ratio) + 0.2 above expert 2's
    @pytest.mark.parametrize("entries,cap,message", [
        ([_entry(1, 1, 0.5, 1)], 0, "pool size 1 exceeds cap 0"),
        ([_entry(1, 1, 0.5, 6, {2: (0.9, 4)}), _entry(2, 1, 0.3, 4)], 10,
         "duplicate entry epochs [1, 1]"),
        # 0.5 < 0.3 + 1/4 and 5 < 4 (1 + 1/3): neither loss nor length gap
        ([_entry(1, 1, 0.5, 5, {2: (0.9, 4)}), _entry(2, 2, 0.3, 4)], 10,
         "dichotomy: experts (1, 2) violate both loss and length conditions"),
    ], ids=["size-cap", "duplicate-epochs", "dichotomy"])
    def test_one_violation_each(self, entries, cap, message):
        assert check_pool(entries, 0.5, cap) == [message]


class TestExperimentConfig:
    def test_unknown_learner(self):
        with pytest.raises(ValueError):
            ExperimentConfig("nope", 4, 10, {"generator": "constant"})

    def test_empty_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig("baseline", 4, 10, {}, trials=[])

    def test_bad_checks(self):
        with pytest.raises(ValueError):
            ExperimentConfig("baseline", 4, 10, {}, checks="sometimes")

    @pytest.mark.parametrize("stream,message", [
        ({"generator": "bogus"}, "unknown generator 'bogus'"),
        ({}, "unknown generator None"),
        # a stream that is not an object is named as such, not as a generator
        ("iid-bernoulli", "stream must be a JSON object, got 'iid-bernoulli'"),
        ({"generator": ["iid-bernoulli"]}, r"unknown generator \['iid-bernoulli'\]"),
        ({"generator": {}}, "unknown generator {}"),
    ], ids=["stream0", "stream1", "iid-bernoulli", "generator-list", "generator-object"])
    def test_unknown_generator_rejected_at_construction(self, stream, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig("baseline", 4, 10, stream)

    @pytest.mark.parametrize("trials", [3, [], [1.5], ["0"], None])
    def test_trials_must_be_a_list_of_seeds(self, trials):
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig("baseline", 4, 10, {"generator": "constant"}, trials=trials)

    @pytest.mark.parametrize("params", [[1], "eps", 0.3])
    def test_learner_params_must_be_an_object(self, params):
        with pytest.raises(ValueError, match="learner-params"):
            ExperimentConfig("baseline", 4, 10, {"generator": "constant"},
                             learner_params=params)

    @pytest.mark.parametrize("learner,params", [
        ("baseline", {"epsilon": 0.3}), ("baseline", {"eps": 0.3, "delta": 0.5}),
        ("full-hierarchy", {"detla": 0.5}), ("full-hierarchy", {"eps": 0.3}),
        ("mwu-full-memory", {"eps": 0.3})])
    def test_learner_params_the_learner_does_not_take(self, learner, params):
        with pytest.raises(ValueError, match=f"unknown {learner} learner-params"):
            ExperimentConfig(learner, 4, 10, {"generator": "constant"},
                             learner_params=params)

    @pytest.mark.parametrize("d,message", [
        ({"learner_params": {"eps": 0.3}}, r"unknown config keys \['learner_params'\]"),
        ({"stream": None}, r"config lacks \['stream'\]"),
    ])
    def test_from_dict_rejects_unknown_and_missing_keys(self, d, message):
        base = {"learner": "baseline", "n": 4, "T": 16, "stream": {"generator": "constant"}}
        d = {k: v for k, v in {**base, **d}.items() if v is not None}
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_dict(d)

    def test_from_dict_key_mapping(self):
        cfg = ExperimentConfig.from_dict({
            "learner": "baseline", "n": 4, "T": 16,
            "stream": {"generator": "constant", "means": [0.1, 0.2, 0.3, 0.4]},
            "learner-params": {"eps": 0.3}, "trials": [5],
        })
        assert cfg.learner_params == {"eps": 0.3}
        assert cfg.trials == [5]
        assert (cfg.output, cfg.checks) == (None, "epoch")


class TestRunExperiment:
    STREAM = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8],
              "overrides": {"1": 0.1}}

    def test_baseline_run_with_checks(self, tmp_path):
        cfg = ExperimentConfig("baseline", 8, 400, self.STREAM,
                               trials=[0, 1], learner_params={"eps": 0.3},
                               output=str(tmp_path), checks="epoch")
        results = run_experiment(cfg)
        assert len(results) == 2
        for r in results:
            assert r.violations == []
            assert not math.isnan(r.regret)
            assert Path(r.trace_path).exists()

    def test_trace_schema_and_double_entry(self, tmp_path):
        cfg = ExperimentConfig("baseline", 6, 200, self.STREAM,
                               trials=[3], learner_params={"eps": 0.3},
                               output=str(tmp_path))
        r = run_experiment(cfg)[0]
        lines = Path(r.trace_path).read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 201
        last = lines[-1].split(",")
        # final-row regret equals the independently computed trial regret
        assert float(last[3]) == pytest.approx(r.regret, abs=1e-9)
        assert float(last[1]) == pytest.approx(r.cumulative_loss, abs=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cfg = ExperimentConfig("full-hierarchy", 4, 256, self.STREAM,
                                   trials=[2], output=str(out))
            run_experiment(cfg)
        t1 = (out1 / "trace_seed2.csv").read_bytes()
        t2 = (out2 / "trace_seed2.csv").read_bytes()
        assert t1 == t2

    def test_mwu_learner(self):
        cfg = ExperimentConfig("mwu-full-memory", 8, 500, self.STREAM,
                               trials=[0])
        r = run_experiment(cfg)[0]
        assert r.peak_words == 8 + 4
        assert r.regret < 500

    def test_paranoid_checks(self):
        cfg = ExperimentConfig("baseline", 6, 60, self.STREAM, trials=[1],
                               learner_params={"eps": 0.3, "B": 6},
                               checks="paranoid")
        r = run_experiment(cfg)[0]
        assert r.violations == []

    def test_bad_trial_does_not_sink_others(self):
        cfg = ExperimentConfig("baseline", 4, 20,
                               {"generator": "csv-file", "path": "/missing.csv"},
                               trials=[0, 1])
        results = run_experiment(cfg)
        assert len(results) == 2
        assert all("trial aborted" in r.violations[0] for r in results)

    def test_aborted_trial_names_exception_type(self):
        cfg = ExperimentConfig("baseline", 4, 20,
                               {"generator": "csv-file", "path": "/missing.csv"})
        (r,) = run_experiment(cfg)
        assert r.violations[0].startswith("trial aborted: FileNotFoundError: ")

    def test_nan_loss_aborts_trial(self):
        cfg = ExperimentConfig("baseline", 2, 20,
                               {"generator": "constant", "means": [math.nan, 0.5]})
        (r,) = run_experiment(cfg)
        assert math.isnan(r.regret)
        assert r.violations[0].startswith("trial aborted: ValueError: ")

    def test_hierarchy_eps_above_half_aborts_trial(self):
        cfg = ExperimentConfig("full-hierarchy", 8, 4096, self.STREAM,
                               learner_params={"delta": 0.5})
        (r,) = run_experiment(cfg)
        assert math.isnan(r.regret)
        assert r.violations[0].startswith("trial aborted: ValueError: ")
        assert "exceeds 1/2" in r.violations[0]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(params, spec):
            raise TypeError("not an input error")
        monkeypatch.setattr(bench, "make_oracle", broken)
        cfg = ExperimentConfig("baseline", 4, 20, self.STREAM, trials=[0, 1])
        with pytest.raises(TypeError, match="not an input error"):
            run_experiment(cfg)

    def test_learner_error_while_played_propagates(self, monkeypatch):
        # a KeyError raised inside the learner on its third block is a program
        # fault, not bad input: it is not relabelled "trial aborted"
        advance = BaselineLearner.advance
        calls = []

        def broken(self, oracle, t0, days=None):
            calls.append(1)
            if len(calls) == 3:
                raise KeyError(42)
            return advance(self, oracle, t0, days)

        monkeypatch.setattr(BaselineLearner, "advance", broken)
        cfg = ExperimentConfig("baseline", 6, 200, self.STREAM, trials=[0, 1],
                               learner_params={"eps": 0.3, "B": 10})
        with pytest.raises(KeyError, match="42"):
            run_experiment(cfg)
        assert len(calls) == 3  # the next seed never ran

    def test_adaptive_stream_rejected(self):
        with pytest.raises(ValueError, match="unknown generator 'adaptive-game'"):
            ExperimentConfig("baseline", 4, 20,
                             {"generator": "adaptive-game", "k": 2})

    def test_summary_stats(self):
        cfg = ExperimentConfig("baseline", 6, 120, self.STREAM,
                               trials=[0, 1, 2], learner_params={"eps": 0.3})
        s = summarize(run_experiment(cfg))
        assert s["trials"] == 3
        assert s["violations"] == 0
        assert s["regret_max"] >= s["regret_mean"]


class TestLowerBoundDemo:
    def test_equilibrium_learner_exact_minmax(self):
        res = run_lowerbound_demo(8, 1 / 8, 200, {"kind": "equilibrium"}, [0])
        assert res[0].avg_raw_loss == 0.25  # exactly 1/k every round

    def test_disjoint_uniform_subset_pays_full(self):
        res = run_lowerbound_demo(8, 1 / 8, 50, {"kind": "equilibrium"}, [0])
        support = set(res[0].support)
        subset = [i for i in range(1, 9) if i not in support][:2]
        res = run_lowerbound_demo(
            8, 1 / 8, 50, {"kind": "fixed-uniform-subset", "subset": subset}, [0])
        assert res[0].avg_raw_loss == 4.0

    def test_game_keeps_one_round(self):
        # harness memory stays flat over the rounds: the game serves only the
        # committed round's column
        run_lowerbound_demo(64, 1 / 8, 10, {"kind": "mwu-full-memory"}, [0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_lowerbound_demo(64, 1 / 8, 1000, {"kind": "mwu-full-memory"}, [0])
            growth = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert growth < 50_000

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            run_lowerbound_demo(8, 0.5, 10, {"kind": "equilibrium"}, [0])  # k=1
        with pytest.raises(ValueError):
            run_lowerbound_demo(4, 1 / 16, 10, {"kind": "equilibrium"}, [0])

    def test_thresholds_reported(self):
        res = run_lowerbound_demo(8, 1 / 8, 20, {"kind": "mwu-full-memory"}, [0])
        assert res[0].thresholds == {"minmax": 0.25, "approx": 0.375,
                                     "uncovered": 0.475}

    def test_baseline_learner_runs(self):
        res = run_lowerbound_demo(6, 1 / 4, 40,
                                  {"kind": "baseline", "eps": 0.3}, [0])
        assert 0.0 <= res[0].avg_raw_loss <= 4.0

    # avg_raw_loss of seeds 0-2, recorded with the demo's earlier per-learner
    # adapters (an MWU updated from the served column, a baseline stepped a day)
    DEMO_REFERENCE = {
        ("mwu-full-memory", 8, 1 / 8, 300): [
            0.36604782586247625, 0.36604782586247625, 0.36604782586247625],
        ("mwu-full-memory", 6, 1 / 4, 200): [
            0.7407565936110576, 0.7407565936110575, 0.7407565936110575],
        ("mwu-full-memory", 64, 1 / 8, 500): [
            0.49872421218089014, 0.49872421218089025, 0.49872421218089014],
        ("baseline", 8, 1 / 8, 300): [
            0.5595727188752538, 0.5595727188752538, 0.5595727188752538],
        ("baseline", 6, 1 / 4, 200): [
            0.9865203833519572, 0.9865203833519572, 0.9865203833519572],
        # re-recorded once each learner drew from a child of the game's seed
        ("baseline", 64, 1 / 8, 500): [
            2.042588875406744, 2.076192003015376, 2.1570304855003397],
    }

    @pytest.mark.parametrize("kind,n,eps_prime,rounds", list(DEMO_REFERENCE))
    def test_demo_learners_match_reference(self, kind, n, eps_prime, rounds):
        spec = {"kind": kind, "eps": 0.3} if kind == "baseline" else {"kind": kind}
        res = run_lowerbound_demo(n, eps_prime, rounds, spec, [0, 1, 2])
        assert [r.avg_raw_loss for r in res] == \
            self.DEMO_REFERENCE[kind, n, eps_prime, rounds]

    def test_learner_coins_apart_from_the_game(self, monkeypatch):
        # a 5-expert first sample at n=64, k=4 held the hidden support in 12 of
        # 200 seeds while the learner drew from the game's own seed
        covered = []
        make = bench._make_learner

        def spy(*args, game, **kwargs):
            learner = make(*args, game=game, **kwargs)
            ids, _ = learner.epoch_rest()  # the first sample, before any play
            covered.append(set(game.game.S) <= set(ids.tolist()))
            return learner

        monkeypatch.setattr(bench, "_make_learner", spy)
        run_lowerbound_demo(64, 1 / 8, 1, {"kind": "baseline", "eps": 0.45}, list(range(200)))
        assert len(covered) == 200 and sum(covered) == 0

    def test_full_memory_steps_like_one_block(self):
        # one day at a time or the whole horizon at once: the same picks
        oracle = make_oracle(StreamParams(6, 50, seed=1), SPOILER)
        whole = bench._FullMemoryLearner(6, 50, 2)
        by_day = bench._FullMemoryLearner(6, 50, 2)
        _, realized, played = whole.next_block(oracle)
        steps = [by_day.next_block(oracle, 1) for _ in range(50)]
        assert [t0 for t0, _, _ in steps] == list(range(1, 51))
        assert np.array_equal(np.concatenate([p for _, _, p in steps]), played)
        assert by_day.day == whole.day == 50
        day_loss = sum(float(r.sum()) for _, r, _ in steps)
        assert day_loss == pytest.approx(float(realized.sum()))

    def test_demo_baseline_takes_epoch_length(self, monkeypatch):
        built = []

        def spy(params, **kwargs):
            built.append(params)
            return BaselineLearner(params, **kwargs)

        monkeypatch.setattr(bench, "BaselineLearner", spy)
        run_lowerbound_demo(6, 1 / 4, 40, {"kind": "baseline", "eps": 0.3, "B": 7}, [0])
        assert [(p.eps, p.B) for p in built] == [(0.3, 7)]

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "full-hierarchy"}, "commits no distribution"),
        ({"kind": "baseline", "epsilon": 0.3},
         r"unknown baseline demo learner keys \['epsilon'\]"),
        ({"kind": "mwu-full-memory", "eps": 0.3}, "unknown mwu-full-memory demo learner keys"),
        ({"eps": 0.3}, "unknown mwu-full-memory demo learner keys"),
        ({"kind": "equilibrium", "subset": [1]}, "unknown equilibrium demo learner keys"),
        ({"kind": "fixed-uniform-subset", "subset": [1], "ids": [2]},
         "unknown fixed-uniform-subset demo learner keys"),
        ({"kind": "nope"}, "unknown demo learner 'nope'"),
        ({"kind": "fixed-uniform-subset", "subset": [1, 1, 2]},
         r"subset \[1, 1, 2\] repeats id 1"),
        ({"kind": "fixed-uniform-subset", "subset": [3, 5, 8, 5, 3]},
         r"subset \[3, 5, 8, 5, 3\] repeats id 3"),
    ])
    def test_bad_learner_spec_rejected(self, spec, message):
        with pytest.raises(ValueError, match=message):
            run_lowerbound_demo(8, 1 / 8, 10, spec, [0])

    @pytest.mark.parametrize("eps_prime", [0, 0.0, -0.125, 1e-320, math.nan, 0.75, 10**400])
    def test_eps_prime_without_finite_support_rejected(self, eps_prime):
        # 1 / (2 eps') is the support size before rounding: 0 divides by
        # zero, 1e-320 overflows to infinity and 10**400 has no float
        with pytest.raises(ValueError, match=r"eps-prime must lie in \(0, 1/2\]"):
            run_lowerbound_demo(8, eps_prime, 10, {"kind": "equilibrium"}, [0])


# One spec per bench.LEARNERS entry, holding every parameter key it reads.
LEARNER_EXAMPLES = {"mwu-full-memory": {}, "baseline": {"eps": 0.3, "B": 6},
                    "full-hierarchy": {"delta": 1.0}, "equilibrium": {},
                    "fixed-uniform-subset": {"subset": [1, 2]}}


@pytest.mark.parametrize("kind", sorted(bench.LEARNERS))
class TestLearnerTable:
    """Each ``LEARNERS`` entry, from its example, through trials (``TRIAL_KINDS``)
    and the demo (all but full-hierarchy): a kind added without one fails here."""

    STREAM = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}

    def _trial(self, kind, params):
        return ExperimentConfig(kind, 4, 64, self.STREAM, learner_params=params)

    def _demo(self, kind, spec):
        return run_lowerbound_demo(4, 1 / 4, 12, {"kind": kind, **spec}, [0])

    def test_example_holds_the_entry_keys_and_builds(self, kind):
        assert kind in LEARNER_EXAMPLES, f"no example spec for learner {kind!r}"
        keys, needs = bench.LEARNERS[kind]
        spec = LEARNER_EXAMPLES[kind]
        assert set(spec) == set(keys) and set(needs) <= set(keys)
        if kind in bench.TRIAL_KINDS:
            (r,) = run_experiment(self._trial(kind, spec))
            assert r.violations == [] and r.peak_words > 0
        if kind != "full-hierarchy":
            (d,) = self._demo(kind, spec)
            assert 0 <= d.avg_raw_loss <= 4

    def test_dropped_needed_key_named(self, kind):
        for k in bench.LEARNERS[kind][1]:
            spec = {key: v for key, v in LEARNER_EXAMPLES[kind].items() if key != k}
            if kind in bench.TRIAL_KINDS:
                with pytest.raises(ValueError) as exc:
                    self._trial(kind, spec)
                assert str(exc.value) == f"{kind} learner-params lacks [{k!r}]"
            if kind != "full-hierarchy":
                with pytest.raises(ValueError) as exc:
                    self._demo(kind, spec)
                assert str(exc.value) == f"{kind} demo learner lacks [{k!r}]"

    def test_extra_key_named(self, kind):
        spec = {**LEARNER_EXAMPLES[kind], "x": 1}
        if kind in bench.TRIAL_KINDS:
            with pytest.raises(ValueError) as exc:
                self._trial(kind, spec)
            assert str(exc.value).startswith(f"unknown {kind} learner-params ['x']; allowed: ")
        if kind != "full-hierarchy":
            with pytest.raises(ValueError) as exc:
                self._demo(kind, spec)
            assert str(exc.value).startswith(f"unknown {kind} demo learner keys ['x']; allowed: ")

    def test_trials_refuse_demo_only_kinds_and_the_demo_full_hierarchy(self, kind):
        if kind not in bench.TRIAL_KINDS:
            with pytest.raises(ValueError, match=f"^unknown learner '{kind}'$"):
                self._trial(kind, LEARNER_EXAMPLES[kind])
        if kind == "full-hierarchy":
            with pytest.raises(ValueError, match="commits no distribution"):
                self._demo(kind, LEARNER_EXAMPLES[kind])


class TestCli:
    STREAM = {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]}

    def _write_json(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "c.json", {
            "learner": "baseline", "n": 6, "T": 120,
            "stream": {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
            "trials": [0], "learner-params": {"eps": 0.3},
        })
        assert cli.main(["run", cfg, "--output", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trace_seed0.csv").exists()
        assert "regret" in capsys.readouterr().out

    def test_check_ok(self, tmp_path):
        cfg = self._write_json(tmp_path / "c.json", {
            "learner": "baseline", "n": 6, "T": 60,
            "stream": {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
            "trials": [0], "learner-params": {"eps": 0.3, "B": 6},
        })
        assert cli.main(["check", cfg, "--paranoid"]) == 0

    @pytest.mark.parametrize("learner,n,T,params", [
        ("baseline", 4, 1, {}),
        # the last level-1 episode of 32 + 1 days is one day long
        ("full-hierarchy", 4, 33, {"delta": 1.0}),
    ])
    def test_check_one_day_epoch_within_pool_cap(self, tmp_path, capsys, learner, n, T, params):
        cfg = self._write_json(tmp_path / "c.json", {
            "learner": learner, "n": n, "T": T, "stream": self.STREAM,
            "trials": [0], "learner-params": params,
        })
        assert cli.main(["check", cfg]) == 0
        assert "VIOLATION" not in capsys.readouterr().out

    def test_demo_lb_ok(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "d.json", {
            "n": 8, "eps-prime": 0.125, "rounds": 50,
            "learner": {"kind": "equilibrium"}, "seeds": [0],
        })
        assert cli.main(["demo-lb", cfg]) == 0
        assert "avg_raw_loss=0.2500" in capsys.readouterr().out

    def test_dump_stream_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        cfg = self._write_json(tmp_path / "s.json", {
            "n": 3, "T": 12, "seed": 2,
            "stream": {"generator": "constant", "means": [0.1, 0.2, 0.3]},
            "output": str(out),
        })
        assert cli.main(["dump-stream", cfg]) == 0
        replay = CsvOracle(StreamParams(3, 12, seed=2), str(out))
        assert np.allclose(replay.loss_block(1, 12, [1, 2, 3]),
                           np.tile([0.1, 0.2, 0.3], (12, 1)))

    def test_bad_config_nonzero_exit(self, tmp_path):
        cfg = self._write_json(tmp_path / "bad.json", {
            "learner": "baseline", "n": 4, "T": 10,
            "stream": {"generator": "does-not-exist"}, "trials": [0],
        })
        # the config load rejects the unknown generator: error, exit 1
        assert cli.main(["check", cfg]) != 0

    def test_adaptive_config_clean_exit(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "a.json", {
            "learner": "baseline", "n": 4, "T": 10,
            "stream": {"generator": "adaptive-game", "k": 2}, "trials": [0],
        })
        assert cli.main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "VIOLATION" not in captured.out

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_unknown_generator_clean_exit(self, tmp_path, capsys, command):
        cfg = self._write_json(tmp_path / "u.json", {
            "learner": "baseline", "n": 4, "T": 10,
            "stream": {"generator": "bogus"}, "trials": [0],
        })
        assert cli.main([command, cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown generator")
        assert "VIOLATION" not in captured.out

    def test_check_prints_run_report(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "c.json", {
            "learner": "baseline", "n": 6, "T": 60,
            "stream": {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
            "trials": [0, 1], "learner-params": {"eps": 0.3}, "checks": "off",
        })
        assert cli.main(["check", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("seed 0: loss=")
        assert "seed 1: loss=" in out
        assert json.loads(out[out.index("{"):])["trials"] == 2

    def test_dump_stream_adaptive_rejected(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "g.json", {
            "n": 4, "T": 10, "stream": {"generator": "adaptive-game", "k": 2},
            "output": str(tmp_path / "g.csv"),
        })
        assert cli.main(["dump-stream", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: unknown generator")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("subset", [[0, 1], [-1, 1], [1, 9], [1.5, 2], ["1", 2]])
    def test_demo_subset_bad_ids_clean_exit(self, tmp_path, capsys, subset):
        cfg = self._write_json(tmp_path / "d.json", {
            "n": 8, "eps-prime": 0.125, "rounds": 5, "seeds": [0],
            "learner": {"kind": "fixed-uniform-subset", "subset": subset},
        })
        assert cli.main(["demo-lb", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_hierarchy_eps_above_half_nonzero_exit(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "h.json", {
            "learner": "full-hierarchy", "n": 8, "T": 4096,
            "stream": {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
            "trials": [0], "learner-params": {"delta": 0.5},
        })
        assert cli.main(["run", cfg]) == 1
        assert "VIOLATION: trial aborted: ValueError: " in capsys.readouterr().out

    @pytest.mark.parametrize("command,payload", [
        ("run", {"trials": 3}),
        ("check", {"learner-params": [1]}),
        ("demo-lb", {"n": 8, "eps-prime": 0.125, "rounds": 5, "learner": "equilibrium"}),
        ("run", {"learner": []}),
        ("run", {"checks": {}}),
        ("demo-lb", {"n": 8, "eps-prime": 0.125, "rounds": 5, "seeds": 3}),
        ("demo-lb", {"n": 8, "eps-prime": 0.125, "rounds": 5,
                     "learner": {"kind": "fixed-uniform-subset", "subset": 3}}),
    ], ids=["trials-int", "learner-params-list", "demo-learner-string", "learner-list",
            "checks-object", "demo-seeds-int", "demo-subset-int"])
    def test_malformed_config_shape_clean_exit(self, tmp_path, capsys, command, payload):
        if command != "demo-lb":
            payload = {"learner": "baseline", "n": 4, "T": 10, "trials": [0],
                       "stream": {"generator": "constant", "means": [0.5] * 4},
                       **payload}
        assert cli.main([command, self._write_json(tmp_path / "m.json", payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "VIOLATION" not in captured.out

    @pytest.mark.parametrize("command", ["run", "check", "dump-stream"])
    @pytest.mark.parametrize("stream,message", [
        ({"generator": ["iid-bernoulli"]},
         "error: unknown generator ['iid-bernoulli']; expected one of"),
        ({"generator": {}}, "error: unknown generator {}; expected one of"),
        (3, "error: stream must be a JSON object, got 3"),
    ], ids=["generator-list", "generator-object", "stream-int"])
    def test_malformed_stream_shape_clean_exit(self, tmp_path, capsys, command, stream,
                                               message):
        cfg = ({"n": 4, "T": 10, "seed": 3, "output": str(tmp_path / "s.csv")}
               if command == "dump-stream" else
               {"learner": "baseline", "n": 4, "T": 10, "trials": [0]})
        path = self._write_json(tmp_path / "g.json", {**cfg, "stream": stream})
        assert cli.main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert "VIOLATION" not in captured.out
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["run", "demo-lb", "dump-stream"])
    def test_non_object_config_clean_exit(self, tmp_path, capsys, command):
        assert cli.main([command, self._write_json(tmp_path / "l.json", [1])]) == 1
        assert capsys.readouterr().err.startswith("error: config must be a JSON object")

    @pytest.mark.parametrize("command,payload,message", [
        ("run", {"n": "16"}, "error: n must be an integer, got '16'"),
        ("run", {"T": 1e3}, "error: T must be an integer, got 1000.0"),
        ("run", {"learner-params": {"eps": "0.3"}},
         "VIOLATION: trial aborted: ValueError: eps must be a number"),
        ("run", {"learner": "full-hierarchy", "learner-params": {"delta": "1"}},
         "VIOLATION: trial aborted: ValueError: delta must be a number"),
        ("run", {"stream": {**SPOILER, "epoch-length": "5"}},
         "VIOLATION: trial aborted: ValueError: epoch-length must be an integer"),
        ("run", {"stream": {**STREAM, "overrides": {"0": 0.1}}},
         "VIOLATION: trial aborted: ValueError: override id '0' outside [1, 4]"),
        ("run", {"stream": {**STREAM, "overrides": {"9": 0.1}}},
         "VIOLATION: trial aborted: ValueError: override id '9' outside [1, 4]"),
        ("run", {"stream": {**STREAM, "overrides": [1]}},
         "VIOLATION: trial aborted: ValueError: overrides must be a JSON object, got [1]"),
        ("run", {"stream": {**STREAM, "overrides": {"x": 0.1}}},
         "VIOLATION: trial aborted: ValueError: override id 'x' outside [1, 4]"),
        ("run", {"stream": {**STREAM, "overrides": {"1.5": 0.1}}},
         "VIOLATION: trial aborted: ValueError: override id '1.5' outside [1, 4]"),
        ("dump-stream", {"stream": {**STREAM, "overrides": {"x": 0.1}}},
         "error: override id 'x' outside [1, 4]"),
        ("demo-lb", {"n": "8"}, "error: n must be an integer, got '8'"),
        ("dump-stream", {"T": 40.0}, "error: T must be an integer, got 40.0"),
        ("dump-stream", {"seed": "3"}, "error: seed must be an integer, got '3'"),
        ("run", {"output": 3}, "error: output must be a string, got 3"),
        ("dump-stream", {"output": 3}, "error: output must be a string, got 3"),
        ("run", {"stream": {**STREAM, "mean-range": 3}},
         "VIOLATION: trial aborted: ValueError: mean-range must be a list of two numbers, "
         "got 3"),
        ("run", {"stream": {**STREAM, "mean-range": [0.2, None]}},
         "VIOLATION: trial aborted: ValueError: mean-range must be a number, got None"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [0.2, 0.5, 0.8]}},
         "error: mean-range must be a list of two numbers, got [0.2, 0.5, 0.8]"),
        ("run", {"stream": {**STREAM, "overrides": {"1": "0.3"}}},
         "VIOLATION: trial aborted: ValueError: overrides must be a number, got '0.3'"),
        ("run", {"stream": {"generator": "iid-bernoulli", "means": {"a": 1}}},
         "VIOLATION: trial aborted: ValueError: means must be a list of numbers, "
         "got {'a': 1}"),
        ("dump-stream", {"stream": {"generator": "constant", "means": {"a": 1}}},
         "error: means must be a list of numbers, got {'a': 1}"),
        ("run", {"stream": {"generator": "constant", "means": [0.1, "0.2", 0.3, 0.4]}},
         "VIOLATION: trial aborted: ValueError: means must be a number, got '0.2'"),
        ("run", {"stream": {**STREAM, "mean-range": [0.8, 0.2]}},
         "VIOLATION: trial aborted: ValueError: mean-range must be [low, high] with "
         "low <= high, got [0.8, 0.2]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [0.8, 0.2]}},
         "error: mean-range must be [low, high] with low <= high, got [0.8, 0.2]"),
        ("run", {"stream": {**STREAM, "overrides": {"01": 0.1, "1": 0.9}}},
         "VIOLATION: trial aborted: ValueError: repeated override id: '01' and '1' "
         "both name expert 1"),
        ("dump-stream", {"stream": {**STREAM, "overrides": {"2": 0.1, "002": 0.9}}},
         "error: repeated override id: '2' and '002' both name expert 2"),
        # JSON reads NaN and Infinity; numpy's uniform raised OverflowError on each
        ("run", {"stream": {**STREAM, "mean-range": [math.nan, 0.5]}},
         "VIOLATION: trial aborted: ValueError: mean-range must lie in [0, 1]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [math.nan, 0.5]}},
         "error: mean-range must lie in [0, 1]"),
        ("run", {"stream": {**STREAM, "mean-range": [0, math.inf]}},
         "VIOLATION: trial aborted: ValueError: mean-range must lie in [0, 1]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [0, math.inf]}},
         "error: mean-range must lie in [0, 1]"),
        ("run", {"stream": {**STREAM, "mean-range": [-math.inf, 0.5]}},
         "VIOLATION: trial aborted: ValueError: mean-range must lie in [0, 1]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [-math.inf, 0.5]}},
         "error: mean-range must lie in [0, 1]"),
        ("run", {"stream": {**STREAM, "mean-range": [0.2, math.nan]}},
         "VIOLATION: trial aborted: ValueError: mean-range must lie in [0, 1]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [0.2, math.nan]}},
         "error: mean-range must lie in [0, 1]"),
        ("run", {"stream": {**STREAM, "mean-range": [-1e308, 1e308]}},
         "VIOLATION: trial aborted: ValueError: mean-range must lie in [0, 1]"),
        ("dump-stream", {"stream": {**STREAM, "mean-range": [-1e308, 1e308]}},
         "error: mean-range must lie in [0, 1]"),
    ], ids=["n-string", "T-float", "eps-string", "delta-string", "epoch-length-string",
            "override-0", "override-9", "overrides-list", "override-id-string",
            "override-id-float", "dump-override-id-string", "demo-n-string", "dump-T-float",
            "dump-seed-string", "output-int", "dump-output-int", "mean-range-int",
            "mean-range-null", "dump-mean-range-three", "override-value-string",
            "means-object", "dump-means-object", "means-string", "mean-range-reversed",
            "dump-mean-range-reversed", "override-repeated", "dump-override-repeated",
            *[f"{dump}mean-range-{bounds}" for bounds in
              ("nan-low", "inf-high", "-inf-low", "nan-high", "huge") for dump in ("", "dump-")]])
    def test_malformed_value_clean_exit(self, tmp_path, capsys, command, payload, message):
        base = {
            "run": {"learner": "baseline", "n": 4, "T": 40, "trials": [0],
                    "stream": self.STREAM, "learner-params": {"eps": 0.3}},
            "demo-lb": {"n": 8, "eps-prime": 0.125, "rounds": 5, "seeds": [0]},
            "dump-stream": {"n": 4, "T": 40, "seed": 3, "stream": self.STREAM,
                            "output": str(tmp_path / "s.csv")},
        }[command]
        cfg = self._write_json(tmp_path / "v.json", {**base, **payload})
        assert cli.main([command, cfg]) == 1
        captured = capsys.readouterr()
        assert message in captured.err + captured.out

    def test_descriptor_path_rejected_and_left_open(self, tmp_path, capsys):
        r, w = os.pipe()
        os.close(w)  # a read of r sees end of file at once, never blocks
        try:
            cfg = self._write_json(tmp_path / "p.json", {
                "learner": "baseline", "n": 4, "T": 40, "trials": [0],
                "stream": {"generator": "csv-file", "path": r}})
            assert cli.main(["run", cfg]) == 1
            os.fstat(r)  # raises if the run closed the descriptor
        finally:
            os.close(r)
        captured = capsys.readouterr()
        assert (f"VIOLATION: trial aborted: ValueError: loss file path must be a string, "
                f"got {r}") in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_huge_horizon_short_file_clean_exit(self, tmp_path, capsys):
        # nothing is sized by T before the file's rows are read
        f = tmp_path / "s.csv"
        f.write_text("t,e1,e2,e3,e4\n1,0,1,0,1\n2,1,0,1,0\n")
        cfg = self._write_json(tmp_path / "h.json", {
            "learner": "baseline", "n": 4, "T": 10**12, "trials": [0],
            "stream": {"generator": "csv-file", "path": str(f)},
            "learner-params": {"eps": 0.3}})
        assert cli.main(["run", cfg]) == 1
        captured = capsys.readouterr()
        assert ("VIOLATION: trial aborted: ValueError: loss file has 2 days, "
                "need 1000000000000") in captured.out
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("command,payload,message", [
        ("run", {"learner-params": {"epsilon": 0.3}},
         "error: unknown baseline learner-params ['epsilon']"),
        ("run", {"learner": "full-hierarchy", "learner-params": {"detla": 0.5}},
         "error: unknown full-hierarchy learner-params ['detla']"),
        ("check", {"learner_params": {"eps": 0.3}},
         "error: unknown config keys ['learner_params']"),
        ("demo-lb", {"learner": {"kind": "baseline", "epsilon": 0.3}},
         "error: unknown baseline demo learner keys ['epsilon']"),
        ("demo-lb", {"learner": {"kind": "full-hierarchy"}},
         "error: demo-lb cannot play full-hierarchy"),
        ("demo-lb", {"round": 50, "seeds": [3]},
         "error: unknown demo-lb config keys ['round']"),
        ("dump-stream", {"sed": 3},
         "error: unknown dump-stream config keys ['sed']"),
        ("run", {"stream": {**STREAM, "override": {"1": 0.0}}},
         "error: unknown iid-bernoulli stream keys ['override']"),
        ("dump-stream", {"stream": {**STREAM, "override": {"1": 0.0}}},
         "error: unknown iid-bernoulli stream keys ['override']"),
        ("check", {"stream": {**SPOILER, "best_id": 1}},
         "error: unknown epoch-spoiler stream keys ['best_id']"),
        ("run", {"stream": {"generator": "constant", "means": [0.5] * 4,
                            "mean-range": [0.2, 0.8]}},
         "error: unknown constant stream keys ['mean-range']"),
        # values no trial can take are rejected at load in the same way
        ("run", {"trials": [2**64]}, "error: seed must lie in [0, 2^64), got 18446744073709551616"),
        ("run", {"trials": [0, -1], "stream": SPOILER},
         "error: seed must lie in [0, 2^64), got -1"),
        ("dump-stream", {"seed": 2**64}, "error: seed must lie in [0, 2^64)"),
        ("demo-lb", {"seeds": [0, 2**64]}, "error: seed must lie in [0, 2^64)"),
        ("demo-lb", {"eps-prime": 0}, "error: eps-prime must lie in (0, 1/2]"),
        ("demo-lb", {"eps-prime": 1e-320}, "error: eps-prime must lie in (0, 1/2]"),
    ], ids=["baseline-epsilon", "hierarchy-detla", "top-level-underscore", "demo-epsilon",
            "demo-hierarchy", "demo-round", "dump-sed", "stream-override", "dump-stream-override",
            "spoiler-best_id", "constant-mean-range", "seed-2^64", "spoiler-seed-negative",
            "dump-seed-2^64", "demo-seed-2^64", "eps-prime-0", "eps-prime-subnormal"])
    def test_unknown_key_rejected_before_any_trial(self, tmp_path, capsys, command,
                                                   payload, message):
        base = {
            "demo-lb": {"n": 8, "eps-prime": 0.125, "rounds": 5, "seeds": [0]},
            "dump-stream": {"n": 4, "T": 40, "stream": self.STREAM,
                            "output": str(tmp_path / "s.csv")},
        }.get(command, {"learner": "baseline", "n": 4, "T": 40, "trials": [0],
                        "stream": self.STREAM, "learner-params": {"eps": 0.3}})
        payload = {**base, **payload}
        if "learner_params" in payload:
            del payload["learner-params"]
        assert cli.main([command, self._write_json(tmp_path / "k.json", payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(message)
        assert captured.out == ""  # no trial started
        assert not (tmp_path / "s.csv").exists()  # no stream dumped

    @pytest.mark.parametrize("command,drop,payload,message", [
        ("dump-stream", ["stream"], {}, "error: dump-stream config lacks ['stream']"),
        ("dump-stream", ["n", "T"], {}, "error: dump-stream config lacks ['n', 'T']"),
        ("dump-stream", [], {"stream": {k: v for k, v in SPOILER.items()
                                        if k != "epoch-length"}},
         "error: epoch-spoiler stream lacks ['epoch-length']"),
        ("run", [], {"stream": {"generator": "epoch-spoiler", "best-id": 1}},
         "error: epoch-spoiler stream lacks ['base-loss', 'decoy-loss', 'epoch-length']"),
        ("run", [], {"stream": {"generator": "csv-file"}},
         "error: csv-file stream lacks ['path']"),
        ("dump-stream", [], {"stream": {"generator": "csv-file"}},
         "error: csv-file stream lacks ['path']"),
        ("check", [], {"stream": {"generator": "constant"}},
         "error: constant stream lacks ['means']"),
        ("demo-lb", ["eps-prime"], {}, "error: demo-lb config lacks ['eps-prime']"),
        ("demo-lb", [], {"learner": {"kind": "fixed-uniform-subset"}},
         "error: fixed-uniform-subset demo learner lacks ['subset']"),
    ], ids=["dump-stream", "dump-n-T", "dump-epoch-length", "spoiler-three", "csv-path",
            "dump-csv-path", "constant-means", "demo-eps-prime", "demo-subset"])
    def test_missing_key_named_before_any_trial(self, tmp_path, capsys, command, drop,
                                                payload, message):
        base = {
            "demo-lb": {"n": 8, "eps-prime": 0.125, "rounds": 5, "seeds": [0]},
            "dump-stream": {"n": 4, "T": 40, "stream": self.STREAM,
                            "output": str(tmp_path / "s.csv")},
        }.get(command, {"learner": "baseline", "n": 4, "T": 40, "trials": [0],
                        "stream": self.STREAM, "learner-params": {"eps": 0.3}})
        payload = {k: v for k, v in {**base, **payload}.items() if k not in drop}
        assert cli.main([command, self._write_json(tmp_path / "m.json", payload)]) == 1
        captured = capsys.readouterr()
        assert captured.err == message + "\n"
        assert captured.out == ""  # no trial started
        assert not (tmp_path / "s.csv").exists()  # no stream dumped

    def test_dump_stream_without_output_clean_exit(self, tmp_path, capsys):
        cfg = self._write_json(tmp_path / "s.json", {"n": 3, "T": 12, "stream": self.STREAM})
        assert cli.main(["dump-stream", cfg]) == 1
        assert capsys.readouterr().err == (
            "error: no output path (use --output or the 'output' key)\n")

    def test_missing_config_nonzero_exit(self):
        assert cli.main(["run", "/nonexistent.json"]) == 1

    def test_directory_config_clean_exit(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    @pytest.mark.parametrize("output,message", [
        ("out", "error: [Errno 21] Is a directory"),
        ("file/s.csv", "error: [Errno 17] File exists"),
    ], ids=["directory", "under-a-file"])
    def test_unwritable_dump_output_clean_exit(self, tmp_path, capsys, monkeypatch,
                                               output, message):
        (tmp_path / "out").mkdir()
        (tmp_path / "file").write_text("kept")
        cfg = self._write_json(tmp_path / "s.json", {
            "n": 3, "T": 12, "stream": self.STREAM, "output": str(tmp_path / output)})
        def no_window(*args):
            raise AssertionError("a window was read")

        monkeypatch.setattr(BernoulliOracle, "loss_block", no_window)  # refused before
        assert cli.main(["dump-stream", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message)
        if output == "out":  # the output named, not its temporary file
            assert err == f"{message}: '{tmp_path / 'out'}'\n"
        # nothing written, the directory and the file untouched
        assert sorted(os.listdir(tmp_path)) == ["file", "out", "s.json"]
        assert os.listdir(tmp_path / "out") == []
        assert (tmp_path / "file").read_text() == "kept"
