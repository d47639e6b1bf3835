"""Golden trace and dump bytes: the sha256 of fixed traces and of fixed
``dump_stream`` files, pinned across refactors.

Criterion 11 compares two reruns of the same code; these hashes compare the
code against the bytes it wrote before, so a change to the sampling order,
the eviction rule, the trace format or the dump format shows up here.
"""

import hashlib

import pytest

from expertpool.bench import ExperimentConfig, dump_stream, run_experiment
from expertpool.streams import StreamParams, make_oracle

SPOILER = {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.3,
           "decoy-loss": 0.1, "epoch-length": 25}
BERNOULLI = {"generator": "iid-bernoulli", "mean-range": [0.3, 0.7]}


def golden(learner, n, T, stream, checks, digest, tag="", params=None):
    """One pinned trace, named learner-n-T-checks plus an optional tag. The
    learner params default to eps 0.3 for the baseline and to none otherwise."""
    if params is None:
        params = {"eps": 0.3} if learner == "baseline" else {}
    return pytest.param(learner, n, T, stream, checks, params, digest,
                        id=f"{learner}-n{n}-T{T}-{checks}{tag}")


GOLDEN = [
    # the criterion-11 config, one entry per learner and check level
    golden("baseline", 8, 400, SPOILER, "epoch",
           "ee75972321cddee1e207d0bc0c671acedd67469faf1f4ecfcc347d4770d79563"),
    golden("baseline", 8, 400, SPOILER, "paranoid",
           "e6b14b99ef0890645b5b71322137a2d8fea86cb778b15a5cef3c26b7c5cad891"),
    golden("full-hierarchy", 8, 400, SPOILER, "epoch",
           "a91a25cfee790a89555b7457f73bac1316b8aaa301b803501df5c8fa73d1ceb7"),
    golden("mwu-full-memory", 8, 400, SPOILER, "epoch",
           "ada74989a27a18ab2390c2ae6a28caa078510f17d3fddc56cbfffca70fb007bb"),
    # four level-1 episodes (K=1)
    golden("full-hierarchy", 16, 4096, BERNOULLI, "epoch",
           "ecab366bb77d871504e439a7049a64eb1358f53368e46dc2e14cd31e8c8cf54e"),
    # K=2: two level-2 episodes over sixteen level-1 episodes
    golden("full-hierarchy", 4, 512, BERNOULLI, "epoch",
           "74d5509594872b64666756ff8f51bd7cd47184964aaa8a278717318bbd39adc1"),
    # the same K=2 ladder on non-integer losses: the merge race's sums are not
    # small integers here, so a reassociated addition changes the bytes
    golden("full-hierarchy", 4, 512, SPOILER, "epoch",
           "a34751083d4d2a549a5e1c6aeff25c3d1e0c33744275b13aeec50b117d89b41c",
           tag="-spoiler"),
    # the benchmark's ladder (K=2, B=4) on non-integer losses: 4,096 blocks
    # through level 1 and the level-2 merge race
    golden("full-hierarchy", 16, 16384, SPOILER, "epoch",
           "ce74596582dcabe5171d3cad868b8cf8523b147817f477e117928d572142c02e",
           tag="-delta0.5-spoiler", params={"delta": 0.5}),
]


@pytest.mark.parametrize("learner,n,T,stream,checks,params,digest", GOLDEN)
def test_trace_sha256(tmp_path, learner, n, T, stream, checks, params, digest):
    cfg = ExperimentConfig(learner, n, T, stream, trials=[3], learner_params=params,
                           output=str(tmp_path),
                           checks=checks)
    result = run_experiment(cfg)[0]
    assert result.violations == []
    data = (tmp_path / "trace_seed3.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


DUMPS = [
    # the sweep's csv-file fixture stream, 8 windows of 256 days
    pytest.param(128, 2000, 99, {"generator": "iid-bernoulli", "mean-range": [0.2, 0.8]},
                 "e69bbb07c6ad24928cf6039e29dd92618de4d9364b31a37ea1ec015f35bf3389",
                 id="fixture-n128-T2000"),
    # nearly every cell a distinct non-integer, 4 windows of 512 days
    pytest.param(64, 2000, 3, SPOILER,
                 "3403c0527558c17aa08d1eaf4dbeb838dfbec3d4e81da6e3cd74b2a8cde5afd7",
                 id="spoiler-n64-T2000"),
]


@pytest.mark.parametrize("n,T,seed,stream,digest", DUMPS)
def test_dump_sha256(tmp_path, n, T, seed, stream, digest):
    dump_stream(make_oracle(StreamParams(n, T, seed=seed), stream), tmp_path / "s.csv")
    data = (tmp_path / "s.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
