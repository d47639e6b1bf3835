"""Golden trace bytes: the sha256 of fixed traces, pinned across refactors.

Criterion 11 compares two reruns of the same code; these hashes compare the
code against the bytes it wrote before, so a change to the sampling order,
the eviction rule or the trace format shows up here.
"""

import hashlib

import pytest

from expertpool.bench import ExperimentConfig, run_experiment

SPOILER = {"generator": "epoch-spoiler", "best-id": 2, "base-loss": 0.3,
           "decoy-loss": 0.1, "epoch-length": 25}
BERNOULLI = {"generator": "iid-bernoulli", "mean-range": [0.3, 0.7]}

GOLDEN = [
    # the criterion-11 config, one entry per learner and check level
    ("baseline", 8, 400, SPOILER, "epoch",
     "ee75972321cddee1e207d0bc0c671acedd67469faf1f4ecfcc347d4770d79563"),
    ("baseline", 8, 400, SPOILER, "paranoid",
     "e6b14b99ef0890645b5b71322137a2d8fea86cb778b15a5cef3c26b7c5cad891"),
    ("full-hierarchy", 8, 400, SPOILER, "epoch",
     "a91a25cfee790a89555b7457f73bac1316b8aaa301b803501df5c8fa73d1ceb7"),
    ("mwu-full-memory", 8, 400, SPOILER, "epoch",
     "ada74989a27a18ab2390c2ae6a28caa078510f17d3fddc56cbfffca70fb007bb"),
    # four level-1 episodes (K=1)
    ("full-hierarchy", 16, 4096, BERNOULLI, "epoch",
     "ecab366bb77d871504e439a7049a64eb1358f53368e46dc2e14cd31e8c8cf54e"),
    # K=2: two level-2 episodes over sixteen level-1 episodes
    ("full-hierarchy", 4, 512, BERNOULLI, "epoch",
     "74d5509594872b64666756ff8f51bd7cd47184964aaa8a278717318bbd39adc1"),
]


@pytest.mark.parametrize(
    "learner,n,T,stream,checks,digest", GOLDEN,
    ids=[f"{g[0]}-n{g[1]}-T{g[2]}-{g[4]}" for g in GOLDEN],
)
def test_trace_sha256(tmp_path, learner, n, T, stream, checks, digest):
    cfg = ExperimentConfig(learner, n, T, stream, trials=[3],
                           learner_params={"eps": 0.3}, output=str(tmp_path),
                           checks=checks)
    result = run_experiment(cfg)[0]
    assert result.violations == []
    data = (tmp_path / "trace_seed3.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
