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


def golden(learner, n, T, stream, checks, digest, tag=""):
    """One pinned trace, named learner-n-T-checks plus an optional tag."""
    return pytest.param(learner, n, T, stream, checks, digest,
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
]


@pytest.mark.parametrize("learner,n,T,stream,checks,digest", GOLDEN)
def test_trace_sha256(tmp_path, learner, n, T, stream, checks, digest):
    cfg = ExperimentConfig(learner, n, T, stream, trials=[3],
                           learner_params={"eps": 0.3}, output=str(tmp_path),
                           checks=checks)
    result = run_experiment(cfg)[0]
    assert result.violations == []
    data = (tmp_path / "trace_seed3.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
