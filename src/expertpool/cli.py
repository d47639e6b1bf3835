"""Command-line entry point.

Subcommands:
  run          run an experiment described by a JSON config file
  demo-lb      play the adaptive matching-penny game against a learner
  dump-stream  materialize an oblivious stream as a CSV loss file
  check        re-verify invariants on a run (alias for run with checks forced on)

The process exits nonzero iff any invariant or assertion fails, or the input
is bad. ``demo-lb`` checks no invariant of its own: it exits 1 only on bad
input, and acceptance criterion 10 gates the numbers it prints.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    ExperimentConfig,
    dump_stream,
    run_experiment,
    run_lowerbound_demo,
    summarize,
)
from .streams import (StreamParams, check_keys, check_object, check_path, check_present,
                      make_oracle)


def _load_config(path: str) -> dict:
    """The JSON object in ``path``; any other top-level value is bad input."""
    with open(path) as fh:
        config = json.load(fh)
    check_object("config", config)
    return config


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_dict(_load_config(args.config))
    if args.output is not None:
        config.output = args.output
    if args.checks is not None:
        config.checks = args.checks
    results = run_experiment(config)
    failed = False
    for r in results:
        line = (f"seed {r.seed}: loss={r.cumulative_loss:.4f} "
                f"best={r.best_total:.4f} regret={r.regret:.4f} "
                f"peak_words={r.peak_words}")
        print(line)
        for v in r.violations:
            failed = True
            print(f"  VIOLATION: {v}")
    print(json.dumps(summarize(results), indent=2))
    return 1 if failed else 0


def _cmd_demo_lb(args: argparse.Namespace) -> int:
    spec = _load_config(args.config)
    check_keys("demo-lb config keys", spec, ("n", "eps-prime", "rounds", "learner", "seeds"))
    check_present("demo-lb config", spec, ("n", "eps-prime"))
    results = run_lowerbound_demo(
        n=spec["n"],
        epsilon_prime=spec["eps-prime"],
        rounds=spec.get("rounds", 2000),
        learner_spec=spec.get("learner", {"kind": "mwu-full-memory"}),
        seeds=spec.get("seeds", [0]),
    )
    for r in results:
        th = r.thresholds
        print(f"seed {r.seed}: support={r.support} "
              f"avg_raw_loss={r.avg_raw_loss:.4f} "
              f"minmax={th['minmax']:.4f} approx={th['approx']:.4f} "
              f"uncovered={th['uncovered']:.4f}")
    return 0


def _cmd_dump_stream(args: argparse.Namespace) -> int:
    spec = _load_config(args.config)
    check_keys("dump-stream config keys", spec, ("n", "T", "seed", "output", "stream"))
    check_present("dump-stream config", spec, ("n", "T", "stream"))
    out = args.output or spec.get("output")
    if out is None:
        raise ValueError("no output path (use --output or the 'output' key)")
    check_path("output", out)
    params = StreamParams(spec["n"], spec["T"], seed=spec.get("seed", 0))
    dump_stream(make_oracle(params, spec["stream"]), Path(out))
    print(f"wrote {params.T} days x {params.n} experts to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expertpool",
        description="memory-bounded expert-prediction experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the experiment JSON")
    p_run.add_argument("--output", help="directory for per-seed CSV traces")
    p_run.add_argument("--checks", choices=ExperimentConfig.CHECK_LEVELS)
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo-lb", help="adaptive-game demonstration")
    p_demo.add_argument("config",
                        help="JSON with n, eps-prime, rounds, learner, seeds")
    p_demo.set_defaults(func=_cmd_demo_lb)

    p_dump = sub.add_parser("dump-stream", help="write a stream to CSV")
    p_dump.add_argument("config", help="JSON with n, T, seed and a stream descriptor")
    p_dump.add_argument("--output", help="destination CSV (default: 'output' key)")
    p_dump.set_defaults(func=_cmd_dump_stream)

    p_check = sub.add_parser("check", help="run with invariant checks forced on")
    p_check.add_argument("config", help="path to the experiment JSON")
    p_check.add_argument("--paranoid", dest="checks", action="store_const",
                         const="paranoid", default="epoch",
                         help="baseline: play one day per block, so the meter "
                              "is audited after every day; other learners: no "
                              "change, still audited after every block")
    p_check.set_defaults(func=_cmd_run, output=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError: a path unusable as given
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
