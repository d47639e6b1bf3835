"""Record the reference outputs of every pool input of every workload, at
both sizes, into ``references.json``. Run it only at a commit whose outputs
are known to be right; the benchmark then checks each operation against it.

    python3 perfbench/record.py
"""

import json
import shutil
import sys

import run  # sets the thread variables before numpy loads
from workloads import POOL, SIZES, WORKLOADS, Context


def main() -> int:
    ep = run.load_program()
    refs = {"commit": run.git_commit(run.ROOT), "workloads": {}}
    workdir = run.OUT / "record"
    try:
        for name, wl in WORKLOADS.items():
            refs["workloads"][name] = {}
            for size in SIZES[name]:
                workdir.mkdir(parents=True, exist_ok=True)
                ctx = Context(ep, size, workdir)
                wl.setup_fixture(ctx)
                table = refs["workloads"][name][size] = {}
                for k in range(POOL[name] * wl.cycle):
                    inp = wl.op_input(size, k)
                    res = wl.run_op(ctx, inp)
                    if res.problems:
                        print(f"{name} {size} {inp['key']}: {res.problems}",
                              file=sys.stderr)
                        return 1
                    table[inp["key"]] = res.outputs
                    print(f"{name} {size} {inp['key']}: {res.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
