"""Write golden.json: the outputs of every workload's check op.

Run from the root of a ctrx source tree, only at a commit whose outputs are
the reference the benchmark must hold later commits to:

    python3 perfbench/record_golden.py
"""

import json
import shutil
import sys

from run import (CHECK_SEED, HERE, ROOT, emitted_values, import_cli,
                 limit_threads, run_op)


def main():
    limit_threads()
    cli = import_cli()
    from workloads import WORKLOADS
    work = ROOT / ".perfbench_run" / "record"
    golden = {}
    try:
        for wl in WORKLOADS.values():
            d = work / wl.name
            d.mkdir(parents=True)
            prep = wl.write(wl.build(CHECK_SEED), d)
            code, _, stderr_text = run_op(cli, prep.argv)
            if code != 0:
                raise SystemExit(f"{wl.name} failed with exit code {code}:\n"
                                 f"{stderr_text}")
            golden[wl.name] = wl.check(prep, emitted_values(stderr_text))
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    with open(HERE / "golden.json", "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
