"""Record the results of operation 0 of every workload for a range of seeds.

    python3 bench/record_reference.py [--seeds 0-31]

Writes reference.json next to this file. run.py then fails the correctness
gate of any run whose operation 0 no longer reproduces them (see
REFERENCE_RTOL in run.py). Rerun it only for a change that is meant to
alter results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    lo, hi = (int(s) for s in args.seeds.split("-"))

    run._import_program()
    from workloads import WORKLOADS

    out: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=run.ROOT) as workdir:
        for name, cls in WORKLOADS.items():
            for seed in range(lo, hi + 1):
                wl = cls(seed)
                wl.workdir = workdir
                wl.setup()
                res = wl.op(0)
                if res.gate_failures:
                    raise SystemExit(f"{name} seed {seed}: {res.gate_failures}")
                out.setdefault(name, {})[str(seed)] = res.quality
                print(name, seed, res.quality, file=sys.stderr)
    with open(run.REFERENCE_PATH, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
