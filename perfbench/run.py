#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload bootstrap_ladder|serve_query|serve_churn \
        --seed N --seconds S --trace 0|1

The workloads, their metrics and bounds are declared in BENCHMARK.json
at the repository root. Build output goes to stderr; the last line on
stdout is the run's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["perfbench/spbench.exe", "bin/spannerd.exe"]


def main():
    os.chdir(ROOT)
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            print(f"perfbench: no {needed} here: run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--display", "quiet", *TARGETS],
                           stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "spbench.exe")
    os.execve(exe, [exe, *sys.argv[1:]], env)


if __name__ == "__main__":
    sys.exit(main())
