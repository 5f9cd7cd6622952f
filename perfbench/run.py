#!/usr/bin/env python3
"""Build calq and the served-store benchmark from this checkout, then run
one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to standard error.
"""

import os
import subprocess
import sys

# Tuning variables the served program would otherwise read: the benchmark
# measures calq at its defaults.
CLEARED = ("CALRULES_DOMAINS", "CALRULES_JOURNAL_GROUP")


def clean_env():
    return {
        k: v
        for k, v in os.environ.items()
        if k not in CLEARED and not k.startswith("CALQ_")
    }


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    needed = ("dune-project", os.path.join("bin", "calq.ml"), "lib")
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(
            "perfbench: no calq sources here (missing %s); run from a checkout"
            % ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    env = clean_env()
    build = subprocess.run(
        ["dune", "build", "--root", root, "./bin/calq.exe", "./perfbench/bench.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    bench = os.path.join("_build", "default", "perfbench", "bench.exe")
    calq = os.path.join("_build", "default", "bin", "calq.exe")
    run = subprocess.run([bench, "--calq", calq] + argv, cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
