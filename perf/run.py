#!/usr/bin/env python3
"""Build perf/main.exe from source, then run it with this script's arguments.

Run from the root of a checkout:

    python3 perf/run.py --workload lib-read --seed 42 --seconds 10 --trace 0

Everything the build writes stays inside the checkout: dune's build tree
goes to _build and its shared cache is disabled. The build log goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero, without a result, when the build fails (for
example in a directory that holds the benchmark but not the program).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, "_build", ".xdg-cache")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perf/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perf/run.py: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perf", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
