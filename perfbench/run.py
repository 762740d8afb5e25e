#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload kernels|large|serve --seed N \
        --seconds S --trace 0|1

The benchmark is perfbench/main.exe, built with dune (release profile)
into the checkout's _build directory; every argument is passed through
to it.  Its last line of standard output is the result object.  Build
output goes to standard error.  Exits non-zero, without printing a
result, when the repository's sources are missing or the build or the
run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout of the repository "
             "(dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "-j", "2",
         "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = run.stdout.decode()
    if run.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % run.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
