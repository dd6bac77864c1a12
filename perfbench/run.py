#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ht-hoh --seed 1 --seconds 10 --trace 0

The script builds the perfbench Go module (perfbench/go.mod, which uses the
repository's module through a local replace) into the build directory, then
runs it with the given arguments and passes its output through. The last
line of standard output is the benchmark's JSON result. Everything the build
and the run write stays in the build directory: $CARGO_TARGET_DIR if set,
else .bench_build, relative to the checkout root.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-buildvcs=false", "-o", binary, "."],
            cwd=here, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print(f"perfbench: build failed:\n{built.stderr}", file=sys.stderr)
        return 1

    cmd = [binary, *sys.argv[1:], "--out", os.path.join(build, "perfbench")]
    try:
        ran = subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
