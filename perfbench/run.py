#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload put-churn --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files and the binary stay under
.bench_build/ in the current directory. The benchmark's exit code is
returned unchanged; a failed build exits 3 without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-buildvcs=false",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    if shutil.which("go") is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 3
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    # The benchmark's own stdout goes straight through, so its JSON result
    # stays the last line.
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
