#!/usr/bin/env python3
"""Build the host-performance benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload membound-sweep --seed 1 --seconds 30 --trace 0

Workloads: membound-sweep, population-sweep, simd-mixed. The Go build
cache, the binary and each run's scratch files (result cache, CPU
profile, spans) live under .bench_build/ in the repository root, and the
go command's own state is pointed there too, so nothing is written
outside the checkout. The last line of standard output is the JSON
result; see perfbench/metrics.json for what each metric means.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    # The go command's output goes to stderr: standard output carries
    # only the benchmark's report, whose last line is the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(2)
    args = [binary] + sys.argv[1:] + ["--workdir", os.path.join(build, "work")]
    os.chdir(root)
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
