#!/usr/bin/env python3
"""Build dvsim and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload suite|batch|serve --seed N --seconds S --trace 0|1

Run from the root of a checkout. Everything the build and the run write
stays under .bench_build/ in the checkout: binaries, the Go build cache,
and per-run rows, spans, profiles and summaries. The last line of
standard output is the run's JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
    })
    for d in (bindir, env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    args = sys.argv[1:]
    trace = "--trace=1" in args or any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    builds = [
        (root, ["./cmd/dvsim", "./cmd/dvsimd"]),
        (os.path.join(root, "perfbench"), ["."] + (["./probe"] if trace else [])),
    ]
    for cwd, pkgs in builds:
        if not os.path.isfile(os.path.join(cwd, "go.mod")):
            sys.exit("run.py: %s is not a Go module; run from the root of a dvsim checkout" % cwd)
        r = subprocess.run(["go", "build", "-o", bindir + os.sep] + pkgs, cwd=cwd, env=env,
                           stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("run.py: go build %s failed" % " ".join(pkgs))
    exe = os.path.join(bindir, "perfbench")
    os.execve(exe, [exe, "-root", root, "-bin", bindir] + args, env)


if __name__ == "__main__":
    main()
