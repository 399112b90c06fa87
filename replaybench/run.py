#!/usr/bin/env python3
"""Build and run the replay benchmark from the repository root.

    python3 replaybench/run.py --workload replay-2app --seed 42 --seconds 30 --trace 0

Builds the benchmark binary (its own Go module in this directory) and
mistral-sim from the checkout's sources into the build directory
($CARGO_TARGET_DIR, default .bench_build), with every Go cache kept
inside it, then runs the benchmark with the given arguments. The last
line of standard output is the result JSON; the exit status is the
benchmark's.
"""

import hashlib
import os
import subprocess
import sys


def source_id(root):
    """Names the sources being measured: the git commit when there is one,
    otherwise a hash over the Go sources."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def file_sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("run.py: %s holds no program sources (go.mod, internal/); run from the repository root" % root,
              file=sys.stderr)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    dirs = {name: os.path.join(build, name) for name in ("bin", "gocache", "gopath", "tmp", "config", "state")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=dirs["gocache"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        GOTMPDIR=dirs["tmp"],
        TMPDIR=dirs["tmp"],
        XDG_CONFIG_HOME=dirs["config"],  # go env file and telemetry
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    bench_bin = os.path.join(dirs["bin"], "replaybench")
    sim_bin = os.path.join(dirs["bin"], "mistral-sim")
    for cwd, out, pkg in ((here, bench_bin, "."), (root, sim_bin, "./cmd/mistral-sim")):
        built = subprocess.run(["go", "build", "-trimpath", "-o", out, pkg], cwd=cwd, env=env)
        if built.returncode != 0:
            print("run.py: go build %s failed" % pkg, file=sys.stderr)
            return built.returncode

    # Decision digests are kept per benchmark binary, so runs of one build
    # must agree and a rebuilt program starts afresh.
    state = os.path.join(dirs["state"], file_sha(bench_bin)[:16])
    os.makedirs(state, exist_ok=True)
    # The benchmark replaces this process, so it receives signals directly
    # and leaves nothing behind.
    argv = [bench_bin] + sys.argv[1:] + ["--sim-bin", sim_bin, "--state-dir", state, "--commit", source_id(root)]
    sys.stdout.flush()
    os.execve(bench_bin, argv, env)


if __name__ == "__main__":
    sys.exit(main())
