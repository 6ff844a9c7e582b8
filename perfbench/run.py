#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <generate|decide|evaluate|serve|all> \
        --seed <n> --seconds <s> --trace <0|1>

The Go program in perfbench/ is built from source with its build cache under
.bench_build/, so a run reads and writes only inside the checkout. The
program's standard output, whose last line is the JSON result, passes
through unchanged; the exit code is the program's.
"""
import os
import subprocess
import sys


def git_commit(root):
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=root,
                             capture_output=True, text=True, timeout=30)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode)
    ran = subprocess.run([binary, "-root", root, "-commit", git_commit(root)] + sys.argv[1:],
                         env=env)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
