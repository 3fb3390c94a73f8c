#!/usr/bin/env python3
"""Build the qsub benchmark from source and run it.

Usage, from the repository root:

    python3 qsubbench/run.py --workload fanout-direct --seed 1 --seconds 20 --trace 0

The benchmark is the Go module in this directory. It is built into
.bench_build/ at the repository root, with the Go build cache, module
cache and temporary files kept there too, so a run reads and writes
nothing outside the checkout. All arguments are passed to the built
program; its standard output, whose last line is the JSON result, is
passed through unchanged. A failed build exits non-zero without a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, ".bench_build", "qsubbench")

# A run must finish well inside the three minutes the harness allows.
RUN_TIMEOUT_S = 175


def source_revision():
    """The git commit when there is one, else a digest of the Go sources."""
    try:
        out = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        top, head = out.stdout.split()
        if os.path.realpath(top) == os.path.realpath(REPO):
            return head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(REPO):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(top, name)
                digest.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
    })
    return env


def main():
    for sub in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "qsubbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("qsubbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "-commit", source_revision(),
            "-trace-dir", os.path.join(BUILD, "traces")] + sys.argv[1:]
    proc = subprocess.Popen(args, cwd=REPO, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("qsubbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
