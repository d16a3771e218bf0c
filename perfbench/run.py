#!/usr/bin/env python3
"""End-to-end benchmark of the LegoSDN stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload faults-k4 --seed 1 --seconds 55 --trace 0

Builds perfbench/main.exe with dune (the first run compiles the
repository, later runs find it up to date), prints the source revision,
OCaml version and CPU count, then runs the benchmark. With --trace 0 the
last line of standard output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer ledger. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("flowsetup-k4", "arpdir-k16", "faults-k4", "intent-k4")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Each run must finish well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a LegoSDN checkout (dune-project and lib/ not found)")

    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(build.stdout)
        fail("build failed")

    print(f"# rev {source_rev()} nproc {os.cpu_count()}", flush=True)
    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
