#!/usr/bin/env python3
"""Build and run the fedoq-e2e benchmark from the root of a checkout.

    python3 fedoq-e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs q1-repeat, gen-scan and live-churn in turn and
exits nonzero if any of them does.

Builds the `fedoq-site` and `fedoq-serve` daemons from the repository's
workspace and the benchmark binary from this package, both into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark.
Build output goes to standard error; the benchmark's last line of
standard output is its JSON summary. Exits nonzero, without a summary,
when the checkout does not hold the repository's sources.
"""

import os
import subprocess
import sys

WORKLOADS = ("q1-repeat", "gen-scan", "live-churn")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    for needed in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "wire", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"fedoq-e2e: {needed} not found in {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "fedoq-wire", "--bin", "fedoq-site", "--bin", "fedoq-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            print(f"fedoq-e2e: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    bin_dir = os.path.join(target, "release")
    cmd = [os.path.join(bin_dir, "fedoq-e2e"), *sys.argv[1:],
           "--bin-dir", bin_dir, "--out-dir", os.path.join(target, "fedoq-e2e")]
    os.chdir(ROOT)
    at = cmd.index("--workload") + 1 if "--workload" in cmd else len(cmd)
    if cmd[at:at + 1] != ["all"]:
        os.execv(cmd[0], cmd)
    worst = 0
    for workload in WORKLOADS:
        worst = max(worst, subprocess.run(cmd[:at] + [workload] + cmd[at + 1:]).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
