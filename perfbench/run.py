#!/usr/bin/env python3
"""Build the cme suite and its benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 10 --trace 0

Workloads: search_cold, serve_near_miss, serve_hot. `--trace 1` reports
the per-layer metrics instead of the end-to-end ones. Both builds go to
`$CARGO_TARGET_DIR` (default `.bench_build`); spans of traced runs are
written under `perfbench/out/`. The last line of standard output is the
result as one JSON object. Exit status: 0 when every check passed, 1 when
a correctness check failed, 2 when the build or the run could not be done.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

# A run measures at most a few minutes; anything longer is a hang.
RUN_TIMEOUT_S = 175


def build(cmd, env):
    # Cargo's progress goes to stderr so stdout ends with the result line.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(2)


def main():
    here = Path(__file__).resolve().parent
    root = here.parent
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    for manifest, extra in ((root / "Cargo.toml", ["--bin", "cme"]), (here / "Cargo.toml", [])):
        if not manifest.is_file():
            print(f"perfbench: {manifest} is missing", file=sys.stderr)
            sys.exit(2)
        build(["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra], env)

    cmd = [str(target / "release" / "perfbench"), *sys.argv[1:],
           "--cme", str(target / "release" / "cme"), "--out", str(here / "out")]
    # A session of its own, so a hung or interrupted run can be stopped
    # with every server it started.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main()
