#!/usr/bin/env python3
"""Builds and runs the ArckFS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds two binaries from source into
$CARGO_TARGET_DIR (default .bench_build): `perfbench`, and
`perfbench-traced` with the `obs` stage histograms compiled in. Each
benchmark process is pinned to one CPU: the simulator runs one sim-thread
at a time, so handing control between host threads on different cores
only adds noise to the host-time metrics.

With --trace 1, the untraced binary runs the workload once first and
writes its end-to-end metrics; the traced run then checks that tracing
left every virtual-time metric unchanged and reports the host-time
overhead. The last line on stdout is the JSON result of the last run.
"""

import os
import subprocess
import sys

PKG = "perfbench"
OUT = os.path.join(PKG, "out")


def build(target_dir, features, binary):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PKG, "Cargo.toml"), "--bin", binary]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout carries only the results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target_dir, "release", binary)


def pin_to_one_cpu():
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})


def run(binary, args, stdout):
    return subprocess.run([binary] + args, stdout=stdout).returncode


def main():
    args = sys.argv[1:]
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    plain = build(target_dir, None, "perfbench")
    traced = build(target_dir, "obs", "perfbench-traced")
    os.makedirs(OUT, exist_ok=True)
    os.environ["TRIO_OBS_TIMELINE"] = os.path.join(OUT, "obs-timeline.json")
    pin_to_one_cpu()

    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"
    if not trace:
        sys.exit(run(plain, args, None))

    # Untraced reference run: one repetition, its report to stderr.
    e2e = os.path.join(OUT, "untraced-e2e.txt")
    base = [a for i, a in enumerate(args) if a != "--trace" and (i == 0 or args[i - 1] != "--trace")]
    if os.path.exists(e2e):
        os.remove(e2e)
    run(plain, base + ["--trace", "0", "--min-reps", "1", "--seconds", "0", "--e2e-out", e2e],
        sys.stderr)
    # A run that fails its output checks still writes its metrics; trace it
    # too, so the per-layer view of the failure is there.
    if not os.path.exists(e2e):
        sys.exit("perfbench: the untraced reference run wrote no metrics")
    sys.exit(run(traced, args + ["--compare", e2e, "--out", OUT], None))


if __name__ == "__main__":
    main()
