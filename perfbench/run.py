#!/usr/bin/env python3
"""Build the benchmark and run one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (a standalone Cargo
package that depends on the repository's crates by path) in release mode
into `$CARGO_TARGET_DIR` (default `.bench_build`), runs it, and checks that
its last output line names exactly the metrics `BENCHMARK.json` declares
for the mode (`end_to_end` untraced, `per_layer` traced). Exits non-zero,
without a result line, if the build fails or the result does not match;
otherwise exits with the benchmark's own code (non-zero when an output
check failed).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end well inside the 180 s a caller allows it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 900


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if traced else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, traced):
    """Why `line` is not a well-formed result for this mode, or None."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is not a positive integer"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed is not a non-negative integer"
    want = expected_metrics(traced)
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got.items())} != BENCHMARK.json {sorted(want.items())}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            return f"metric {name} has no numeric value"
    return None


def main(argv):
    traced = "--trace" in argv and argv[argv.index("--trace") + 1 :][:1] == ["1"]
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"build: {e}")
    if built.returncode != 0:
        return fail("build failed")
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe] + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run: {e}")
    lines = run.stdout.splitlines()
    if not lines:
        return fail(f"no output (exit code {run.returncode})")
    why = check_result(lines[-1], traced)
    if why is not None:
        for line in lines:
            print(line, file=sys.stderr)
        return fail(why)
    for line in lines:
        print(line)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
