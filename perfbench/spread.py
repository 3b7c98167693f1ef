#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 perfbench/spread.py <workload> <runs> [first_seed]

Runs `perfbench/run.py` untraced `runs` times, each with the next seed,
and prints per metric the median and the quartile spread (third minus
first quartile over the median, as `statistics.quantiles(values, n=4)`
gives them) against a third of the metric's bound in `BENCHMARK.json`.
Exits non-zero if a run fails or a spread other than `setup_s`'s reaches
its bound.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    workload, runs = argv[0], int(argv[1])
    first = int(argv[2]) if len(argv) > 2 else 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    ok = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread < m["bound"] else "OVER")
        if m["name"] != "setup_s" and spread >= m["bound"]:
            ok = False
        print(f"{m['name']:22s} median {med:.6g} spread {spread:.4f} bound/3 {m['bound'] / 3:.4f} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
