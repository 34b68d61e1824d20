#!/usr/bin/env bash
# A/A harness: runs every workload N times (default 10) back to back, each
# run with another seed, using the command in BENCHMARK.json, and prints per
# workload and end-to-end metric the median, min, max, the quartile spread
# (Q3-Q1)/median and the range (max-min)/median next to the metric's bound.
# A spread above a third of the bound is marked "noisy".
#
#   benchmark/aa.sh [N] [first-seed]      (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-1}" <<'EOF'
import json, statistics, subprocess, sys

runs, first_seed = int(sys.argv[1]), int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
print(f"| workload | metric | unit | median | min | max | IQR/median | range/median | bound | |")
print(f"|---|---|---|---|---|---|---|---|---|---|")
for workload in (w["name"] for w in spec["workloads"]):
    values, units = {}, {}
    for seed in range(first_seed, first_seed + runs):
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{workload} seed {seed}: {result['failed']} operations failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        flag = "noisy" if spread > bounds[name] / 3 else "ok"
        print(f"| {workload} | {name} | {units[name]} | {median:.4g} | {min(v):.4g} | {max(v):.4g} "
              f"| {spread:.2%} | {(max(v) - min(v)) / median:.2%} | {bounds[name]:.0%} | {flag} |",
              flush=True)
EOF
