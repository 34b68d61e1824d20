#!/usr/bin/env bash
# One command: builds the runner, runs all four workloads untraced and then
# traced with the command in BENCHMARK.json, and prints every end-to-end
# metric by name with unit and bound, then the per-layer table. The runner's
# diagnostics (inputs, sample counts, output checks, host noise, trace file
# paths) pass through on standard error. Exits non-zero when any run fails an
# output check.
#
#   benchmark/run_all.sh [seed]      (from the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-42}" <<'EOF'
import json, subprocess, sys

seed = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
failed = False

def run(workload, trace):
    global failed
    cmd = spec["command"] + ["--workload", workload, "--seed", seed,
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{workload} --trace {trace}: no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    failed |= done.returncode != 0 or not result["correct"]
    return result

def table(results, metrics, with_bound):
    head = ["metric", "unit", "better"] + (["bound"] if with_bound else []) + workloads
    print("| " + " | ".join(head) + " |")
    print("|" + "---|" * len(head))
    for m in metrics:
        row = [m["name"], m["unit"], m["better"]] + ([f"{m['bound']:.0%}"] if with_bound else [])
        row += [f"{r['metrics'][m['name']]['value']:.4g}" for r in results]
        print("| " + " | ".join(row) + " |")
    ops = ["operations attempted / failed", "count", "lower"] + ([""] if with_bound else [])
    print("| " + " | ".join(ops + [f"{r['attempted']} / {r['failed']}" for r in results]) + " |")

untraced = [run(w, 0) for w in workloads]
traced = [run(w, 1) for w in workloads]
print(f"\nEnd-to-end metrics (untraced, seed {seed}, {spec['run_seconds']} s per workload)\n")
table(untraced, spec["end_to_end"], True)
print("\nPer-layer metrics (traced pass; 0 = not on the workload's path)\n")
table(traced, spec["per_layer"], False)
sys.exit(1 if failed else 0)
EOF
