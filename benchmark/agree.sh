#!/usr/bin/env bash
# Runs the full set of workloads twice on the same build and prints, per
# workload and end-to-end metric, both values, the relative difference
# (second against first, signed so that positive is worse) and the
# metric's bound: the evidence for the agreement criterion, and the tool
# a reviewer reruns.
#
#   bash benchmark/agree.sh [seconds] [seed]
#
# Both sets use the same seed, so the virtual-time metrics of sim_*
# (gb_s, lat_*) must agree to the last digit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seconds="${1:-20}"
seed="${2:-1}"
cd "$root"
exec python3 - "$seconds" "$seed" <<'EOF'
import json, subprocess, sys

seconds, seed = sys.argv[1], sys.argv[2]
doc = json.load(open("BENCHMARK.json"))

def run(workload):
    out = subprocess.run(doc["command"] + ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", "0"],
                         capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("%s failed:\n%s%s" % (workload, out.stdout, out.stderr))
    final = json.loads(out.stdout.strip().splitlines()[-1])
    if not final["correct"] or final["failed"]:
        sys.exit("%s: incorrect run: %s" % (workload, final))
    return {k: v["value"] for k, v in final["metrics"].items()}

sets = [{w["name"]: run(w["name"]) for w in doc["workloads"]} for _ in range(2)]
virtual = {"gb_s", "lat_p50_us", "lat_p99_us"}
bad = 0
print("%-12s %-14s %14s %14s %9s %6s" % ("workload", "metric", "first", "second", "worse by", "bound"))
for w in doc["workloads"]:
    for m in doc["end_to_end"]:
        a, b = sets[0][w["name"]][m["name"]], sets[1][w["name"]][m["name"]]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        note = ""
        if w["name"].startswith("sim_") and m["name"] in virtual:
            note = "identical" if a == b else "VIRTUAL TIME DIFFERS"
            bad += a != b
        elif worse > m["bound"]:
            note = "OUTSIDE BOUND"
            bad += 1
        print("%-12s %-14s %14.6g %14.6g %+8.2f%% %5.0f%%  %s" % (w["name"], m["name"], a, b, 100 * worse, 100 * m["bound"], note))
sys.exit(1 if bad else 0)
EOF
