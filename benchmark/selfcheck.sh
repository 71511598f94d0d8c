#!/usr/bin/env bash
# Does the benchmark repeat on this box? Runs it the way the driver
# does — BENCHMARK.json's command, one workload per invocation, a new
# --seed per run — 2 x 5 times, alternating two sets (A B A B ...), so
# both sets span the same stretch of time. Then, per workload and
# end-to-end metric: both sets' medians and quartiles, their relative
# gap, and the spread (interquartile range over the median) of all ten
# runs. Exits nonzero if a gap exceeds the metric's bound.
#
#   bash benchmark/selfcheck.sh            # ~20 min; raw JSON of every run in benchmark/out/
#   bash benchmark/selfcheck.sh --report   # re-print the tables from the JSON already there
#
# The markdown it prints is what REPEATABILITY.md records.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
mkdir -p "$out"

if [ "${1:-}" != "--report" ]; then
  rm -f "$out"/selfcheck-*.json
  seconds=$(python3 -c "import json; print(json.load(open('BENCHMARK.json'))['run_seconds'])")
  mapfile -t command < <(python3 -c "import json; print('\n'.join(json.load(open('BENCHMARK.json'))['command']))")
  mapfile -t workloads < <(python3 -c "import json; print('\n'.join(w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']))")
  for run in 1 2 3 4 5 6 7 8 9 10; do
    set_name=$([ $((run % 2)) = 1 ] && echo A || echo B)
    for w in "${workloads[@]}"; do
      echo "run $run (set $set_name) $w" >&2
      "${command[@]}" --workload "$w" --seed "$run" --seconds "$seconds" --trace 0 \
        | tail -n 1 > "$out/selfcheck-$set_name-$run-$w.json"
    done
  done
fi

python3 - "$out" <<'EOF'
import glob, json, re, statistics, sys

out = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}
runs = {}  # (workload, metric) -> {set: [(run, value)]}
incorrect = []
for path in sorted(glob.glob(f"{out}/selfcheck-*.json")):
    set_name, run, workload = re.match(r".*selfcheck-([AB])-(\d+)-(.+)\.json", path).groups()
    result = json.load(open(path))
    if not result["correct"] or result["failed"]:
        incorrect.append(path)
    for name, m in result["metrics"].items():
        runs.setdefault((workload, name), {}).setdefault(set_name, []).append((int(run), m["value"]))
if not runs:
    sys.exit("no selfcheck-*.json under " + out)

def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]

print("| workload | metric | set A q1 / median / q3 | set B q1 / median / q3 | gap B vs A | spread of all runs | bound |")
print("|---|---|---|---|---|---|---|")
worst = []
for (workload, name), sets in sorted(runs.items()):
    a = [v for _, v in sorted(sets.get("A", []))]
    b = [v for _, v in sorted(sets.get("B", []))]
    if len(a) < 2 or len(b) < 2:
        sys.exit(f"{workload}/{name}: a set has fewer than two runs")
    qa, qb, qall = quartiles(a), quartiles(b), quartiles(a + b)
    # Positive = B worse than A, in the metric's own direction.
    gap = (qb[1] - qa[1]) / qa[1]
    if bounds[name]["better"] == "higher":
        gap = -gap
    spread = (qall[2] - qall[0]) / qall[1]
    bound = bounds[name]["bound"]
    flag = " **over**" if abs(gap) > bound else ""
    if abs(gap) > bound:
        worst.append(f"{workload}/{name}: gap {gap:+.1%} exceeds bound {bound:.0%}")
    fmt = lambda q: " / ".join(f"{x:.5g}" for x in q)
    print(f"| {workload} | {name} | {fmt(qa)} | {fmt(qb)} | {gap:+.1%}{flag} | {spread:.1%} | {bound:.0%} |")

print()
print("| workload | metric | " + " | ".join(f"run {r}" for r in range(1, 11)) + " |")
print("|---|---|" + "---|" * 10)
for (workload, name), sets in sorted(runs.items()):
    by_run = dict(sets.get("A", []) + sets.get("B", []))
    print(f"| {workload} | {name} | " + " | ".join(f"{by_run[r]:.5g}" if r in by_run else "" for r in range(1, 11)) + " |")

for line in worst + [f"not correct: {p}" for p in incorrect]:
    print(line, file=sys.stderr)
sys.exit(1 if worst or incorrect else 0)
EOF
