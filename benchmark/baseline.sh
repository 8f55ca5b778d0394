#!/usr/bin/env bash
# Records how well the benchmark repeats: two sets of runs of every
# workload, one run per seed (seeds 1..N, then N+1..2N), plus one traced
# run per workload and set.
# Writes, per workload and end-to-end metric, each set's values, median
# and quartile spread ((Q3 - Q1) / median), and the change between the
# two sets' medians; per traced metric, both sets' values, whether the
# search and mask counts repeated exactly, and how far the allocation
# counts moved.
#
#   bash benchmark/baseline.sh OUT.json [SEEDS_PER_SET] [SECONDS]
#
# Run from the repository root; raw outputs stay under $CARGO_TARGET_DIR.
set -euo pipefail

out="$1"
seeds="${2:-10}"
seconds="${3:-12}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
raw="$CARGO_TARGET_DIR/baseline-runs"
rm -rf "$raw"
mkdir -p "$raw"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for set in 1 2; do
  for w in $workloads; do
    for seed in $(seq $(( (set - 1) * seeds + 1 )) $(( set * seeds ))); do
      bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
        > "$raw/$set.$w.$seed.e2e"
    done
    bash benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 1 \
      > "$raw/$set.$w.1.trace"
  done
done

python3 - "$raw" "$out" "$seeds" "$seconds" <<'EOF'
import json, os, statistics, sys

raw, out, seeds, seconds = sys.argv[1], sys.argv[2], int(sys.argv[3]), float(sys.argv[4])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}

def load(path):
    lines = open(path).read().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])

def summary(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "spread": (q[2] - q[0]) / med if med else None}

result = {"seeds_per_set": seeds, "seconds": seconds, "workloads": {}}
for w in [x["name"] for x in spec["workloads"]]:
    sets, provenance = {}, None
    for s in (1, 2):
        runs = [load(f"{raw}/{s}.{w}.{seed}.e2e")
                for seed in range((s - 1) * seeds + 1, s * seeds + 1)]
        assert all(r[1]["correct"] for r in runs), f"{w}: a run failed its correctness gate"
        provenance = runs[0][0]
        sets[s] = {m: [r[1]["metrics"][m]["value"] for r in runs] for m in bounds}
    metrics = {}
    for m, b in bounds.items():
        a, c = summary(sets[1][m]), summary(sets[2][m])
        change = (c["median"] - a["median"]) / a["median"]
        worse = change if b["better"] == "lower" else -change
        metrics[m] = {"unit": b["unit"], "better": b["better"], "bound": b["bound"],
                      "set1": a, "set2": c, "median_change": change,
                      "within_bound": worse <= b["bound"]
                                      and (m == "setup_s" or max(a["spread"], c["spread"]) <= b["bound"])}
    traces = {s: load(f"{raw}/{s}.{w}.1.trace")[1]["metrics"] for s in (1, 2)}
    value = lambda s, k: traces[s][k]["value"]
    # Search and mask counts must repeat exactly. Allocation counts may
    # differ by a hash-table rehash: the engine's std HashMaps use random
    # keys, so when a resize happens varies from process to process.
    counts = [k for k in traces[1] if k.startswith("core.search.") or k in (
        "rwa.engine.mask_flips_per_op", "rwa.engine.blocked_capacity_ratio",
        "rwa.engine.blocked_no_path_ratio")]
    allocs = [k for k in traces[1] if k.endswith("_allocs")]
    result["workloads"][w] = {
        "provenance": {k: provenance[k] for k in
                       ("commit", "profile", "nproc", "pinned_cpu", "seconds", "connections",
                        "live_cap", "launches", "warmup_s", "slice_s", "statistic")},
        "end_to_end": metrics,
        "trace": {"set1": {k: value(1, k) for k in traces[1]},
                  "set2": {k: value(2, k) for k in traces[2]},
                  "identical_counts": all(value(1, k) == value(2, k) for k in counts),
                  "alloc_max_relative_difference": max(
                      abs(value(2, k) - value(1, k)) / value(1, k) for k in allocs)},
    }
json.dump(result, open(out, "w"), indent=1)
print(out)
EOF
