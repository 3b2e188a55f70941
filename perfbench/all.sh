#!/usr/bin/env bash
# Runs every workload once with the given seed (default 1) and prints each
# end-to-end metric with its unit:
#
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail

seed=${1:-1}
seconds=${2:-30}
for w in warm-resolve cold-resolve register-churn; do
  bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 |
    python3 -c '
import json, sys
w = sys.argv[1]
r = json.load(sys.stdin)
print(f"{w}: correct={r[\"correct\"]} attempted={r[\"attempted\"]} failed={r[\"failed\"]}")
for k, v in sorted(r["metrics"].items()):
    print(f"  {k:24s} {v[\"value\"]:14.3f} {v[\"unit\"]}")
' "$w"
done
