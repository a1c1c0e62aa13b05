#!/usr/bin/env bash
# Runs every workload once, from the repository root, and exits non-zero if
# any run failed a check:
#   bash perfbench/all.sh [seed] [seconds] [trace]
set -uo pipefail
status=0
for w in rr-get scan-cluster set-storm; do
	bash perfbench/run.sh --workload "$w" --seed "${1:-1}" --seconds "${2:-10}" --trace "${3:-0}" || status=1
done
exit "$status"
