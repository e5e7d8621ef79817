#!/usr/bin/env bash
# Thin wrapper kept for muscle memory: the experiment matrix is owned by
# the twoface-fleet driver (crates/fleet), which runs every bench bin and
# chaos sweep as a subprocess with a timeout and one retry, writes
# results/fleet_report.json, and diffs every results/*.json report against
# the committed baselines under baselines/results/.
#
#   ./run_all_experiments.sh                 # full matrix + baseline check
#   ./run_all_experiments.sh --filter fast   # the CI subset
#   ./run_all_experiments.sh --check         # diff-only regression gate
#   ./run_all_experiments.sh --bless         # accept current reports
set -euo pipefail
cd "$(dirname "$0")"
exec cargo run --release -p twoface-fleet -- "$@"
