#!/usr/bin/env bash
# Repeatability check: runs N full sets back to back — every workload,
# R end-to-end runs each with another seed — then prints, per (workload,
# metric), each set's median and spread, the largest worsening between
# two sets' medians, and PASS/FAIL against the metric's bound.
#
#   bash bench/repeat.sh [sets=3] [runs-per-workload=10]
#
# The machine must be otherwise idle. REPEATABILITY.md is the output of
# one such session.
set -euo pipefail
sets="${1:-3}"
runs="${2:-10}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build/repeat"
rm -rf "$out"
mkdir -p "$out"
workloads="uts kmeans fft ra finish wire-small wire-large"
files=()
for set in $(seq 1 "$sets"); do
	file="$out/set$set.jsonl"
	files+=("$file")
	for w in $workloads; do
		for i in $(seq 1 "$runs"); do
			seed=$(((set - 1) * runs + i))
			bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 --out "$file" >/dev/null
		done
	done
done
bash "$here/run.sh" --compare "${files[@]}"
