#!/usr/bin/env bash
# Two sets of N runs of every workload, alternated (A B A B ...) so that both
# sets see the same drift of the machine, each run with another seed; then the
# --compare table of the two sets.
#
#   benchmark/repeat.sh N [DIR]      # writes DIR/A.jsonl and DIR/B.jsonl
#
# DIR defaults to benchmark/out/repeat. To compare two commits instead, run
# this once per commit with N runs and compare one file of each.
set -euo pipefail
cd "$(dirname "$0")/.."
n=${1:?usage: benchmark/repeat.sh N [DIR]}
dir=${2:-benchmark/out/repeat}
mkdir -p "$dir"
: > "$dir/A.jsonl"
: > "$dir/B.jsonl"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/benchmark

for i in $(seq 1 "$n"); do
  for set in A B; do
    # Another seed for every run of every set, as whoever judges the
    # benchmark's steadiness will use.
    if [ "$set" = A ]; then seed=$i; else seed=$((1000 + i)); fi
    for w in serial_wide ptd222_thread proc222_uds dp2_fat; do
      result=$("$bin" --workload "$w" --seed "$seed" | tail -n 1)
      printf '{"workload":"%s","seed":%d,"result":%s}\n' "$w" "$seed" "$result" >> "$dir/$set.jsonl"
      echo "run $i set $set $w done" >&2
    done
  done
done
"$bin" --compare "$dir/A.jsonl" "$dir/B.jsonl"
