#!/usr/bin/env bash
# Smoke check for CI (kept here because .github/ is outside the benchmark's
# directories): the unit tests, then `--smoke` — one untraced and one traced
# round of 3 iterations per workload and one call per probe, checked against
# BENCHMARK.json (every declared metric printed once with its unit,
# well-formed names, shares that sum to 1). Under a minute after the build.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
