#!/usr/bin/env bash
# Builds the benchmark offline and runs it. All arguments go to the binary:
#
#   ./benchmark/run.sh                      all workloads, one process each
#   ./benchmark/run.sh --trace 1            ... plus a traced run of each
#   ./benchmark/run.sh --sets 5             five full sets, spread per metric
#   ./benchmark/run.sh --check              smoke mode (tiny passes)
#   ./benchmark/run.sh --workload gen_long --seed 24301 --seconds 12 --trace 0
#   ./benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/rkvc-benchmark" "$@"
