#!/usr/bin/env bash
# Build the benchmark offline and run it. See benchmark/README.md.
#
#   benchmark/run.sh                          every workload, end-to-end metrics
#   benchmark/run.sh --trace 1                ... then the traced per-layer pass
#   benchmark/run.sh --aa                     A/A noise check (exit 1 if a pair exceeds its bound)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                             one workload; last stdout line is the result JSON
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# started from; find the binary the same way.
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/aoj-benchmark" "$@"
