#!/usr/bin/env bash
# The repo benchmark: builds the harness offline and runs it.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--trace]
#                    [--quick] [--sets N] [--out FILE] [--append]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh manifest
#
# With --workload the workload is measured in the process this script
# becomes (the form the driver of BENCHMARK.json calls); otherwise each
# workload runs in a fresh process of its own, one after another. Run
# it from the root of a checkout: the harness depends on ../crates by
# path, and writes only under benchmark/out/.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
# A relative CARGO_TARGET_DIR is relative to the caller's directory.
target="${CARGO_TARGET_DIR:-$dir/target}"

# Build messages go to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" --target-dir "$target" >&2

case "${1-}" in
compare | manifest) exec "$target/release/iq-benchmark" "$@" ;;
*) exec "$target/release/iq-benchmark" --out-dir "$dir/out" "$@" ;;
esac
