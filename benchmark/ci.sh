#!/usr/bin/env bash
# Smoke check of the benchmark itself, under half a minute once built:
# the harness's tests, BENCHMARK.json against the tables it is generated
# from, and a quick traced pass, whose result lines the harness checks
# name by name against those tables. Not yet wired into
# .github/workflows/ci.yml; the PR that added the benchmark could not
# touch that file.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$dir/target}"

cargo test --offline --quiet --manifest-path "$dir/Cargo.toml" --target-dir "$target"
bash "$dir/run.sh" manifest | cmp - "$dir/../BENCHMARK.json"
bash "$dir/run.sh" --quick --trace
echo "benchmark ci: ok"
