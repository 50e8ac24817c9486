#!/usr/bin/env bash
# Same-host interleaved A/B of two revisions, judged by the benchmark's
# own bounds:
#
#   benchmark/ab.sh REV_A REV_B [--pairs N] [--workload NAME] [--seconds S] [--seed N]
#
# Both revisions are checked out (git archive) under benchmark/out/ab/,
# the *current* benchmark/ sources are built against each, and N pairs
# of passes run one after another, alternating which side goes first;
# pair i gives both sides seed SEED+i. `compare` then prints, per
# workload and metric, both medians and quartiles, the ratio with its
# base, the share of pairs won, and improved / unchanged / unresolved /
# worse. A gain may be claimed from ten pairs or more.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(git -C "$dir" rev-parse --show-toplevel)"
[ $# -ge 2 ] || { sed -n '2,14p' "${BASH_SOURCE[0]}" >&2; exit 2; }
revs=("$1" "$2")
shift 2

pairs=10
seed=42
pass_args=()
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    # --sets 1 makes run.sh start a fresh process for the one workload
    # and write a results file, as it does for a pass over all of them.
    --workload) pass_args+=(--workload "$2" --sets 1); shift 2 ;;
    --seconds) pass_args+=(--seconds "$2"); shift 2 ;;
    *) echo "ab.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
[ "$pairs" -ge 10 ] || echo "ab.sh: fewer than ten pairs: read the verdicts, claim nothing" >&2

work="$dir/out/ab"
rm -rf "$work"
sides=(A B)
for i in 0 1; do
    tree="$work/${sides[$i]}"
    mkdir -p "$tree"
    git -C "$repo" archive "${revs[$i]}" | tar -x -C "$tree"
    rm -rf "$tree/benchmark"
    mkdir "$tree/benchmark"
    tar -C "$dir" --exclude=./target --exclude=./out -c . | tar -x -C "$tree/benchmark"
    echo "ab.sh: building ${sides[$i]} = ${revs[$i]}" >&2
    (cd "$tree" && CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh manifest >/dev/null)
done

one_pass() { # side seed
    (cd "$work/$1" && CARGO_TARGET_DIR=.bench_build bash benchmark/run.sh \
        --seed "$2" --out "$work/$1.json" --append ${pass_args[@]+"${pass_args[@]}"} >"$work/$1.last.log") ||
        { echo "ab.sh: a pass of $1 failed, see $work/$1.last.log" >&2; exit 1; }
}
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(A B); else order=(B A); fi
    echo "ab.sh: pair $i of $pairs (${order[*]})" >&2
    for side in "${order[@]}"; do one_pass "$side" $((seed + i)); done
done

exec "$work/A/.bench_build/release/iq-benchmark" compare "$work/A.json" "$work/B.json"
