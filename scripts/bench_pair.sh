#!/usr/bin/env bash
# Paired benchmark evidence: this checkout against BASE_REV, back to back.
#
#   scripts/bench_pair.sh BASE_REV [--workload W] [--pairs N] [--seed S] [--seconds T]
#
# Clones BASE_REV into a temporary directory (a plain `git clone`, never a
# worktree) and builds each side through its own `benchmark/run.sh`. Then
# runs N pairs, alternating which side goes first, and prints per run the
# end-to-end values, any FAILED check line and the host's steal share over
# the run (the change in /proc/stat steal ticks over total ticks).
#
# With --workload, each run is one untraced contract run of W, and a
# summary gives per metric both medians, both interquartile ranges and how
# many pairs this checkout won. Without it, each run is a whole suite
# (untraced and traced) and every pair ends with `run.sh compare base pr`.
set -euo pipefail

usage() { echo "usage: $0 BASE_REV [--workload W] [--pairs N] [--seed S] [--seconds T]" >&2; exit 2; }
[[ $# -ge 1 && $1 != --* ]] || usage
base_rev=$1; shift
workload="" pairs=2 seed=7 seconds=10
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --workload) workload=$2 ;; --pairs) pairs=$2 ;;
        --seed) seed=$2 ;; --seconds) seconds=$2 ;; *) usage ;;
    esac
    shift 2
done

pr=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp/base"' EXIT
git clone -q "$pr" "$tmp/base"
git -C "$tmp/base" checkout -q "$base_rev"
unset CARGO_TARGET_DIR # each side builds into its own benchmark/target
echo "base $(git -C "$tmp/base" rev-parse --short HEAD)  pr $(git -C "$pr" rev-parse --short HEAD)+worktree  seed $seed  raw output in $tmp"

for side in base pr; do
    dir=$tmp/base; [[ $side == pr ]] && dir=$pr
    # `compare` with no files builds, then exits with its usage line.
    bash "$dir/benchmark/run.sh" compare >/dev/null 2>"$tmp/build-$side.log" || true
    if grep -q '^error' "$tmp/build-$side.log"; then cat "$tmp/build-$side.log" >&2; exit 1; fi
done

# Steal and total ticks summed over all CPUs (/proc/stat's first line).
ticks() { awk '/^cpu /{ print $9, $2+$3+$4+$5+$6+$7+$8+$9 }' /proc/stat; }

metrics=$(grep -o '"name": "[a-z0-9_]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' "$pr/BENCHMARK.json" |
    awk -F'"' '{ print $4 ":" $12 }')
for ((i = 1; i <= pairs; i++)); do
    order="base pr"; ((i % 2 == 0)) && order="pr base"
    for side in $order; do
        dir=$tmp/base; [[ $side == pr ]] && dir=$pr
        out=$tmp/$side-$i
        read -r s0 t0 < <(ticks)
        if [[ -n $workload ]]; then
            bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$out.txt" 2>&1 || true
        else
            bash "$dir/benchmark/run.sh" --seed "$seed" --seconds "$seconds" --out "$out.json" >"$out.txt" 2>&1 || true
        fi
        read -r s1 t1 < <(ticks)
        echo "pair $i $side steal $(awk -v s=$((s1 - s0)) -v t=$((t1 - t0)) 'BEGIN { printf "%.3f", t ? s / t : 0 }')"
        for m in $metrics; do
            grep -E "^[a-z_]+ ${m%%:*} [0-9.e+-]+ .* n=" "$out.txt" | while read -r w name value _; do
                echo "  $w $name $value"
                echo "$i $side $name $value" >>"$tmp/values.tsv"
            done || true
        done
        grep FAILED "$out.txt" | sed 's/^/  /' || true
    done
    [[ -n $workload ]] || bash "$pr/benchmark/run.sh" compare "$tmp/base-$i.json" "$tmp/pr-$i.json" || true
done

[[ -n $workload ]] || exit 0
# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() { sort -g | awk '{ a[NR] = $1 } function q(f,  x, k) { x = 1 + (NR - 1) * f; k = int(x); return a[k] + (x - k) * (a[k + (k < NR)] - a[k]) }
    END { printf "%.4g [%.4g, %.4g]", q(.5), q(.25), q(.75) }'; }
side_values() { awk -v m="$1" -v s="$2" '$3 == m && $2 == s { print $4 }' "$tmp/values.tsv"; }
echo "summary over $pairs pairs: median [q1, q3]; wins = pairs where pr is better"
for m in $metrics; do
    name=${m%%:*} better=${m##*:}
    wins=$(paste <(side_values "$name" base) <(side_values "$name" pr) |
        awk -v h="$better" '{ w += (h == "higher") ? ($2 > $1) : ($2 < $1) } END { print w + 0 }')
    echo "$name: base $(side_values "$name" base | quartiles)  pr $(side_values "$name" pr | quartiles)  wins $wins/$pairs"
done
