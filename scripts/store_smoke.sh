#!/usr/bin/env bash
# Tiered-store smoke test: the out-of-core path must train bit-identically
# to the in-memory reference, keep a warm hot tier, and export its
# tier/ingest metrics.
#
# 1. Build a small shard dataset and train the CLI store demo over it
#    (in-memory vs mmap-tiered, plus a streaming-ingest adoption); the
#    demo must report bit_identical=true and a hot-tier hit rate >= 0.50.
# 2. The --metrics export must carry the tier and ingest keys
#    (store.rN.tier_hit/miss/evicted, store.rN.bytes_mapped,
#    ingest.samples/bytes, ingest.epoch_growth).
#
# Store throughput is measured by the benchmark (benchmark/, workload
# store_ooc), not here.
#
# Assumes `cargo build --release` has already run (ci.sh does).
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=target/release/ltfb-cli
[[ -x "$CLI" ]] || {
    echo "store_smoke: $CLI missing; run cargo build --release first" >&2
    exit 1
}

RESULTS="$(mktemp -d)"
trap 'rm -rf "$RESULTS"' EXIT
export LTFB_RESULTS_DIR="$RESULTS"

echo "==> tiered-store demo (bit-identity vs in-memory + ingest adoption)"
OUT="$("$CLI" train --trainers 2 --steps 5 --ae-steps 5 --samples 64 \
    --store mmap --metrics "$RESULTS/store_metrics.json")"
echo "$OUT" | grep "store demo:"

echo "$OUT" | grep -q "bit_identical=true" || {
    echo "store_smoke: tiered training diverged from the in-memory reference" >&2
    exit 1
}

HIT_RATE="$(echo "$OUT" | sed -n 's/.*tier_hit_rate=\([0-9.]*\).*/\1/p')"
[[ -n "$HIT_RATE" ]] || {
    echo "store_smoke: no tier_hit_rate in demo output" >&2
    exit 1
}
awk -v r="$HIT_RATE" 'BEGIN { exit !(r >= 0.50) }' || {
    echo "store_smoke: hot-tier hit rate $HIT_RATE below the 0.50 floor" >&2
    exit 1
}

echo "==> tier/ingest metric keys"
METRICS="$RESULTS/store_metrics.json"
[[ -f "$METRICS" ]] || {
    echo "store_smoke: $METRICS not written" >&2
    exit 1
}
for key in store.r0.tier_hit store.r0.tier_miss store.r0.tier_evicted \
    store.r0.bytes_mapped store.r1.tier_hit \
    ingest.samples ingest.bytes ingest.epoch_growth; do
    grep -q "\"$key\"" "$METRICS" || {
        echo "store_smoke: metric key $key missing from $METRICS" >&2
        exit 1
    }
done

echo "store_smoke: OK (bit_identical=true, demo hit rate $HIT_RATE)"
