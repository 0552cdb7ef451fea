#!/usr/bin/env bash
# Serving-fleet smoke: one fixed-seed fleet bench run (closed-loop
# capacity probe, then the open-loop 0.5x/1x/2x overload sweep) must
# complete, and its --metrics causal trace must certify under
# `ltfb-analyze trace`: every shed happens inside an overload episode
# that causally follows the SLO announcement
# (fleet-shed-implies-overload), and replica publishes stay serial per
# shard.
#
# No timing is gated here; serving performance is measured by the
# benchmark (benchmark/, workloads serve_steady and serve_saturation).
#
# Assumes `cargo build --release` has already run (ci.sh does).
set -euo pipefail
cd "$(dirname "$0")/.."

CLI=target/release/ltfb-cli
ANALYZE=target/release/ltfb-analyze
[[ -x "$CLI" && -x "$ANALYZE" ]] || {
    echo "serve_smoke: release binaries missing; run cargo build --release first" >&2
    exit 1
}

FRESH=$(mktemp -d)
trap 'rm -rf "$FRESH"' EXIT

echo "==> serve-bench --shards 2 (fresh fixed-seed fleet run)"
LTFB_RESULTS_DIR="$FRESH" \
    "$CLI" serve-bench --shards 2 --seed 2019 \
    --metrics "$FRESH/serve_fleet_metrics.json"

echo "==> ltfb-analyze trace (fleet overload run must certify)"
out=$("$ANALYZE" trace "$FRESH/serve_fleet_metrics.json")
echo "$out"
grep -q "certified" <<<"$out" || {
    echo "serve_smoke: FAIL — fleet causal trace did not certify" >&2
    exit 1
}

echo "serve smoke green."
