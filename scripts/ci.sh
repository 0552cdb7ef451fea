#!/usr/bin/env bash
# Repository CI gate: build, test, format, lint. Run from the repo root.
# Everything is offline (external deps resolve to shims/, see
# shims/README.md), so this needs nothing but a Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark package: locked offline build + smoke test"
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ltfb-analyze lint (workspace invariant rules)"
cargo run -q -p ltfb-analyze -- lint

echo "==> ltfb-analyze check (fixed-seed model-check suite)"
cargo run -q -p ltfb-analyze -- check

echo "==> causality-audit smoke (vector-clock trace certification)"
scripts/trace_smoke.sh

echo "==> fault-injection smoke"
scripts/fault_smoke.sh

echo "==> metrics smoke"
scripts/metrics_smoke.sh

echo "==> store smoke (tiered bit-identity + demo hit rate + tier/ingest metric keys)"
scripts/store_smoke.sh

echo "==> serve smoke (fresh fleet run + causal-trace certification)"
scripts/serve_smoke.sh

echo "CI green."
