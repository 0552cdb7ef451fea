#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed S] [--workload W] [--seconds T] [--out FILE]
#       builds, then runs every workload (or W) untraced and traced, each
#       in its own child process; prints every metric as
#       `workload metric value unit`, checks outputs, and writes
#       benchmark/results/latest.json.
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run in the driver's contract: the last line of standard output
#       is the result object.
#   benchmark/run.sh compare A.json B.json
#       the regression rule (see README.md).
#
# Everything runs from the checkout's root so that its .cargo/config.toml
# (-C target-cpu=native) applies to the build, as it does to the product.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Build output goes to standard error: standard output is the result's.
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path benchmark/Cargo.toml --bins 1>&2

exec "$target/release/benchmark" "$@"
