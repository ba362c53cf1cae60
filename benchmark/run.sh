#!/usr/bin/env bash
# Builds the milliScope benchmark (release, offline) and runs it.
#
#   benchmark/run.sh [--seed N] [--smoke]            every workload, results in benchmark/out/
#   benchmark/run.sh --selfcheck                     two sets of ten runs held to the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                    one run, one JSON result line (the driver's form)
#
# Run it from anywhere. By hand it builds into the root workspace's
# target/, which already holds the crates under test; a driver that sets
# CARGO_TARGET_DIR gets its own. A failed build exits non-zero before any
# result is printed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$(dirname "$here")/target}"

cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/mscope-benchmark" --out "$here/out" "$@"
