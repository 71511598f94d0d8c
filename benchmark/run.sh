#!/usr/bin/env bash
# The single entry point of the repo benchmark (the command in
# BENCHMARK.json): build the harness in release mode, run it, print.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh                    # all six workloads, timed + probe + traced pass
#   bash benchmark/run.sh --quick            # 4 rounds: a local smoke run, never recorded
#
# Runs from the repo root whatever the caller's directory, because the
# harness writes benchmark/out/ relative to it. Fails (nonzero, no
# result line) where the crates it measures are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/harness" "$@"
