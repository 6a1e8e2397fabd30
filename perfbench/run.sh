#!/usr/bin/env bash
# Builds the release `qid` server and the benchmark client from this
# checkout, then runs the client with the given arguments:
#
#   bash perfbench/run.sh --workload <check_hot|compute_bound|registry_churn|all> \
#        --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --smoke
#
# Run it from the repository root. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result.
set -euo pipefail
if [ ! -f Cargo.toml ] || [ ! -d crates/server ] || [ ! -f perfbench/Cargo.toml ]; then
    echo "perfbench: run from the root of a quasi-id checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin qid --manifest-path Cargo.toml 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/qid-perfbench" --qid "$CARGO_TARGET_DIR/release/qid" "$@"
