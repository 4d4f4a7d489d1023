#!/usr/bin/env bash
# Builds the release `tacc` daemon and the load generator from source,
# then runs one benchmark workload. Run from the repository root:
#
#   bash wirebench/run.sh --workload ingest-ha --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in /*) target="$CARGO_TARGET_DIR" ;; *) target="$root/$CARGO_TARGET_DIR" ;; esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p tacc-cli --bin tacc >&2
cargo build --release --offline --quiet --manifest-path "$root/wirebench/Cargo.toml" >&2
# A relative --out keeps the daemons' socket paths short (Unix sockets allow
# about 100 bytes), wherever the checkout lives.
exec "$target/release/wirebench" --tacc "$target/release/tacc" --out .bench_out "$@"
