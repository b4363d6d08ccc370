#!/usr/bin/env bash
# Build the what-if query benchmark from this checkout's sources and run it.
# Every argument passes through to the `querybench` binary, e.g.
#   bash querybench/run.sh --workload verbs-sweep --seed 1 --seconds 20 --trace 0
# Cargo's output goes to stderr; the binary's last stdout line is the result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/querybench" "$@"
