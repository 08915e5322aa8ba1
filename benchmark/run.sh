#!/usr/bin/env bash
# Build the benchmark package (release, offline, the root's release profile)
# and run it; every argument goes to the benchmark. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/overset-benchmark" "$@"
