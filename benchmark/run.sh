#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark crate from
# source (offline; into $CARGO_TARGET_DIR, or target/ when unset) and
# runs one workload. `--trace 1` selects the traced binary, which has
# the counting allocator installed; everything else is passed through.
# Run it from the root of the checkout.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
bin=puzzle-bench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=puzzle-bench-traced
    fi
    prev="$arg"
done

cargo build --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/$bin" "$@"
