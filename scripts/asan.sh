#!/usr/bin/env bash
# Runs the loopir unit tests and the lane/tile differential suites under
# AddressSanitizer. The lane executor (`simd::run_lanes`) and the parallel
# tile executor (`par::run_tile`) access array storage through raw
# pointers; ASan turns any out-of-bounds or use-after-free access on
# those paths into a hard failure instead of silent corruption.
#
# Needs a nightly toolchain (`-Zsanitizer` is unstable); runs offline.
# The explicit `--target` keeps sanitizer flags off build scripts and
# puts the instrumented artifacts under target/<triple>/, apart from the
# regular build.
#
# Usage: scripts/asan.sh [extra cargo test args...]
set -euo pipefail
cd "$(dirname "$0")/.."
target="${ASAN_TARGET:-x86_64-unknown-linux-gnu}"
export RUSTFLAGS="${RUSTFLAGS:-} -Zsanitizer=address"
exec cargo +nightly test --offline --target "$target" \
    -p loopir -p zpl-fusion --lib \
    --test simd_differential --test vm_differential "$@"
