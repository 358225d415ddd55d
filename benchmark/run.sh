#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to `stq-e2e`
# (see README.md). Run from anywhere: paths are taken from this file.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# One malloc arena: with more, glibc opens arenas when a thread happens to be
# preempted inside malloc, and resident memory differs by 20 MB run to run.
export MALLOC_ARENA_MAX=1

# The program places its own threads on CPUs (src/pin.rs) and refuses to run
# if the kernel will not let it.
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/stq-e2e" "$@"
