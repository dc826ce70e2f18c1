#!/usr/bin/env bash
# One command for the whole benchmark: build lg-perf offline, then run it.
#
#   perf/run.sh                      every workload, untraced then traced
#   perf/run.sh --workload W --trace 0|1 [--seed N] [--seconds S]
#   perf/run.sh --quick              small sizes (smoke run)
#   perf/run.sh --calibrate          two suites back to back, bounds vs spread
#   perf/run.sh --selfcheck          quick in-process determinism check
#   perf/run.sh compare A.json B.json
#
# Touches nothing outside perf/ and the cargo target directory
# (CARGO_TARGET_DIR, default <repo>/target/perf). See perf/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/perf}"
# Cargo resolves a relative target directory against the directory it is
# started in; pin it so the binary is found wherever run.sh is called from.
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# A failed build exits non-zero here, before any result is printed.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/lg-perf" --perf-dir "$here" "$@"
