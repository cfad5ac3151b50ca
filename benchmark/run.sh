#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the arguments
# given; with none, runs the four workloads untraced then traced, each in
# its own process. Run from anywhere: paths are taken from this file.
#
#   benchmark/run.sh --workload isp_sjf_owan --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh                   # the whole set
#   benchmark/run.sh --quick           # the whole set, CI-sized
#   benchmark/run.sh --repeat-check    # the untraced set twice, compared
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo's own messages go to stderr: stdout carries only the benchmark's
# report, whose last line is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/owan-benchmark" "$@"
