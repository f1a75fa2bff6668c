#!/usr/bin/env bash
# The one command of the repo's benchmark. Builds the release `repro`
# binary and both harness packages offline, then hands over to the
# end-to-end driver, which runs the workloads, checks outputs, prints every
# metric by name with its unit and writes benchmark/out/*.json.
#
#   benchmark/run.sh                      all four workloads, end to end
#   benchmark/run.sh --trace 1            ... plus every per-layer metric
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload, driver style: the last
#                                         stdout line is the result object
#   benchmark/run.sh --quick              smoke run, < 60 s
#   benchmark/run.sh --compare A B        judge two result files
set -euo pipefail

cd "$(dirname "$0")/.."
# One target directory for the product and both harnesses (the driver
# points CARGO_TARGET_DIR at .bench_build; by hand it is ./target).
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
export CARGO_TARGET_DIR

build() {
    local what="$1"
    shift
    cargo build --release --offline --quiet "$@" >&2 || {
        echo "run.sh: cannot build $what offline" >&2
        exit 1
    }
}

if [[ " $* " != *" --compare "* ]]; then
    build "target/release/repro" -p h2ready-bench --bin repro
    build "benchmark/layers" --manifest-path benchmark/layers/Cargo.toml
fi
build "benchmark/e2e" --manifest-path benchmark/e2e/Cargo.toml

exec "$CARGO_TARGET_DIR/release/h2bench-e2e" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
