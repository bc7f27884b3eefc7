#!/usr/bin/env bash
# The one command of the repository benchmark.
#
#   benchmark/run.sh                      full run: lint, every workload untraced
#                                         and traced, table + benchmark/out/results.json
#   benchmark/run.sh --quick              smoke run (under a minute; not comparable)
#   benchmark/run.sh selfcheck            two full sets of this build must agree
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one run of one workload; the last line
#                                         of standard output is the result object
#
# Everything is built from source, offline, as a package of its own that
# depends on crates/* by path; nothing outside benchmark/ is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
manifest=benchmark/Cargo.toml

# A relative CARGO_TARGET_DIR is relative to where cargo is started; pin it
# to the checkout root so the binary is found below whatever the caller set.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$manifest" >&2
bin="$target/release/pgxd-benchmark"

case "${1:-}" in
  "" | full | --quick | --seed | --seconds)
    [ "${1:-}" = full ] && shift
    cargo fmt --manifest-path "$manifest" --check >&2
    cargo clippy --release --offline --quiet --manifest-path "$manifest" --all-targets -- -D warnings >&2
    exec "$bin" full "$@"
    ;;
  *)
    exec "$bin" "$@"
    ;;
esac
