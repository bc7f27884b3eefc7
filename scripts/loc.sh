#!/usr/bin/env bash
# Line counts the ROADMAP quotes: `*.rs` per crate and the three long
# documents. Informational — never fails a gate.
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -not -path '*/target/*' -print0 | xargs -0 cat | wc -l; }

for crate in runtime core sched query algorithms baselines graph bench; do
    printf '%-18s %6d\n' "crates/$crate" "$(count "crates/$crate")"
done
for dir in tests examples shims benchmark; do
    printf '%-18s %6d\n' "$dir" "$(count "$dir")"
done
for doc in DESIGN.md EXPERIMENTS.md README.md; do
    printf '%-18s %6d\n' "$doc" "$(wc -l <"$doc")"
done
