#!/usr/bin/env bash
# Line counts the ROADMAP quotes: `*.rs` per crate and the three long
# documents, then three API-surface counts. Informational — never fails a
# gate.
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
# API surface: setters of the one configuration builder, fields of the
# configuration, and the public ways to load a cluster or build an engine.
cfg=crates/runtime/src/config.rs
printf '%-18s %6d\n' "builder setters" "$(grep -cE 'pub fn \w+\(mut self, ' "$cfg")"
printf '%-18s %6d\n' "config fields" "$(awk '/^pub struct Config \{/{on=1; next} on && /^\}/{exit} on && /^    pub [a-z_]+:/{n++} END{print n+0}' "$cfg")"
entries=$(cat crates/runtime/src/cluster.rs crates/core/src/engine.rs | grep -cE 'pub fn (load|build)(_\w+)?\(')
printf '%-18s %6d\n' "load/build entries" "$entries"
