#!/usr/bin/env bash
# Tier-1 verification: release build, test suite, formatting, lints.
# Run from anywhere; exits non-zero on the first failing check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== examples (the five public example programs, each asserting its own checks) =="
# They run on the benchmark preset (`Config::builder()`), not the unit-test
# one; under a second in total from the binaries the build gate just made.
for example in quickstart social_influence road_routing web_structure sensor_analytics; do
    cargo run --release -p pgxd-examples --bin "$example" >/dev/null
done

echo "== cargo test -q =="
cargo test -q

echo "== benchmark unit tests (its own package and target directory) =="
# The benchmark is a separate package, so `cargo test` above never builds
# its tests; the smokes below never reach its `--trace 1` kernels, which
# drive `JobState`/`drain_until_complete` directly.
CARGO_TARGET_DIR=benchmark/target cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== wire smoke (real multi-process TCP cluster vs in-memory) =="
# Spawns 2 pgxd-node OS processes that bootstrap a TCP cluster on
# localhost and run PageRank/WCC/HopDist; asserts internally (every rank
# returns the same vectors, bit-identical to the single-process in-memory
# run, and a lossy plan drives nonzero retransmit telemetry over real
# sockets). pgxd-node was built
# by the `cargo build --release` gate above; the hard timeout backstops
# a wedged bootstrap or a hung rank.
timeout 300 cargo run --release -p pgxd-bench --bin repro -- wire --quick

echo "== wire-recover smoke (socket faults + SIGKILL a rank mid-run) =="
# Spawns 3 pgxd-node processes twice: once under a seeded WireFaultPlan
# (asserts nonzero injected resets/stalls AND nonzero reconnects, and
# PageRank bit-identical to a fault-free in-memory reference) and once
# SIGKILLing rank 2 during a choreographed pause (asserts both survivors
# convict the dead rank via the heartbeat watchdog, re-bootstrap at the
# recovery coordinator, adopt the newest checkpoint, and reach the same
# bits). The hard timeout backstops a missed conviction or a hung
# re-bootstrap.
timeout 300 cargo run --release -p pgxd-bench --bin repro -- wire-recover --quick

echo "== benchmark smoke (one run of each of the seven workloads, answers checked against the oracle) =="
# Not a performance gate — a one-second run measures nothing. The
# repository benchmark verifies every result against the sequential
# oracles and exits non-zero on any failed, refused or wrong operation.
bash benchmark/run.sh --workload pull_skew --seed 7 --seconds 1 --trace 0
# One machine, one worker: every read is local, so the declared pull fold
# takes only the register path (folded per vertex, stored after its last
# edge), and the job's epilogue (`Apply` and the next iteration's `Scale`)
# runs once the job is complete, over the worker's share of the vertices:
# one job per iteration.
bash benchmark/run.sh --workload local_pull --seed 7 --seconds 1 --trace 0
# The same job on two node-mode ranks over loopback TCP: the event-driven
# termination wave (report, probe, answer, release) against the oracle.
bash benchmark/run.sh --workload tcp_pull --seed 7 --seconds 1 --trace 0
# The query layer on the benchmark's own graph: the only place the query
# PageRank is held to 1e-12 of the built-in *and* 1e-9 of the oracle, and
# the query BFS to bit-identity with both. Every expression is a block
# kernel (one loop per operator per 256-vertex block, leaves read where
# they are, lanes on the stack): an edge job is a declared fold or scatter
# behind one as its chunk prologue, with the node passes that follow it as
# its epilogue; the PageRank loop is rotated, so a pass is one job.
bash benchmark/run.sh --workload query_pr --seed 7 --seconds 1 --trace 0
# The only answers that pass through the copiers' remote reductions:
# pushed PageRank (1e-9 of the oracle) and hop distances (bit-identical),
# both declared scatters (each vertex's value loaded once and written to
# its out-neighbors: in place, or into a private copy of the mirror slot,
# whose partial the copier reduces at the owner).
bash benchmark/run.sh --workload push_uniform --seed 7 --seconds 1 --trace 0
bash benchmark/run.sh --workload bfs_small --seed 7 --seconds 1 --trace 0
# The job server's closed loop: served PageRank (which reads every remote
# in-neighbor through its mirror slot) and BFS, each checked against the
# oracle.
bash benchmark/run.sh --workload serve_mix --seed 7 --seconds 1 --trace 0

echo "== cargo doc --workspace --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "tier-1: all checks passed"

echo "== line counts (informational) =="
scripts/loc.sh || true
