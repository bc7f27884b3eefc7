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

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== wire smoke (real multi-process TCP cluster vs in-memory) =="
# Spawns 2 pgxd-node OS processes that bootstrap a TCP cluster on
# localhost and run PageRank/WCC/HopDist; asserts internally (every rank
# returns the same vectors, within 1e-12 of the single-process in-memory
# run — bit-identical for the integer props — and a lossy plan drives
# nonzero retransmit telemetry over real sockets). pgxd-node was built
# by the `cargo build --release` gate above; the hard timeout backstops
# a wedged bootstrap or a hung rank.
timeout 300 cargo run --release -p pgxd-bench --bin repro -- wire --quick

echo "== wire-recover smoke (socket faults + SIGKILL a rank mid-run) =="
# Spawns 3 pgxd-node processes twice: once under a seeded WireFaultPlan
# (asserts nonzero injected resets/stalls AND nonzero reconnects, scores
# within 1e-12 of the clean run) and once SIGKILLing rank 2 during a
# choreographed pause (asserts both survivors convict the dead rank via
# the heartbeat watchdog, re-bootstrap at the recovery coordinator,
# adopt the newest checkpoint, and converge within 1e-12 of a fault-free
# reference). The hard timeout backstops a missed conviction or a hung
# re-bootstrap.
timeout 300 cargo run --release -p pgxd-bench --bin repro -- wire-recover --quick

echo "== benchmark smoke (one run of each of the seven workloads, answers checked against the oracle) =="
# Not a performance gate — a one-second run measures nothing. The
# repository benchmark verifies every result against the sequential
# oracles and exits non-zero on any failed, refused or wrong operation.
bash benchmark/run.sh --workload pull_skew --seed 7 --seconds 1 --trace 0
# One machine, one worker: every read is local, so every `fold_nbr` takes
# the register path (folded per vertex, stored after its last edge).
bash benchmark/run.sh --workload local_pull --seed 7 --seconds 1 --trace 0
# The same job on two node-mode ranks over loopback TCP: the event-driven
# termination wave (report, probe, answer, release) against the oracle.
bash benchmark/run.sh --workload tcp_pull --seed 7 --seconds 1 --trace 0
# The query layer on the benchmark's own graph: the only place the query
# PageRank is held to 1e-12 of the built-in *and* 1e-9 of the oracle, and
# the query BFS to bit-identity with both.
bash benchmark/run.sh --workload query_pr --seed 7 --seconds 1 --trace 0
# The only answers that pass through the copiers' remote reductions:
# pushed PageRank (1e-9 of the oracle) and hop distances (bit-identical).
bash benchmark/run.sh --workload push_uniform --seed 7 --seconds 1 --trace 0
bash benchmark/run.sh --workload bfs_small --seed 7 --seconds 1 --trace 0
# The job server's closed loop: served PageRank (which reads hubs through
# their ghosts) and BFS, each checked against the oracle.
bash benchmark/run.sh --workload serve_mix --seed 7 --seconds 1 --trace 0

echo "== cargo doc --workspace --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "tier-1: all checks passed"

echo "== line counts (informational) =="
scripts/loc.sh || true
