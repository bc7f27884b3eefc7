//! The two deployment shapes agree, operation by operation.
//!
//! `Cluster` has one body per driver operation — loop over the hosted
//! machines, exchange, combine — and the only thing that differs between a
//! process hosting every machine and a rank hosting one is the exchange
//! underneath. So one driver script runs on a 3-machine in-process cluster
//! and on 3 thread-hosted loopback ranks, and every value any operation
//! returns, every `Checkpoint::global_bits` column and every rank's view of
//! them must be bit-identical; then the 3-machine checkpoint is restored,
//! degraded, on 2 machines in both shapes.

use pgxd::{BuildEngine, Checkpoint, Config, Engine, Prop, ReduceOp};
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_runtime::config::ConfigBuilder;
use std::sync::Arc;

fn graph() -> Graph {
    generate::rmat(7, 4, generate::RmatParams::skewed(), 3023)
}

/// A low ghost threshold, so checkpoints carry ghost regions and the
/// degraded restore has replicas to re-prime.
fn config(machines: usize) -> ConfigBuilder {
    Config::builder()
        .machines(machines)
        .workers(1)
        .copiers(1)
        .ghost_threshold(Some(8))
}

struct Columns {
    f: Prop<f64>,
    i: Prop<i64>,
    b: Prop<bool>,
}

/// Property registration: the part of the script a resumed run repeats.
fn setup(engine: &mut Engine) -> Columns {
    Columns {
        f: engine.add_prop("f", 0.5f64),
        i: engine.add_prop("i", -3i64),
        b: engine.add_prop("b", false),
    }
}

/// All three columns in global vertex order, as raw bits.
fn gather_all(engine: &Engine, c: &Columns, log: &mut Vec<Vec<u64>>) {
    log.push(engine.gather(c.f).iter().map(|x| x.to_bits()).collect());
    log.push(engine.gather(c.i).iter().map(|&x| x as u64).collect());
    log.push(engine.gather(c.b).iter().map(|&x| x as u64).collect());
}

/// The driver script. Returns everything its operations returned, in
/// order, as raw bits, and the checkpoint it took.
fn script(engine: &mut Engine) -> (Vec<Vec<u64>>, Arc<Checkpoint>) {
    assert!(!engine.cluster().ghosts().is_empty(), "ghosts selected");
    let n = engine.num_nodes() as NodeId;
    let c = setup(engine);
    let mut log = Vec::new();

    // Point writes on every machine's range, read back one by one; an
    // untouched vertex reads its default.
    for v in (0..n).filter(|v| v % 3 != 1) {
        engine.set(c.f, v, (v as f64).sqrt() - 4.0);
        engine.set(c.i, v, (v as i64 * 37) % 101 - 50);
        engine.set(c.b, v, v % 5 == 0);
    }
    log.push(
        (0..n)
            .flat_map(|v| [engine.get(c.f, v).to_bits(), engine.get(c.i, v) as u64])
            .collect(),
    );
    gather_all(engine, &c, &mut log);

    // Fill, then a few more points on top.
    engine.fill(c.i, 11i64);
    engine.set(c.i, n - 1, i64::MIN + 1);
    engine.set(c.i, n / 2, 4096i64);
    gather_all(engine, &c, &mut log);

    log.push(vec![
        engine.reduce(c.i, ReduceOp::Sum) as u64,
        engine.reduce(c.i, ReduceOp::Min) as u64,
        engine.reduce(c.i, ReduceOp::Max) as u64,
        engine.reduce(c.f, ReduceOp::Sum).to_bits(),
        engine.count_true(c.b) as u64,
    ]);

    let ckpt = engine.take_checkpoint(4, vec![9, 8]).unwrap();
    assert_eq!(engine.last_checkpoint().unwrap().seq, ckpt.seq, "retained");
    log.push(vec![ckpt.seq, ckpt.machines.len() as u64]);
    for id in [c.f.id(), c.i.id(), c.b.id()] {
        log.push(ckpt.global_bits(id).unwrap());
    }

    // Clobber every cell, ghosts included; a same-shape restore brings
    // every bit back.
    engine.fill(c.f, -1.0f64);
    engine.fill(c.i, 0i64);
    engine.fill(c.b, true);
    engine.restore_checkpoint(&ckpt).unwrap();
    gather_all(engine, &c, &mut log);
    (log, ckpt)
}

/// The 3-machine checkpoint on a freshly set-up 2-machine cluster.
fn degraded_restore(engine: &mut Engine, ckpt: &Checkpoint) -> Vec<Vec<u64>> {
    let c = setup(engine);
    engine.restore_checkpoint(ckpt).unwrap();
    let mut log = Vec::new();
    gather_all(engine, &c, &mut log);
    log
}

#[test]
fn both_shapes_return_the_same_bits_from_every_driver_operation() {
    let g = graph();
    let in_process = |machines| config(machines).engine(&g).unwrap();

    let (want, want_ckpt) = script(&mut in_process(3));
    let ranks = pgxd::loopback_ranks(3, |rank| {
        let mut engine = rank.engine(config(3), &g).unwrap();
        let out = script(&mut engine);
        engine.cluster().node_barrier().unwrap();
        out
    });
    for (rank, (log, _)) in ranks.iter().enumerate() {
        assert_eq!(log.len(), want.len());
        for (step, (got, want)) in log.iter().zip(&want).enumerate() {
            assert_eq!(got, want, "rank {rank} diverges at script step {step}");
        }
    }

    // Degraded: what the three machines held, re-scattered over two. The
    // restored columns are the ones the script gathered last.
    let restored = &want[want.len() - 3..];
    assert_eq!(degraded_restore(&mut in_process(2), &want_ckpt), restored);
    let rank_ckpt = &ranks[0].1;
    let degraded = pgxd::loopback_ranks(2, |rank| {
        let mut engine = rank.engine(config(2), &g).unwrap();
        let out = degraded_restore(&mut engine, rank_ckpt);
        engine.cluster().node_barrier().unwrap();
        out
    });
    assert_eq!(degraded, [restored, restored], "ranks 0 and 1");
}
