//! The driver reductions exchange one partial per machine, not the column.
//!
//! `reduce` folds each machine's owned cells in vertex order and then the
//! partials in machine order; `count_true` sums one count per process.
//! Integer `Sum`, `Min`, `Max` and the count are exact at every machine
//! count; an f64 `Sum` is exactly that two-level fold, so it is the same
//! bits in memory and on loopback ranks.

use pgxd::{BuildEngine, Config, Engine, Prop, ReduceOp};
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_runtime::config::ConfigBuilder;

fn graph() -> Graph {
    generate::rmat(8, 4, generate::RmatParams::skewed(), 0x43)
}

fn shape(machines: usize) -> ConfigBuilder {
    Config::builder().machines(machines).workers(1)
}

struct Columns {
    f: Prop<f64>,
    i: Prop<i64>,
    b: Prop<bool>,
}

/// Values with no pattern a reordered sum would hide: f64s of mixed
/// magnitude and sign, i64s of both signs, every seventh flag set.
fn fill(e: &mut Engine) -> Columns {
    let c = Columns {
        f: e.add_prop("f", 0.0f64),
        i: e.add_prop("i", 0i64),
        b: e.add_prop("b", false),
    };
    for v in 0..e.num_nodes() as NodeId {
        let x = v as f64;
        e.set(c.f, v, (x * 0.37).sin() * 10f64.powi((v % 9) as i32 - 4));
        e.set(c.i, v, (v as i64 * 7919) % 1013 - 506);
        e.set(c.b, v, v % 7 == 3);
    }
    c
}

/// `f`'s f64 sum folded per machine over its owned range, then over the
/// machines in order, from the gathered column.
fn machine_order_sum(e: &Engine, f: Prop<f64>) -> f64 {
    let column = e.gather(f);
    let part = e.cluster().partition();
    (0..e.num_machines() as u16)
        .map(|m| &column[part.start(m) as usize..part.end(m) as usize])
        .filter(|cells| !cells.is_empty())
        .map(|cells| cells[1..].iter().fold(cells[0], |a, &x| a + x))
        .reduce(|a, b| a + b)
        .expect("a vertex")
}

#[test]
fn reductions_are_exact_and_fold_partials_in_machine_order() {
    let g = graph();
    for machines in [1, 2, 3] {
        let mut e = shape(machines).engine(&g).unwrap();
        let c = fill(&mut e);
        let ints = e.gather(c.i);
        let flags = e.gather(c.b);
        let p = format!("{machines} machines");
        assert_eq!(
            e.reduce(c.i, ReduceOp::Sum),
            ints.iter().sum::<i64>(),
            "{p}"
        );
        assert_eq!(
            e.reduce(c.i, ReduceOp::Min),
            *ints.iter().min().unwrap(),
            "{p}"
        );
        assert_eq!(
            e.reduce(c.i, ReduceOp::Max),
            *ints.iter().max().unwrap(),
            "{p}"
        );
        assert_eq!(
            e.count_true(c.b),
            flags.iter().filter(|&&b| b).count(),
            "{p}"
        );
        assert_eq!(
            e.reduce(c.f, ReduceOp::Sum).to_bits(),
            machine_order_sum(&e, c.f).to_bits(),
            "{p}"
        );
    }
}

#[test]
fn loopback_ranks_reduce_to_the_in_memory_bits() {
    let g = graph();
    let results = |e: &mut Engine| {
        let c = fill(e);
        [
            e.reduce(c.f, ReduceOp::Sum).to_bits(),
            e.reduce(c.f, ReduceOp::Max).to_bits(),
            e.reduce(c.i, ReduceOp::Sum) as u64,
            e.count_true(c.b) as u64,
        ]
    };
    let want = results(&mut shape(2).engine(&g).unwrap());
    let ranks = pgxd::loopback_ranks(2, |rank| {
        let mut e = rank.engine(shape(2), &g).unwrap();
        let got = results(&mut e);
        e.cluster().node_barrier().unwrap();
        got
    });
    for (rank, got) in ranks.into_iter().enumerate() {
        assert_eq!(got, want, "loopback rank {rank}");
    }
}
