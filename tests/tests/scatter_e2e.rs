//! A declared [`Scatter`] ≡ the same push written per edge with
//! `write_nbr`.
//!
//! The edge phase loads a vertex's source value once and writes it to each
//! out-neighbor: into the worker's private copy for a ghost, in place for
//! any other local vertex, as a write entry for a remote one. Each case runs
//! one job both ways on the same graph and compares the target columns:
//! {Sum, Min, Max} × {f64, i64} and `Or` on bool, × {1, 2, 3 machines} ×
//! ghosts {off, 16}, on 2 workers through 64-byte buffers. `i64` and `bool`
//! must be bit-identical (and equal a sequential model); `f64` within
//! 1e-12. Two more cases skip filtered vertices, and scatter from a vertex
//! whose every out-edge is remote and from one with none. Another pins the
//! job's counters to an out-edge census of the graph. The last runs each
//! declared case again with an empty spec, with ghosts on: the scatter's
//! own declaration of its reduction gives the same columns and counters;
//! and a spec that reads the target, or reduces it with another op,
//! panics on the driver before the job starts.
//!
//! Mutation-checked: without the filter call, the filtered case and the
//! census fail; with ghost targets reduced in place instead of into the
//! private copy, the census fails.

use pgxd::{
    BuildEngine, Dir, EdgeCtx, EdgeTask, Engine, JobSpec, NodeChunk, NodeCtx, Prop, PropValue,
    ReduceOp, Reduction, Scatter, StatsSnapshot,
};
use pgxd_graph::builder::graph_from_edges;
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_runtime::props::reduce_bits;

fn test_graph() -> Graph {
    generate::rmat(8, 8, generate::RmatParams::skewed(), 0x5CA7)
}

/// A value type under test: how its columns are seeded and compared.
trait Value: PropValue + PartialEq + std::fmt::Debug {
    /// The source value of vertex `v`.
    fn src(v: u64) -> Self;
    /// The target's starting value at vertex `v`.
    fn init(v: u64) -> Self;
    /// Whether two runs must agree bit for bit (else within 1e-12).
    const EXACT: bool = true;
    fn close(a: Self, b: Self) -> bool {
        a == b
    }
}

impl Value for i64 {
    fn src(v: u64) -> i64 {
        (v.wrapping_mul(2_654_435_761) % 2_001) as i64 - 1_000
    }
    fn init(v: u64) -> i64 {
        (v % 5) as i64 - 2
    }
}

impl Value for bool {
    fn src(v: u64) -> bool {
        v.wrapping_mul(2_654_435_761).is_multiple_of(7)
    }
    fn init(v: u64) -> bool {
        v.is_multiple_of(11)
    }
}

impl Value for f64 {
    fn src(v: u64) -> f64 {
        (v.wrapping_mul(7_919) % 1_000) as f64 / 997.0 - 0.5
    }
    fn init(v: u64) -> f64 {
        v as f64 * 0.25 - 3.0
    }
    const EXACT: bool = false;
    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12
    }
}

fn assert_same<T: Value>(got: &[T], want: &[T], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}");
    for (v, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert!(T::close(a, b), "{case}: vertex {v}: {a:?} vs {b:?}");
    }
}

fn reduce<T: PropValue>(op: ReduceOp, cur: T, new: T) -> T {
    T::from_bits(reduce_bits(T::TAG, op, cur.to_bits(), new.to_bits()))
}

/// Vertices divisible by 3 do not push.
fn passes(v: NodeId) -> bool {
    !v.is_multiple_of(3)
}

/// `dst[u] = op(dst[u], src[v])` per out-edge `(v, u)`, written per edge.
struct Write<T: PropValue> {
    src: Prop<T>,
    dst: Prop<T>,
    op: ReduceOp,
    filtered: bool,
}
impl<T: PropValue> EdgeTask for Write<T> {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        !self.filtered || passes(ctx.node())
    }
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        let v = ctx.get(self.src);
        ctx.write_nbr(self.dst, self.op, v);
    }
}

/// The same push, declared.
struct Declared {
    scatter: Scatter,
    filtered: bool,
}
impl EdgeTask for Declared {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        !self.filtered || passes(ctx.node())
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(self.scatter.into())
    }
}

fn engine(g: &Graph, machines: usize, ghosts: bool) -> Engine {
    Engine::builder()
        .machines(machines)
        .workers(2)
        .buffer_bytes(64)
        .ghost_threshold(ghosts.then_some(16))
        .engine(g)
        .unwrap()
}

/// Runs the push of `src` into `dst` with `op` over out-edges on `e` with
/// seeded columns, declared or per edge; returns the target.
fn run_on<T: Value>(e: &mut Engine, op: ReduceOp, declared: bool, filtered: bool) -> Vec<T> {
    let src = e.add_prop("src", T::init(0));
    let dst = e.add_prop("dst", T::init(0));
    for v in 0..e.num_nodes() as NodeId {
        e.set(src, v, T::src(v as u64));
        e.set(dst, v, T::init(v as u64));
    }
    let spec = JobSpec::new().reduce(dst, op);
    let report = if declared {
        let scatter = Scatter::new(src, dst, op);
        e.try_run_edge_job(Dir::Out, &spec, Declared { scatter, filtered })
    } else {
        let task = Write {
            src,
            dst,
            op,
            filtered,
        };
        e.try_run_edge_job(Dir::Out, &spec, task)
    };
    report.unwrap();
    let out = e.gather(dst);
    e.drop_prop(src);
    e.drop_prop(dst);
    out
}

/// The push computed sequentially: every passing vertex's source value
/// reduced into each out-neighbor's starting value.
fn model<T: Value>(g: &Graph, op: ReduceOp, filtered: bool) -> Vec<T> {
    let mut out: Vec<T> = (0..g.num_nodes() as u64).map(T::init).collect();
    for v in (0..g.num_nodes() as NodeId).filter(|&v| !filtered || passes(v)) {
        for &u in g.out_neighbors(v) {
            out[u as usize] = reduce(op, out[u as usize], T::src(v as u64));
        }
    }
    out
}

const SHAPES: [(usize, bool); 6] = [
    (1, false),
    (1, true),
    (2, false),
    (2, true),
    (3, false),
    (3, true),
];

/// Every shape of `g`, declared against per edge (and, for exact types,
/// against the sequential model).
fn scatter_matches_write_nbr<T: Value>(g: &Graph, op: ReduceOp, filtered: bool) {
    for (machines, ghosts) in SHAPES {
        let case = format!("{op:?} machines={machines} ghosts={ghosts} filtered={filtered}");
        let mut e = engine(g, machines, ghosts);
        let got = run_on::<T>(&mut e, op, true, filtered);
        let want = run_on::<T>(&mut e, op, false, filtered);
        assert_same(&got, &want, &case);
        if T::EXACT {
            assert_eq!(got, model::<T>(g, op, filtered), "{case}: model");
        }
    }
}

const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];

#[test]
fn ghosts_are_targets_of_the_test_graph() {
    let g = test_graph();
    for machines in [2, 3] {
        assert!(!engine(&g, machines, true).cluster().ghosts().is_empty());
    }
}

#[test]
fn scatter_matches_write_nbr_i64() {
    for op in OPS {
        scatter_matches_write_nbr::<i64>(&test_graph(), op, false);
    }
}

#[test]
fn scatter_matches_write_nbr_f64() {
    for op in OPS {
        scatter_matches_write_nbr::<f64>(&test_graph(), op, false);
    }
}

#[test]
fn scatter_matches_write_nbr_bool_or() {
    scatter_matches_write_nbr::<bool>(&test_graph(), ReduceOp::Or, false);
}

/// A vertex the filter excludes pushes nothing.
#[test]
fn filtered_vertices_do_not_scatter() {
    for op in OPS {
        scatter_matches_write_nbr::<i64>(&test_graph(), op, true);
    }
}

/// Vertex 3's 17 out-neighbors are the top ids, none ghosted; vertex 1 has
/// no out-edge (the ring skips 1 → 2 and 3 → 4).
fn edge_case_graph() -> Graph {
    const N: NodeId = 64;
    let ring = (0..N)
        .filter(|&v| v != 1 && v != 3)
        .map(|v| (v, (v + 1) % N));
    let far = (N - 17..N).map(|u| (3, u));
    graph_from_edges(N as usize, ring.chain(far))
}

/// A vertex whose every out-edge is remote reaches its targets through
/// write entries alone, and a vertex with no out-edge writes nothing.
#[test]
fn all_remote_and_zero_degree_vertices() {
    let g = edge_case_graph();
    assert!(g.out_neighbors(1).is_empty());
    for machines in [2, 3] {
        let e = engine(&g, machines, true);
        let (part, ghosted) = (e.cluster().partition(), e.cluster().ghosts());
        let remote = |u: NodeId| part.owner(u) != part.owner(3) && !ghosted.contains(u);
        assert!(g.out_neighbors(3).iter().all(|&u| remote(u)), "{machines}");
    }
    for op in OPS {
        scatter_matches_write_nbr::<i64>(&g, op, false);
    }
}

/// Filtered scatter on 2 machines with ghosts: the job writes in place
/// exactly the out-edges of passing vertices whose target the source's
/// machine owns, writes ghosted targets into private copies (neither
/// counter), and puts exactly the rest on the wire.
#[test]
fn counters_match_the_out_edge_census() {
    let g = test_graph();
    let mut e = engine(&g, 2, true);
    let src = e.add_prop("src", 0i64);
    let dst = e.add_prop("dst", 0i64);
    let (part, ghosts) = (e.cluster().partition(), e.cluster().ghosts());
    let (mut local, mut ghost, mut remote) = (0, 0, 0);
    for v in (0..g.num_nodes() as NodeId).filter(|&v| passes(v)) {
        for &u in g.out_neighbors(v) {
            if part.owner(u) == part.owner(v) {
                local += 1;
            } else if ghosts.contains(u) {
                ghost += 1;
            } else {
                remote += 1;
            }
        }
    }
    assert!(local > 0 && ghost > 0 && remote > 0);
    let task = Declared {
        scatter: Scatter::new(src, dst, ReduceOp::Sum),
        filtered: true,
    };
    let spec = JobSpec::new().reduce(dst, ReduceOp::Sum);
    let report = e.try_run_edge_job(Dir::Out, &spec, task).unwrap();
    assert_eq!(report.traffic.local_writes, local);
    assert_eq!(report.traffic.write_entries, remote);
}

/// The counters a derived spec must leave as they are: every entry the
/// job put on the wire or applied in place.
fn entries(t: &StatsSnapshot) -> [u64; 5] {
    [
        t.read_entries,
        t.write_entries,
        t.ghost_entries,
        t.local_reads,
        t.local_writes,
    ]
}

/// Runs the declared push of `src` into `dst` with `op` over out-edges on
/// a fresh ghosted engine with seeded columns, under
/// `JobSpec::new().reduce(dst, op)` or an empty spec; returns the target
/// and the job's entry counters.
fn run_spec<T: Value>(
    g: &Graph,
    machines: usize,
    op: ReduceOp,
    filtered: bool,
    explicit: bool,
) -> (Vec<T>, [u64; 5]) {
    let mut e = engine(g, machines, true);
    let src = e.add_prop("src", T::init(0));
    let dst = e.add_prop("dst", T::init(0));
    for v in 0..e.num_nodes() as NodeId {
        e.set(src, v, T::src(v as u64));
        e.set(dst, v, T::init(v as u64));
    }
    let spec = match explicit {
        true => JobSpec::new().reduce(dst, op),
        false => JobSpec::new(),
    };
    let scatter = Scatter::new(src, dst, op);
    let task = Declared { scatter, filtered };
    let report = e.try_run_edge_job(Dir::Out, &spec, task).unwrap();
    (e.gather(dst), entries(&report.traffic))
}

/// Every declared case under an empty spec and under the explicit one:
/// the same counters, and the same columns (bit for bit for `i64` and
/// `bool`; an `f64` sum's reductions land in arrival order, as above).
fn derived_spec_matches<T: Value>(ops: &[ReduceOp]) {
    let g = test_graph();
    for machines in [1, 2, 3] {
        for &op in ops {
            for filtered in [false, true] {
                let case = format!("{op:?} machines={machines} filtered={filtered}");
                let (got, got_entries) = run_spec::<T>(&g, machines, op, filtered, false);
                let (want, want_entries) = run_spec::<T>(&g, machines, op, filtered, true);
                assert_same(&got, &want, &case);
                assert_eq!(got_entries, want_entries, "{case}");
            }
        }
    }
}

/// A scatter's target is reduced without being listed: an empty spec runs
/// the same job as one that lists it.
#[test]
fn derived_spec_matches_explicit() {
    derived_spec_matches::<i64>(&OPS);
    derived_spec_matches::<f64>(&OPS);
    derived_spec_matches::<bool>(&[ReduceOp::Or]);
}

/// Declares `.0` and fails the job if it ever starts: a spec that
/// contradicts the declaration must panic on the driver before that.
struct Unstarted(Reduction);
impl EdgeTask for Unstarted {
    fn prepare(&self, _chunk: &mut NodeChunk<'_, '_>) {
        panic!("the job started");
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(self.0)
    }
}

/// Runs a `Max` scatter between two ghosted `i64` columns under the spec
/// `spec` makes of its target.
fn run_unstarted(spec: impl FnOnce(Prop<i64>) -> JobSpec) {
    let mut e = engine(&test_graph(), 2, true);
    let (src, dst) = (e.add_prop("src", 0i64), e.add_prop("dst", 0i64));
    let task = Unstarted(Scatter::new(src, dst, ReduceOp::Max).into());
    let _ = e.try_run_edge_job(Dir::Out, &spec(dst), task);
}

#[test]
#[should_panic(expected = "property declared both read and reduced")]
fn scatter_into_a_target_declared_read_panics_on_the_driver() {
    run_unstarted(|dst| JobSpec::new().read(dst));
}

#[test]
#[should_panic(expected = "property declared reduced twice")]
fn scatter_with_another_op_than_declared_panics_on_the_driver() {
    run_unstarted(|dst| JobSpec::new().reduce(dst, ReduceOp::Min));
}
