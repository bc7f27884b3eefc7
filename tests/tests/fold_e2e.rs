//! A declared [`Fold`] ≡ `read_nbr` + a `read_done` doing the same fold.
//!
//! The edge phase folds a vertex's local and ghosted values in a register
//! and stores it once, after the vertex's last edge; remote values are
//! folded as their responses drain. Each case runs one job both ways on the
//! same graph and compares the target columns: {Sum, Min, Max} × {f64, i64}
//! × {1, 2, 3 machines} × ghosts {on, off}, through 64-byte buffers (8 read
//! entries a message, so one hub's remote folds span many messages). `i64`
//! must be bit-identical; `f64` within 1e-12 (the continuation queue runs a
//! vertex's local reads in reverse edge order, the fold runs them in edge
//! order). Two more cases reset passing vertices in the filter hook (the
//! query's `=` semantics) while filtered vertices keep their value, and
//! fold into a vertex whose every in-edge is remote and one with none.
//! Another pins the job's counters to an in-edge census of the graph. The
//! last runs each declared case again with an empty spec, with ghosts on:
//! the fold's own declaration of its read gives the same columns and
//! counters, bit for bit; and a spec that reduces the fold's source
//! panics on the driver before the job starts.
//!
//! Mutation-checked: without the store after a vertex's last edge, every
//! case but the census fails; without the filter call,
//! `filtered_vertices_keep_their_value` and the census do; without the
//! batched local-read count, the census does.

use pgxd::{
    BuildEngine, Dir, EdgeTask, Engine, Fold, JobSpec, NodeChunk, NodeCtx, Prop, PropValue,
    ReadDoneCtx, ReduceOp, Reduction, StatsSnapshot,
};
use pgxd_graph::builder::graph_from_edges;
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_runtime::props::{bottom_bits, reduce_bits};

fn test_graph() -> Graph {
    generate::rmat(8, 8, generate::RmatParams::skewed(), 0xF01D)
}

/// A value type under test: how its columns are seeded and compared.
trait Value: PropValue {
    /// The source value of vertex `v`.
    fn src(v: u64) -> Self;
    /// The target's starting value at vertex `v`.
    fn init(v: u64) -> Self;
    fn assert_same(got: &[Self], want: &[Self], case: &str);
}

impl Value for i64 {
    fn src(v: u64) -> i64 {
        (v.wrapping_mul(2_654_435_761) % 2_001) as i64 - 1_000
    }
    fn init(v: u64) -> i64 {
        (v % 5) as i64 - 2
    }
    fn assert_same(got: &[i64], want: &[i64], case: &str) {
        assert_eq!(got, want, "{case}");
    }
}

impl Value for f64 {
    fn src(v: u64) -> f64 {
        (v.wrapping_mul(7_919) % 1_000) as f64 / 997.0 - 0.5
    }
    fn init(v: u64) -> f64 {
        v as f64 * 0.25 - 3.0
    }
    fn assert_same(got: &[f64], want: &[f64], case: &str) {
        assert_eq!(got.len(), want.len(), "{case}");
        for (v, (a, b)) in got.iter().zip(want).enumerate() {
            assert!((a - b).abs() <= 1e-12, "{case}: vertex {v}: {a} vs {b}");
        }
    }
}

fn fold_bits<T: PropValue>(op: ReduceOp, cur: T, new: T) -> T {
    T::from_bits(reduce_bits(T::TAG, op, cur.to_bits(), new.to_bits()))
}

/// `dst[v] = op(dst[v], src[u])` per in-edge, as a continuation.
struct Continue<T: PropValue> {
    src: Prop<T>,
    dst: Prop<T>,
    op: ReduceOp,
}
impl<T: PropValue> EdgeTask for Continue<T> {
    fn run(&self, ctx: &mut pgxd::EdgeCtx<'_, '_>) {
        ctx.read_nbr(self.src);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        let cur = ctx.get(self.dst);
        ctx.set(self.dst, fold_bits(self.op, cur, ctx.value()));
    }
}

/// Vertices divisible by 3 are filtered out; the rest restart from the
/// reduction identity before their first edge.
fn reset_passing<T: PropValue>(ctx: &mut NodeCtx<'_, '_>, dst: Prop<T>, op: ReduceOp) -> bool {
    let pass = ctx.node() % 3 != 0;
    if pass {
        ctx.set(dst, T::from_bits(bottom_bits(T::TAG, op)));
    }
    pass
}

struct FoldReset<T: PropValue> {
    dst: Prop<T>,
    fold: Fold,
    op: ReduceOp,
}
impl<T: PropValue> EdgeTask for FoldReset<T> {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        reset_passing(ctx, self.dst, self.op)
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(self.fold.into())
    }
}

struct ContinueReset<T: PropValue>(Continue<T>);
impl<T: PropValue> EdgeTask for ContinueReset<T> {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        reset_passing(ctx, self.0.dst, self.0.op)
    }
    fn run(&self, ctx: &mut pgxd::EdgeCtx<'_, '_>) {
        self.0.run(ctx);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        self.0.read_done(ctx);
    }
}

fn engine(g: &Graph, machines: usize, ghosts: bool) -> Engine {
    let e = Engine::builder()
        .machines(machines)
        .buffer_bytes(64)
        .ghost_threshold(ghosts.then_some(16))
        .engine(g)
        .unwrap();
    if ghosts && machines > 1 {
        assert!(!e.cluster().ghosts().is_empty(), "the case needs ghosts");
    }
    e
}

/// Runs the job `make(src, dst)` builds over in-edges on `e` with seeded
/// columns; returns the target.
fn run_on<T: Value, J: EdgeTask>(
    e: &mut Engine,
    make: impl FnOnce(Prop<T>, Prop<T>) -> J,
) -> Vec<T> {
    let src = e.add_prop("src", T::init(0));
    let dst = e.add_prop("dst", T::init(0));
    for v in 0..e.num_nodes() as NodeId {
        e.set(src, v, T::src(v as u64));
        e.set(dst, v, T::init(v as u64));
    }
    e.try_run_edge_job(Dir::In, &JobSpec::new().read(src), make(src, dst))
        .unwrap();
    e.gather(dst)
}

/// [`run_on`] a fresh engine.
fn run<T: Value, J: EdgeTask>(
    g: &Graph,
    machines: usize,
    ghosts: bool,
    make: impl FnOnce(Prop<T>, Prop<T>) -> J,
) -> Vec<T> {
    run_on(&mut engine(g, machines, ghosts), make)
}

const SHAPES: [(usize, bool); 6] = [
    (1, false),
    (1, true),
    (2, false),
    (2, true),
    (3, false),
    (3, true),
];
const OPS: [ReduceOp; 3] = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max];

fn fold_matches_continuation<T: Value>() {
    let g = test_graph();
    for (machines, ghosts) in SHAPES {
        for op in OPS {
            let case = format!("{op:?} machines={machines} ghosts={ghosts}");
            let got = run::<T, _>(&g, machines, ghosts, |src, dst| Fold::new(src, dst, op));
            let want = run::<T, _>(&g, machines, ghosts, |src, dst| Continue { src, dst, op });
            T::assert_same(&got, &want, &case);
        }
    }
}

#[test]
fn fold_matches_continuation_i64() {
    fold_matches_continuation::<i64>();
}

#[test]
fn fold_matches_continuation_f64() {
    fold_matches_continuation::<f64>();
}

/// The filter hook's reset is what the first fold starts from; a vertex
/// the filter excludes keeps its value.
#[test]
fn filtered_vertices_keep_their_value() {
    let g = test_graph();
    for (machines, ghosts) in SHAPES {
        for op in OPS {
            let case = format!("{op:?} machines={machines} ghosts={ghosts}");
            let fold = |src, dst| FoldReset::<i64> {
                dst,
                fold: Fold::new(src, dst, op),
                op,
            };
            let got = run(&g, machines, ghosts, fold);
            let cont = |src, dst| ContinueReset(Continue { src, dst, op });
            let want = run::<i64, _>(&g, machines, ghosts, cont);
            assert_eq!(got, want, "{case}");
            for v in (0..g.num_nodes()).step_by(3) {
                assert_eq!(got[v], i64::init(v as u64), "{case}: filtered vertex {v}");
            }
        }
    }
}

/// Vertex 0's 17 in-neighbors are the top ids (enough to make it the
/// ghosted hub, none of them one); vertex 2 has no in-edge (the ring skips
/// 1 → 2).
fn edge_case_graph() -> Graph {
    const N: NodeId = 64;
    let ring = (0..N).filter(|&v| v != 1).map(|v| (v, (v + 1) % N));
    let far = (N - 17..N - 1).map(|u| (u, 0));
    graph_from_edges(N as usize, ring.chain(far))
}

/// A vertex whose every in-edge is remote gets its value from responses
/// alone, and a vertex with no in-edge keeps its own: both against the
/// continuation and a sequential fold.
#[test]
fn all_remote_and_zero_degree_vertices() {
    let g = edge_case_graph();
    assert!(g.in_neighbors(2).is_empty());
    for (machines, ghosts) in SHAPES {
        for op in OPS {
            let case = format!("{op:?} machines={machines} ghosts={ghosts}");
            let mut e = engine(&g, machines, ghosts);
            if machines > 1 {
                let (part, ghosted) = (e.cluster().partition(), e.cluster().ghosts());
                let remote = |u: NodeId| part.owner(u) != part.owner(0) && !ghosted.contains(u);
                assert!(g.in_neighbors(0).iter().all(|&u| remote(u)), "{case}");
            }
            let got = run_on::<i64, _>(&mut e, |src, dst| Fold::new(src, dst, op));
            let want = run::<i64, _>(&g, machines, ghosts, |src, dst| Continue { src, dst, op });
            assert_eq!(got, want, "{case}");
            for v in [0, 2] {
                let seq = g
                    .in_neighbors(v)
                    .iter()
                    .fold(i64::init(v as u64), |acc, &u| {
                        fold_bits(op, acc, i64::src(u as u64))
                    });
                assert_eq!(got[v as usize], seq, "{case}: vertex {v}");
            }
        }
    }
}

/// Filtered pull on 2 machines with ghosts: the job reads locally exactly
/// the in-edges of passing vertices whose source is owned by the same
/// machine or ghosted, and puts exactly the others on the wire.
#[test]
fn counters_match_the_in_edge_census() {
    let g = test_graph();
    let mut e = engine(&g, 2, true);
    let src = e.add_prop("src", 0i64);
    let dst = e.add_prop("dst", 0i64);
    let (part, ghosts) = (e.cluster().partition(), e.cluster().ghosts());
    let (mut local, mut remote) = (0, 0);
    for v in (0..g.num_nodes() as NodeId).filter(|v| v % 3 != 0) {
        for &u in g.in_neighbors(v) {
            if part.owner(u) == part.owner(v) || ghosts.contains(u) {
                local += 1;
            } else {
                remote += 1;
            }
        }
    }
    assert!(local > 0 && remote > 0);
    let task = FoldReset {
        dst,
        fold: Fold::new(src, dst, ReduceOp::Sum),
        op: ReduceOp::Sum,
    };
    let report = e
        .try_run_edge_job(Dir::In, &JobSpec::new().read(src), task)
        .unwrap();
    assert_eq!(report.traffic.local_reads, local);
    assert_eq!(report.traffic.read_entries, remote);
}

/// The counters a derived spec must leave as they are: every entry the
/// job put on the wire or answered in place.
fn entries(t: &StatsSnapshot) -> [u64; 5] {
    [
        t.read_entries,
        t.write_entries,
        t.ghost_entries,
        t.local_reads,
        t.local_writes,
    ]
}

/// Runs `task` over in-edges on a fresh ghosted engine with seeded
/// columns, under `JobSpec::new().read(src)` or an empty spec; returns the
/// target and the job's entry counters.
fn run_spec<T: Value, J: EdgeTask>(
    g: &Graph,
    machines: usize,
    explicit: bool,
    make: impl FnOnce(Prop<T>, Prop<T>) -> J,
) -> (Vec<T>, [u64; 5]) {
    let mut e = engine(g, machines, true);
    let src = e.add_prop("src", T::init(0));
    let dst = e.add_prop("dst", T::init(0));
    for v in 0..e.num_nodes() as NodeId {
        e.set(src, v, T::src(v as u64));
        e.set(dst, v, T::init(v as u64));
    }
    let spec = match explicit {
        true => JobSpec::new().read(src),
        false => JobSpec::new(),
    };
    let report = e.try_run_edge_job(Dir::In, &spec, make(src, dst)).unwrap();
    (e.gather(dst), entries(&report.traffic))
}

/// Both declared cases, each under an empty spec and under the explicit
/// one: the same counters, and the same columns (bit for bit for `i64`;
/// an `f64` sum's remote responses drain in arrival order, as above).
fn derived_spec_matches_explicit<T: Value + PartialEq>() {
    let g = test_graph();
    for machines in [1, 2, 3] {
        for op in OPS {
            let case = format!("{op:?} machines={machines}");
            let fold = |src, dst| Fold::new(src, dst, op);
            let reset = |src, dst| FoldReset::<T> {
                dst,
                fold: Fold::new(src, dst, op),
                op,
            };
            let runs = [
                (
                    run_spec(&g, machines, false, fold),
                    run_spec(&g, machines, true, fold),
                ),
                (
                    run_spec(&g, machines, false, reset),
                    run_spec(&g, machines, true, reset),
                ),
            ];
            for ((got, got_entries), (want, want_entries)) in runs {
                // A reset vertex with no in-edge keeps the identity, ±inf.
                if got != want {
                    T::assert_same(&got, &want, &case);
                }
                assert_eq!(got_entries, want_entries, "{case}");
            }
        }
    }
}

/// A fold's source is read without being listed: an empty spec runs the
/// same job as one that lists it.
#[test]
fn derived_spec_matches_explicit_i64() {
    derived_spec_matches_explicit::<i64>();
}

#[test]
fn derived_spec_matches_explicit_f64() {
    derived_spec_matches_explicit::<f64>();
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

#[test]
#[should_panic(expected = "property declared both read and reduced")]
fn fold_of_a_source_declared_reduced_panics_on_the_driver() {
    let mut e = engine(&test_graph(), 2, true);
    let (src, dst) = (e.add_prop("src", 0i64), e.add_prop("dst", 0i64));
    let spec = JobSpec::new().reduce(src, ReduceOp::Sum);
    let task = Unstarted(Fold::new(src, dst, ReduceOp::Sum).into());
    let _ = e.try_run_edge_job(Dir::In, &spec, task);
}
