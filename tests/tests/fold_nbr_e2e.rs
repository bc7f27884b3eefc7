//! `EdgeCtx::fold_nbr` ≡ `read_nbr` + a `read_done` doing the same fold.
//!
//! The fold keeps a vertex's local and ghosted values in a register and
//! stores it once, after the vertex's last edge; remote values are folded
//! as their responses drain. Each case runs one job both ways on the same
//! graph and compares the target columns: {Sum, Min, Max} × {f64, i64} ×
//! {1, 2, 3 machines} × ghosts {on, off}, through 64-byte buffers (8 read
//! entries a message, so one hub's remote folds span many messages). `i64`
//! must be bit-identical; `f64` within 1e-12 (the continuation queue ran a
//! vertex's local reads in reverse edge order, the fold runs them in edge
//! order). Two more jobs fold into two targets in one `run` (the
//! accumulator changes key on every edge) and reset passing vertices in
//! the filter hook (the query's `=` semantics) while filtered vertices
//! keep their value.
//!
//! Mutation-checked: without the per-vertex `flush_fold` in the edge
//! phase, every case fails; without the flush when the key changes,
//! `two_targets_in_one_run` does.

use pgxd::{
    BuildEngine, Dir, EdgeCtx, EdgeTask, Engine, JobSpec, NodeCtx, Prop, PropValue, ReadDoneCtx,
    ReduceOp,
};
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

/// `dst[v] = op(dst[v], src[u])` per in-edge, with `fold_nbr`.
struct Fold<T: PropValue> {
    src: Prop<T>,
    dst: Prop<T>,
    op: ReduceOp,
}
impl<T: PropValue> EdgeTask for Fold<T> {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.fold_nbr(self.src, self.dst, self.op);
    }
}

/// The same fold as a continuation.
struct Continue<T: PropValue> {
    src: Prop<T>,
    dst: Prop<T>,
    op: ReduceOp,
}
impl<T: PropValue> EdgeTask for Continue<T> {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.read_nbr(self.src);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        let cur = ctx.get(self.dst);
        ctx.set(self.dst, fold_bits(self.op, cur, ctx.value()));
    }
}

/// Sums into `a` and takes the maximum into `b` on every edge.
struct FoldTwo {
    src: Prop<i64>,
    a: Prop<i64>,
    b: Prop<i64>,
}
impl EdgeTask for FoldTwo {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.fold_nbr(self.src, self.a, ReduceOp::Sum);
        ctx.fold_nbr(self.src, self.b, ReduceOp::Max);
    }
}

struct ContinueTwo {
    src: Prop<i64>,
    a: Prop<i64>,
    b: Prop<i64>,
}
impl EdgeTask for ContinueTwo {
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        ctx.read_nbr_tagged(self.src, 0);
        ctx.read_nbr_tagged(self.src, 1);
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        let (p, op) = match ctx.aux() {
            0 => (self.a, ReduceOp::Sum),
            _ => (self.b, ReduceOp::Max),
        };
        let cur = ctx.get(p);
        ctx.set(p, fold_bits(op, cur, ctx.value()));
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

struct FoldReset<T: PropValue>(Fold<T>);
impl<T: PropValue> EdgeTask for FoldReset<T> {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        reset_passing(ctx, self.0.dst, self.0.op)
    }
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        self.0.run(ctx);
    }
}

struct ContinueReset<T: PropValue>(Continue<T>);
impl<T: PropValue> EdgeTask for ContinueReset<T> {
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        reset_passing(ctx, self.0.dst, self.0.op)
    }
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
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

/// Runs the job `make(src, a, b)` builds over in-edges on a fresh engine
/// with seeded columns; returns the two targets.
fn run<T: Value, J: EdgeTask>(
    g: &Graph,
    machines: usize,
    ghosts: bool,
    make: impl FnOnce(Prop<T>, Prop<T>, Prop<T>) -> J,
) -> (Vec<T>, Vec<T>) {
    let mut e = engine(g, machines, ghosts);
    let src = e.add_prop("src", T::init(0));
    let a = e.add_prop("a", T::init(0));
    let b = e.add_prop("b", T::init(0));
    for v in 0..g.num_nodes() as NodeId {
        e.set(src, v, T::src(v as u64));
        e.set(a, v, T::init(v as u64));
        e.set(b, v, T::init(v as u64 + 1));
    }
    e.try_run_edge_job(Dir::In, &JobSpec::new().read(src), make(src, a, b))
        .unwrap();
    (e.gather(a), e.gather(b))
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
            let (got, _) = run::<T, _>(&g, machines, ghosts, |src, dst, _| Fold { src, dst, op });
            let (want, _) = run::<T, _>(&g, machines, ghosts, |src, dst, _| Continue {
                src,
                dst,
                op,
            });
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

/// Alternating targets flush the accumulator on every edge.
#[test]
fn two_targets_in_one_run() {
    let g = test_graph();
    for (machines, ghosts) in SHAPES {
        let case = format!("machines={machines} ghosts={ghosts}");
        let got = run::<i64, _>(&g, machines, ghosts, |src, a, b| FoldTwo { src, a, b });
        let want = run::<i64, _>(&g, machines, ghosts, |src, a, b| ContinueTwo { src, a, b });
        assert_eq!(got, want, "{case}");
    }
}

/// The filter hook's reset is what the first fold starts from; a vertex
/// the filter excludes keeps its value.
#[test]
fn filtered_vertices_keep_their_value() {
    let g = test_graph();
    for (machines, ghosts) in SHAPES {
        for op in OPS {
            let case = format!("{op:?} machines={machines} ghosts={ghosts}");
            let fold = |src, dst, _| FoldReset(Fold { src, dst, op });
            let (got, _) = run::<i64, _>(&g, machines, ghosts, fold);
            let cont = |src, dst, _| ContinueReset(Continue { src, dst, op });
            let (want, _) = run::<i64, _>(&g, machines, ghosts, cont);
            assert_eq!(got, want, "{case}");
            for v in (0..g.num_nodes()).step_by(3) {
                assert_eq!(got[v], i64::init(v as u64), "{case}: filtered vertex {v}");
            }
        }
    }
}
