//! Lowered ≡ `eval`: the chunk kernels `pgxd::query::execute` builds once
//! per execution — a node job's, and an edge job's prologue, which fills
//! the columns its declared fold or scatter then reads — return, bit for
//! bit, what the reference tree evaluator `pgxd_query::eval` returns for
//! the same expression on the same vertex.
//!
//! Programs are assembled from plan steps directly (no text; an edge job
//! gets its scratch columns from the optimizer's own `add_scratch`), so the
//! expressions cover what sema can type but the parser rarely writes:
//! every `BinOp`, `TUnOp` and ternary shape over all three value types,
//! loads of all three, degrees, `N`, integer `/` (computed in f64,
//! including ÷0), wrapping `i64` add/neg/abs at `i64::MIN`/`MAX`,
//! `&&`/`||`, over columns holding NaN, ±0.0, ±INF and subnormals. A node
//! job checks the node context (two writes, the second reading the
//! first's column, behind a `where` mask), a push job the edge context
//! (body and neighbor filter, scattered), a filtered pull job the fold and
//! its per-vertex reset, and an f64 `min`/`max` aggregate runs in both
//! modes. The first three run in the preset's chunks and in one-vertex
//! chunks, the edge jobs with ghosts on, so prologue → filter → fold or
//! scatter is pinned on every ragged chunk.
//!
//! A node pass is also checked over a machine's whole share in one chunk —
//! several blocks of the kernels' block size, the last one partial — with
//! random subexpressions of its first write evaluated once and shared, and
//! as the epilogue of an edge job. Loop rotation is checked against a
//! sequential reference, on the loops it must refuse too.
//!
//! Mutation-checked: with the integer-`/` closure dividing before
//! widening, with `ToF64` reinterpreting bits, with `logic` ignoring its
//! `and` flag, and with `bin` applying `f(b, a)`, `node_context` and
//! `edge_context` fail within the first cases; with the node kernel running
//! its writes in reverse order or ignoring the mask, `node_context` does;
//! with the edge phase skipping `prepare`, or the edge kernel's filter
//! ignoring its `$pass` column, `edge_context` and `filtered_pull` do; with
//! the pull reset ignoring the mask (what the whole-column prefill did),
//! `filtered_pull` does; with a shared operand reading the first shared
//! lane whatever its index, `node_pass_over_blocks` does.

use pgxd::query::{
    compile, execute, OptReport, Plan, Program, QueryResult, Span, TraverseMode, Ty, Val,
};
use pgxd::{BuildEngine, CancelToken, Engine, ReduceOp};
use pgxd_graph::{generate, Graph, NodeId};
use pgxd_query::ast::BinOp;
use pgxd_query::opt::add_scratch;
use pgxd_query::{
    eval, EvalEnv, NbrSet, NodePass, PFilter, PStep, PropInfo, SOutput, TExpr, TExprKind, TUnOp,
    WhichVar,
};
use pgxd_runtime::props::{bottom_bits, reduce_bits, PropValue};
use proptest::prelude::*;
use proptest::TestRng;

// Slot layout of every generated program.
const F: [usize; 2] = [0, 1];
const I: [usize; 2] = [2, 3];
const B: [usize; 2] = [4, 5];
/// The column a job writes, typed per case.
const OUT: usize = 6;
/// The column a node job's second statement writes, from `OUT`.
const OUT2: usize = 7;

const F64S: [f64; 10] = [
    f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.25,
    1e308,
    5e-324,
    0.1,
];
const I64S: [i64; 8] = [i64::MIN, i64::MAX, 0, -1, 1, 2, -7, 1 << 53];

fn pick<T: Copy>(rng: &mut TestRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

fn e(ty: Ty, kind: TExprKind) -> TExpr {
    TExpr {
        span: Span::default(),
        ty,
        kind,
    }
}

fn constant(v: Val) -> TExpr {
    match v {
        Val::F64(x) => e(Ty::F64, TExprKind::ConstF64(x)),
        Val::I64(x) => e(Ty::I64, TExprKind::ConstI64(x)),
        Val::Bool(x) => e(Ty::Bool, TExprKind::ConstBool(x)),
    }
}

fn random_val(rng: &mut TestRng, ty: Ty) -> Val {
    match ty {
        Ty::F64 if rng.below(4) == 0 => Val::F64(f64::from_bits(rng.next_u64())),
        Ty::F64 => Val::F64(pick(rng, &F64S)),
        Ty::I64 if rng.below(4) == 0 => Val::I64(rng.next_u64() as i64),
        Ty::I64 => Val::I64(pick(rng, &I64S)),
        Ty::Bool => Val::Bool(rng.below(2) == 0),
    }
}

/// A random well-typed expression of type `ty` — the shapes sema produces,
/// plus integer `/`.
fn gen(rng: &mut TestRng, ty: Ty, depth: u32) -> TExpr {
    let var = WhichVar::Outer;
    let leaf = depth == 0 || rng.below(4) == 0;
    let sub = |rng: &mut TestRng, ty| Box::new(gen(rng, ty, depth.saturating_sub(1)));
    let bin = |rng: &mut TestRng, ty, op, operand| {
        let (lhs, rhs) = (sub(rng, operand), sub(rng, operand));
        e(ty, TExprKind::Binary { op, lhs, rhs })
    };
    if !leaf && rng.below(6) == 0 {
        let (cond, then, other) = (sub(rng, Ty::Bool), sub(rng, ty), sub(rng, ty));
        return e(ty, TExprKind::Ternary { cond, then, other });
    }
    match ty {
        Ty::F64 if leaf => match rng.below(2) {
            0 => constant(random_val(rng, ty)),
            _ => e(
                ty,
                TExprKind::Load {
                    slot: pick(rng, &F),
                    var,
                },
            ),
        },
        Ty::I64 if leaf => match rng.below(5) {
            0 => constant(random_val(rng, ty)),
            1 => e(ty, TExprKind::NodeCount),
            2 => e(ty, TExprKind::OutDegree { var }),
            3 => e(ty, TExprKind::InDegree { var }),
            _ => e(
                ty,
                TExprKind::Load {
                    slot: pick(rng, &I),
                    var,
                },
            ),
        },
        Ty::Bool if leaf => match rng.below(2) {
            0 => constant(random_val(rng, ty)),
            _ => e(
                ty,
                TExprKind::Load {
                    slot: pick(rng, &B),
                    var,
                },
            ),
        },
        Ty::F64 => match rng.below(8) {
            0 => {
                let (op, expr) = (pick(rng, &[TUnOp::Neg, TUnOp::Abs]), sub(rng, ty));
                e(ty, TExprKind::Unary { op, expr })
            }
            1 | 2 => {
                let (op, expr) = (TUnOp::ToF64, sub(rng, Ty::I64));
                e(ty, TExprKind::Unary { op, expr })
            }
            3 => bin(rng, ty, BinOp::Div, Ty::I64),
            _ => {
                let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]);
                bin(rng, ty, op, ty)
            }
        },
        Ty::I64 => match rng.below(4) {
            0 => {
                let (op, expr) = (pick(rng, &[TUnOp::Neg, TUnOp::Abs]), sub(rng, ty));
                e(ty, TExprKind::Unary { op, expr })
            }
            _ => {
                let op = pick(rng, &[BinOp::Add, BinOp::Sub, BinOp::Mul]);
                bin(rng, ty, op, ty)
            }
        },
        Ty::Bool => match rng.below(6) {
            0 => {
                let (op, expr) = (TUnOp::Not, sub(rng, ty));
                e(ty, TExprKind::Unary { op, expr })
            }
            1..=3 => {
                let op = pick(rng, &[BinOp::And, BinOp::Or, BinOp::Eq, BinOp::Ne]);
                bin(rng, ty, op, ty)
            }
            _ => {
                use BinOp::{Eq, Ge, Gt, Le, Lt, Ne};
                let op = pick(rng, &[Eq, Ne, Lt, Le, Gt, Ge]);
                let operand = pick(rng, &[Ty::F64, Ty::I64]);
                bin(rng, ty, op, operand)
            }
        },
    }
}

/// Up to `k` distinct random operator subtrees of `e` (leaves are read
/// where they are, so sharing one would change nothing).
fn subtrees(rng: &mut TestRng, e: &TExpr, k: usize) -> Vec<TExpr> {
    fn operators<'a>(e: &'a TExpr, out: &mut Vec<&'a TExpr>) {
        let kids: Vec<&TExpr> = match &e.kind {
            TExprKind::Unary { expr, .. } => vec![expr],
            TExprKind::Binary { lhs, rhs, .. } => vec![lhs, rhs],
            TExprKind::Ternary { cond, then, other } => vec![cond, then, other],
            _ => return,
        };
        out.push(e);
        kids.into_iter().for_each(|kid| operators(kid, out));
    }
    let mut all = Vec::new();
    operators(e, &mut all);
    let mut out: Vec<TExpr> = Vec::new();
    for _ in 0..k {
        if all.is_empty() {
            break;
        }
        let pick = all.swap_remove(rng.below(all.len() as u64) as usize);
        if !out.iter().any(|s| s.same_tree(pick)) {
            out.push(pick.clone());
        }
    }
    out
}

/// A graph whose machines each own several blocks' worth of vertices, not
/// a multiple of the block, with uneven degrees.
fn blocks_graph(seed: u64) -> Graph {
    generate::uniform(1300, 5200, seed)
}

/// One chunk per machine: a node job's chunk is the machine's share.
const ONE_CHUNK: Shape = Shape {
    chunk_edges: Some(1 << 30),
    ghosts: None,
};

/// Random contents for the six input columns, one row per vertex.
struct Columns(Vec<[Val; 6]>);

impl Columns {
    fn random(rng: &mut TestRng, n: usize) -> Self {
        let tys = [Ty::F64, Ty::F64, Ty::I64, Ty::I64, Ty::Bool, Ty::Bool];
        Columns((0..n).map(|_| tys.map(|ty| random_val(rng, ty))).collect())
    }
}

/// The reference environment: `eval` reads the same columns and degrees
/// the engine serves, and `out` as the `OUT` column.
struct RefEnv<'a> {
    g: &'a Graph,
    cols: &'a Columns,
    out: &'a [Val],
    v: usize,
}

impl EvalEnv for RefEnv<'_> {
    fn load(&mut self, slot: usize, _: WhichVar) -> Val {
        match slot {
            OUT => self.out[self.v],
            _ => self.cols.0[self.v][slot],
        }
    }
    fn out_degree(&mut self, _: WhichVar) -> i64 {
        self.g.out_degree(self.v as NodeId) as i64
    }
    fn in_degree(&mut self, _: WhichVar) -> i64 {
        self.g.in_degree(self.v as NodeId) as i64
    }
    fn nodes(&mut self) -> i64 {
        self.g.num_nodes() as i64
    }
}

fn reference(g: &Graph, cols: &Columns, expr: &TExpr) -> Vec<Val> {
    reference_with_out(g, cols, &[], expr)
}

fn reference_with_out(g: &Graph, cols: &Columns, out: &[Val], expr: &TExpr) -> Vec<Val> {
    let at = |v| eval(expr, &mut RefEnv { g, cols, out, v });
    (0..g.num_nodes()).map(at).collect()
}

fn bits(v: Val) -> u64 {
    match v {
        Val::F64(x) => x.to_bits(),
        Val::I64(x) => x as u64,
        Val::Bool(x) => x as u64,
    }
}

/// The 2-machine engine a case runs on: the unit-test preset, optionally
/// with `chunk_edges` and a ghost threshold.
#[derive(Clone, Copy, Debug, Default)]
struct Shape {
    chunk_edges: Option<usize>,
    ghosts: Option<usize>,
}

/// The preset's chunks and one-vertex chunks, both with ghosts over
/// `threshold`.
fn ghosted(threshold: usize) -> [Shape; 2] {
    [None, Some(1)].map(|chunk_edges| Shape {
        chunk_edges,
        ghosts: Some(threshold),
    })
}

/// Runs `job` after seeding the input columns and `OUT` (filled with
/// `out_init`, and typed by it); returns `OUT`'s bit patterns.
fn run(g: &Graph, cols: &Columns, out_init: Val, job: PStep, shape: Shape) -> Vec<u64> {
    run_on(g, cols, &[out_init], job, OUT, shape)
}

/// Runs `job`, with the scratch columns the optimizer would give it, after
/// seeding the input columns and `OUT`, `OUT2`, … with `outs` (each typed
/// by its value), on an engine of `shape`; returns the bit patterns of
/// column `output`.
fn run_on(
    g: &Graph,
    cols: &Columns,
    outs: &[Val],
    mut job: PStep,
    output: usize,
    shape: Shape,
) -> Vec<u64> {
    let prop = |name: &str, ty| {
        Some(PropInfo {
            name: name.into(),
            ty,
            span: Span::default(),
        })
    };
    let mut props = vec![
        prop("a", Ty::F64),
        prop("b", Ty::F64),
        prop("i", Ty::I64),
        prop("j", Ty::I64),
        prop("p", Ty::Bool),
        prop("q", Ty::Bool),
    ];
    let mut steps = Vec::new();
    for (k, &init) in outs.iter().enumerate() {
        props.push(prop(&format!("out{k}"), init.ty()));
        steps.push(PStep::Fill {
            slot: OUT + k,
            value: constant(init),
        });
    }
    for (v, row) in cols.0.iter().enumerate() {
        for (slot, &value) in row.iter().enumerate() {
            steps.push(PStep::PointSet {
                slot,
                vertex: constant(Val::I64(v as i64)),
                value: constant(value),
            });
        }
    }
    add_scratch(&mut job, &mut props);
    steps.push(job);
    let program = Program {
        plan: Plan {
            props,
            steps,
            output: SOutput::Column { slot: output },
        },
        report: OptReport::default(),
        nodes: g.num_nodes() as u64,
    };
    let mut builder = Engine::builder().machines(2).ghost_threshold(shape.ghosts);
    if let Some(edges) = shape.chunk_edges {
        builder = builder.chunk_edges(edges);
    }
    let mut engine = builder.engine(g).unwrap();
    match execute(&mut engine, &program, &CancelToken::never()).unwrap() {
        QueryResult::Column { values, .. } => match values {
            pgxd::query::QueryColumn::F64(xs) => xs.into_iter().map(f64::to_bits).collect(),
            pgxd::query::QueryColumn::I64(xs) => xs.into_iter().map(|x| x as u64).collect(),
            pgxd::query::QueryColumn::Bool(xs) => xs.into_iter().map(|x| x as u64).collect(),
        },
        other => panic!("column expected, got {other:?}"),
    }
}

/// A random node pass — `foreach v where <filter> { v.out = <expr>;
/// v.out2 = <cond> ? v.out : <other>; }`, sharing up to `shared` random
/// subexpressions of `<expr>` — on `g` in each shape, against `eval`. The
/// second statement reads what the first wrote, so the statements must run
/// in order on each vertex, and only where the filter holds. As an
/// `epilogue`, the pass follows the pull of `v.t = sum(u in v.in_nbrs) u.i`
/// in one edge job.
fn check_node_pass(
    rng: &mut TestRng,
    g: &Graph,
    shapes: &[Shape],
    shared: usize,
    epilogue: bool,
) -> Result<(), String> {
    let cols = Columns::random(rng, g.num_nodes());
    let ty = pick(rng, &[Ty::F64, Ty::I64, Ty::Bool]);
    let (filter, expr) = (gen(rng, Ty::Bool, 3), gen(rng, ty, 4));
    let (cond, then) = (
        gen(rng, Ty::Bool, 2),
        Box::new(e(
            ty,
            TExprKind::Load {
                slot: OUT,
                var: WhichVar::Outer,
            },
        )),
    );
    let other = Box::new(gen(rng, ty, 3));
    let expr2 = e(
        ty,
        TExprKind::Ternary {
            cond: Box::new(cond),
            then,
            other,
        },
    );
    let inits = [random_val(rng, ty), random_val(rng, ty), Val::I64(0)];

    let pass = reference(g, &cols, &filter);
    let masked = |values: Vec<Val>, init: Val| -> Vec<Val> {
        let pick = |(v, pass): (Val, &Val)| if pass.as_bool() { v } else { init };
        values.into_iter().zip(&pass).map(pick).collect()
    };
    let out = masked(reference(g, &cols, &expr), inits[0]);
    let out2 = masked(reference_with_out(g, &cols, &out, &expr2), inits[1]);
    // `<expr>` reads no column the pass writes, so each of its
    // subexpressions has one value per vertex.
    let node = NodePass {
        shared: subtrees(rng, &expr, shared),
        ..NodePass::new(
            PFilter::Inline(filter.clone()),
            vec![(OUT, expr.clone()), (OUT2, expr2.clone())],
        )
    };
    let job = match epilogue {
        false => PStep::NodeJob(node.clone()),
        true => PStep::EdgeJob {
            span: Span::default(),
            mode: TraverseMode::Pull,
            set: NbrSet::In,
            op: ReduceOp::Sum,
            target: OUT2 + 1,
            nbr_filter: None,
            vertex_filter: PFilter::None,
            body: e(
                Ty::I64,
                TExprKind::Load {
                    slot: I[0],
                    var: WhichVar::Inner,
                },
            ),
            prefill: true,
            pass: None,
            value: None,
            epilogue: vec![node.clone()],
        },
    };
    for &shape in shapes {
        for (slot, want) in [(OUT, &out), (OUT2, &out2)] {
            let want: Vec<u64> = want.iter().map(|&v| bits(v)).collect();
            let got = run_on(g, &cols, &inits, job.clone(), slot, shape);
            prop_assert_eq!(
                got,
                want,
                "{:?} slot {}\nfilter {:?}\nexpr {:?}\nexpr2 {:?}\nshared {:?}",
                shape,
                slot,
                filter,
                expr,
                expr2,
                node.shared
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Node context: `foreach v where <filter> { v.out = <expr>; v.out2 =
    /// <cond> ? v.out : <other>; }` on a graph with uneven degrees, in
    /// chunks of the preset's size and of one vertex each. The second
    /// statement reads what the first wrote, so the statements must run in
    /// order on each vertex, and only where the filter holds.
    #[test]
    fn node_context(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let shapes = [None, Some(1)].map(|chunk_edges| Shape { chunk_edges, ghosts: None });
        check_node_pass(&mut rng, &generate::star(9), &shapes, 0, false)?;
    }

    /// Edge context: on a ring every vertex has one in-neighbor, so
    /// `v.out = op(u in v.in_nbrs where <filter>) <expr>` is one reduction
    /// of the neighbor's value into the identity — or none. Every vertex
    /// is a ghost on the other machine, so the scatter goes through the
    /// private copies.
    #[test]
    fn edge_context(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let n = 10;
        let g = generate::ring(n);
        let cols = Columns::random(&mut rng, n);
        let ty = pick(&mut rng, &[Ty::F64, Ty::I64]);
        let op = pick(&mut rng, &[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max]);
        let (filter, expr) = (gen(&mut rng, Ty::Bool, 3), gen(&mut rng, ty, 4));

        let tag = if ty == Ty::F64 { f64::TAG } else { i64::TAG };
        let identity = bottom_bits(tag, op);
        let pass = reference(&g, &cols, &filter);
        let value = reference(&g, &cols, &expr);
        let want: Vec<u64> = (0..n)
            .map(|v| {
                let u = (v + n - 1) % n;
                if pass[u].as_bool() {
                    reduce_bits(tag, op, identity, bits(value[u]))
                } else {
                    identity
                }
            })
            .collect();
        let job = PStep::EdgeJob {
            span: Span::default(),
            mode: TraverseMode::Push,
            set: NbrSet::In,
            op,
            target: OUT,
            nbr_filter: Some(filter.clone()),
            vertex_filter: PFilter::None,
            body: expr.clone(),
            prefill: true,
            pass: None,
            value: None,
            epilogue: Vec::new(),
        };
        let init = random_val(&mut rng, ty);
        for shape in ghosted(0) {
            let got = run(&g, &cols, init, job.clone(), shape);
            prop_assert_eq!(&got, &want, "{:?} {:?} filter {:?}\nexpr {:?}", shape, op, filter, expr);
        }
    }

    /// The pull fold and its reset: `foreach v where <filter>
    /// { v.out = op(u in v.in_nbrs) u.i; }` folds the in-neighbors' values
    /// from the identity where the filter holds and leaves `out` alone
    /// where it does not. (`i64` only: its three reductions do not depend
    /// on the order responses arrive in.)
    #[test]
    fn filtered_pull(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let g = generate::rmat(4, 3, generate::RmatParams::skewed(), seed);
        let n = g.num_nodes();
        let cols = Columns::random(&mut rng, n);
        let op = pick(&mut rng, &[ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max]);
        let filter = gen(&mut rng, Ty::Bool, 2);
        let init = random_val(&mut rng, Ty::I64);

        let pass = reference(&g, &cols, &filter);
        let want: Vec<u64> = (0..n)
            .map(|v| {
                if !pass[v].as_bool() {
                    return bits(init);
                }
                g.in_neighbors(v as NodeId)
                    .iter()
                    .map(|&u| bits(cols.0[u as usize][I[0]]))
                    .fold(bottom_bits(i64::TAG, op), |acc, x| reduce_bits(i64::TAG, op, acc, x))
            })
            .collect();
        let job = PStep::EdgeJob {
            span: Span::default(),
            mode: TraverseMode::Pull,
            set: NbrSet::In,
            op,
            target: OUT,
            nbr_filter: None,
            vertex_filter: PFilter::Inline(filter.clone()),
            body: e(Ty::I64, TExprKind::Load { slot: I[0], var: WhichVar::Inner }),
            prefill: true,
            pass: None,
            value: None,
            epilogue: Vec::new(),
        };
        for shape in ghosted(2) {
            let got = run(&g, &cols, init, job.clone(), shape);
            prop_assert_eq!(&got, &want, "{:?} {:?} filter {:?}", shape, op, filter);
        }
    }

    /// Pull and push fold with the same `reduce_bits`, so the same f64
    /// `min`/`max` aggregate gives bit-identical columns in both modes,
    /// NaN, ±INF and subnormal neighbors included. (`+0.0` is left out:
    /// which zero wins a ±0.0 tie is `f64::min`/`max`'s choice and, in
    /// push mode, arrival order's — DESIGN.md §17.4.)
    #[test]
    fn f64_min_max_pull_equals_push(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let g = generate::rmat(4, 3, generate::RmatParams::skewed(), seed);
        let n = g.num_nodes();
        let mut cols = Columns::random(&mut rng, n);
        let no_pos_zero: Vec<f64> = F64S.into_iter().filter(|x| x.to_bits() != 0).collect();
        for row in &mut cols.0 {
            row[F[0]] = Val::F64(pick(&mut rng, &no_pos_zero));
        }
        let op = pick(&mut rng, &[ReduceOp::Min, ReduceOp::Max]);

        let want: Vec<u64> = (0..n)
            .map(|v| {
                g.in_neighbors(v as NodeId)
                    .iter()
                    .map(|&u| bits(cols.0[u as usize][F[0]]))
                    .fold(bottom_bits(f64::TAG, op), |acc, x| reduce_bits(f64::TAG, op, acc, x))
            })
            .collect();
        let job = |mode| PStep::EdgeJob {
            span: Span::default(),
            mode,
            set: NbrSet::In,
            op,
            target: OUT,
            nbr_filter: None,
            vertex_filter: PFilter::None,
            body: e(Ty::F64, TExprKind::Load { slot: F[0], var: WhichVar::Inner }),
            prefill: true,
            pass: None,
            value: None,
            epilogue: Vec::new(),
        };
        let shape = Shape::default();
        let pull = run(&g, &cols, Val::F64(0.5), job(TraverseMode::Pull), shape);
        let push = run(&g, &cols, Val::F64(0.5), job(TraverseMode::Push), shape);
        prop_assert_eq!(&pull, &want, "pull {:?}", op);
        prop_assert_eq!(&push, &want, "push {:?}", op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The node pass over each machine's whole share in one chunk: several
    /// blocks, the last one partial, with up to two shared
    /// subexpressions.
    #[test]
    fn node_pass_over_blocks(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        check_node_pass(&mut rng, &blocks_graph(seed), &[ONE_CHUNK], 2, false)?;
    }

    /// The node pass as an edge job's epilogue, over each worker's share,
    /// in the preset's chunks and with one chunk per machine.
    #[test]
    fn node_pass_as_an_epilogue(seed in any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let shapes = [Shape::default(), ONE_CHUNK];
        check_node_pass(&mut rng, &blocks_graph(seed), &shapes, 1, true)?;
    }
}

/// `x` after `passes` passes of the loop below, and `h` as its last pass
/// left it: on a ring, each vertex sums its one in-neighbor.
fn rotation_reference(n: usize, passes: usize) -> (Vec<u64>, Vec<u64>) {
    let mut x = vec![1.0f64; n];
    x[3] = 5.0;
    let mut h = vec![0.0f64; n];
    for _ in 0..passes {
        h = x.iter().map(|x| x * 0.5).collect();
        x = (0..n).map(|v| (0.0 + h[(v + n - 1) % n]) + 1.0).collect();
    }
    let bits = |xs: Vec<f64>| xs.into_iter().map(f64::to_bits).collect();
    (bits(x), bits(h))
}

/// The loop starts with a node pass `H` (filling `h`) and ends in an edge
/// job, the shape rotation takes; `until` and `return` decide whether it
/// may.
fn rotation_case(until: &str, output: &str, rotated: usize) {
    let n = 40;
    let text = format!(
        "prop x: f64 = 1.0;\nprop h: f64 = 0.0;\nprop s: f64 = 0.0;\nx[3] = 5.0;\n\
         iterate max 5 {{\n\
           foreach v {{ v.h = v.x * 0.5; }}\n\
           foreach v {{ v.s = sum(u in v.in_nbrs) u.h; }}\n\
           foreach v {{ v.x = v.s + 1.0; }}\n\
           until {until};\n\
         }}\nreturn {output};"
    );
    let program = compile(&text, n as u64).unwrap();
    let plan = program.render();
    assert_eq!(program.report.rotated, rotated, "{plan}");
    assert_eq!(plan.contains(" rotated {"), rotated > 0, "{plan}");
    let (x, h) = rotation_reference(n, 5);
    let want = if output == "x" { x } else { h };
    let g = generate::ring(n);
    for shape in [Shape::default(), ONE_CHUNK] {
        let mut builder = Engine::builder().machines(2);
        if let Some(edges) = shape.chunk_edges {
            builder = builder.chunk_edges(edges);
        }
        let mut engine = builder.engine(&g).unwrap();
        let result = execute(&mut engine, &program, &CancelToken::never()).unwrap();
        let got: Vec<u64> = match result.as_column().unwrap().1 {
            pgxd::query::QueryColumn::F64(xs) => xs.iter().map(|x| x.to_bits()).collect(),
            other => panic!("f64 column expected, got {other:?}"),
        };
        assert_eq!(got, want, "{shape:?}\n{plan}");
    }
}

#[test]
fn rotation_runs_the_leading_pass_once_more_where_nothing_reads_it() {
    rotation_case("sum(v) v.x < 0.0", "x", 1);
}

#[test]
fn rotation_is_refused_when_until_reads_the_rotated_column() {
    rotation_case("sum(v) v.h < 0.0", "x", 0);
}

#[test]
fn rotation_is_refused_when_the_rotated_column_is_returned() {
    rotation_case("sum(v) v.x < 0.0", "h", 0);
}
