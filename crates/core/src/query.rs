//! Executing compiled queries: the back end of the declarative front-end.
//!
//! `pgxd-query` turns query text into a [`Program`] — an optimized
//! logical plan over property *slots*. This module is the other half:
//! [`execute`] materializes the slots as real property columns of a live
//! [`Engine`], lowers the plan against them once — every expression to a
//! block kernel over `Prop` handles, every step to a job that loops re-run
//! as it is: a node job is a kernel, an edge job a kernel as its chunk
//! prologue, a declared [`Fold`] or [`Scatter`], and the fused node passes
//! as its epilogue — and runs the lowered steps on the same primitives
//! hand-written algorithms use: `try_run_node_job_with`,
//! `try_run_edge_job_with`, driver-side `fill`/`reduce`/`count_true`.
//! Nothing here bypasses the barrier protocol, so compiled queries
//! inherit cancellation, deadlines, and fault surfacing for free.
//!
//! Three entry points, by ownership of the engine:
//!
//! * [`execute`] — raw: caller holds `&mut Engine` and a token.
//! * [`QuerySessionExt::query`] — served: compile against the server's graph
//!   profile, submit through admission control with the rendered plan
//!   attached to the [`JobReport`](crate::JobReport).
//! * [`RecoverableQuery`] — checkpointed: adapts a program's iteration
//!   structure to [`ResumableAlgorithm`] so the
//!   [`RecoveryDriver`](crate::RecoveryDriver) can restart it mid-loop
//!   after machine loss.
//!
//! ```
//! use pgxd::query::QuerySessionExt;
//! use pgxd::{BuildEngine, Engine};
//! use pgxd_graph::generate;
//!
//! let g = generate::ring(32);
//! let server = Engine::builder().machines(2).engine(&g).unwrap().into_server();
//! let session = server.session("docs");
//! let total = session
//!     .query("return sum(v) v.out_degree;")
//!     .unwrap()
//!     .join()
//!     .unwrap();
//! assert_eq!(total.as_scalar().unwrap().as_i64(), 32);
//! server.shutdown();
//! ```

use crate::serve::{JobHandle, Lane, Session};
use crate::task::{Col, EdgeTask, Fold, NodeChunk, NodeCtx, NodeTask, Reduction, Scatter};
use crate::{
    CancelReason, CancelToken, Dir, Engine, JobError, JobSpec, NodeId, Prop, PropValue, ReduceOp,
    ResumableAlgorithm, StepOutcome,
};
/// The whole front-end surface rides along: `pgxd::query::compile` is the
/// text-to-program pipeline, the rest is what its results are made of.
pub use pgxd_query::{
    compile, plan_naive, ErrorKind, OptReport, Plan, Program, QueryColumn, QueryError, QueryResult,
    Span, TraverseMode, Ty, Val,
};

use pgxd_query::ast::BinOp;
use pgxd_query::plan::MAX_SHARED;
use pgxd_query::{
    agg_needs_column, const_val, eval, identity, AggFn, EvalEnv, NbrSet, NodePass, PFilter, PStep,
    SOutput, TExpr, TExprKind, TUnOp, WhichVar,
};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

// ---- property slots ---------------------------------------------------

/// A created property column of any of the three query value types.
#[derive(Clone, Copy, Debug)]
enum AnyProp {
    F64(Prop<f64>),
    I64(Prop<i64>),
    Bool(Prop<bool>),
}

impl AnyProp {
    fn ty(self) -> Ty {
        match self {
            AnyProp::F64(_) => Ty::F64,
            AnyProp::I64(_) => Ty::I64,
            AnyProp::Bool(_) => Ty::Bool,
        }
    }
}

/// The columns one execution creates: one per live plan slot, in slot
/// order (eliminated slots stay `None` and never touch the engine), then
/// the program's `$agg` columns.
#[derive(Default)]
struct Columns {
    slots: Vec<Option<AnyProp>>,
    aggs: Vec<AnyProp>,
}

fn create_props(engine: &mut Engine, program: &Program) -> Columns {
    let mut add = |name: &str, ty| match ty {
        Ty::F64 => AnyProp::F64(engine.add_prop(name, 0.0f64)),
        Ty::I64 => AnyProp::I64(engine.add_prop(name, 0i64)),
        Ty::Bool => AnyProp::Bool(engine.add_prop(name, false)),
    };
    let props = &program.plan.props;
    Columns {
        slots: props
            .iter()
            .map(|info| info.as_ref().map(|i| add(&i.name, i.ty)))
            .collect(),
        aggs: program
            .agg_columns()
            .into_iter()
            .map(|ty| add("$agg", ty))
            .collect(),
    }
}

fn drop_props(engine: &mut Engine, cols: &Columns) {
    for prop in cols.slots.iter().flatten().chain(&cols.aggs) {
        match *prop {
            AnyProp::F64(p) => engine.drop_prop(p),
            AnyProp::I64(p) => engine.drop_prop(p),
            AnyProp::Bool(p) => engine.drop_prop(p),
        }
    }
}

fn fill_prop(engine: &Engine, prop: AnyProp, v: Val) {
    match prop {
        AnyProp::F64(p) => engine.fill(p, v.as_f64()),
        AnyProp::I64(p) => engine.fill(p, v.as_i64()),
        AnyProp::Bool(p) => engine.fill(p, v.as_bool()),
    }
}

fn set_prop(engine: &Engine, prop: AnyProp, vertex: NodeId, v: Val) {
    match prop {
        AnyProp::F64(p) => engine.set(p, vertex, v.as_f64()),
        AnyProp::I64(p) => engine.set(p, vertex, v.as_i64()),
        AnyProp::Bool(p) => engine.set(p, vertex, v.as_bool()),
    }
}

fn reduce_prop(engine: &Engine, prop: AnyProp, op: ReduceOp) -> Val {
    match prop {
        AnyProp::F64(p) => Val::F64(engine.reduce(p, op)),
        AnyProp::I64(p) => Val::I64(engine.reduce(p, op)),
        // Boolean aggregation targets are rejected by sema; counting is
        // the only meaningful fallback.
        AnyProp::Bool(p) => Val::I64(engine.count_true(p) as i64),
    }
}

fn cancel_error(cancel: &CancelToken) -> Option<JobError> {
    cancel.fired().map(|reason| match reason {
        CancelReason::Explicit => JobError::Cancelled { job: cancel.job() },
        CancelReason::Deadline => JobError::DeadlineExceeded { job: cancel.job() },
    })
}

/// A literal of `v`'s type.
fn const_expr(v: Val) -> TExpr {
    TExpr {
        span: Span::default(),
        ty: v.ty(),
        kind: match v {
            Val::F64(x) => TExprKind::ConstF64(x),
            Val::I64(x) => TExprKind::ConstI64(x),
            Val::Bool(x) => TExprKind::ConstBool(x),
        },
    }
}

// ---- lowering: expressions to block kernels ---------------------------
//
// Every expression a job evaluates is lowered once, before the first job
// runs: slots become `Prop<T>` handles, `N` and literals are captured,
// coercions are picked from the static types. A kernel runs over a range
// of vertices — a chunk, or an epilogue's whole share — one block of
// `BLOCK` vertices at a time. Each operator is one closure call per block
// and one loop over the block's vertices that reads its operands where
// they are: a constant, a column of the vertex, a degree (widened to
// `f64` in place when it is one), or the lane — `BLOCK` cells of value
// bits on the stack — that an operand below it computed. An operator
// computes into its own lane in place: the first computed operand fills
// it, and each cell is read before it is overwritten. Lanes are reused
// block after block, so a kernel allocates nothing however many chunks a
// job has. A node job is such a kernel ([`NodeKernel`]); an edge job runs
// one as its chunk prologue, which stores its filter and its value in
// columns its declared fold or scatter reads, and one as its epilogue
// ([`EdgeKernel`]). Nothing touches a `Val` or the slot table.
// `pgxd_query::eval` is the reference the kernels are property-tested
// against (`tests/tests/query_lowering_props.rs`); the executor itself
// only calls it for driver-side scalars.

/// Vertices per block: the length of every lane.
const BLOCK: usize = 256;

/// The block a lowered expression is evaluated over: its vertices (local
/// indices, at most [`BLOCK`] of them) and the lanes of the pass's shared
/// subexpressions over them.
struct Block<'l> {
    nodes: Range<usize>,
    shared: &'l [[u64; BLOCK]],
}

/// A computed operand: fills `out`, one cell per vertex of the block, with
/// the bits of its value.
///
/// `&&`, `||` and `?:` compute both branches and then pick, which is the
/// per-vertex result only because every lowered expression is pure and
/// total: `i64` arithmetic wraps, `/` is computed in `f64`, loads and
/// degrees are of the current vertex, and nothing panics or writes. An
/// operator that can fail or has an effect must not be lowered here.
type Kx = Box<dyn Fn(&mut NodeChunk<'_, '_>, &Block<'_>, &mut [u64]) + Send + Sync>;

/// A lane's value type: the three column types. A degree is widened to it
/// with `from_i64` (lowering only reads degrees as `i64` or `f64`).
trait Elem: PropValue {
    fn from_i64(x: i64) -> Self;
}

impl Elem for f64 {
    fn from_i64(x: i64) -> f64 {
        x as f64
    }
}

impl Elem for i64 {
    fn from_i64(x: i64) -> i64 {
        x
    }
}

impl Elem for bool {
    fn from_i64(x: i64) -> bool {
        x != 0
    }
}

/// What an expression of type `T` lowers to. Only `Lane` runs anything of
/// its own; the others are leaves, read by the operator above in its loop.
enum Operand<T: Elem> {
    Const(T),
    /// A column of the vertex.
    Col(Prop<T>),
    /// The vertex's out-degree (`true`) or in-degree, widened to `T`.
    Deg(bool),
    /// The pass's `k`-th shared subexpression.
    Shared(usize),
    Lane(Kx),
}

/// Where an operator's loop reads an operand, resolved for one block.
enum Src<'l, T: PropValue> {
    Const(T),
    Col(Col<T>),
    Deg(bool),
    Lane(&'l [u64]),
    /// The cell of the operator's own lane, which holds this operand's
    /// value until the loop overwrites it.
    Own,
}

/// Binds `$get` to the reader of `$src` — `(own cell, index, vertex)` to
/// value — and expands `$body` once per kind of source, so each loop reads
/// its operands without a branch.
macro_rules! with_get {
    ($ch:expr, $n:expr, $src:expr, |$get:ident| $body:expr) => {
        match $src {
            Src::Const(k) => {
                let k = *k;
                let $get = move |_: u64, _: usize, _: usize| k;
                $body
            }
            Src::Col(col) => {
                let $get = |_: u64, _: usize, v: usize| col.get(v);
                $body
            }
            Src::Deg(true) => {
                let $get = |_: u64, _: usize, v: usize| Elem::from_i64($ch.out_degree(v) as i64);
                $body
            }
            Src::Deg(false) => {
                let $get = |_: u64, _: usize, v: usize| Elem::from_i64($ch.in_degree(v) as i64);
                $body
            }
            Src::Lane(lane) => {
                let lane = &lane[..$n];
                let $get = |_: u64, i: usize, _: usize| PropValue::from_bits(lane[i]);
                $body
            }
            Src::Own => {
                let $get = |own: u64, _: usize, _: usize| PropValue::from_bits(own);
                $body
            }
        }
    };
}

fn lane<T: Elem>(
    f: impl Fn(&mut NodeChunk<'_, '_>, &Block<'_>, &mut [u64]) + Send + Sync + 'static,
) -> Operand<T> {
    Operand::Lane(Box::new(f))
}

impl<T: Elem> Operand<T> {
    /// The operand as a source for a loop over `out`: a computed one is
    /// computed into `out` itself.
    fn src<'l>(&self, ch: &mut NodeChunk<'_, '_>, blk: &Block<'l>, out: &mut [u64]) -> Src<'l, T> {
        match self {
            Operand::Const(k) => Src::Const(*k),
            Operand::Col(p) => Src::Col(ch.col(*p)),
            Operand::Deg(out_edges) => Src::Deg(*out_edges),
            Operand::Shared(k) => Src::Lane(&blk.shared[*k][..blk.nodes.len()]),
            Operand::Lane(f) => {
                f(ch, blk, out);
                Src::Own
            }
        }
    }

    /// Runs `k` with the operand as a source whose lane, if it is computed,
    /// is not `out` but a lane of this frame — a frame that an operator
    /// with one computed operand, recursing through it (`a + b + c + …`,
    /// which the parser does not bound), never enters.
    #[inline(never)]
    fn src_aside<R>(
        &self,
        ch: &mut NodeChunk<'_, '_>,
        blk: &Block<'_>,
        k: impl FnOnce(&mut NodeChunk<'_, '_>, &Src<'_, T>) -> R,
    ) -> R {
        let mut lane = [0u64; BLOCK];
        let src = self.src(ch, blk, &mut lane[..blk.nodes.len()]);
        let src = match src {
            Src::Own => Src::Lane(&lane[..blk.nodes.len()]),
            src => src,
        };
        k(ch, &src)
    }

    /// Fills `out` with the operand's bits.
    fn fill(&self, ch: &mut NodeChunk<'_, '_>, blk: &Block<'_>, out: &mut [u64]) {
        match self.src(ch, blk, out) {
            Src::Own => {}
            src => map(ch, &blk.nodes, out, &src, |x: T| x),
        }
    }

    fn is_lane(&self) -> bool {
        matches!(self, Operand::Lane(_))
    }
}

/// `out = f(a)` over the block.
fn map<T: Elem, R: PropValue>(
    ch: &NodeChunk<'_, '_>,
    nodes: &Range<usize>,
    out: &mut [u64],
    a: &Src<'_, T>,
    f: impl Fn(T) -> R,
) {
    let n = out.len();
    with_get!(ch, n, a, |a| {
        for (i, (o, v)) in out.iter_mut().zip(nodes.clone()).enumerate() {
            *o = f(a(*o, i, v)).to_bits();
        }
    })
}

/// `out = f(a, b)` over the block.
fn zip<T: Elem, R: PropValue>(
    ch: &NodeChunk<'_, '_>,
    nodes: &Range<usize>,
    out: &mut [u64],
    (a, b): (&Src<'_, T>, &Src<'_, T>),
    f: impl Fn(T, T) -> R,
) {
    let n = out.len();
    with_get!(ch, n, a, |a| with_get!(ch, n, b, |b| {
        for (i, (o, v)) in out.iter_mut().zip(nodes.clone()).enumerate() {
            let own = *o;
            *o = f(a(own, i, v), b(own, i, v)).to_bits();
        }
    }))
}

/// An operator of one operand.
fn un<T: Elem, R: Elem>(
    a: Operand<T>,
    f: impl Fn(T) -> R + Copy + Send + Sync + 'static,
) -> Operand<R> {
    if let Operand::Const(x) = a {
        return Operand::Const(f(x));
    }
    lane(move |ch, blk, out| {
        let a = a.src(ch, blk, out);
        map(ch, &blk.nodes, out, &a, f)
    })
}

/// An operator of two operands.
fn bin<T: Elem, R: Elem>(
    a: Operand<T>,
    b: Operand<T>,
    f: impl Fn(T, T) -> R + Copy + Send + Sync + 'static,
) -> Operand<R> {
    if let (Operand::Const(x), Operand::Const(y)) = (&a, &b) {
        return Operand::Const(f(*x, *y));
    }
    lane(move |ch, blk, out| {
        let sa = a.src(ch, blk, out);
        if matches!(sa, Src::Own) && b.is_lane() {
            b.src_aside(ch, blk, |ch, sb| zip(ch, &blk.nodes, out, (&sa, sb), f))
        } else {
            let sb = b.src(ch, blk, out);
            zip(ch, &blk.nodes, out, (&sa, &sb), f)
        }
    })
}

/// `cond ? then : other`: `then` fills the lane, then `other` replaces it
/// where `cond` does not hold.
fn tern<T: Elem>(cond: Operand<bool>, then: Operand<T>, other: Operand<T>) -> Operand<T> {
    if let Operand::Const(c) = cond {
        return if c { then } else { other };
    }
    lane(move |ch, blk, out| {
        then.fill(ch, blk, out);
        cond.src_aside(ch, blk, |ch, c| {
            other.src_aside(ch, blk, |ch, o| {
                let n = out.len();
                with_get!(ch, n, c, |c| with_get!(ch, n, o, |o| {
                    for (i, (cell, v)) in out.iter_mut().zip(blk.nodes.clone()).enumerate() {
                        let (pass, x): (bool, T) = (c(0, i, v), o(0, i, v));
                        *cell = select(pass, *cell, x.to_bits());
                    }
                }))
            })
        })
    })
}

/// `pass ? a : b` without a branch: a filter or a condition is as likely
/// to hold as not, vertex after vertex.
#[inline(always)]
fn select(pass: bool, a: u64, b: u64) -> u64 {
    let keep = (pass as u64).wrapping_neg();
    (a & keep) | (b & !keep)
}

/// `&&` (`and`) or `||`. Both operands are evaluated, which is sound only
/// because lowered expressions are pure and total (see [`Kx`]).
fn logic(a: Operand<bool>, b: Operand<bool>, and: bool) -> Operand<bool> {
    match and {
        true => bin(a, b, |x: bool, y: bool| x && y),
        false => bin(a, b, |x: bool, y: bool| x || y),
    }
}

fn compare<T: Elem + PartialOrd>(op: BinOp, a: Operand<T>, b: Operand<T>) -> Option<Operand<bool>> {
    Some(match op {
        BinOp::Eq => bin(a, b, |x: T, y: T| x == y),
        BinOp::Ne => bin(a, b, |x: T, y: T| x != y),
        BinOp::Lt => bin(a, b, |x: T, y: T| x < y),
        BinOp::Le => bin(a, b, |x: T, y: T| x <= y),
        BinOp::Gt => bin(a, b, |x: T, y: T| x > y),
        BinOp::Ge => bin(a, b, |x: T, y: T| x >= y),
        _ => return None,
    })
}

/// A lowered `v.p = e` over a block: `e`'s value is stored on every vertex
/// the mask lane (if any) passes.
type LaneWrite = Box<dyn Fn(&mut NodeChunk<'_, '_>, &Block<'_>, Option<&[u64]>) + Send + Sync>;

fn lane_write<T: Elem>(value: Operand<T>, p: Prop<T>) -> LaneWrite {
    Box::new(move |ch, blk, mask| {
        value.src_aside(ch, blk, |ch, x| {
            let col = ch.col(p);
            with_get!(ch, blk.nodes.len(), x, |x| match mask {
                None => {
                    for (i, v) in blk.nodes.clone().enumerate() {
                        col.set(v, x(0, i, v));
                    }
                }
                // A vertex the mask fails gets its own value back.
                Some(mask) => {
                    for ((i, v), &pass) in blk.nodes.clone().enumerate().zip(mask) {
                        let (new, old) = (x(0, i, v).to_bits(), col.get(v).to_bits());
                        col.set(v, T::from_bits(select(pass != 0, new, old)));
                    }
                }
            })
        })
    })
}

/// Stores the mask itself in `p`: a filter's value on every vertex.
fn mask_write(p: Prop<bool>) -> LaneWrite {
    Box::new(move |ch, blk, mask| {
        let col = ch.col(p);
        for (i, v) in blk.nodes.clone().enumerate() {
            col.set(v, mask.is_none_or(|mask| mask[i] != 0));
        }
    })
}

/// A lowered shared subexpression: fills its lane.
type SharedFill = Box<dyn Fn(&mut NodeChunk<'_, '_>, &Block<'_>, &mut [u64]) + Send + Sync>;

fn shared_fill<T: Elem>(value: Operand<T>) -> SharedFill {
    Box::new(move |ch, blk, lane| value.fill(ch, blk, lane))
}

/// What one execution lowers and runs against: its columns, the vertex
/// count, its token.
struct Exec<'a> {
    cols: &'a Columns,
    n: i64,
    cancel: &'a CancelToken,
}

impl Exec<'_> {
    fn prop(&self, slot: usize) -> Option<AnyProp> {
        self.cols.slots.get(slot).copied().flatten()
    }

    /// Lowers expressions in which the subtrees equal to one of `shared`
    /// read its lane.
    fn lower<'s>(&'s self, shared: &'s [TExpr]) -> Lower<'s> {
        Lower { ex: self, shared }
    }

    /// A node pass over a block: the shared lanes, the filter's mask lane,
    /// then each write in statement order.
    fn pass(&self, node: &NodePass) -> Result<Pass, JobError> {
        let lower = self.lower(&node.shared);
        let mut writes = Vec::with_capacity(node.writes.len());
        for (slot, expr) in &node.writes {
            if let Some(prop) = self.prop(*slot) {
                writes.push(lower.write(prop, expr)?);
            }
        }
        let shared = (0..node.shared.len().min(MAX_SHARED))
            .map(|k| self.lower(&node.shared[..k]).shared_fill(&node.shared[k]))
            .collect::<Result<_, _>>()?;
        Ok(Pass {
            mask: lower.filter(&node.filter)?,
            shared,
            writes,
        })
    }
}

/// The lowering of one node pass. Sema's typing is trusted for which
/// closure to build; a tree it could not have produced (hand-built plans)
/// is refused, not evaluated to a dummy.
struct Lower<'a> {
    ex: &'a Exec<'a>,
    shared: &'a [TExpr],
}

fn ill_typed(e: &TExpr) -> JobError {
    JobError::Protocol(format!(
        "ill-typed {} expression at {}:{} reached the executor",
        e.ty, e.span.line, e.span.col
    ))
}

impl Lower<'_> {
    /// Which shared lane `e` is, if any.
    fn shared_index(&self, e: &TExpr) -> Option<usize> {
        let shared = self.shared.iter().take(MAX_SHARED);
        shared.into_iter().position(|s| s.same_tree(e))
    }

    fn f64(&self, e: &TExpr) -> Result<Operand<f64>, JobError> {
        if let Some(k) = self.shared_index(e) {
            return Ok(Operand::Shared(k));
        }
        Ok(match &e.kind {
            TExprKind::ConstF64(v) => Operand::Const(*v),
            TExprKind::Load { slot, .. } => match self.ex.prop(*slot) {
                Some(AnyProp::F64(p)) => Operand::Col(p),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::Unary { op, expr } => match (op, expr.ty) {
                (TUnOp::Neg, Ty::F64) => un(self.f64(expr)?, |x: f64| -x),
                (TUnOp::Abs, Ty::F64) => un(self.f64(expr)?, f64::abs),
                (TUnOp::ToF64, Ty::F64) => self.f64(expr)?,
                // A degree is read as an `f64` where it is read.
                (TUnOp::ToF64, Ty::I64) => match (&expr.kind, self.shared_index(expr)) {
                    (TExprKind::OutDegree { .. }, None) => Operand::Deg(true),
                    (TExprKind::InDegree { .. }, None) => Operand::Deg(false),
                    _ => un(self.i64(expr)?, |x: i64| x as f64),
                },
                (TUnOp::ToF64, Ty::Bool) => un(self.bool(expr)?, |x: bool| x as i64 as f64),
                _ => return Err(ill_typed(e)),
            },
            // Integer `/` computes in f64, like everything `/` does.
            TExprKind::Binary {
                op: BinOp::Div,
                lhs,
                rhs,
            } if lhs.ty == Ty::I64 => bin(self.i64(lhs)?, self.i64(rhs)?, |x: i64, y: i64| {
                x as f64 / y as f64
            }),
            TExprKind::Binary { op, lhs, rhs } => {
                let (a, b) = (self.f64(lhs)?, self.f64(rhs)?);
                match op {
                    BinOp::Add => bin(a, b, |x: f64, y: f64| x + y),
                    BinOp::Sub => bin(a, b, |x: f64, y: f64| x - y),
                    BinOp::Mul => bin(a, b, |x: f64, y: f64| x * y),
                    BinOp::Div => bin(a, b, |x: f64, y: f64| x / y),
                    _ => return Err(ill_typed(e)),
                }
            }
            TExprKind::Ternary { cond, then, other } => {
                tern(self.bool(cond)?, self.f64(then)?, self.f64(other)?)
            }
            _ => return Err(ill_typed(e)),
        })
    }

    fn i64(&self, e: &TExpr) -> Result<Operand<i64>, JobError> {
        if let Some(k) = self.shared_index(e) {
            return Ok(Operand::Shared(k));
        }
        Ok(match &e.kind {
            TExprKind::ConstI64(v) => Operand::Const(*v),
            TExprKind::NodeCount => Operand::Const(self.ex.n),
            TExprKind::Load { slot, .. } => match self.ex.prop(*slot) {
                Some(AnyProp::I64(p)) => Operand::Col(p),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::OutDegree { .. } => Operand::Deg(true),
            TExprKind::InDegree { .. } => Operand::Deg(false),
            TExprKind::Unary { op, expr } => match op {
                TUnOp::Neg => un(self.i64(expr)?, i64::wrapping_neg),
                TUnOp::Abs => un(self.i64(expr)?, i64::wrapping_abs),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::Binary { op, lhs, rhs } => {
                let (a, b) = (self.i64(lhs)?, self.i64(rhs)?);
                match op {
                    BinOp::Add => bin(a, b, i64::wrapping_add),
                    BinOp::Sub => bin(a, b, i64::wrapping_sub),
                    BinOp::Mul => bin(a, b, i64::wrapping_mul),
                    _ => return Err(ill_typed(e)),
                }
            }
            TExprKind::Ternary { cond, then, other } => {
                tern(self.bool(cond)?, self.i64(then)?, self.i64(other)?)
            }
            _ => return Err(ill_typed(e)),
        })
    }

    fn bool(&self, e: &TExpr) -> Result<Operand<bool>, JobError> {
        if let Some(k) = self.shared_index(e) {
            return Ok(Operand::Shared(k));
        }
        Ok(match &e.kind {
            TExprKind::ConstBool(v) => Operand::Const(*v),
            TExprKind::Load { slot, .. } => match self.ex.prop(*slot) {
                Some(AnyProp::Bool(p)) => Operand::Col(p),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::Unary {
                op: TUnOp::Not,
                expr,
            } => un(self.bool(expr)?, |x: bool| !x),
            TExprKind::Binary { op, lhs, rhs } => match (op, lhs.ty) {
                (BinOp::And, _) => Some(logic(self.bool(lhs)?, self.bool(rhs)?, true)),
                (BinOp::Or, _) => Some(logic(self.bool(lhs)?, self.bool(rhs)?, false)),
                (_, Ty::F64) => compare(*op, self.f64(lhs)?, self.f64(rhs)?),
                (_, Ty::I64) => compare(*op, self.i64(lhs)?, self.i64(rhs)?),
                (BinOp::Eq | BinOp::Ne, Ty::Bool) => compare(*op, self.bool(lhs)?, self.bool(rhs)?),
                _ => None,
            }
            .ok_or_else(|| ill_typed(e))?,
            TExprKind::Ternary { cond, then, other } => {
                tern(self.bool(cond)?, self.bool(then)?, self.bool(other)?)
            }
            _ => return Err(ill_typed(e)),
        })
    }

    /// `v.<prop> = e` over a block, typed by the column.
    fn write(&self, prop: AnyProp, e: &TExpr) -> Result<LaneWrite, JobError> {
        Ok(match prop {
            AnyProp::F64(p) => lane_write(self.f64(e)?, p),
            AnyProp::I64(p) => lane_write(self.i64(e)?, p),
            AnyProp::Bool(p) => lane_write(self.bool(e)?, p),
        })
    }

    /// `e` into a shared lane, typed by the tree.
    fn shared_fill(&self, e: &TExpr) -> Result<SharedFill, JobError> {
        Ok(match e.ty {
            Ty::F64 => shared_fill(self.f64(e)?),
            Ty::I64 => shared_fill(self.i64(e)?),
            Ty::Bool => shared_fill(self.bool(e)?),
        })
    }

    fn filter(&self, f: &PFilter) -> Result<Option<Operand<bool>>, JobError> {
        Ok(match f {
            PFilter::None => None,
            PFilter::Inline(pred) => Some(self.bool(pred)?),
            PFilter::Mask { slot } => match self.ex.prop(*slot) {
                Some(AnyProp::Bool(p)) => Some(Operand::Col(p)),
                _ => None,
            },
        })
    }
}

// ---- lowering: steps to re-runnable jobs ------------------------------

/// A lowered [`NodePass`] over a block: the shared lanes, the filter's
/// mask lane, then each write in statement order. That is what the
/// per-vertex order — filter, then every statement, one vertex at a time —
/// computes, because a pass's statements read and write only the current
/// vertex: whichever order the vertices go in, no vertex sees another's
/// writes. A shared lane equals the subexpression at each of its
/// occurrences because the optimizer shares only what no earlier write
/// changes.
struct Pass {
    mask: Option<Operand<bool>>,
    shared: Vec<SharedFill>,
    writes: Vec<LaneWrite>,
}

impl Pass {
    fn run(
        &self,
        chunk: &mut NodeChunk<'_, '_>,
        nodes: Range<usize>,
        mask: &mut [u64],
        lanes: &mut [[u64; BLOCK]],
    ) {
        let n = nodes.len();
        for (k, fill) in self.shared.iter().enumerate() {
            let (done, rest) = lanes.split_at_mut(k);
            let blk = Block {
                nodes: nodes.clone(),
                shared: done,
            };
            fill(chunk, &blk, &mut rest[0][..n]);
        }
        let blk = Block {
            nodes,
            shared: &lanes[..self.shared.len()],
        };
        let mask = match &self.mask {
            Some(filter) => {
                filter.fill(chunk, &blk, mask);
                Some(&*mask)
            }
            None => None,
        };
        for write in &self.writes {
            write(chunk, &blk, mask);
        }
    }
}

/// Node passes run over a range of vertices (a chunk, or an epilogue's
/// share), block by block: every pass over a block before the next block,
/// as each vertex's passes run in order and read only that vertex.
struct NodeKernel {
    passes: Vec<Pass>,
}

impl NodeKernel {
    fn apply(&self, chunk: &mut NodeChunk<'_, '_>) {
        let lanes = self.passes.iter().map(|p| p.shared.len()).max();
        match lanes {
            None => {}
            Some(0) => self.blocks::<0>(chunk),
            Some(1) => self.blocks::<1>(chunk),
            Some(2) => self.blocks::<2>(chunk),
            Some(_) => self.blocks::<MAX_SHARED>(chunk),
        }
    }

    /// The blocks of the chunk, with room for `S` shared lanes (the most
    /// any pass has) on the stack.
    fn blocks<const S: usize>(&self, chunk: &mut NodeChunk<'_, '_>) {
        let (mut mask, mut lanes) = ([0u64; BLOCK], [[0u64; BLOCK]; S]);
        let Range { start, end } = chunk.nodes();
        for lo in (start..end).step_by(BLOCK) {
            let nodes = lo..end.min(lo + BLOCK);
            let n = nodes.len();
            for pass in &self.passes {
                pass.run(chunk, nodes.clone(), &mut mask[..n], &mut lanes);
            }
        }
    }
}

impl NodeTask for Arc<NodeKernel> {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        self.apply(chunk)
    }
}

/// A lowered `EdgeJob`: a kernel as its chunk prologue — it stores the
/// iterating vertex's filter in `$pass` and a push body in `$val`, and
/// resets a pull's passing targets for `=` — then the declared fold or
/// scatter over the vertices whose `pass` cell is set, then the fused node
/// passes as its epilogue.
struct EdgeKernel {
    prologue: NodeKernel,
    pass: Option<Prop<bool>>,
    reduction: Reduction,
    epilogue: NodeKernel,
}

impl EdgeTask for Arc<EdgeKernel> {
    fn prepare(&self, chunk: &mut NodeChunk<'_, '_>) {
        self.prologue.apply(chunk)
    }
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        self.pass.is_none_or(|p| ctx.get(p))
    }
    fn reduction(&self) -> Option<Reduction> {
        Some(self.reduction)
    }
    fn epilogue(&self, chunk: &mut NodeChunk<'_, '_>) {
        self.epilogue.apply(chunk)
    }
}

/// What an edge job declares: a pull folds the neighbors' `src` into the
/// vertex's `target`, a push scatters the vertex's `src` into the
/// neighbors' `target`. Only `sum`, `min` and `max` of matching `f64` or
/// `i64` columns, which is all sema produces; folded with `reduce_bits` in
/// both modes (DESIGN.md §17.4).
fn declare(pull: bool, src: AnyProp, target: AnyProp, op: ReduceOp) -> Option<Reduction> {
    fn typed<T: PropValue>(pull: bool, src: Prop<T>, dst: Prop<T>, op: ReduceOp) -> Reduction {
        match pull {
            true => Fold::new(src, dst, op).into(),
            false => Scatter::new(src, dst, op).into(),
        }
    }
    if !matches!(op, ReduceOp::Sum | ReduceOp::Min | ReduceOp::Max) {
        return None;
    }
    match (src, target) {
        (AnyProp::F64(s), AnyProp::F64(t)) => Some(typed(pull, s, t, op)),
        (AnyProp::I64(s), AnyProp::I64(t)) => Some(typed(pull, s, t, op)),
        _ => None,
    }
}

/// One engine-facing action of the lowered plan; re-run as often as the
/// enclosing loop asks.
type Action = Box<dyn Fn(&mut Engine, &CancelToken) -> Result<(), JobError> + Send + Sync>;

fn node_action(job: NodeKernel) -> Action {
    let job = Arc::new(job);
    Box::new(move |engine, cancel| {
        engine
            .try_run_node_job_with(&JobSpec::new(), Arc::clone(&job), cancel)
            .map(|_| ())
    })
}

fn edge_action(dir: Dir, job: EdgeKernel) -> Action {
    let job = Arc::new(job);
    Box::new(move |engine, cancel| {
        engine
            .try_run_edge_job_with(dir, &JobSpec::new(), Arc::clone(&job), cancel)
            .map(|_| ())
    })
}

/// The plan with every slot, expression and job resolved. Holds `Prop`
/// handles only — it must be dropped before the columns are.
enum LStep {
    Run(Action),
    Loop {
        max: Option<u64>,
        body: Vec<LStep>,
        until: Option<TExpr>,
    },
}

fn lower_steps(steps: &[PStep], ex: &Exec<'_>) -> Result<Vec<LStep>, JobError> {
    let lowered = steps.iter().map(|step| lower_step(step, ex));
    // A step on a column DCE removed lowers to nothing.
    lowered.filter_map(Result::transpose).collect()
}

fn lower_step(step: &PStep, ex: &Exec<'_>) -> Result<Option<LStep>, JobError> {
    let n = ex.n;
    let action: Action = match step {
        PStep::Loop {
            max, body, until, ..
        } => {
            return Ok(Some(LStep::Loop {
                max: *max,
                body: lower_steps(body, ex)?,
                until: until.clone(),
            }))
        }
        PStep::Fill { slot, value } => {
            // `finalize` guarantees fill values are constants.
            let (Some(prop), Some(v)) = (ex.prop(*slot), const_val(value)) else {
                return Ok(None);
            };
            Box::new(move |engine, _| {
                fill_prop(engine, prop, v);
                Ok(())
            })
        }
        PStep::PointSet {
            slot,
            vertex,
            value,
        } => {
            let (Some(prop), Some(vx), Some(v)) =
                (ex.prop(*slot), const_val(vertex), const_val(value))
            else {
                return Ok(None);
            };
            let vx = vx.as_i64();
            Box::new(move |engine, _| {
                if (0..n).contains(&vx) {
                    set_prop(engine, prop, vx as NodeId, v);
                }
                Ok(())
            })
        }
        PStep::NodeJob(node) => node_action(NodeKernel {
            passes: vec![ex.pass(node)?],
        }),
        PStep::EdgeJob {
            mode,
            set,
            op,
            target,
            nbr_filter,
            vertex_filter,
            body,
            prefill,
            pass,
            value,
            epilogue,
            ..
        } => {
            let Some(target) = ex.prop(*target) else {
                return Ok(None);
            };
            let op = *op;
            // `=`-assigned aggregates start from the reduction identity
            // (same as the hand-written kernels' reset pass).
            let identity = prefill.then(|| identity(op, target.ty()));
            let lower = ex.lower(&[]);
            let (pull, filter) = match mode {
                TraverseMode::Push => (
                    false,
                    nbr_filter.as_ref().map(|f| lower.bool(f)).transpose()?,
                ),
                TraverseMode::Pull => (true, lower.filter(vertex_filter)?),
                TraverseMode::Unchosen => {
                    return Err(JobError::Protocol(
                        "unoptimized plan reached the executor (direction pass did not run)".into(),
                    ))
                }
            };
            // Targets iterate the edge set the query names and fold the
            // source column in; sources walk it from the far side.
            let dir = match (set, pull) {
                (NbrSet::In, true) | (NbrSet::Out, false) => Dir::In,
                (NbrSet::Out, true) | (NbrSet::In, false) => Dir::Out,
            };
            let mut writes = Vec::new();
            // The filter reads its own bool column, or the `$pass` column
            // the prologue stores its mask in.
            let own = match (mode, vertex_filter) {
                (TraverseMode::Push, _) => nbr_filter
                    .as_ref()
                    .and_then(|f| f.as_bare_load(WhichVar::Inner)),
                (_, PFilter::Inline(pred)) => pred.as_bare_load(WhichVar::Outer),
                (_, PFilter::Mask { slot }) => Some(*slot),
                (_, PFilter::None) => None,
            };
            let own = match own.and_then(|slot| ex.prop(slot)) {
                Some(AnyProp::Bool(p)) => Some(p),
                _ => None,
            };
            let pass = match (pass.map(|slot| ex.prop(slot)), &filter) {
                (None, None) => None,
                (None, Some(_)) if own.is_some() => own,
                (Some(Some(AnyProp::Bool(p))), Some(_)) => {
                    writes.push(mask_write(p));
                    Some(p)
                }
                _ => {
                    return Err(JobError::Protocol(
                        "edge job whose filter is neither a bool column nor has a scratch one"
                            .into(),
                    ))
                }
            };
            // A pull's targets are the iterating vertices: those that
            // pass start from the identity, the others keep their value.
            if let (true, Some(v)) = (pull, identity) {
                writes.push(lower.write(target, &const_expr(v))?);
            }
            // The reduction reads the body's own column, or (a push only)
            // the `$val` column the prologue stores the body in.
            let src = match (value.map(|slot| ex.prop(slot)), pull) {
                (None, _) => body.as_bare_load(WhichVar::Inner).and_then(|s| ex.prop(s)),
                (Some(Some(scratch)), false) => {
                    writes.push(lower.write(scratch, body)?);
                    Some(scratch)
                }
                _ => None,
            };
            let Some(reduction) = src.and_then(|src| declare(pull, src, target, op)) else {
                return Err(JobError::Protocol(format!(
                    "{mode}-mode edge job cannot {op:?}-reduce its value into {}",
                    target.ty()
                )));
            };
            // A prologue with nothing to store needs no mask lane either.
            let prologue = match writes.is_empty() {
                true => vec![],
                false => vec![Pass {
                    mask: filter,
                    shared: Vec::new(),
                    writes,
                }],
            };
            let epilogue = epilogue.iter().map(|node| ex.pass(node));
            let job = EdgeKernel {
                prologue: NodeKernel { passes: prologue },
                pass,
                reduction,
                epilogue: NodeKernel {
                    passes: epilogue.collect::<Result<_, _>>()?,
                },
            };
            let run = edge_action(dir, job);
            match (pull, identity) {
                // A push's targets are on the far side of the iteration,
                // so the whole column is reset before the job.
                (false, Some(v)) => Box::new(move |engine, cancel| {
                    fill_prop(engine, target, v);
                    run(engine, cancel)
                }),
                _ => run,
            }
        }
    };
    Ok(Some(LStep::Run(action)))
}

// ---- running the lowered plan -----------------------------------------

fn run_steps(engine: &mut Engine, steps: &[LStep], ex: &Exec<'_>) -> Result<(), JobError> {
    for step in steps {
        // Poll between steps so a fired token stops the query at the next
        // step boundary even if no job is in flight.
        if let Some(err) = cancel_error(ex.cancel) {
            return Err(err);
        }
        match step {
            LStep::Run(action) => action(engine, ex.cancel)?,
            LStep::Loop { max, body, until } => {
                let mut iters: u64 = 0;
                while loop_iteration(engine, *max, body, until.as_ref(), iters, ex)?
                    == StepOutcome::Continue
                {
                    iters += 1;
                }
            }
        }
    }
    Ok(())
}

/// Pass number `iters` (0-based) of a loop: `max` checked at the top, the
/// body, `until` evaluated after — the shape of the hand-written drivers.
fn loop_iteration(
    engine: &mut Engine,
    max: Option<u64>,
    body: &[LStep],
    until: Option<&TExpr>,
    iters: u64,
    ex: &Exec<'_>,
) -> Result<StepOutcome, JobError> {
    if max.is_some_and(|m| iters >= m) {
        return Ok(StepOutcome::Done);
    }
    run_steps(engine, body, ex)?;
    match until {
        Some(u) if eval_scalar(engine, u, ex)?.as_bool() => Ok(StepOutcome::Done),
        // Sema requires `max` or `until`; never spin if a hand-built plan
        // has neither.
        None if max.is_none() => Ok(StepOutcome::Done),
        _ => Ok(StepOutcome::Continue),
    }
}

// ---- driver-side scalar evaluation ------------------------------------

/// Expression backend for driver-side scalars (`until` conditions, scalar
/// returns), which run once per step and stay on the tree evaluator:
/// global aggregates run real reduction jobs. Job failures are stashed
/// (the [`EvalEnv`] interface is infallible) and re-raised by
/// [`eval_scalar`]. Sema rejects vertex references in scalar position, so
/// the per-vertex accessors keep their defaults.
struct DriverEnv<'a> {
    engine: &'a mut Engine,
    ex: &'a Exec<'a>,
    err: Option<JobError>,
}

impl DriverEnv<'_> {
    fn run_agg(
        &mut self,
        agg: AggFn,
        filter: Option<&TExpr>,
        body: Option<&TExpr>,
        ty: Ty,
    ) -> Result<Val, JobError> {
        if let Some(err) = cancel_error(self.ex.cancel) {
            return Err(err);
        }
        let op = match agg {
            AggFn::Sum | AggFn::Count => ReduceOp::Sum,
            AggFn::Min => ReduceOp::Min,
            AggFn::Max => ReduceOp::Max,
        };
        if agg_needs_column(agg, filter, body) {
            return self.scratch_reduce(op, filter, body, ty);
        }
        let bare = filter
            .or(body)
            .and_then(|e| e.as_bare_load(WhichVar::Outer));
        match (agg, bare.map(|slot| self.ex.prop(slot))) {
            // `count(v)` is folded to N by the optimizer; keep the driver
            // total anyway.
            (AggFn::Count, None) => Ok(Val::I64(self.ex.n)),
            // Counting a bare boolean column is the engine's native
            // frontier test.
            (AggFn::Count, Some(Some(AnyProp::Bool(p)))) => {
                Ok(Val::I64(self.engine.count_true(p) as i64))
            }
            // An unfiltered reduction over a bare column is the engine's
            // native tree reduce — what convergence checks like `sum(v)
            // v.diff` compile to.
            (AggFn::Sum | AggFn::Min | AggFn::Max, Some(Some(prop))) => {
                Ok(reduce_prop(self.engine, prop, op))
            }
            _ => Err(JobError::Protocol(
                "aggregate over a column the executor did not create".into(),
            )),
        }
    }

    /// General aggregate: materialize per-vertex contributions into the
    /// program's `$agg` column of its type, and reduce it.
    fn scratch_reduce(
        &mut self,
        op: ReduceOp,
        filter: Option<&TExpr>,
        body: Option<&TExpr>,
        ty: Ty,
    ) -> Result<Val, JobError> {
        let Some(&scratch) = self.ex.cols.aggs.iter().find(|p| p.ty() == ty) else {
            return Err(JobError::Protocol(format!("no {ty} `$agg` column")));
        };
        // The per-vertex half as one expression — a bodiless aggregate is
        // `count` (1 per vertex), inactive vertices contribute the
        // reduction identity — lowered here, next to the column it
        // writes, to a block kernel like any node job's.
        let mut value = body.cloned().unwrap_or_else(|| const_expr(Val::I64(1)));
        if let Some(f) = filter {
            value = TExpr {
                span: f.span,
                ty,
                kind: TExprKind::Ternary {
                    cond: Box::new(f.clone()),
                    then: Box::new(value),
                    other: Box::new(const_expr(identity(op, ty))),
                },
            };
        }
        let pass = Pass {
            mask: None,
            shared: Vec::new(),
            writes: vec![self.ex.lower(&[]).write(scratch, &value)?],
        };
        let job = Arc::new(NodeKernel { passes: vec![pass] });
        self.engine
            .try_run_node_job_with(&JobSpec::new(), job, self.ex.cancel)?;
        Ok(reduce_prop(self.engine, scratch, op))
    }
}

impl EvalEnv for DriverEnv<'_> {
    fn nodes(&mut self) -> i64 {
        self.ex.n
    }
    fn global_agg(
        &mut self,
        agg: AggFn,
        filter: Option<&TExpr>,
        body: Option<&TExpr>,
        ty: Ty,
    ) -> Val {
        if self.err.is_some() {
            return Val::zero(ty);
        }
        match self.run_agg(agg, filter, body, ty) {
            Ok(v) => v,
            Err(e) => {
                self.err = Some(e);
                Val::zero(ty)
            }
        }
    }
}

fn eval_scalar(engine: &mut Engine, expr: &TExpr, ex: &Exec<'_>) -> Result<Val, JobError> {
    let mut env = DriverEnv {
        engine,
        ex,
        err: None,
    };
    let v = eval(expr, &mut env);
    match env.err {
        Some(e) => Err(e),
        None => Ok(v),
    }
}

fn gather_output(
    engine: &mut Engine,
    program: &Program,
    ex: &Exec<'_>,
) -> Result<QueryResult, JobError> {
    match &program.plan.output {
        SOutput::Column { slot } => {
            let name = program.plan.props[*slot]
                .as_ref()
                .map(|p| p.name.clone())
                .unwrap_or_default();
            let Some(prop) = ex.prop(*slot) else {
                return Err(JobError::Protocol(
                    "query output column was eliminated".into(),
                ));
            };
            let values = match prop {
                AnyProp::F64(p) => QueryColumn::F64(engine.gather(p)),
                AnyProp::I64(p) => QueryColumn::I64(engine.gather(p)),
                AnyProp::Bool(p) => QueryColumn::Bool(engine.gather(p)),
            };
            Ok(QueryResult::Column { name, values })
        }
        SOutput::Scalar { expr } => Ok(QueryResult::Scalar(eval_scalar(engine, expr, ex)?)),
    }
}

// ---- entry points -----------------------------------------------------

/// Runs a compiled [`Program`] on a live engine. Every created column is
/// dropped before returning — success, failure, or cancellation — so a
/// killed query never leaks admission-control budget.
pub fn execute(
    engine: &mut Engine,
    program: &Program,
    cancel: &CancelToken,
) -> Result<QueryResult, JobError> {
    if engine.num_nodes() as u64 != program.nodes {
        return Err(JobError::Protocol(format!(
            "program compiled for {} vertices but the engine serves {}",
            program.nodes,
            engine.num_nodes()
        )));
    }
    let cols = create_props(engine, program);
    let ex = Exec {
        cols: &cols,
        n: program.nodes as i64,
        cancel,
    };
    // The lowered steps live inside this expression: gone before the
    // columns they name are.
    let result = lower_steps(&program.plan.steps, &ex).and_then(|steps| {
        run_steps(engine, &steps, &ex)?;
        gather_output(engine, program, &ex)
    });
    drop_props(engine, &cols);
    result
}

// ---- served queries ---------------------------------------------------

/// Why a [`QuerySessionExt::query`] call failed before (or while)
/// running.
#[derive(Debug)]
pub enum QuerySubmitError {
    /// The text did not compile; the error carries the source position.
    Compile(QueryError),
    /// The compiled job was rejected at submission (admission control,
    /// queue full, server shut down).
    Submit(JobError),
}

impl std::fmt::Display for QuerySubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuerySubmitError::Compile(e) => write!(f, "query compilation failed: {e}"),
            QuerySubmitError::Submit(e) => write!(f, "query submission failed: {e}"),
        }
    }
}

impl std::error::Error for QuerySubmitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QuerySubmitError::Compile(e) => Some(e),
            QuerySubmitError::Submit(e) => Some(e),
        }
    }
}

/// `Session::query`: compile text against the served graph and submit the
/// program as a regular job.
///
/// The compiled query flows through the same admission control
/// (`live_props` is the declared column budget), lane scheduling,
/// deadline, and cancellation machinery as a hand-written submission, and
/// the rendered optimized plan travels into the completion
/// [`JobReport`](crate::serve::JobReport).
pub trait QuerySessionExt {
    /// Compiles and submits on the interactive lane with the server's
    /// default deadline.
    fn query(&self, text: &str) -> Result<JobHandle<QueryResult>, QuerySubmitError>;

    /// [`QuerySessionExt::query`] with an explicit lane and optional
    /// deadline (`None` falls back to the config default).
    fn query_on(
        &self,
        lane: Lane,
        deadline: Option<Duration>,
        text: &str,
    ) -> Result<JobHandle<QueryResult>, QuerySubmitError>;
}

impl QuerySessionExt for Session<Engine> {
    fn query(&self, text: &str) -> Result<JobHandle<QueryResult>, QuerySubmitError> {
        self.query_on(Lane::Interactive, None, text)
    }

    fn query_on(
        &self,
        lane: Lane,
        deadline: Option<Duration>,
        text: &str,
    ) -> Result<JobHandle<QueryResult>, QuerySubmitError> {
        let nodes = self.graph_profile().nodes as u64;
        let program = pgxd_query::compile(text, nodes).map_err(QuerySubmitError::Compile)?;
        let plan: Arc<str> = Arc::from(program.render().as_str());
        let props = program.live_props();
        self.submit_with_plan(lane, props, deadline, plan, move |engine, cancel| {
            execute(engine, &program, cancel)
        })
        .map_err(QuerySubmitError::Submit)
    }
}

// ---- recoverable queries ----------------------------------------------

/// Adapts a compiled query to [`ResumableAlgorithm`] so the
/// [`RecoveryDriver`](crate::RecoveryDriver) can checkpoint it between
/// loop iterations and restart it after machine loss.
///
/// The program's step list is split at its first top-level `iterate`
/// block: everything before it is the *prelude* (run once, at iteration
/// 0), the loop body is one driver-visible iteration, and everything
/// after it (plus output gathering) runs in `finish`. Queries without a
/// top-level loop run entirely inside iteration 0. All mutable state
/// lives in property columns, so no extra scalars need to round-trip
/// through checkpoints — the driver's own iteration counter is enough.
pub struct RecoverableQuery {
    program: Program,
    cols: Columns,
    /// The plan lowered against `cols` by `setup`; a plan that does not
    /// lower fails its first `step`.
    steps: Result<Vec<LStep>, JobError>,
}

/// Index of the first top-level loop (`steps.len()` without one).
fn first_loop(steps: &[LStep]) -> usize {
    steps
        .iter()
        .position(|s| matches!(s, LStep::Loop { .. }))
        .unwrap_or(steps.len())
}

impl RecoverableQuery {
    pub fn new(program: Program) -> Self {
        RecoverableQuery {
            program,
            cols: Columns::default(),
            steps: Ok(Vec::new()),
        }
    }

    /// Compiles `text` for an `nodes`-vertex graph and wraps the program.
    pub fn compile(text: &str, nodes: u64) -> Result<Self, QueryError> {
        Ok(Self::new(pgxd_query::compile(text, nodes)?))
    }

    /// The compiled program (e.g. for rendering the plan).
    pub fn program(&self) -> &Program {
        &self.program
    }

    fn exec<'a>(&'a self, cancel: &'a CancelToken) -> Exec<'a> {
        Exec {
            cols: &self.cols,
            n: self.program.nodes as i64,
            cancel,
        }
    }
}

impl ResumableAlgorithm for RecoverableQuery {
    type Output = Result<QueryResult, JobError>;

    fn setup(&mut self, engine: &mut Engine) {
        // Re-runnable by contract: same property names, same order, so a
        // restore re-binds shards by id. Values are (re)seeded by the
        // prelude at iteration 0 or overwritten by the restored
        // checkpoint.
        self.cols = create_props(engine, &self.program);
        let never = CancelToken::never();
        self.steps = lower_steps(&self.program.plan.steps, &self.exec(&never));
    }

    fn step(&mut self, engine: &mut Engine, iteration: u64) -> Result<StepOutcome, JobError> {
        let never = CancelToken::never();
        let ex = self.exec(&never);
        let steps = self.steps.as_deref().map_err(JobError::clone)?;
        let split = first_loop(steps);
        if iteration == 0 {
            run_steps(engine, &steps[..split], &ex)?;
        }
        match steps.get(split) {
            Some(LStep::Loop { max, body, until }) => {
                loop_iteration(engine, *max, body, until.as_ref(), iteration, &ex)
            }
            _ => Ok(StepOutcome::Done),
        }
    }

    fn finish(&mut self, engine: &mut Engine) -> Self::Output {
        let never = CancelToken::never();
        let ex = self.exec(&never);
        let result = match &self.steps {
            Ok(steps) => {
                let postlude = steps.get(first_loop(steps) + 1..).unwrap_or_default();
                run_steps(engine, postlude, &ex)
                    .and_then(|()| gather_output(engine, &self.program, &ex))
            }
            Err(e) => Err(e.clone()),
        };
        // The lowered plan goes before the columns it names.
        self.steps = Ok(Vec::new());
        drop_props(engine, &self.cols);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeEngine;
    use crate::BuildEngine;
    use crate::RecoveryDriver;
    use pgxd_graph::generate;

    fn live_props(engine: &Engine) -> usize {
        engine.mem_profile().live_props
    }

    #[test]
    fn scalar_degree_sum_executes() {
        let g = generate::ring(16);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let program = compile("return sum(v) v.out_degree;", 16).unwrap();
        let r = execute(&mut engine, &program, &CancelToken::never()).unwrap();
        assert_eq!(r.as_scalar().unwrap().as_i64(), 16);
        assert_eq!(live_props(&engine), 0, "query must drop its columns");
    }

    #[test]
    fn filtered_compute_and_column_output() {
        // Ring vertices all have out-degree 1; the filter is exercised by
        // a value predicate instead.
        let g = generate::ring(10);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let program = compile(
            "prop d: i64 = 7;\n\
             foreach v where v.out_degree > 0 { v.d = v.out_degree + 1; }\n\
             return d;",
            10,
        )
        .unwrap();
        let r = execute(&mut engine, &program, &CancelToken::never()).unwrap();
        let (name, col) = r.as_column().unwrap();
        assert_eq!(name, "d");
        assert_eq!(col.as_i64().unwrap(), &vec![2i64; 10][..]);
        assert_eq!(live_props(&engine), 0);
    }

    #[test]
    fn push_traverse_counts_in_degrees() {
        let g = generate::ring(12);
        let mut engine = Engine::builder().machines(3).engine(&g).unwrap();
        let program = compile(
            "prop deg: i64 = 0;\n\
             foreach v { v.deg = count(u in v.in_nbrs); }\n\
             return deg;",
            12,
        )
        .unwrap();
        let r = execute(&mut engine, &program, &CancelToken::never()).unwrap();
        assert_eq!(
            r.as_column().unwrap().1.as_i64().unwrap(),
            &vec![1i64; 12][..]
        );
    }

    #[test]
    fn pre_fired_cancel_frees_columns() {
        let g = generate::ring(8);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let baseline = live_props(&engine);
        let program = compile(
            "prop x: f64 = 1.0;\n\
             iterate max 100 { foreach v { v.x = v.x + 1.0; } }\n\
             return x;",
            8,
        )
        .unwrap();
        let cancel = CancelToken::for_job(42);
        cancel.cancel();
        let err = execute(&mut engine, &program, &cancel).unwrap_err();
        assert!(matches!(err, JobError::Cancelled { job: 42 }), "{err:?}");
        assert_eq!(
            live_props(&engine),
            baseline,
            "cancel must not leak columns"
        );
    }

    /// The seam the lowering added: a token fired after the last job of a
    /// loop pass is seen at the step boundary that opens the next pass, and
    /// the lowered plan — `Prop` handles, no columns — is no obstacle to
    /// reclaiming every column.
    #[test]
    fn token_fired_between_loop_passes_stops_at_the_boundary() {
        let g = generate::ring(8);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let baseline = live_props(&engine);
        let program = compile(
            "prop x: i64 = 0;\n\
             iterate max 100 { foreach v { v.x = v.x + 1; } }\n\
             return x;",
            8,
        )
        .unwrap();
        let cancel = CancelToken::for_job(7);
        let cols = create_props(&mut engine, &program);
        let ex = Exec {
            cols: &cols,
            n: 8,
            cancel: &cancel,
        };
        let mut steps = lower_steps(&program.plan.steps, &ex).unwrap();
        let Some(LStep::Loop { body, .. }) = steps.last_mut() else {
            panic!("the plan ends in its loop");
        };
        let fire = cancel.clone();
        body.push(LStep::Run(Box::new(move |_, _| {
            fire.cancel();
            Ok(())
        })));

        let err = run_steps(&mut engine, &steps, &ex).unwrap_err();
        assert!(matches!(err, JobError::Cancelled { job: 7 }), "{err:?}");
        let Some(AnyProp::I64(x)) = cols.slots[0] else {
            panic!("x is the first slot");
        };
        assert_eq!(engine.gather(x), vec![1i64; 8], "exactly one pass ran");

        drop_props(&mut engine, &cols);
        assert_eq!(live_props(&engine), baseline, "columns outlived the cancel");
        drop(steps);
    }

    /// Property ids taken by `run`: the ids of probe columns created before
    /// and after it are that many apart (ids are never reused).
    fn ids_used(engine: &mut Engine, run: impl FnOnce(&mut Engine)) -> usize {
        let probe = |engine: &mut Engine| {
            let p = engine.add_prop("probe", 0i64);
            engine.drop_prop(p);
            p.id().0 as usize
        };
        let before = probe(engine);
        run(engine);
        probe(engine) - before - 1
    }

    /// A general aggregate evaluated on every loop pass reuses one `$agg`
    /// column, created with the program's and counted by `live_props`:
    /// one execution takes exactly `live_props` property ids, directly and
    /// as a `RecoverableQuery`.
    #[test]
    fn aggregates_reuse_one_counted_column() {
        let text = "prop x: i64 = 0;\n\
                    iterate max 50 {\n\
                      foreach v { v.x = v.x + 1; }\n\
                      until sum(v where v.x > 0) v.x < 0;\n\
                    }\n\
                    return (sum(v where v.x > 1) v.x) + count(v where v.x > 2);";
        let g = generate::ring(8);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let program = compile(text, 8).unwrap();
        assert_eq!(program.live_props(), 2, "x and one i64 `$agg`");

        let used = ids_used(&mut engine, |engine| {
            let r = execute(engine, &program, &CancelToken::never()).unwrap();
            assert_eq!(r.as_scalar().unwrap().as_i64(), 50 * 8 + 8);
        });
        assert_eq!(used, program.live_props());

        let mut rq = RecoverableQuery::new(program.clone());
        let used = ids_used(&mut engine, |engine| {
            rq.setup(engine);
            let mut iteration = 0;
            while rq.step(engine, iteration).unwrap() == StepOutcome::Continue {
                iteration += 1;
            }
            rq.finish(engine).unwrap();
        });
        assert_eq!(used, program.live_props());
        assert_eq!(live_props(&engine), 0);
    }

    #[test]
    fn node_count_mismatch_is_a_protocol_error() {
        let g = generate::ring(8);
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let program = compile("return N;", 9).unwrap();
        let err = execute(&mut engine, &program, &CancelToken::never()).unwrap_err();
        assert!(matches!(err, JobError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn recoverable_query_matches_direct_execution() {
        let g = generate::ring(24);
        let text = "prop hops: i64 = INF;\n\
                    prop nxt: i64 = INF;\n\
                    prop frontier: bool = false;\n\
                    hops[0] = 0;\nfrontier[0] = true;\n\
                    iterate max 64 {\n\
                      foreach v { v.nxt = min(u in v.in_nbrs where u.frontier) u.hops + 1; }\n\
                      foreach v { v.frontier = v.nxt < v.hops;\n\
                                  v.hops = v.nxt < v.hops ? v.nxt : v.hops;\n\
                                  v.nxt = INF; }\n\
                      until count(v where v.frontier) == 0;\n\
                    }\nreturn hops;";
        let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
        let program = compile(text, 24).unwrap();
        let direct = execute(&mut engine, &program, &CancelToken::never()).unwrap();

        let config = pgxd_runtime::config::Config::test(2);
        let mut rq = RecoverableQuery::compile(text, 24).unwrap();
        let recovered = RecoveryDriver::new(&g, config)
            .unwrap()
            .run(&mut rq)
            .unwrap();
        let via_driver = recovered.output.unwrap();
        assert_eq!(direct, via_driver);
        assert_eq!(recovered.attempts, 1);
    }
}
