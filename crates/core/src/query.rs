//! Executing compiled queries: the back end of the declarative front-end.
//!
//! `pgxd-query` turns query text into a [`Program`] — an optimized
//! logical plan over property *slots*. This module is the other half:
//! [`execute`] materializes the slots as real property columns of a live
//! [`Engine`], lowers the plan against them once — every expression to a
//! chunk kernel over `Prop` handles that fills a lane per chunk, every
//! step to a job that loops re-run as it is: a node job is a kernel, an
//! edge job a kernel as its chunk prologue plus a declared [`Fold`] or
//! [`Scatter`] — and runs the lowered steps on the same primitives
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
use crate::task::{EdgeTask, Fold, NodeChunk, NodeCtx, NodeTask, Reduction, Scatter};
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
use pgxd_query::{
    agg_needs_column, const_val, eval, identity, AggFn, EvalEnv, NbrSet, PFilter, PStep, SOutput,
    TExpr, TExprKind, TUnOp, WhichVar,
};
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

// ---- lowering: expressions to chunk kernels ---------------------------
//
// Every expression a job evaluates is lowered once, before the first job
// runs: slots become `Prop<T>` handles, `N` and literals are captured,
// coercions are picked from the static types. There is one site, the
// chunk: each tree node is one closure call per chunk that fills a lane,
// one plain `f64`/`i64`/`bool` per vertex, from the columns it resolved
// once for the chunk. A node job is such a kernel ([`NodeKernel`]); an
// edge job runs one as its chunk prologue ([`EdgeKernel`]), which stores
// its filter and its value in columns its declared fold or scatter reads.
// Nothing touches a `Val` or the slot table. `pgxd_query::eval` is the
// reference the kernels are property-tested against
// (`tests/tests/query_lowering_props.rs`); the executor itself only calls
// it for driver-side scalars.

/// A lowered expression over a chunk: its lane, one value per vertex of
/// the chunk, in the chunk's order.
///
/// `&&`, `||` and `?:` fill the lanes of both branches and then pick,
/// which is the per-vertex result only because every lowered expression is
/// pure and total: `i64` arithmetic wraps, `/` is computed in `f64`, loads
/// and degrees are of the current vertex, and nothing panics or writes. An
/// operator that can fail or has an effect must not be lowered here.
type Kx<T> = Box<dyn Fn(&mut NodeChunk<'_, '_>) -> Vec<T> + Send + Sync>;

/// What an expression lowers to. Leaves stay visible so that the operator
/// above reads the constant or the column itself instead of a lane.
enum Operand<T: PropValue> {
    Const(T),
    Load(Prop<T>),
    Dyn(Kx<T>),
}

impl<T: PropValue> Operand<T> {
    fn into_dyn(self) -> Kx<T> {
        match self {
            Operand::Const(k) => Box::new(move |ch| vec![k; ch.nodes().len()]),
            Operand::Load(p) => Box::new(move |ch| {
                let col = ch.col(p);
                ch.nodes().map(|v| col.get(v)).collect()
            }),
            Operand::Dyn(f) => f,
        }
    }
}

/// Expands `$k` once per operand shape, with `$get` bound to what prepares
/// the operand for a chunk — the constant, the column resolved once, or
/// the operand's lane — and hands back a getter of `(lane index, vertex)`.
macro_rules! lanes {
    ($operand:expr, |$get:ident| $k:expr) => {
        match $operand {
            Operand::Const(k) => {
                let $get = move |_: &mut NodeChunk<'_, '_>| move |_: usize, _: usize| k;
                $k
            }
            Operand::Load(p) => {
                let $get = move |ch: &mut NodeChunk<'_, '_>| {
                    let col = ch.col(p);
                    move |_: usize, v: usize| col.get(v)
                };
                $k
            }
            Operand::Dyn(f) => {
                let $get = move |ch: &mut NodeChunk<'_, '_>| {
                    let lane = f(ch);
                    move |i: usize, _: usize| lane[i]
                };
                $k
            }
        }
    };
}

/// `v.out_degree` (`out`) or `v.in_degree`.
fn degree(out: bool) -> Operand<i64> {
    Operand::Dyn(match out {
        true => Box::new(|ch| ch.nodes().map(|v| ch.out_degree(v) as i64).collect()),
        false => Box::new(|ch| ch.nodes().map(|v| ch.in_degree(v) as i64).collect()),
    })
}

fn un<T: PropValue, R: PropValue>(
    a: Operand<T>,
    f: impl Fn(T) -> R + Send + Sync + 'static,
) -> Operand<R> {
    Operand::Dyn(lanes!(a, |a| Box::new(move |ch: &mut NodeChunk<'_, '_>| {
        let a = a(ch);
        ch.nodes().enumerate().map(|(i, v)| f(a(i, v))).collect()
    }) as Kx<R>))
}

fn bin<T: PropValue, R: PropValue>(
    a: Operand<T>,
    b: Operand<T>,
    f: impl Fn(T, T) -> R + Send + Sync + 'static,
) -> Operand<R> {
    Operand::Dyn(lanes!(a, |a| lanes!(
        b,
        |b| Box::new(move |ch: &mut NodeChunk<'_, '_>| {
            let (a, b) = (a(ch), b(ch));
            let lane = ch.nodes().enumerate();
            lane.map(|(i, v)| f(a(i, v), b(i, v))).collect()
        }) as Kx<R>
    )))
}

fn tern<T: PropValue>(cond: Operand<bool>, then: Operand<T>, other: Operand<T>) -> Operand<T> {
    let cond = cond.into_dyn();
    Operand::Dyn(lanes!(then, |t| lanes!(
        other,
        |o| Box::new(move |ch: &mut NodeChunk<'_, '_>| {
            let (pick, t, o) = (cond(ch), t(ch), o(ch));
            let lane = ch.nodes().enumerate();
            lane.map(|(i, v)| if pick[i] { t(i, v) } else { o(i, v) })
                .collect()
        }) as Kx<T>
    )))
}

/// `&&` (`and`) or `||`. Both operands are evaluated, which is sound only
/// because lowered expressions are pure and total (see [`Kx`]).
fn logic(a: Operand<bool>, b: Operand<bool>, and: bool) -> Operand<bool> {
    match and {
        true => bin(a, b, |x: bool, y: bool| x && y),
        false => bin(a, b, |x: bool, y: bool| x || y),
    }
}

fn compare<T: PropValue + PartialOrd>(
    op: BinOp,
    a: Operand<T>,
    b: Operand<T>,
) -> Option<Operand<bool>> {
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

/// A lowered `v.p = e` over a chunk: `e`'s value is stored on every vertex
/// the mask (if any) passes.
type LaneWrite = Box<dyn Fn(&mut NodeChunk<'_, '_>, Option<&[bool]>) + Send + Sync>;

fn lane_write<T: PropValue>(value: Operand<T>, p: Prop<T>) -> LaneWrite {
    lanes!(
        value,
        |get| Box::new(move |ch: &mut NodeChunk<'_, '_>, mask: Option<&[bool]>| {
            let (get, col) = (get(ch), ch.col(p));
            for (i, v) in ch.nodes().enumerate() {
                if mask.is_none_or(|mask| mask[i]) {
                    col.set(v, get(i, v));
                }
            }
        }) as LaneWrite
    )
}

/// Stores the mask itself in `p`: a filter's value on every vertex.
fn mask_write(p: Prop<bool>) -> LaneWrite {
    Box::new(move |ch, mask| {
        let col = ch.col(p);
        for (i, v) in ch.nodes().enumerate() {
            col.set(v, mask.is_none_or(|mask| mask[i]));
        }
    })
}

/// What one execution lowers and runs against: its columns, the vertex
/// count, its token. In lowering, sema's typing is trusted for which
/// closure to build; a tree it could not have produced (hand-built plans)
/// is refused, not evaluated to a dummy.
struct Exec<'a> {
    cols: &'a Columns,
    n: i64,
    cancel: &'a CancelToken,
}

fn ill_typed(e: &TExpr) -> JobError {
    JobError::Protocol(format!(
        "ill-typed {} expression at {}:{} reached the executor",
        e.ty, e.span.line, e.span.col
    ))
}

impl Exec<'_> {
    fn prop(&self, slot: usize) -> Option<AnyProp> {
        self.cols.slots.get(slot).copied().flatten()
    }

    fn f64(&self, e: &TExpr) -> Result<Operand<f64>, JobError> {
        Ok(match &e.kind {
            TExprKind::ConstF64(v) => Operand::Const(*v),
            TExprKind::Load { slot, .. } => match self.prop(*slot) {
                Some(AnyProp::F64(p)) => Operand::Load(p),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::Unary { op, expr } => match (op, expr.ty) {
                (TUnOp::Neg, Ty::F64) => un(self.f64(expr)?, |x: f64| -x),
                (TUnOp::Abs, Ty::F64) => un(self.f64(expr)?, f64::abs),
                (TUnOp::ToF64, Ty::F64) => self.f64(expr)?,
                (TUnOp::ToF64, Ty::I64) => un(self.i64(expr)?, |x: i64| x as f64),
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
        Ok(match &e.kind {
            TExprKind::ConstI64(v) => Operand::Const(*v),
            TExprKind::NodeCount => Operand::Const(self.n),
            TExprKind::Load { slot, .. } => match self.prop(*slot) {
                Some(AnyProp::I64(p)) => Operand::Load(p),
                _ => return Err(ill_typed(e)),
            },
            TExprKind::OutDegree { .. } => degree(true),
            TExprKind::InDegree { .. } => degree(false),
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
        Ok(match &e.kind {
            TExprKind::ConstBool(v) => Operand::Const(*v),
            TExprKind::Load { slot, .. } => match self.prop(*slot) {
                Some(AnyProp::Bool(p)) => Operand::Load(p),
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

    /// `v.<prop> = e` over a chunk, typed by the column.
    fn write(&self, prop: AnyProp, e: &TExpr) -> Result<LaneWrite, JobError> {
        Ok(match prop {
            AnyProp::F64(p) => lane_write(self.f64(e)?, p),
            AnyProp::I64(p) => lane_write(self.i64(e)?, p),
            AnyProp::Bool(p) => lane_write(self.bool(e)?, p),
        })
    }

    fn filter(&self, f: &PFilter) -> Result<Option<Operand<bool>>, JobError> {
        Ok(match f {
            PFilter::None => None,
            PFilter::Inline(pred) => Some(self.bool(pred)?),
            PFilter::Mask { slot } => match self.prop(*slot) {
                Some(AnyProp::Bool(p)) => Some(Operand::Load(p)),
                _ => None,
            },
        })
    }
}

// ---- lowering: steps to re-runnable jobs ------------------------------

/// A lowered `NodeJob` (and the per-vertex half of a general global
/// aggregate), as a chunk kernel: the filter's mask lane, then each write
/// over the whole chunk, in statement order. That is what the per-vertex
/// order — filter, then every statement, one vertex at a time — computes,
/// because a node job's statements read and write only the current
/// vertex: whichever order the vertices go in, no vertex sees another's
/// writes.
struct NodeKernel {
    mask: Option<Kx<bool>>,
    writes: Vec<LaneWrite>,
}

impl NodeKernel {
    fn apply(&self, chunk: &mut NodeChunk<'_, '_>) {
        let mask = self.mask.as_ref().map(|mask| mask(chunk));
        for write in &self.writes {
            write(chunk, mask.as_deref());
        }
    }
}

impl NodeTask for Arc<NodeKernel> {
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        self.apply(chunk)
    }
}

/// A lowered `EdgeJob`: a chunk kernel as its prologue — it stores the
/// iterating vertex's filter in `$pass` and a push body in `$val`, and
/// resets a pull's passing targets for `=` — then the declared fold or
/// scatter over the vertices whose `pass` cell is set.
struct EdgeKernel {
    prologue: NodeKernel,
    pass: Option<Prop<bool>>,
    reduction: Reduction,
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
        PStep::Loop { max, body, until } => {
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
        PStep::NodeJob { filter, writes } => {
            let mut lowered = Vec::with_capacity(writes.len());
            for (slot, expr) in writes {
                if let Some(prop) = ex.prop(*slot) {
                    lowered.push(ex.write(prop, expr)?);
                }
            }
            node_action(NodeKernel {
                mask: ex.filter(filter)?.map(Operand::into_dyn),
                writes: lowered,
            })
        }
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
            ..
        } => {
            let Some(target) = ex.prop(*target) else {
                return Ok(None);
            };
            let op = *op;
            // `=`-assigned aggregates start from the reduction identity
            // (same as the hand-written kernels' reset pass).
            let identity = prefill.then(|| identity(op, target.ty()));
            let (pull, filter) = match mode {
                TraverseMode::Push => (false, nbr_filter.as_ref().map(|f| ex.bool(f)).transpose()?),
                TraverseMode::Pull => (true, ex.filter(vertex_filter)?),
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
            let pass = match (pass.map(|slot| ex.prop(slot)), &filter) {
                (None, None) => None,
                (None, Some(Operand::Load(p))) => Some(*p),
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
                writes.push(ex.write(target, &const_expr(v))?);
            }
            // The reduction reads the body's own column, or (a push only)
            // the `$val` column the prologue stores the body in.
            let src = match (value.map(|slot| ex.prop(slot)), pull) {
                (None, _) => body.as_bare_load(WhichVar::Inner).and_then(|s| ex.prop(s)),
                (Some(Some(scratch)), false) => {
                    writes.push(ex.write(scratch, body)?);
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
            let mask = match writes.is_empty() {
                true => None,
                false => filter.map(Operand::into_dyn),
            };
            let prologue = NodeKernel { mask, writes };
            let job = EdgeKernel {
                prologue,
                pass,
                reduction,
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
        // writes, to a chunk kernel like any node job's.
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
        let job = Arc::new(NodeKernel {
            mask: None,
            writes: vec![self.ex.write(scratch, &value)?],
        });
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
