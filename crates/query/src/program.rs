//! The compiled program: the validated, optimized plan plus the reference
//! expression evaluator.
//!
//! The query crate is engine-agnostic — it knows nothing about props,
//! ghosts or jobs. An executor (e.g. `pgxd::query`) walks the steps of
//! [`Program::plan`] and decides how each expression runs: `pgxd::query`
//! lowers everything a task evaluates per vertex to block kernels once per
//! execution, and calls [`eval`] only for what runs once per step —
//! driver-side scalars, through an [`EvalEnv`] whose `global_agg` launches
//! reduction jobs. [`eval`] is the semantics those kernels are held to
//! (bit for bit, by a property test), so it stays
//! defined over every expression. The typed-IR invariants established by
//! semantic analysis (matching operand types, boolean conditions,
//! aggregates only in driver contexts) make it total: it never panics on
//! any compiled program.

use crate::ast::AggFn;
use crate::opt::OptReport;
use crate::plan::{PStep, Plan, TraverseMode};
use crate::sema::{TExpr, TExprKind, TUnOp, Ty, WhichVar};
use crate::span::QueryError;
use pgxd_runtime::ReduceOp;

/// A runtime value of one of the three query types.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Val {
    F64(f64),
    I64(i64),
    Bool(bool),
}

impl Val {
    pub fn ty(self) -> Ty {
        match self {
            Val::F64(_) => Ty::F64,
            Val::I64(_) => Ty::I64,
            Val::Bool(_) => Ty::Bool,
        }
    }

    /// Zero/false of the given type.
    pub fn zero(ty: Ty) -> Val {
        match ty {
            Ty::F64 => Val::F64(0.0),
            Ty::I64 => Val::I64(0),
            Ty::Bool => Val::Bool(false),
        }
    }

    pub fn as_f64(self) -> f64 {
        match self {
            Val::F64(v) => v,
            Val::I64(v) => v as f64,
            Val::Bool(v) => v as i64 as f64,
        }
    }

    pub fn as_i64(self) -> i64 {
        match self {
            Val::F64(v) => v as i64,
            Val::I64(v) => v,
            Val::Bool(v) => v as i64,
        }
    }

    pub fn as_bool(self) -> bool {
        match self {
            Val::Bool(v) => v,
            Val::I64(v) => v != 0,
            Val::F64(v) => v != 0.0,
        }
    }
}

/// The identity element a target property is prefilled with before an
/// `=`-assigned aggregate runs.
pub fn identity(op: ReduceOp, ty: Ty) -> Val {
    match (op, ty) {
        (ReduceOp::Sum, Ty::F64) => Val::F64(0.0),
        (ReduceOp::Min, Ty::F64) => Val::F64(f64::INFINITY),
        (ReduceOp::Max, Ty::F64) => Val::F64(f64::NEG_INFINITY),
        (ReduceOp::Sum, Ty::I64) => Val::I64(0),
        (ReduceOp::Min, Ty::I64) => Val::I64(i64::MAX),
        (ReduceOp::Max, Ty::I64) => Val::I64(i64::MIN),
        // Sema rejects bool aggregation targets and other ops never
        // reach here; return a harmless default rather than panic.
        (_, ty) => Val::zero(ty),
    }
}

/// Whether a driver-side aggregate is evaluated into an `$agg` column of its
/// type, or answered without one: `count(v)` is `N`, `count(v where
/// v.<bool column>)` counts the column, and an unfiltered aggregate of a
/// bare column reduces that column.
pub fn agg_needs_column(agg: AggFn, filter: Option<&TExpr>, body: Option<&TExpr>) -> bool {
    let bare = |e: Option<&TExpr>| e.is_some_and(|e| e.as_bare_load(WhichVar::Outer).is_some());
    match (agg, filter) {
        (AggFn::Count, None) => false,
        (AggFn::Count, filter) => !bare(filter),
        (_, None) => !bare(body),
        _ => true,
    }
}

/// If the expression is a literal, its value. Post-optimizer `Fill`,
/// `PointSet` and loop-free scalar positions are always literal.
pub fn const_val(e: &TExpr) -> Option<Val> {
    match e.kind {
        TExprKind::ConstF64(v) => Some(Val::F64(v)),
        TExprKind::ConstI64(v) => Some(Val::I64(v)),
        TExprKind::ConstBool(v) => Some(Val::Bool(v)),
        _ => None,
    }
}

/// What the evaluator needs from an execution backend.
///
/// A driver-side backend implements [`EvalEnv::nodes`] and
/// [`EvalEnv::global_agg`] and nothing else: semantic analysis rejects
/// vertex references in scalar position, so the three per-vertex accessors
/// are unreachable there and default to zeros. They stay in the trait
/// because [`eval`] over per-vertex expressions is the reference an
/// executor's compiled form is tested against; a backend with a vertex to
/// read (that test's) overrides them.
pub trait EvalEnv {
    /// Read property `slot` of the outer (iterated) or inner (neighbor)
    /// vertex.
    fn load(&mut self, _slot: usize, _var: WhichVar) -> Val {
        Val::I64(0)
    }
    fn out_degree(&mut self, _var: WhichVar) -> i64 {
        0
    }
    fn in_degree(&mut self, _var: WhichVar) -> i64 {
        0
    }
    /// Global vertex count (only reachable if the optimizer was skipped;
    /// [`crate::compile`] always folds `N`).
    fn nodes(&mut self) -> i64;
    /// Evaluate a global aggregate. Driver-side backends override this
    /// with real reduction jobs.
    fn global_agg(
        &mut self,
        _agg: AggFn,
        _filter: Option<&TExpr>,
        _body: Option<&TExpr>,
        ty: Ty,
    ) -> Val {
        debug_assert!(false, "global aggregate evaluated in a per-vertex context");
        Val::zero(ty)
    }
}

/// Evaluate a typed expression. Total: never panics for any expression
/// produced by [`crate::compile`].
pub fn eval<E: EvalEnv>(e: &TExpr, env: &mut E) -> Val {
    match &e.kind {
        TExprKind::ConstF64(v) => Val::F64(*v),
        TExprKind::ConstI64(v) => Val::I64(*v),
        TExprKind::ConstBool(v) => Val::Bool(*v),
        TExprKind::NodeCount => Val::I64(env.nodes()),
        TExprKind::Load { slot, var } => env.load(*slot, *var),
        TExprKind::OutDegree { var } => Val::I64(env.out_degree(*var)),
        TExprKind::InDegree { var } => Val::I64(env.in_degree(*var)),
        TExprKind::Unary { op, expr } => {
            let v = eval(expr, env);
            match op {
                TUnOp::Neg => match v {
                    Val::F64(x) => Val::F64(-x),
                    Val::I64(x) => Val::I64(x.wrapping_neg()),
                    other => other,
                },
                TUnOp::Not => Val::Bool(!v.as_bool()),
                TUnOp::Abs => match v {
                    Val::F64(x) => Val::F64(x.abs()),
                    Val::I64(x) => Val::I64(x.wrapping_abs()),
                    other => other,
                },
                TUnOp::ToF64 => Val::F64(v.as_f64()),
            }
        }
        TExprKind::Binary { op, lhs, rhs } => {
            use crate::ast::BinOp::*;
            // Short-circuit the boolean connectives.
            match op {
                And => return Val::Bool(eval(lhs, env).as_bool() && eval(rhs, env).as_bool()),
                Or => return Val::Bool(eval(lhs, env).as_bool() || eval(rhs, env).as_bool()),
                _ => {}
            }
            let a = eval(lhs, env);
            let b = eval(rhs, env);
            match (a, b) {
                (Val::F64(x), Val::F64(y)) => match op {
                    Add => Val::F64(x + y),
                    Sub => Val::F64(x - y),
                    Mul => Val::F64(x * y),
                    Div => Val::F64(x / y),
                    Eq => Val::Bool(x == y),
                    Ne => Val::Bool(x != y),
                    Lt => Val::Bool(x < y),
                    Le => Val::Bool(x <= y),
                    Gt => Val::Bool(x > y),
                    Ge => Val::Bool(x >= y),
                    And | Or => Val::Bool(false),
                },
                (Val::I64(x), Val::I64(y)) => match op {
                    Add => Val::I64(x.wrapping_add(y)),
                    Sub => Val::I64(x.wrapping_sub(y)),
                    Mul => Val::I64(x.wrapping_mul(y)),
                    Div => Val::F64(x as f64 / y as f64),
                    Eq => Val::Bool(x == y),
                    Ne => Val::Bool(x != y),
                    Lt => Val::Bool(x < y),
                    Le => Val::Bool(x <= y),
                    Gt => Val::Bool(x > y),
                    Ge => Val::Bool(x >= y),
                    And | Or => Val::Bool(false),
                },
                (Val::Bool(x), Val::Bool(y)) => match op {
                    Eq => Val::Bool(x == y),
                    Ne => Val::Bool(x != y),
                    _ => Val::Bool(false),
                },
                // Mixed operand types cannot be produced by sema; yield a
                // typed zero instead of panicking.
                _ => Val::zero(e.ty),
            }
        }
        TExprKind::Ternary { cond, then, other } => {
            if eval(cond, env).as_bool() {
                eval(then, env)
            } else {
                eval(other, env)
            }
        }
        TExprKind::GlobalAgg { agg, filter, body } => {
            env.global_agg(*agg, filter.as_deref(), body.as_deref(), e.ty)
        }
    }
}

/// A compiled, validated, optimized query, ready for an executor.
#[derive(Clone, Debug)]
pub struct Program {
    /// The optimized logical plan (slot-indexed property table, steps,
    /// output).
    pub plan: Plan,
    /// What the optimizer did.
    pub report: OptReport,
    /// Vertex count of the graph this program was compiled against.
    pub nodes: u64,
}

impl Program {
    /// Number of properties the executor will create (admission control
    /// cost of running this query): the live plan slots and the
    /// [`Self::agg_columns`].
    pub fn live_props(&self) -> usize {
        self.plan.props.iter().flatten().count() + self.agg_columns().len()
    }

    /// The types of the `$agg` columns the executor creates with the plan's
    /// columns: one per type of the driver-side aggregates (in `until`
    /// conditions and a scalar output) that [`agg_needs_column`], in order
    /// of first use. Each evaluation of such an aggregate reuses its
    /// type's column.
    pub fn agg_columns(&self) -> Vec<Ty> {
        let mut out = Vec::new();
        for e in self.plan.driver_scalars() {
            e.walk(&mut |e| {
                if let TExprKind::GlobalAgg { agg, filter, body } = &e.kind {
                    let needs = agg_needs_column(*agg, filter.as_deref(), body.as_deref());
                    if needs && !out.contains(&e.ty) {
                        out.push(e.ty);
                    }
                }
            });
        }
        out
    }

    /// The text attached to `JobReport.plan`: optimized plan plus the
    /// optimizer summary.
    pub fn render(&self) -> String {
        format!("{}opt: {}\n", self.plan.render(), self.report.render())
    }
}

/// Validate the optimized plan and package it as a [`Program`].
pub fn finalize(plan: Plan, report: OptReport, nodes: u64) -> Result<Program, QueryError> {
    validate_steps(&plan.steps, nodes)?;
    Ok(Program {
        plan,
        report,
        nodes,
    })
}

fn validate_steps(steps: &[PStep], nodes: u64) -> Result<(), QueryError> {
    for step in steps {
        match step {
            PStep::Fill { value, .. } => {
                if const_val(value).is_none() {
                    return Err(QueryError::unsupported(
                        value.span,
                        "property initializer did not reduce to a constant",
                    ));
                }
            }
            PStep::PointSet { vertex, value, .. } => {
                let Some(Val::I64(v)) = const_val(vertex) else {
                    return Err(QueryError::unsupported(
                        vertex.span,
                        "point-assignment vertex index must be a constant",
                    ));
                };
                if v < 0 || v as u64 >= nodes {
                    return Err(QueryError::typing(
                        vertex.span,
                        format!("vertex index {v} out of range (graph has {nodes} vertices)"),
                    ));
                }
                if const_val(value).is_none() {
                    return Err(QueryError::unsupported(
                        value.span,
                        "point-assignment value must be a constant",
                    ));
                }
            }
            PStep::EdgeJob { mode, span, .. } => {
                if *mode == TraverseMode::Unchosen {
                    return Err(QueryError::unsupported(
                        *span,
                        "internal: traversal direction was not chosen",
                    ));
                }
            }
            PStep::Loop { body, .. } => validate_steps(body, nodes)?,
            PStep::NodeJob { .. } => {}
        }
    }
    Ok(())
}

/// A returned property column, typed like its declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryColumn {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl QueryColumn {
    pub fn len(&self) -> usize {
        match self {
            QueryColumn::F64(v) => v.len(),
            QueryColumn::I64(v) => v.len(),
            QueryColumn::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            QueryColumn::F64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            QueryColumn::I64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            QueryColumn::Bool(v) => Some(v),
            _ => None,
        }
    }
}

/// Typed result of running a compiled query.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResult {
    /// A driver-side scalar (`return <agg or expression>;`).
    Scalar(Val),
    /// A whole property column (`return <prop>;`), indexed by global
    /// vertex id.
    Column { name: String, values: QueryColumn },
}

impl QueryResult {
    pub fn as_scalar(&self) -> Option<Val> {
        match self {
            QueryResult::Scalar(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_column(&self) -> Option<(&str, &QueryColumn)> {
        match self {
            QueryResult::Column { name, values } => Some((name, values)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    struct NoEnv;
    impl EvalEnv for NoEnv {
        fn load(&mut self, _: usize, _: WhichVar) -> Val {
            Val::I64(7)
        }
        fn out_degree(&mut self, _: WhichVar) -> i64 {
            3
        }
        fn in_degree(&mut self, _: WhichVar) -> i64 {
            2
        }
        fn nodes(&mut self) -> i64 {
            10
        }
    }

    fn e(ty: Ty, kind: TExprKind) -> TExpr {
        TExpr {
            span: Span::default(),
            ty,
            kind,
        }
    }

    #[test]
    fn eval_dispatches_on_type_and_wraps_i64() {
        let sum = e(
            Ty::I64,
            TExprKind::Binary {
                op: crate::ast::BinOp::Add,
                lhs: Box::new(e(Ty::I64, TExprKind::ConstI64(i64::MAX))),
                rhs: Box::new(e(Ty::I64, TExprKind::ConstI64(1))),
            },
        );
        assert_eq!(eval(&sum, &mut NoEnv), Val::I64(i64::MIN));

        let div = e(
            Ty::F64,
            TExprKind::Binary {
                op: crate::ast::BinOp::Div,
                lhs: Box::new(e(Ty::F64, TExprKind::ConstF64(1.0))),
                rhs: Box::new(e(Ty::F64, TExprKind::ConstF64(0.0))),
            },
        );
        assert_eq!(eval(&div, &mut NoEnv), Val::F64(f64::INFINITY));
    }

    #[test]
    fn identities_match_the_hand_written_kernels() {
        assert_eq!(identity(ReduceOp::Sum, Ty::F64), Val::F64(0.0));
        assert_eq!(identity(ReduceOp::Min, Ty::I64), Val::I64(i64::MAX));
    }
}
