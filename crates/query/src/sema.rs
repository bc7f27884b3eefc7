//! Semantic analysis: spanned AST → typed statement IR.
//!
//! Responsibilities:
//! - resolve property names against the declarations in the query (and,
//!   at the top of `analyze`, reject redeclarations and forward refs),
//! - type every expression (`f64` / `i64` / `bool`), inserting explicit
//!   `i64 → f64` coercions so the evaluator never dispatches on mixed
//!   operand types (`/` always computes in `f64`),
//! - give `INF` its type from context (`f64::INFINITY` vs `i64::MAX`),
//! - split `foreach` bodies into fused per-vertex compute groups and
//!   neighbor-aggregate traversals (the two lower to node jobs and edge
//!   jobs respectively),
//! - desugar `+=` / `min=` / `max=` on plain assignments,
//! - enforce placement rules: aggregates only where the engine can run
//!   them, `return` last, `until` typed `bool`, loop bounds present.
//!
//! Everything downstream (plan building, optimization, execution) can
//! then assume a well-typed program and never re-validate.

use crate::ast::{self, AggFn, AssignOp, BinOp, Expr, ExprKind, NbrSet, Stmt, StmtKind, TyName};
use crate::span::{QueryError, Span};
use pgxd_runtime::ReduceOp;

/// Value type of an expression or property.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ty {
    F64,
    I64,
    Bool,
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Ty::F64 => "f64",
            Ty::I64 => "i64",
            Ty::Bool => "bool",
        })
    }
}

impl From<TyName> for Ty {
    fn from(t: TyName) -> Ty {
        match t {
            TyName::F64 => Ty::F64,
            TyName::I64 => Ty::I64,
            TyName::Bool => Ty::Bool,
        }
    }
}

/// Which bound vertex a property load refers to.
///
/// `Outer` is the vertex the surrounding job iterates (the `foreach` /
/// global-aggregate variable); `Inner` is a neighbor-aggregate's bound
/// neighbor, which lowers to the *source* endpoint of an edge job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WhichVar {
    Outer,
    Inner,
}

/// Typed unary operators. `ToF64` is the coercion sema inserts for
/// mixed-type arithmetic; it never appears in source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TUnOp {
    Neg,
    Not,
    Abs,
    ToF64,
}

/// A typed expression. Invariants established here and relied on by the
/// evaluator: binary operands have identical types, conditions are
/// `bool`, aggregates appear only where [`analyze`] permits them.
#[derive(Clone, Debug, PartialEq)]
pub struct TExpr {
    pub span: Span,
    pub ty: Ty,
    pub kind: TExprKind,
}

#[derive(Clone, Debug, PartialEq)]
pub enum TExprKind {
    ConstF64(f64),
    ConstI64(i64),
    ConstBool(bool),
    /// The global vertex count `N` (typed `i64`; folded to a constant by
    /// the optimizer once the target graph is known).
    NodeCount,
    Load {
        slot: usize,
        var: WhichVar,
    },
    OutDegree {
        var: WhichVar,
    },
    InDegree {
        var: WhichVar,
    },
    Unary {
        op: TUnOp,
        expr: Box<TExpr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<TExpr>,
        rhs: Box<TExpr>,
    },
    Ternary {
        cond: Box<TExpr>,
        then: Box<TExpr>,
        other: Box<TExpr>,
    },
    /// Global (all-vertex) aggregate — only in driver-side scalar
    /// contexts (`until`, scalar `return`).
    GlobalAgg {
        agg: AggFn,
        filter: Option<Box<TExpr>>,
        body: Option<Box<TExpr>>,
    },
}

impl TExpr {
    fn new(span: Span, ty: Ty, kind: TExprKind) -> TExpr {
        TExpr { span, ty, kind }
    }

    /// True if this is a bare property load of the given variable class —
    /// the shape that allows pull-mode traversal and direct reductions.
    pub fn as_bare_load(&self, var: WhichVar) -> Option<usize> {
        match self.kind {
            TExprKind::Load { slot, var: v } if v == var => Some(slot),
            _ => None,
        }
    }

    /// Whether `self` and `other` are the same tree — operators, types,
    /// slots and constants (`f64` by bits) — wherever they were written.
    pub fn same_tree(&self, other: &TExpr) -> bool {
        use TExprKind as K;
        let same = |a: &TExpr, b: &TExpr| a.same_tree(b);
        let same_opt = |a: &Option<Box<TExpr>>, b: &Option<Box<TExpr>>| match (a, b) {
            (Some(a), Some(b)) => a.same_tree(b),
            (a, b) => a.is_none() && b.is_none(),
        };
        self.ty == other.ty
            && match (&self.kind, &other.kind) {
                (K::ConstF64(a), K::ConstF64(b)) => a.to_bits() == b.to_bits(),
                (K::Unary { op, expr }, K::Unary { op: o, expr: e }) => op == o && same(expr, e),
                (
                    K::Binary { op, lhs, rhs },
                    K::Binary {
                        op: o,
                        lhs: l,
                        rhs: r,
                    },
                ) => op == o && same(lhs, l) && same(rhs, r),
                (
                    K::Ternary { cond, then, other },
                    K::Ternary {
                        cond: c,
                        then: t,
                        other: o,
                    },
                ) => same(cond, c) && same(then, t) && same(other, o),
                (
                    K::GlobalAgg { agg, filter, body },
                    K::GlobalAgg {
                        agg: a,
                        filter: f,
                        body: b,
                    },
                ) => agg == a && same_opt(filter, f) && same_opt(body, b),
                (a, b) => a == b,
            }
    }

    /// Calls `f` on every node of the tree, parents first.
    pub(crate) fn walk<'a>(&'a self, f: &mut impl FnMut(&'a TExpr)) {
        f(self);
        match &self.kind {
            TExprKind::Unary { expr, .. } => expr.walk(f),
            TExprKind::Binary { lhs, rhs, .. } => [lhs, rhs].into_iter().for_each(|e| e.walk(f)),
            TExprKind::Ternary { cond, then, other } => {
                [cond, then, other].into_iter().for_each(|e| e.walk(f))
            }
            TExprKind::GlobalAgg { filter, body, .. } => {
                filter.iter().chain(body).for_each(|e| e.walk(f))
            }
            _ => {}
        }
    }

    /// Calls `f` with the slot and span of every property load in the tree.
    pub fn for_each_load(&self, f: &mut impl FnMut(usize, Span)) {
        self.walk(&mut |e| {
            if let TExprKind::Load { slot, .. } = e.kind {
                f(slot, e.span)
            }
        })
    }
}

/// A property declared by the query.
#[derive(Clone, Debug)]
pub struct PropInfo {
    pub name: String,
    pub ty: Ty,
    pub span: Span,
}

/// A neighbor-aggregate assignment, pre-direction-choice.
#[derive(Clone, Debug)]
pub struct TraverseStmt {
    pub span: Span,
    /// Which adjacency of the foreach vertex the aggregate ranges over.
    pub set: NbrSet,
    /// Reduction applied edge-by-edge (Count lowers to `Sum` of ones).
    pub op: ReduceOp,
    /// Destination property slot (one value per foreach vertex).
    pub target: usize,
    /// Filter over the *neighbor* variable (`Inner` loads only).
    pub nbr_filter: Option<TExpr>,
    /// The enclosing foreach's `where` clause (`Outer` loads).
    pub vertex_filter: Option<TExpr>,
    /// Per-neighbor value pushed/pulled (`Inner` loads only).
    pub body: TExpr,
}

/// Typed statement.
#[derive(Clone, Debug)]
pub enum SStmt {
    /// Initialize every vertex's `slot` to a (constant) scalar.
    Fill { slot: usize, value: TExpr },
    /// Write one vertex's `slot` (driver-side sequential region).
    PointSet {
        slot: usize,
        vertex: TExpr,
        value: TExpr,
    },
    /// Fused per-vertex assignments — one node job, statements applied
    /// in order for each vertex.
    Compute {
        filter: Option<TExpr>,
        writes: Vec<(usize, TExpr)>,
    },
    /// Neighbor aggregate — one edge job.
    Traverse(TraverseStmt),
    /// Fixpoint block.
    Loop {
        max: Option<u64>,
        body: Vec<SStmt>,
        until: Option<TExpr>,
    },
}

/// What the query returns.
#[derive(Clone, Debug)]
pub enum SOutput {
    /// A whole property column, by declared name.
    Column { slot: usize },
    /// A driver-side scalar (aggregates allowed).
    Scalar { expr: TExpr },
}

/// A fully type-checked query.
#[derive(Clone, Debug)]
pub struct SQuery {
    pub props: Vec<PropInfo>,
    pub stmts: Vec<SStmt>,
    pub output: SOutput,
}

/// Expression context: which vertex variables are in scope.
#[derive(Clone, Copy)]
enum Cx<'a> {
    /// Driver-side scalar; `allow_agg` gates global aggregates.
    Scalar { allow_agg: bool },
    /// Per-vertex (`foreach` body, global-aggregate filter/body).
    Vertex { var: &'a str },
    /// Neighbor-aggregate filter/body: only the neighbor is readable.
    Nbr { nbr: &'a str, src: &'a str },
}

struct Checker {
    props: Vec<PropInfo>,
}

/// Type-check a parsed query.
pub fn analyze(query: &ast::Query) -> Result<SQuery, QueryError> {
    let mut ck = Checker { props: Vec::new() };
    let mut stmts = Vec::new();
    let mut output = None;
    let n_stmts = query.stmts.len();
    for (i, stmt) in query.stmts.iter().enumerate() {
        if output.is_some() {
            return Err(QueryError::typing(
                stmt.span,
                "no statements may follow `return`",
            ));
        }
        if let StmtKind::Return { value } = &stmt.kind {
            if i + 1 != n_stmts {
                return Err(QueryError::typing(
                    stmt.span,
                    "no statements may follow `return`",
                ));
            }
            output = Some(ck.check_return(value)?);
            continue;
        }
        stmts.push(ck.stmt(stmt, true)?);
    }
    let Some(output) = output else {
        let span = query.stmts.last().map(|s| s.span).unwrap_or_default();
        return Err(QueryError::typing(
            span,
            "query must end with a `return` statement",
        ));
    };
    Ok(SQuery {
        props: ck.props,
        stmts,
        output,
    })
}

impl Checker {
    fn lookup(&self, name: &str, span: Span) -> Result<(usize, Ty), QueryError> {
        self.props
            .iter()
            .position(|p| p.name == name)
            .map(|i| (i, self.props[i].ty))
            .ok_or_else(|| {
                QueryError::typing(span, format!("unknown property `{name}` (declare it with `prop {name}: <ty> = <init>;` before use)"))
            })
    }

    fn stmt(&mut self, stmt: &Stmt, top_level: bool) -> Result<SStmt, QueryError> {
        match &stmt.kind {
            StmtKind::PropDecl { name, ty, init } => {
                if !top_level {
                    return Err(QueryError::typing(
                        stmt.span,
                        "properties must be declared at the top level, not inside `iterate`",
                    ));
                }
                if self.props.iter().any(|p| p.name == *name) {
                    return Err(QueryError::typing(
                        stmt.span,
                        format!("property `{name}` is declared twice"),
                    ));
                }
                let ty = Ty::from(*ty);
                let value = self.expr(init, Cx::Scalar { allow_agg: false }, Some(ty))?;
                self.props.push(PropInfo {
                    name: name.clone(),
                    ty,
                    span: stmt.span,
                });
                Ok(SStmt::Fill {
                    slot: self.props.len() - 1,
                    value,
                })
            }
            StmtKind::PointSet {
                prop,
                vertex,
                value,
            } => {
                let (slot, ty) = self.lookup(prop, stmt.span)?;
                let vertex = self.expr(vertex, Cx::Scalar { allow_agg: false }, Some(Ty::I64))?;
                let value = self.expr(value, Cx::Scalar { allow_agg: false }, Some(ty))?;
                Ok(SStmt::PointSet {
                    slot,
                    vertex,
                    value,
                })
            }
            StmtKind::Foreach { var, filter, body } => {
                // A foreach splits into traversals (aggregate RHS) and
                // fused compute groups; with more than one resulting
                // piece the split would change which vertices see which
                // intermediate state, so only single-traversal foreach
                // bodies may mix with nothing else.
                let filter = filter
                    .as_ref()
                    .map(|f| self.expr(f, Cx::Vertex { var }, Some(Ty::Bool)))
                    .transpose()?;
                let mut pieces: Vec<SStmt> = Vec::new();
                let mut writes: Vec<(usize, TExpr)> = Vec::new();
                for assign in body {
                    if let ExprKind::NbrAgg { .. } = &assign.value.kind {
                        if !writes.is_empty() || !pieces.is_empty() {
                            return Err(QueryError::unsupported(
                                assign.span,
                                "a neighbor aggregate must be the only statement in its \
                                 `foreach` (split the block into two foreach statements)",
                            ));
                        }
                        pieces.push(SStmt::Traverse(self.traverse(
                            var,
                            filter.clone(),
                            assign,
                        )?));
                    } else {
                        writes.push(self.plain_assign(var, assign)?);
                    }
                }
                if !writes.is_empty() {
                    if !pieces.is_empty() {
                        let span = body.last().map(|a| a.span).unwrap_or(stmt.span);
                        return Err(QueryError::unsupported(
                            span,
                            "a neighbor aggregate must be the only statement in its \
                             `foreach` (split the block into two foreach statements)",
                        ));
                    }
                    pieces.push(SStmt::Compute {
                        filter: filter.clone(),
                        writes,
                    });
                }
                match pieces.len() {
                    0 => Err(QueryError::typing(stmt.span, "empty foreach body")),
                    1 => Ok(pieces.pop().expect("len checked")),
                    _ => unreachable!("foreach split produces at most one piece"),
                }
            }
            StmtKind::Iterate {
                max_iters,
                body,
                until,
            } => {
                if max_iters.is_none() && until.is_none() {
                    return Err(QueryError::typing(
                        stmt.span,
                        "`iterate` needs a `max <n>` bound or an `until` condition",
                    ));
                }
                let body = body
                    .iter()
                    .map(|s| self.stmt(s, false))
                    .collect::<Result<Vec<_>, _>>()?;
                let until = until
                    .as_ref()
                    .map(|u| self.expr(u, Cx::Scalar { allow_agg: true }, Some(Ty::Bool)))
                    .transpose()?;
                Ok(SStmt::Loop {
                    max: *max_iters,
                    body,
                    until,
                })
            }
            StmtKind::Return { .. } => Err(QueryError::typing(
                stmt.span,
                "`return` must be the last top-level statement",
            )),
        }
    }

    fn check_return(&mut self, value: &Expr) -> Result<SOutput, QueryError> {
        if let ExprKind::Bare(name) = &value.kind {
            let (slot, _) = self.lookup(name, value.span)?;
            return Ok(SOutput::Column { slot });
        }
        let expr = self.expr(value, Cx::Scalar { allow_agg: true }, None)?;
        Ok(SOutput::Scalar { expr })
    }

    /// `v.p <op> expr;` with a plain (non-aggregate) RHS. Desugars the
    /// reduction assignments: `p += e` → `p = p + e`,
    /// `p min= e` → `p = e < p ? e : p` (and dually for `max=`).
    fn plain_assign(
        &mut self,
        var: &str,
        assign: &ast::Assign,
    ) -> Result<(usize, TExpr), QueryError> {
        if assign.var != var {
            return Err(QueryError::typing(
                assign.span,
                format!(
                    "unknown variable `{}` (the foreach variable here is `{var}`)",
                    assign.var
                ),
            ));
        }
        let (slot, ty) = self.lookup(&assign.prop, assign.span)?;
        let value = self.expr(&assign.value, Cx::Vertex { var }, Some(ty))?;
        let cur = TExpr::new(
            assign.span,
            ty,
            TExprKind::Load {
                slot,
                var: WhichVar::Outer,
            },
        );
        let value = match assign.op {
            AssignOp::Set => value,
            AssignOp::AddAssign => {
                if ty == Ty::Bool {
                    return Err(QueryError::typing(
                        assign.span,
                        "`+=` is not defined for bool properties",
                    ));
                }
                TExpr::new(
                    assign.span,
                    ty,
                    TExprKind::Binary {
                        op: BinOp::Add,
                        lhs: Box::new(cur),
                        rhs: Box::new(value),
                    },
                )
            }
            AssignOp::MinAssign | AssignOp::MaxAssign => {
                if ty == Ty::Bool {
                    return Err(QueryError::typing(
                        assign.span,
                        "`min=`/`max=` are not defined for bool properties",
                    ));
                }
                let op = if assign.op == AssignOp::MinAssign {
                    BinOp::Lt
                } else {
                    BinOp::Gt
                };
                let cond = TExpr::new(
                    assign.span,
                    Ty::Bool,
                    TExprKind::Binary {
                        op,
                        lhs: Box::new(value.clone()),
                        rhs: Box::new(cur.clone()),
                    },
                );
                TExpr::new(
                    assign.span,
                    ty,
                    TExprKind::Ternary {
                        cond: Box::new(cond),
                        then: Box::new(value),
                        other: Box::new(cur),
                    },
                )
            }
        };
        Ok((slot, value))
    }

    /// `v.target = agg(u in v.<set> where f) body;`
    fn traverse(
        &mut self,
        var: &str,
        vertex_filter: Option<TExpr>,
        assign: &ast::Assign,
    ) -> Result<TraverseStmt, QueryError> {
        let ExprKind::NbrAgg {
            agg,
            nbr_var,
            src_var,
            set,
            filter,
            body,
        } = &assign.value.kind
        else {
            unreachable!("caller matched NbrAgg")
        };
        if assign.var != var {
            return Err(QueryError::typing(
                assign.span,
                format!(
                    "unknown variable `{}` (the foreach variable here is `{var}`)",
                    assign.var
                ),
            ));
        }
        if assign.op != AssignOp::Set {
            return Err(QueryError::unsupported(
                assign.span,
                format!(
                    "a neighbor aggregate must be assigned with `=`, not `{}`",
                    assign.op.symbol()
                ),
            ));
        }
        if src_var != var {
            return Err(QueryError::typing(
                assign.value.span,
                format!(
                    "neighbor aggregate must range over the foreach variable \
                     `{var}`, not `{src_var}`"
                ),
            ));
        }
        let (target, target_ty) = self.lookup(&assign.prop, assign.span)?;
        if target_ty == Ty::Bool {
            return Err(QueryError::unsupported(
                assign.span,
                "aggregating into a bool property is not supported",
            ));
        }
        let cx = Cx::Nbr {
            nbr: nbr_var,
            src: var,
        };
        let nbr_filter = filter
            .as_ref()
            .map(|f| self.expr(f, cx, Some(Ty::Bool)))
            .transpose()?;
        let (op, body) = match agg {
            AggFn::Count => {
                let one = TExpr::new(assign.value.span, Ty::I64, TExprKind::ConstI64(1));
                (ReduceOp::Sum, coerce(one, Some(target_ty))?)
            }
            AggFn::Sum | AggFn::Min | AggFn::Max => {
                let body = body.as_deref().expect("parser requires a body here");
                let body = self.expr(body, cx, Some(target_ty))?;
                let op = match agg {
                    AggFn::Sum => ReduceOp::Sum,
                    AggFn::Min => ReduceOp::Min,
                    _ => ReduceOp::Max,
                };
                (op, body)
            }
        };
        // The target column is reset to the reduction identity and reduced
        // into while the job runs, so what a neighbor's cell of it holds
        // when it is read depends on arrival order.
        for e in nbr_filter.iter().chain([&body]) {
            let mut own_load = None;
            e.for_each_load(&mut |slot, span| {
                if slot == target {
                    own_load.get_or_insert(span);
                }
            });
            if let Some(span) = own_load {
                let p = &assign.prop;
                return Err(QueryError::unsupported(
                    span,
                    format!(
                        "a neighbor aggregate into `{p}` cannot read `{p}`: aggregate into a \
                         second property and assign it back in a following foreach"
                    ),
                ));
            }
        }
        Ok(TraverseStmt {
            span: assign.span,
            set: *set,
            op,
            target,
            nbr_filter,
            vertex_filter,
            body,
        })
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self, e: &Expr, cx: Cx<'_>, expected: Option<Ty>) -> Result<TExpr, QueryError> {
        let t = self.infer(e, cx, expected)?;
        coerce(t, expected)
    }

    fn infer(&mut self, e: &Expr, cx: Cx<'_>, expected: Option<Ty>) -> Result<TExpr, QueryError> {
        let span = e.span;
        match &e.kind {
            ExprKind::IntLit(v) => {
                // An integer literal in a float context is a float
                // literal — `v.rank = 1` means `1.0`.
                if expected == Some(Ty::F64) {
                    Ok(TExpr::new(span, Ty::F64, TExprKind::ConstF64(*v as f64)))
                } else {
                    Ok(TExpr::new(span, Ty::I64, TExprKind::ConstI64(*v)))
                }
            }
            ExprKind::FloatLit(v) => Ok(TExpr::new(span, Ty::F64, TExprKind::ConstF64(*v))),
            ExprKind::BoolLit(v) => Ok(TExpr::new(span, Ty::Bool, TExprKind::ConstBool(*v))),
            ExprKind::Inf => match expected {
                Some(Ty::F64) => Ok(TExpr::new(
                    span,
                    Ty::F64,
                    TExprKind::ConstF64(f64::INFINITY),
                )),
                Some(Ty::I64) => Ok(TExpr::new(span, Ty::I64, TExprKind::ConstI64(i64::MAX))),
                _ => Err(QueryError::typing(
                    span,
                    "`INF` needs a numeric context (`f64` or `i64`)",
                )),
            },
            ExprKind::NodeCount => Ok(TExpr::new(span, Ty::I64, TExprKind::NodeCount)),
            ExprKind::Bare(name) => Err(QueryError::typing(
                span,
                format!(
                    "bare identifier `{name}` is not an expression (properties are \
                     read as `v.{name}`; a bare name is only valid after `return`)"
                ),
            )),
            ExprKind::PropRef { var, prop } => {
                let who = self.resolve_var(var, cx, span)?;
                let (slot, ty) = self.lookup(prop, span)?;
                Ok(TExpr::new(span, ty, TExprKind::Load { slot, var: who }))
            }
            ExprKind::OutDegree { var } => {
                let who = self.resolve_var(var, cx, span)?;
                Ok(TExpr::new(span, Ty::I64, TExprKind::OutDegree { var: who }))
            }
            ExprKind::InDegree { var } => {
                let who = self.resolve_var(var, cx, span)?;
                Ok(TExpr::new(span, Ty::I64, TExprKind::InDegree { var: who }))
            }
            ExprKind::Unary { op, expr } => match op {
                ast::UnOp::Not => {
                    let inner = self.expr(expr, cx, Some(Ty::Bool))?;
                    Ok(TExpr::new(
                        span,
                        Ty::Bool,
                        TExprKind::Unary {
                            op: TUnOp::Not,
                            expr: Box::new(inner),
                        },
                    ))
                }
                ast::UnOp::Neg | ast::UnOp::Abs => {
                    let want = match expected {
                        Some(Ty::F64) | Some(Ty::I64) => expected,
                        _ => None,
                    };
                    let inner = self.infer(expr, cx, want)?;
                    if inner.ty == Ty::Bool {
                        return Err(QueryError::typing(
                            span,
                            format!(
                                "`{}` needs a numeric operand, found bool",
                                if *op == ast::UnOp::Neg { "-" } else { "abs" }
                            ),
                        ));
                    }
                    let ty = inner.ty;
                    let top = if *op == ast::UnOp::Neg {
                        TUnOp::Neg
                    } else {
                        TUnOp::Abs
                    };
                    Ok(TExpr::new(
                        span,
                        ty,
                        TExprKind::Unary {
                            op: top,
                            expr: Box::new(inner),
                        },
                    ))
                }
            },
            ExprKind::Binary { op, lhs, rhs } => self.binary(span, *op, lhs, rhs, cx, expected),
            ExprKind::Ternary { cond, then, other } => {
                let cond = self.expr(cond, cx, Some(Ty::Bool))?;
                let then = self.infer(then, cx, expected)?;
                let other = self.infer(other, cx, expected)?;
                let (then, other, ty) = unify(then, other, span)?;
                Ok(TExpr::new(
                    span,
                    ty,
                    TExprKind::Ternary {
                        cond: Box::new(cond),
                        then: Box::new(then),
                        other: Box::new(other),
                    },
                ))
            }
            ExprKind::NbrAgg { .. } => Err(QueryError::unsupported(
                span,
                "a neighbor aggregate is only allowed as the entire right-hand side \
                 of a foreach assignment (e.g. `v.nxt = sum(u in v.in_nbrs) u.tmp;`)",
            )),
            ExprKind::GlobalAgg {
                agg,
                var,
                filter,
                body,
            } => {
                let Cx::Scalar { allow_agg: true } = cx else {
                    return Err(QueryError::unsupported(
                        span,
                        "a global aggregate is only allowed in driver-side scalar \
                         contexts: `until` conditions and `return` expressions",
                    ));
                };
                let inner = Cx::Vertex { var };
                let filter = filter
                    .as_ref()
                    .map(|f| self.expr(f, inner, Some(Ty::Bool)))
                    .transpose()?
                    .map(Box::new);
                let (ty, body) = match agg {
                    AggFn::Count => {
                        debug_assert!(body.is_none(), "parser gives count no body");
                        (Ty::I64, None)
                    }
                    AggFn::Sum | AggFn::Min | AggFn::Max => {
                        let body = body.as_deref().expect("parser requires a body here");
                        let want = match expected {
                            Some(Ty::F64) | Some(Ty::I64) => expected,
                            _ => None,
                        };
                        let body = self.infer(body, inner, want)?;
                        if body.ty == Ty::Bool {
                            return Err(QueryError::typing(
                                body.span,
                                format!("`{}` needs a numeric body, found bool", agg.name()),
                            ));
                        }
                        (body.ty, Some(Box::new(body)))
                    }
                };
                Ok(TExpr::new(
                    span,
                    ty,
                    TExprKind::GlobalAgg {
                        agg: *agg,
                        filter,
                        body,
                    },
                ))
            }
        }
    }

    fn binary(
        &mut self,
        span: Span,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        cx: Cx<'_>,
        expected: Option<Ty>,
    ) -> Result<TExpr, QueryError> {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let want = match expected {
                    Some(Ty::F64) | Some(Ty::I64) => expected,
                    _ => None,
                };
                let lhs = self.infer(lhs, cx, want)?;
                let rhs = self.infer(rhs, cx, want)?;
                if lhs.ty == Ty::Bool || rhs.ty == Ty::Bool {
                    return Err(QueryError::typing(
                        span,
                        format!("`{}` needs numeric operands", op.symbol()),
                    ));
                }
                let (lhs, rhs, ty) = unify(lhs, rhs, span)?;
                Ok(TExpr::new(
                    span,
                    ty,
                    TExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                ))
            }
            BinOp::Div => {
                // Division always computes in f64 (no integer division,
                // hence no divide-by-zero trap anywhere in a query).
                let lhs = self.infer(lhs, cx, Some(Ty::F64))?;
                let rhs = self.infer(rhs, cx, Some(Ty::F64))?;
                if lhs.ty == Ty::Bool || rhs.ty == Ty::Bool {
                    return Err(QueryError::typing(span, "`/` needs numeric operands"));
                }
                let lhs = coerce(lhs, Some(Ty::F64))?;
                let rhs = coerce(rhs, Some(Ty::F64))?;
                Ok(TExpr::new(
                    span,
                    Ty::F64,
                    TExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                ))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let lhs = self.infer(lhs, cx, None)?;
                let rhs = self.infer(rhs, cx, None)?;
                let bool_side = lhs.ty == Ty::Bool || rhs.ty == Ty::Bool;
                if bool_side && !matches!(op, BinOp::Eq | BinOp::Ne) {
                    return Err(QueryError::typing(
                        span,
                        format!("`{}` needs numeric operands", op.symbol()),
                    ));
                }
                let (lhs, rhs, _) = unify(lhs, rhs, span)?;
                Ok(TExpr::new(
                    span,
                    Ty::Bool,
                    TExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                ))
            }
            BinOp::And | BinOp::Or => {
                let lhs = self.expr(lhs, cx, Some(Ty::Bool))?;
                let rhs = self.expr(rhs, cx, Some(Ty::Bool))?;
                Ok(TExpr::new(
                    span,
                    Ty::Bool,
                    TExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                ))
            }
        }
    }

    fn resolve_var(&self, name: &str, cx: Cx<'_>, span: Span) -> Result<WhichVar, QueryError> {
        match cx {
            Cx::Scalar { .. } => Err(QueryError::typing(
                span,
                format!(
                    "unknown variable `{name}` (no vertex variable is in scope in a \
                     driver-side scalar expression)"
                ),
            )),
            Cx::Vertex { var } => {
                if name == var {
                    Ok(WhichVar::Outer)
                } else {
                    Err(QueryError::typing(
                        span,
                        format!("unknown variable `{name}` (the vertex variable here is `{var}`)"),
                    ))
                }
            }
            Cx::Nbr { nbr, src } => {
                if name == nbr {
                    Ok(WhichVar::Inner)
                } else if name == src {
                    Err(QueryError::unsupported(
                        span,
                        format!(
                            "a neighbor aggregate body may only reference the neighbor \
                             variable `{nbr}`, not the source vertex `{src}` (the value \
                             is computed on the neighbor's machine)"
                        ),
                    ))
                } else {
                    Err(QueryError::typing(
                        span,
                        format!(
                            "unknown variable `{name}` (the neighbor variable here is `{nbr}`)"
                        ),
                    ))
                }
            }
        }
    }
}

/// Insert an `i64 → f64` coercion if needed; reject any other mismatch.
fn coerce(e: TExpr, expected: Option<Ty>) -> Result<TExpr, QueryError> {
    match expected {
        None => Ok(e),
        Some(t) if t == e.ty => Ok(e),
        Some(Ty::F64) if e.ty == Ty::I64 => Ok(TExpr {
            span: e.span,
            ty: Ty::F64,
            kind: TExprKind::Unary {
                op: TUnOp::ToF64,
                expr: Box::new(e),
            },
        }),
        Some(t) => Err(QueryError::typing(
            e.span,
            format!("type mismatch: expected {t}, found {}", e.ty),
        )),
    }
}

/// Make two operands the same type (mixed numeric widens to `f64`).
fn unify(lhs: TExpr, rhs: TExpr, span: Span) -> Result<(TExpr, TExpr, Ty), QueryError> {
    if lhs.ty == rhs.ty {
        let ty = lhs.ty;
        return Ok((lhs, rhs, ty));
    }
    match (lhs.ty, rhs.ty) {
        (Ty::F64, Ty::I64) => {
            let rhs = coerce(rhs, Some(Ty::F64))?;
            Ok((lhs, rhs, Ty::F64))
        }
        (Ty::I64, Ty::F64) => {
            let lhs = coerce(lhs, Some(Ty::F64))?;
            Ok((lhs, rhs, Ty::F64))
        }
        (a, b) => Err(QueryError::typing(
            span,
            format!("operand types do not match: {a} vs {b}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn check(src: &str) -> Result<SQuery, QueryError> {
        analyze(&parse(src).expect("test source must parse"))
    }

    #[test]
    fn types_the_pagerank_scale_assignment() {
        let q = check(
            "prop rank: f64 = 1.0;\nprop tmp: f64 = 0.0;\n\
             foreach v { v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }\n\
             return tmp;",
        )
        .unwrap();
        assert_eq!(q.props.len(), 2);
        assert!(matches!(q.output, SOutput::Column { slot: 1 }));
        // The out_degree in the division must have been coerced to f64.
        let SStmt::Compute { writes, .. } = &q.stmts[2] else {
            panic!("expected a compute group: {:?}", q.stmts[2]);
        };
        let (_, value) = &writes[0];
        assert_eq!(value.ty, Ty::F64);
    }

    #[test]
    fn inf_is_polymorphic() {
        let q = check("prop h: i64 = INF;\nprop r: f64 = INF;\nreturn h;").unwrap();
        let SStmt::Fill { value, .. } = &q.stmts[0] else {
            panic!()
        };
        assert_eq!(value.kind, TExprKind::ConstI64(i64::MAX));
        let SStmt::Fill { value, .. } = &q.stmts[1] else {
            panic!()
        };
        assert_eq!(value.kind, TExprKind::ConstF64(f64::INFINITY));
        let err = check("return INF == INF;").unwrap_err();
        assert!(err.to_string().contains("numeric context"), "{err}");
    }

    #[test]
    fn unknown_names_are_spanned_type_errors() {
        let err = check("foreach v { v.rank = 1.0; }\nreturn rank;").unwrap_err();
        assert!(err.to_string().contains("unknown property `rank`"), "{err}");
        assert_eq!(err.span.line, 1);

        let err = check("prop x: f64 = 0.0;\nforeach v { v.x = w.x; }\nreturn x;").unwrap_err();
        assert!(err.to_string().contains("unknown variable `w`"), "{err}");
        assert!(err.to_string().contains("`v`"), "{err}");
    }

    #[test]
    fn f64_does_not_silently_narrow() {
        let err = check("prop h: i64 = 0;\nforeach v { v.h = 1.5; }\nreturn h;").unwrap_err();
        assert!(err.to_string().contains("expected i64, found f64"), "{err}");
    }

    #[test]
    fn aggregate_placement_is_enforced() {
        // Nbr aggregate nested inside arithmetic: rejected.
        let err = check(
            "prop x: f64 = 0.0;\nforeach v { v.x = 1.0 + sum(u in v.in_nbrs) u.x; }\nreturn x;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("entire right-hand side"), "{err}");

        // Global aggregate inside a foreach body: rejected.
        let err =
            check("prop x: f64 = 0.0;\nforeach v { v.x = sum(w) w.x; }\nreturn x;").unwrap_err();
        assert!(err.to_string().contains("driver-side"), "{err}");

        // Source-vertex reference inside a neighbor aggregate: rejected.
        let err = check(
            "prop x: f64 = 0.0;\nforeach v { v.x = sum(u in v.in_nbrs) u.x + v.x; }\nreturn x;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("neighbor variable"), "{err}");
    }

    #[test]
    fn an_aggregate_cannot_read_its_own_target() {
        // In the body: the error names the column and points at the load.
        let err =
            check("prop x: f64 = 0.0;\nforeach v { v.x = sum(u in v.in_nbrs) u.x; }\nreturn x;")
                .unwrap_err();
        assert_eq!(err.kind, crate::span::ErrorKind::Unsupported);
        assert!(err.to_string().starts_with("2:39"), "{err}");
        assert!(
            err.to_string().contains("into `x` cannot read `x`"),
            "{err}"
        );
        // In the neighbor filter, under a constant body.
        let err = check(
            "prop c: i64 = 0;\nforeach v { v.c = count(u in v.out_nbrs where u.c > 0); }\nreturn c;",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("into `c` cannot read `c`"),
            "{err}"
        );
        // The foreach's own `where` reads the vertex's cell before its reset.
        check("prop x: f64 = 0.0;\nprop y: f64 = 1.0;\nforeach v where v.x < 1.0 { v.x = sum(u in v.in_nbrs) u.y; }\nreturn x;")
            .unwrap();
    }

    #[test]
    fn desugars_reduction_assignments() {
        let q = check("prop a: f64 = 0.0;\nforeach v { v.a += 1.0; v.a min= 0.5; }\nreturn a;")
            .unwrap();
        let SStmt::Compute { writes, .. } = &q.stmts[1] else {
            panic!()
        };
        assert_eq!(writes.len(), 2);
        assert!(matches!(
            writes[0].1.kind,
            TExprKind::Binary { op: BinOp::Add, .. }
        ));
        assert!(matches!(writes[1].1.kind, TExprKind::Ternary { .. }));
    }

    #[test]
    fn loops_need_a_bound_and_return_must_be_last() {
        let err = check("prop x: f64 = 0.0;\niterate { foreach v { v.x = 1.0; } }\nreturn x;")
            .unwrap_err();
        assert!(err.to_string().contains("`max <n>` bound"), "{err}");

        let err = check("prop x: f64 = 0.0;\nreturn x;\nforeach v { v.x = 1.0; }").unwrap_err();
        assert!(err.to_string().contains("follow `return`"), "{err}");

        let err = check("prop x: f64 = 0.0;").unwrap_err();
        assert!(
            err.to_string().contains("must end with a `return`"),
            "{err}"
        );
    }
}
