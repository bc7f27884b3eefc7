//! Logical plan: the renderable, optimizable step tree between semantic
//! analysis and the compiled program.
//!
//! [`build`] lowers the typed statements naively — every `where` clause
//! becomes a *materialized* boolean mask property filled by its own node
//! job, traversal direction is left [`TraverseMode::Unchosen`], and no
//! expression is folded. The optimizer passes in [`crate::opt`] then
//! rewrite the plan in place; [`Plan::render`] is what `JobReport.plan`
//! and `repro query` show.
//!
//! A node pass ([`NodePass`]) is either a job of its own
//! ([`PStep::NodeJob`]) or, once the fusion pass has run, part of the
//! epilogue of the edge job before it ([`PStep::EdgeJob`]'s `epilogue`).

use crate::ast::{BinOp, NbrSet};
use crate::sema::{PropInfo, SOutput, SQuery, SStmt, TExpr, TExprKind, TUnOp, Ty, WhichVar};
use crate::span::Span;
use pgxd_runtime::ReduceOp;

/// How an edge job iterates: chosen by the optimizer from plan shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraverseMode {
    /// Naive plan — the direction pass must run before execution.
    Unchosen,
    /// Iterate the *neighbor* side and scatter the value into the target
    /// with a declared `Scatter` (sources push).
    Push,
    /// Iterate the target side and fold the source value in with a
    /// declared `Fold` (destinations pull).
    Pull,
}

impl std::fmt::Display for TraverseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TraverseMode::Unchosen => "unchosen",
            TraverseMode::Push => "push",
            TraverseMode::Pull => "pull",
        })
    }
}

/// A vertex filter on a job.
#[derive(Clone, Debug)]
pub enum PFilter {
    None,
    /// Predicate evaluated inline in the task's filter hook (optimized).
    Inline(TExpr),
    /// Read a previously materialized boolean mask property (naive).
    Mask {
        slot: usize,
    },
}

impl PFilter {
    pub fn is_none(&self) -> bool {
        matches!(self, PFilter::None)
    }
}

/// Most common subexpressions one [`NodePass`] shares: the executor keeps
/// a lane for each per block.
pub const MAX_SHARED: usize = 4;

/// Per-vertex assignments applied in order, on the vertices the filter
/// passes. Every expression reads only the current vertex, so a pass can
/// run as a job of its own or as part of an edge job's epilogue.
#[derive(Clone, Debug)]
pub struct NodePass {
    pub filter: PFilter,
    pub writes: Vec<(usize, TExpr)>,
    /// Subexpressions that recur in `writes` and are evaluated once per
    /// vertex (common-subexpression elimination): no write before an
    /// occurrence writes a column they read. The writes still hold them in
    /// full, so [`crate::eval`] of a write is its meaning.
    pub shared: Vec<TExpr>,
}

impl NodePass {
    pub fn new(filter: PFilter, writes: Vec<(usize, TExpr)>) -> NodePass {
        NodePass {
            filter,
            writes,
            shared: Vec::new(),
        }
    }
}

/// One plan step.
#[derive(Clone, Debug)]
pub enum PStep {
    /// Set every vertex's `slot` to a scalar (constant after folding).
    Fill { slot: usize, value: TExpr },
    /// Driver-side single-vertex write.
    PointSet {
        slot: usize,
        vertex: TExpr,
        value: TExpr,
    },
    /// One node job.
    NodeJob(NodePass),
    /// One edge job: neighbor aggregate into `target`.
    EdgeJob {
        span: Span,
        mode: TraverseMode,
        set: NbrSet,
        op: ReduceOp,
        target: usize,
        /// Filter over the neighbor (push-side source) vertex.
        nbr_filter: Option<TExpr>,
        /// Filter over the foreach (pull-side target) vertex.
        vertex_filter: PFilter,
        /// Per-neighbor value.
        body: TExpr,
        /// Fill `target` with the reduction identity first (`=` assignment
        /// semantics).
        prefill: bool,
        /// Scratch columns the direction pass allocates and the executor
        /// fills a chunk at a time, before the chunk's edges: whether the
        /// iterating vertex passes a filter that is not a bool column
        /// already (`$pass`), and a push body that is not a bare load
        /// (`$val`).
        pass: Option<usize>,
        value: Option<usize>,
        /// Node passes that run, in order, once the job's edges are done,
        /// over each machine's vertices (the node jobs that followed it).
        epilogue: Vec<NodePass>,
    },
    /// Fixpoint block; `until` is evaluated driver-side after each pass.
    Loop {
        max: Option<u64>,
        body: Vec<PStep>,
        until: Option<TExpr>,
        /// The body's leading node pass was moved: it runs once before the
        /// loop and at the end of the last edge job's epilogue.
        rotated: bool,
    },
}

/// The logical plan for a query.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Slot-indexed property table; `None` marks a slot eliminated by the
    /// optimizer (never created at runtime).
    pub props: Vec<Option<PropInfo>>,
    pub steps: Vec<PStep>,
    pub output: SOutput,
}

impl Plan {
    /// The expressions the driver evaluates: every `until` condition, and a
    /// scalar output.
    pub(crate) fn driver_scalars(&self) -> Vec<&TExpr> {
        fn untils<'a>(steps: &'a [PStep], out: &mut Vec<&'a TExpr>) {
            for step in steps {
                if let PStep::Loop { body, until, .. } = step {
                    out.extend(until);
                    untils(body, out);
                }
            }
        }
        let mut out = Vec::new();
        untils(&self.steps, &mut out);
        if let SOutput::Scalar { expr } = &self.output {
            out.push(expr);
        }
        out
    }
}

/// Lower typed statements to the naive plan.
pub fn build(query: SQuery) -> Plan {
    let SQuery {
        props,
        stmts,
        output,
    } = query;
    let mut plan = Plan {
        props: props.into_iter().map(Some).collect(),
        steps: Vec::new(),
        output,
    };
    let steps = lower_block(stmts, &mut plan.props);
    plan.steps = steps;
    plan
}

fn lower_block(stmts: Vec<SStmt>, props: &mut Vec<Option<PropInfo>>) -> Vec<PStep> {
    let mut out = Vec::new();
    for stmt in stmts {
        match stmt {
            SStmt::Fill { slot, value } => out.push(PStep::Fill { slot, value }),
            SStmt::PointSet {
                slot,
                vertex,
                value,
            } => out.push(PStep::PointSet {
                slot,
                vertex,
                value,
            }),
            SStmt::Compute { filter, writes } => {
                let filter = materialize_filter(filter, props, &mut out);
                out.push(PStep::NodeJob(NodePass::new(filter, writes)));
            }
            SStmt::Traverse(t) => {
                let vertex_filter = materialize_filter(t.vertex_filter, props, &mut out);
                out.push(PStep::EdgeJob {
                    span: t.span,
                    mode: TraverseMode::Unchosen,
                    set: t.set,
                    op: t.op,
                    target: t.target,
                    nbr_filter: t.nbr_filter,
                    vertex_filter,
                    body: t.body,
                    prefill: true,
                    pass: None,
                    value: None,
                    epilogue: Vec::new(),
                });
            }
            SStmt::Loop { max, body, until } => {
                let body = lower_block(body, props);
                out.push(PStep::Loop {
                    max,
                    body,
                    until,
                    rotated: false,
                });
            }
        }
    }
    out
}

/// Naive filter lowering: allocate a synthetic bool mask property and
/// emit a node job that fills it with the predicate; the consumer then
/// reads the mask. Predicate pushdown later fuses this back into the
/// consuming job's filter hook.
fn materialize_filter(
    filter: Option<TExpr>,
    props: &mut Vec<Option<PropInfo>>,
    out: &mut Vec<PStep>,
) -> PFilter {
    let Some(pred) = filter else {
        return PFilter::None;
    };
    let slot = props.len();
    props.push(Some(PropInfo {
        name: format!("$mask{slot}"),
        ty: Ty::Bool,
        span: pred.span,
    }));
    out.push(PStep::NodeJob(NodePass::new(
        PFilter::None,
        vec![(slot, pred)],
    )));
    PFilter::Mask { slot }
}

// ---- rendering --------------------------------------------------------

impl Plan {
    /// Human-readable plan, the text attached to `JobReport.plan`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let live = self.props.iter().flatten().count();
        s.push_str(&format!("props: {live}\n"));
        for p in self.props.iter().flatten() {
            s.push_str(&format!("  prop {}: {}\n", p.name, p.ty));
        }
        render_steps(&self.steps, &self.props, 0, &mut s);
        match &self.output {
            SOutput::Column { slot } => s.push_str(&format!(
                "output: column {}\n",
                prop_name(&self.props, *slot)
            )),
            SOutput::Scalar { expr } => s.push_str(&format!(
                "output: scalar {}\n",
                render_expr(expr, &self.props)
            )),
        }
        s
    }
}

fn prop_name(props: &[Option<PropInfo>], slot: usize) -> String {
    props
        .get(slot)
        .and_then(|p| p.as_ref())
        .map(|p| p.name.clone())
        .unwrap_or_else(|| format!("#{slot}"))
}

fn render_steps(steps: &[PStep], props: &[Option<PropInfo>], depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for step in steps {
        match step {
            PStep::Fill { slot, value } => out.push_str(&format!(
                "{pad}fill {} = {}\n",
                prop_name(props, *slot),
                render_expr(value, props)
            )),
            PStep::PointSet {
                slot,
                vertex,
                value,
            } => out.push_str(&format!(
                "{pad}set {}[{}] = {}\n",
                prop_name(props, *slot),
                render_expr(vertex, props),
                render_expr(value, props)
            )),
            PStep::NodeJob(node) => render_pass("node-job", node, props, &pad, out),
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
                let set_name = match set {
                    NbrSet::In => "in-nbrs",
                    NbrSet::Out => "out-nbrs",
                };
                let into = |scratch: &Option<usize>| match scratch {
                    Some(slot) => format!(" into {}", prop_name(props, *slot)),
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{pad}edge-job [{mode}] {set_name} {op:?} -> {}{}{}{}{}\n",
                    prop_name(props, *target),
                    if *prefill { " (prefill identity)" } else { "" },
                    match nbr_filter {
                        Some(f) => format!(" nbr-where {}", render_expr(f, props)),
                        None => String::new(),
                    },
                    render_filter(vertex_filter, props),
                    into(pass),
                ));
                out.push_str(&format!(
                    "{pad}  value {}{}\n",
                    render_expr(body, props),
                    into(value)
                ));
                for node in epilogue {
                    render_pass("epilogue", node, props, &format!("{pad}  "), out);
                }
            }
            PStep::Loop {
                max,
                body,
                until,
                rotated,
            } => {
                let bound = match max {
                    Some(m) => format!(" max {m}"),
                    None => String::new(),
                };
                let rotated = if *rotated { " rotated" } else { "" };
                out.push_str(&format!("{pad}loop{bound}{rotated} {{\n"));
                render_steps(body, props, depth + 1, out);
                if let Some(u) = until {
                    out.push_str(&format!("{pad}  until {}\n", render_expr(u, props)));
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// A node pass under its heading: the filter, the shared subexpressions
/// (`%k`), then the writes in order.
fn render_pass(
    heading: &str,
    node: &NodePass,
    props: &[Option<PropInfo>],
    pad: &str,
    out: &mut String,
) {
    out.push_str(&format!(
        "{pad}{heading}{}\n",
        render_filter(&node.filter, props)
    ));
    for (k, e) in node.shared.iter().enumerate() {
        out.push_str(&format!("{pad}  %{k} = {}\n", render_expr(e, props)));
    }
    for (slot, e) in &node.writes {
        out.push_str(&format!(
            "{pad}  {} = {}\n",
            prop_name(props, *slot),
            render_expr(e, props)
        ));
    }
}

fn render_filter(f: &PFilter, props: &[Option<PropInfo>]) -> String {
    match f {
        PFilter::None => String::new(),
        PFilter::Inline(e) => format!(" where {}", render_expr(e, props)),
        PFilter::Mask { slot } => format!(" where-mask {}", prop_name(props, *slot)),
    }
}

/// Render a typed expression back to query-like syntax.
pub fn render_expr(e: &TExpr, props: &[Option<PropInfo>]) -> String {
    match &e.kind {
        TExprKind::ConstF64(v) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        TExprKind::ConstI64(v) => format!("{v}"),
        TExprKind::ConstBool(v) => format!("{v}"),
        TExprKind::NodeCount => "N".into(),
        TExprKind::Load { slot, var } => match var {
            WhichVar::Outer => format!("v.{}", prop_name(props, *slot)),
            WhichVar::Inner => format!("u.{}", prop_name(props, *slot)),
        },
        TExprKind::OutDegree { var } => match var {
            WhichVar::Outer => "v.out_degree".into(),
            WhichVar::Inner => "u.out_degree".into(),
        },
        TExprKind::InDegree { var } => match var {
            WhichVar::Outer => "v.in_degree".into(),
            WhichVar::Inner => "u.in_degree".into(),
        },
        TExprKind::Unary { op, expr } => {
            let inner = render_expr(expr, props);
            match op {
                TUnOp::Neg => format!("(-{inner})"),
                TUnOp::Not => format!("(!{inner})"),
                TUnOp::Abs => format!("abs({inner})"),
                TUnOp::ToF64 => format!("f64({inner})"),
            }
        }
        TExprKind::Binary { op, lhs, rhs } => format!(
            "({} {} {})",
            render_expr(lhs, props),
            binop_symbol(*op),
            render_expr(rhs, props)
        ),
        TExprKind::Ternary { cond, then, other } => format!(
            "({} ? {} : {})",
            render_expr(cond, props),
            render_expr(then, props),
            render_expr(other, props)
        ),
        TExprKind::GlobalAgg { agg, filter, body } => {
            let f = match filter {
                Some(f) => format!(" where {}", render_expr(f, props)),
                None => String::new(),
            };
            let b = match body {
                Some(b) => format!(" {}", render_expr(b, props)),
                None => String::new(),
            };
            format!("{}(v{f}){b}", agg.name())
        }
    }
}

fn binop_symbol(op: BinOp) -> &'static str {
    op.symbol()
}
