//! Optimizer passes over the logical plan.
//!
//! Run in order by [`optimize`]:
//!
//! 1. **Constant folding** — evaluates constant subtrees (including the
//!    graph-dependent `N`, known at compile time) so per-vertex kernels
//!    never recompute `(1.0 - 0.85) / N`.
//! 2. **Predicate pushdown** — the naive plan materializes every `where`
//!    clause as a boolean mask property filled by its own node job;
//!    this pass fuses the predicate into the consuming job's filter
//!    hook, deleting one job and one property per clause.
//! 3. **Push-vs-pull direction choice** — a neighbor aggregate whose
//!    body is a bare neighbor-property read (and has no neighbor filter)
//!    pulls (a remote read only for an edge that reaches no mirror slot);
//!    anything else pushes its value with a declared scatter. The pass
//!    also allocates the scratch columns the job's chunk prologue fills
//!    ([`add_scratch`]).
//! 4. **Dead-property elimination** — a backward liveness fixpoint from
//!    the query outputs removes properties (and the jobs that only fed
//!    them) that cannot affect the result.
//! 5. **Epilogue fusion** — the node jobs that directly follow an edge job
//!    become its epilogue: they run once its edges are done, in the same
//!    job.
//! 6. **Loop rotation** — a loop whose body starts with a node job and
//!    ends in an edge job runs that node job once before the loop and at
//!    the end of the edge job's epilogue, so a pass of the loop is one
//!    job. Fusion runs again after it, for a rotated pass that now follows
//!    an edge job.
//! 7. **Common subexpressions** — a subexpression that recurs in a node
//!    pass's writes is evaluated once per vertex ([`NodePass::shared`]).

use crate::ast::{AggFn, BinOp};
use crate::plan::{NodePass, PFilter, PStep, Plan, TraverseMode, MAX_SHARED};
use crate::sema::{PropInfo, SOutput, TExpr, TExprKind, TUnOp, Ty, WhichVar};
use crate::span::QueryError;
use std::collections::BTreeSet;

/// What the optimizer did — attached to the compiled program so tests
/// and `repro query` can assert each pass actually fired.
#[derive(Clone, Debug, Default)]
pub struct OptReport {
    /// Constant subtrees replaced by literals.
    pub folds: usize,
    /// `where` clauses fused from materialized masks into filter hooks.
    pub pushed_filters: usize,
    /// Direction chosen per edge job (target property name, mode).
    pub directions: Vec<(String, TraverseMode)>,
    /// Declared properties removed as dead (synthetic `$` columns
    /// excluded).
    pub eliminated: Vec<String>,
    /// Node passes moved into the epilogue of the edge job before them.
    pub fused: usize,
    /// Loops whose leading node pass was rotated to the end of their last
    /// edge job.
    pub rotated: usize,
    /// Subexpressions a node pass evaluates once instead of at every
    /// occurrence.
    pub cse: usize,
}

impl OptReport {
    /// One-line summary for experiment tables.
    pub fn render(&self) -> String {
        let dirs = self
            .directions
            .iter()
            .map(|(name, mode)| format!("{name}:{mode}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "folds={} pushed={} dirs=[{dirs}] dead=[{}] fused={} rotated={} cse={}",
            self.folds,
            self.pushed_filters,
            self.eliminated.join(","),
            self.fused,
            self.rotated,
            self.cse
        )
    }
}

/// Run all passes in place. `nodes` is the vertex count of the target
/// graph (folds `N`).
pub fn optimize(plan: &mut Plan, nodes: u64) -> Result<OptReport, QueryError> {
    let mut report = OptReport::default();
    fold_plan(plan, nodes, &mut report.folds);
    push_filters(plan, &mut report);
    choose_directions(plan, &mut report)?;
    eliminate_dead_props(plan, &mut report);
    fuse_epilogues(&mut plan.steps, &mut report);
    rotate_loops(plan, &mut report);
    fuse_epilogues(&mut plan.steps, &mut report);
    share_subexpressions(&mut plan.steps, &mut report);
    Ok(report)
}

// ---- pass 1: constant folding -----------------------------------------

#[derive(Clone, Copy, PartialEq)]
enum CVal {
    F(f64),
    I(i64),
    B(bool),
}

fn as_const(e: &TExpr) -> Option<CVal> {
    match e.kind {
        TExprKind::ConstF64(v) => Some(CVal::F(v)),
        TExprKind::ConstI64(v) => Some(CVal::I(v)),
        TExprKind::ConstBool(v) => Some(CVal::B(v)),
        _ => None,
    }
}

fn const_expr(proto: &TExpr, v: CVal) -> TExpr {
    let (ty, kind) = match v {
        CVal::F(v) => (Ty::F64, TExprKind::ConstF64(v)),
        CVal::I(v) => (Ty::I64, TExprKind::ConstI64(v)),
        CVal::B(v) => (Ty::Bool, TExprKind::ConstBool(v)),
    };
    TExpr {
        span: proto.span,
        ty,
        kind,
    }
}

fn fold_plan(plan: &mut Plan, nodes: u64, folds: &mut usize) {
    fold_steps(&mut plan.steps, nodes, folds);
    if let SOutput::Scalar { expr } = &mut plan.output {
        fold_expr(expr, nodes, folds);
    }
}

fn fold_steps(steps: &mut [PStep], nodes: u64, folds: &mut usize) {
    for step in steps {
        match step {
            PStep::Fill { value, .. } => fold_expr(value, nodes, folds),
            PStep::PointSet { vertex, value, .. } => {
                fold_expr(vertex, nodes, folds);
                fold_expr(value, nodes, folds);
            }
            PStep::NodeJob(node) => fold_pass(node, nodes, folds),
            PStep::EdgeJob {
                nbr_filter,
                vertex_filter,
                body,
                epilogue,
                ..
            } => {
                if let Some(f) = nbr_filter {
                    fold_expr(f, nodes, folds);
                }
                fold_filter(vertex_filter, nodes, folds);
                fold_expr(body, nodes, folds);
                for node in epilogue {
                    fold_pass(node, nodes, folds);
                }
            }
            PStep::Loop { body, until, .. } => {
                fold_steps(body, nodes, folds);
                if let Some(u) = until {
                    fold_expr(u, nodes, folds);
                }
            }
        }
    }
}

fn fold_pass(node: &mut NodePass, nodes: u64, folds: &mut usize) {
    fold_filter(&mut node.filter, nodes, folds);
    for (_, e) in &mut node.writes {
        fold_expr(e, nodes, folds);
    }
}

fn fold_filter(f: &mut PFilter, nodes: u64, folds: &mut usize) {
    if let PFilter::Inline(e) = f {
        fold_expr(e, nodes, folds);
    }
}

fn fold_expr(e: &mut TExpr, nodes: u64, folds: &mut usize) {
    match &mut e.kind {
        TExprKind::NodeCount => {
            e.kind = TExprKind::ConstI64(nodes as i64);
            *folds += 1;
        }
        TExprKind::Unary { op, expr } => {
            fold_expr(expr, nodes, folds);
            if let Some(v) = as_const(expr) {
                let folded = match (op, v) {
                    (TUnOp::Neg, CVal::F(x)) => Some(CVal::F(-x)),
                    (TUnOp::Neg, CVal::I(x)) => Some(CVal::I(x.wrapping_neg())),
                    (TUnOp::Not, CVal::B(x)) => Some(CVal::B(!x)),
                    (TUnOp::Abs, CVal::F(x)) => Some(CVal::F(x.abs())),
                    (TUnOp::Abs, CVal::I(x)) => Some(CVal::I(x.wrapping_abs())),
                    (TUnOp::ToF64, CVal::I(x)) => Some(CVal::F(x as f64)),
                    _ => None,
                };
                if let Some(v) = folded {
                    *e = const_expr(e, v);
                    *folds += 1;
                }
            }
        }
        TExprKind::Binary { op, lhs, rhs } => {
            fold_expr(lhs, nodes, folds);
            fold_expr(rhs, nodes, folds);
            if let (Some(a), Some(b)) = (as_const(lhs), as_const(rhs)) {
                if let Some(v) = eval_const_bin(*op, a, b) {
                    *e = const_expr(e, v);
                    *folds += 1;
                }
            }
        }
        TExprKind::Ternary { cond, then, other } => {
            fold_expr(cond, nodes, folds);
            fold_expr(then, nodes, folds);
            fold_expr(other, nodes, folds);
            if let Some(CVal::B(c)) = as_const(cond) {
                *e = if c {
                    (**then).clone()
                } else {
                    (**other).clone()
                };
                *folds += 1;
            }
        }
        TExprKind::GlobalAgg { agg, filter, body } => {
            if let Some(f) = filter {
                fold_expr(f, nodes, folds);
            }
            if let Some(b) = body {
                fold_expr(b, nodes, folds);
            }
            // `count(v)` with no filter is just N.
            if *agg == AggFn::Count && filter.is_none() {
                e.kind = TExprKind::ConstI64(nodes as i64);
                e.ty = Ty::I64;
                *folds += 1;
            }
        }
        _ => {}
    }
}

fn eval_const_bin(op: BinOp, a: CVal, b: CVal) -> Option<CVal> {
    use BinOp::*;
    use CVal::*;
    Some(match (op, a, b) {
        (Add, F(x), F(y)) => F(x + y),
        (Sub, F(x), F(y)) => F(x - y),
        (Mul, F(x), F(y)) => F(x * y),
        (Div, F(x), F(y)) => F(x / y),
        (Add, I(x), I(y)) => I(x.wrapping_add(y)),
        (Sub, I(x), I(y)) => I(x.wrapping_sub(y)),
        (Mul, I(x), I(y)) => I(x.wrapping_mul(y)),
        (Eq, F(x), F(y)) => B(x == y),
        (Ne, F(x), F(y)) => B(x != y),
        (Lt, F(x), F(y)) => B(x < y),
        (Le, F(x), F(y)) => B(x <= y),
        (Gt, F(x), F(y)) => B(x > y),
        (Ge, F(x), F(y)) => B(x >= y),
        (Eq, I(x), I(y)) => B(x == y),
        (Ne, I(x), I(y)) => B(x != y),
        (Lt, I(x), I(y)) => B(x < y),
        (Le, I(x), I(y)) => B(x <= y),
        (Gt, I(x), I(y)) => B(x > y),
        (Ge, I(x), I(y)) => B(x >= y),
        (Eq, B(x), B(y)) => B(x == y),
        (Ne, B(x), B(y)) => B(x != y),
        (And, B(x), B(y)) => B(x && y),
        (Or, B(x), B(y)) => B(x || y),
        _ => return None,
    })
}

// ---- pass 2: predicate pushdown ---------------------------------------

fn push_filters(plan: &mut Plan, report: &mut OptReport) {
    push_filters_block(&mut plan.steps, &mut plan.props, report);
}

fn push_filters_block(
    steps: &mut Vec<PStep>,
    props: &mut [Option<PropInfo>],
    report: &mut OptReport,
) {
    let mut i = 0;
    while i < steps.len() {
        if let PStep::Loop { body, .. } = &mut steps[i] {
            push_filters_block(body, props, report);
            i += 1;
            continue;
        }
        // A mask-fill job is a filterless node job whose single write
        // targets a synthetic `$mask` slot, consumed by the next step.
        let mask = match &steps[i] {
            PStep::NodeJob(NodePass {
                filter: PFilter::None,
                writes,
                ..
            }) if writes.len() == 1 => {
                let slot = writes[0].0;
                let synthetic = props
                    .get(slot)
                    .and_then(|p| p.as_ref())
                    .is_some_and(|p| p.name.starts_with("$mask"));
                if synthetic {
                    Some(slot)
                } else {
                    None
                }
            }
            _ => None,
        };
        let Some(mask_slot) = mask else {
            i += 1;
            continue;
        };
        let consumes = match steps.get(i + 1) {
            Some(PStep::NodeJob(NodePass {
                filter: PFilter::Mask { slot },
                ..
            }))
            | Some(PStep::EdgeJob {
                vertex_filter: PFilter::Mask { slot },
                ..
            }) => *slot == mask_slot,
            _ => false,
        };
        if !consumes {
            i += 1;
            continue;
        }
        let PStep::NodeJob(NodePass { mut writes, .. }) = steps.remove(i) else {
            unreachable!("matched NodeJob above")
        };
        let (_, pred) = writes.pop().expect("single write checked");
        match &mut steps[i] {
            PStep::NodeJob(node) => node.filter = PFilter::Inline(pred),
            PStep::EdgeJob { vertex_filter, .. } => *vertex_filter = PFilter::Inline(pred),
            _ => unreachable!("consumer shape checked above"),
        }
        props[mask_slot] = None;
        report.pushed_filters += 1;
        i += 1;
    }
}

// ---- pass 3: direction choice -----------------------------------------

fn choose_directions(plan: &mut Plan, report: &mut OptReport) -> Result<(), QueryError> {
    choose_directions_block(&mut plan.steps, &mut plan.props, report)
}

fn choose_directions_block(
    steps: &mut [PStep],
    props: &mut Vec<Option<PropInfo>>,
    report: &mut OptReport,
) -> Result<(), QueryError> {
    for step in steps {
        match step {
            PStep::EdgeJob {
                span,
                mode,
                target,
                nbr_filter,
                vertex_filter,
                body,
                ..
            } => {
                let pullable = nbr_filter.is_none() && body.as_bare_load(WhichVar::Inner).is_some();
                *mode = if pullable {
                    TraverseMode::Pull
                } else {
                    if !vertex_filter.is_none() {
                        return Err(QueryError::unsupported(
                            *span,
                            "this aggregate must run push-mode (it has a neighbor \
                             filter or a computed body), which cannot honor a `where` \
                             clause on the destination vertex; drop the foreach filter \
                             or move the condition into the aggregate's `where`",
                        ));
                    }
                    TraverseMode::Push
                };
                let name = props
                    .get(*target)
                    .and_then(|p| p.as_ref())
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| format!("#{target}"));
                report.directions.push((name, *mode));
                add_scratch(step, props);
            }
            PStep::Loop { body, .. } => choose_directions_block(body, props, report)?,
            _ => {}
        }
    }
    Ok(())
}

/// Allocates the scratch columns of an edge job whose direction is chosen,
/// as plan properties like the naive plan's `$mask` columns: a `$pass` for
/// a filter of the iterating vertex that is not a bool column already, and
/// a `$val` for a push body that is not a bare load. The executor fills
/// them in the job's chunk prologue, so that its edges run as a declared
/// fold (of the source column) or scatter (of the body's column).
pub fn add_scratch(step: &mut PStep, props: &mut Vec<Option<PropInfo>>) {
    let PStep::EdgeJob {
        span,
        mode,
        nbr_filter,
        vertex_filter,
        body,
        pass,
        value,
        ..
    } = step
    else {
        return;
    };
    let (filter, var) = match (*mode, &*vertex_filter) {
        (TraverseMode::Push, _) => (nbr_filter.as_ref(), WhichVar::Inner),
        (_, PFilter::Inline(pred)) => (Some(pred), WhichVar::Outer),
        _ => (None, WhichVar::Outer),
    };
    let mut scratch = |name: &str, ty| {
        let slot = props.len();
        props.push(Some(PropInfo {
            name: format!("{name}{slot}"),
            ty,
            span: *span,
        }));
        Some(slot)
    };
    if filter.is_some_and(|f| f.as_bare_load(var).is_none()) {
        *pass = scratch("$pass", Ty::Bool);
    }
    if *mode == TraverseMode::Push && body.as_bare_load(WhichVar::Inner).is_none() {
        *value = scratch("$val", body.ty);
    }
}

// ---- pass 4: dead-property elimination --------------------------------

fn eliminate_dead_props(plan: &mut Plan, report: &mut OptReport) {
    // Seed: the output column, plus every driver-side scalar.
    let mut live: BTreeSet<usize> = BTreeSet::new();
    if let SOutput::Column { slot } = plan.output {
        live.insert(slot);
    }
    for e in plan.driver_scalars() {
        expr_reads(e, &mut live);
    }

    // Backward fixpoint: a job that writes a live slot makes everything
    // it reads (body, filters, masks) live too.
    loop {
        let before = live.len();
        mark_block(&plan.steps, &mut live);
        if live.len() == before {
            break;
        }
    }

    // Prune writes/steps/properties that cannot affect the result.
    prune_block(&mut plan.steps, &live);
    for (slot, p) in plan.props.iter_mut().enumerate() {
        if live.contains(&slot) {
            continue;
        }
        if let Some(info) = p.take() {
            if !info.name.starts_with('$') {
                report.eliminated.push(info.name);
            }
        }
    }
}

fn mark_block(steps: &[PStep], live: &mut BTreeSet<usize>) {
    for step in steps {
        match step {
            PStep::Fill { slot, value } => {
                if live.contains(slot) {
                    expr_reads(value, live);
                }
            }
            PStep::PointSet {
                slot,
                vertex,
                value,
            } => {
                if live.contains(slot) {
                    expr_reads(vertex, live);
                    expr_reads(value, live);
                }
            }
            PStep::NodeJob(node) => mark_pass(node, live),
            PStep::EdgeJob {
                target,
                nbr_filter,
                vertex_filter,
                body,
                pass,
                value,
                epilogue,
                ..
            } => {
                if live.contains(target) {
                    if let Some(f) = nbr_filter {
                        expr_reads(f, live);
                    }
                    filter_reads(vertex_filter, live);
                    expr_reads(body, live);
                    live.extend(pass.iter().chain(value));
                }
                debug_assert!(epilogue.is_empty(), "DCE runs before fusion");
            }
            PStep::Loop { body, .. } => mark_block(body, live),
        }
    }
}

/// A node pass that writes a live slot makes what it reads live.
fn mark_pass(node: &NodePass, live: &mut BTreeSet<usize>) {
    if node.writes.iter().any(|(slot, _)| live.contains(slot)) {
        filter_reads(&node.filter, live);
    }
    for (slot, e) in &node.writes {
        if live.contains(slot) {
            expr_reads(e, live);
        }
    }
}

/// Drops a pass's dead writes; false if none is left.
fn prune_pass(node: &mut NodePass, live: &BTreeSet<usize>) -> bool {
    node.writes.retain(|(slot, _)| live.contains(slot));
    !node.writes.is_empty()
}

fn prune_block(steps: &mut Vec<PStep>, live: &BTreeSet<usize>) {
    steps.retain_mut(|step| match step {
        PStep::Fill { slot, .. } | PStep::PointSet { slot, .. } => live.contains(slot),
        PStep::NodeJob(node) => prune_pass(node, live),
        // Runs before fusion: no edge job has an epilogue yet.
        PStep::EdgeJob { target, .. } => live.contains(target),
        PStep::Loop { body, .. } => {
            prune_block(body, live);
            // An empty loop body with an `until` still terminates (or a
            // `max` bounds it); keep the structure only if it does work
            // or decides something.
            !body.is_empty()
        }
    });
}

fn filter_reads(f: &PFilter, live: &mut BTreeSet<usize>) {
    match f {
        PFilter::None => {}
        PFilter::Inline(e) => expr_reads(e, live),
        PFilter::Mask { slot } => {
            live.insert(*slot);
        }
    }
}

fn expr_reads(e: &TExpr, live: &mut BTreeSet<usize>) {
    e.for_each_load(&mut |slot, _| {
        live.insert(slot);
    });
}

// ---- pass 5: epilogue fusion ------------------------------------------

/// Moves every node job that directly follows an edge job (or a node job
/// moved there) into the edge job's epilogue. The epilogue runs once the
/// job is complete, so it sees what the next job would have seen.
fn fuse_epilogues(steps: &mut Vec<PStep>, report: &mut OptReport) {
    for step in std::mem::take(steps) {
        match step {
            PStep::NodeJob(node) if matches!(steps.last(), Some(PStep::EdgeJob { .. })) => {
                if let Some(PStep::EdgeJob { epilogue, .. }) = steps.last_mut() {
                    epilogue.push(node);
                }
                report.fused += 1;
            }
            mut step => {
                if let PStep::Loop { body, .. } = &mut step {
                    fuse_epilogues(body, report);
                }
                steps.push(step);
            }
        }
    }
}

// ---- pass 6: loop rotation --------------------------------------------

fn rotate_loops(plan: &mut Plan, report: &mut OptReport) {
    let mut live_out = BTreeSet::new();
    match &plan.output {
        SOutput::Column { slot } => {
            live_out.insert(*slot);
        }
        SOutput::Scalar { expr } => expr_reads(expr, &mut live_out),
    }
    rotate_block(&mut plan.steps, &live_out, report);
}

/// Rotates the loops of `steps`; `live_out` holds the slots that may be
/// read after the last of them.
fn rotate_block(steps: &mut Vec<PStep>, live_out: &BTreeSet<usize>, report: &mut OptReport) {
    let mut i = 0;
    while i < steps.len() {
        let mut after = live_out.clone();
        steps[i + 1..]
            .iter()
            .for_each(|s| step_reads(s, &mut after));
        let PStep::Loop {
            body,
            until,
            rotated,
            ..
        } = &mut steps[i]
        else {
            i += 1;
            continue;
        };
        // The next pass may read whatever the body or `until` reads.
        let mut inner = after.clone();
        body.iter().for_each(|s| step_reads(s, &mut inner));
        until.iter().for_each(|u| expr_reads(u, &mut inner));
        rotate_block(body, &inner, report);

        until.iter().for_each(|u| expr_reads(u, &mut after));
        let mut prelude = Vec::new();
        while let Some(head) = rotate_once(body, &after) {
            prelude.push(PStep::NodeJob(head));
            *rotated = true;
            report.rotated += 1;
        }
        let moved = prelude.len();
        steps.splice(i..i, prelude);
        i += moved + 1;
    }
}

/// Moves a loop body's leading node pass to the end of the epilogue of its
/// last step, an edge job, and returns it: it then runs once before the
/// loop, and after every pass, the last one too. So nothing `read` — the
/// `until` and what follows the loop — may read what it writes.
fn rotate_once(body: &mut Vec<PStep>, read: &BTreeSet<usize>) -> Option<NodePass> {
    let Some(PStep::NodeJob(head)) = body.first() else {
        return None;
    };
    let ends_in_edge_job = body.len() > 1 && matches!(body.last(), Some(PStep::EdgeJob { .. }));
    if !ends_in_edge_job || head.writes.iter().any(|(slot, _)| read.contains(slot)) {
        return None;
    }
    let PStep::NodeJob(head) = body.remove(0) else {
        unreachable!("matched above")
    };
    if let Some(PStep::EdgeJob { epilogue, .. }) = body.last_mut() {
        epilogue.push(head.clone());
    }
    Some(head)
}

/// Adds every slot `step` may read to `out`.
fn step_reads(step: &PStep, out: &mut BTreeSet<usize>) {
    match step {
        PStep::Fill { value, .. } => expr_reads(value, out),
        PStep::PointSet { vertex, value, .. } => {
            expr_reads(vertex, out);
            expr_reads(value, out);
        }
        PStep::NodeJob(node) => pass_reads(node, out),
        PStep::EdgeJob {
            target,
            nbr_filter,
            vertex_filter,
            body,
            prefill,
            epilogue,
            ..
        } => {
            if !prefill {
                out.insert(*target);
            }
            nbr_filter.iter().for_each(|f| expr_reads(f, out));
            filter_reads(vertex_filter, out);
            expr_reads(body, out);
            epilogue.iter().for_each(|node| pass_reads(node, out));
        }
        PStep::Loop { body, until, .. } => {
            body.iter().for_each(|s| step_reads(s, out));
            until.iter().for_each(|u| expr_reads(u, out));
        }
    }
}

fn pass_reads(node: &NodePass, out: &mut BTreeSet<usize>) {
    filter_reads(&node.filter, out);
    node.writes.iter().for_each(|(_, e)| expr_reads(e, out));
}

// ---- pass 7: common subexpressions ------------------------------------

fn share_subexpressions(steps: &mut [PStep], report: &mut OptReport) {
    for step in steps {
        let passes = match step {
            PStep::NodeJob(node) => std::slice::from_mut(node),
            PStep::EdgeJob { epilogue, .. } => &mut epilogue[..],
            PStep::Loop { body, .. } => {
                share_subexpressions(body, report);
                continue;
            }
            _ => continue,
        };
        for node in passes {
            let mut shared = Vec::new();
            for (_, e) in &node.writes {
                pick_shared(e, &node.writes, &mut shared);
            }
            report.cse += shared.len();
            node.shared = shared;
        }
    }
}

/// Whether the executor reads `e` straight from its source: a constant, a
/// column, a degree, or one of those widened to `f64`. Sharing one saves
/// nothing.
fn is_leaf(e: &TExpr) -> bool {
    match &e.kind {
        TExprKind::Unary {
            op: TUnOp::ToF64,
            expr,
        } => !matches!(
            expr.kind,
            TExprKind::Unary { .. } | TExprKind::Binary { .. } | TExprKind::Ternary { .. }
        ),
        kind => !matches!(
            kind,
            TExprKind::Unary { .. } | TExprKind::Binary { .. } | TExprKind::Ternary { .. }
        ),
    }
}

/// Shares `e`, outermost first, if it is not a leaf, occurs more than once
/// in `writes` outside what is shared already, and no write before its
/// last occurrence writes a column it reads (its lane is filled before the
/// first write); otherwise looks inside it.
fn pick_shared(e: &TExpr, writes: &[(usize, TExpr)], shared: &mut Vec<TExpr>) {
    if shared.len() == MAX_SHARED || is_leaf(e) || shared.iter().any(|s| s.same_tree(e)) {
        return;
    }
    let counts: Vec<usize> = writes
        .iter()
        .map(|(_, w)| occurrences(w, e, shared))
        .collect();
    let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut reads = BTreeSet::new();
    expr_reads(e, &mut reads);
    let stale = writes[..last].iter().any(|(slot, _)| reads.contains(slot));
    if counts.iter().sum::<usize>() > 1 && !stale {
        shared.push(e.clone());
        return;
    }
    match &e.kind {
        TExprKind::Unary { expr, .. } => pick_shared(expr, writes, shared),
        TExprKind::Binary { lhs, rhs, .. } => {
            pick_shared(lhs, writes, shared);
            pick_shared(rhs, writes, shared);
        }
        TExprKind::Ternary { cond, then, other } => {
            for e in [cond, then, other] {
                pick_shared(e, writes, shared);
            }
        }
        _ => {}
    }
}

/// Occurrences of `e` in `tree`, not counting any inside a `shared` one.
fn occurrences(tree: &TExpr, e: &TExpr, shared: &[TExpr]) -> usize {
    if tree.same_tree(e) {
        return 1;
    }
    if shared.iter().any(|s| s.same_tree(tree)) {
        return 0;
    }
    match &tree.kind {
        TExprKind::Unary { expr, .. } => occurrences(expr, e, shared),
        TExprKind::Binary { lhs, rhs, .. } => {
            occurrences(lhs, e, shared) + occurrences(rhs, e, shared)
        }
        TExprKind::Ternary { cond, then, other } => [cond, then, other]
            .iter()
            .map(|t| occurrences(t, e, shared))
            .sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::plan::build;
    use crate::sema::analyze;

    fn optimized(src: &str, nodes: u64) -> (Plan, OptReport) {
        let mut plan = build(analyze(&parse(src).unwrap()).unwrap());
        let report = optimize(&mut plan, nodes).unwrap();
        (plan, report)
    }

    #[test]
    fn folds_constants_including_n() {
        let (plan, report) = optimized("prop r: f64 = (1.0 - 0.85) / N;\nreturn r;", 1000);
        assert!(report.folds >= 3, "folds={}", report.folds);
        let PStep::Fill { value, .. } = &plan.steps[0] else {
            panic!()
        };
        assert_eq!(value.kind, TExprKind::ConstF64((1.0 - 0.85) / 1000.0));
    }

    #[test]
    fn pushes_where_clauses_into_filter_hooks() {
        let src = "prop x: f64 = 0.0;\nprop d: f64 = 1.0;\n\
                   foreach v where v.d > 0.5 { v.x = v.d * 2.0; }\nreturn x;";
        // Naive plan: mask fill + masked compute.
        let naive = build(analyze(&parse(src).unwrap()).unwrap());
        let mask_jobs = naive
            .steps
            .iter()
            .filter(|s| matches!(s, PStep::NodeJob(_)))
            .count();
        assert_eq!(mask_jobs, 2, "naive plan should materialize the mask");

        let (plan, report) = optimized(src, 100);
        assert_eq!(report.pushed_filters, 1);
        let jobs: Vec<_> = plan
            .steps
            .iter()
            .filter(|s| matches!(s, PStep::NodeJob(_)))
            .collect();
        assert_eq!(jobs.len(), 1, "mask job fused away:\n{}", plan.render());
        let PStep::NodeJob(node) = jobs[0] else {
            unreachable!()
        };
        assert!(matches!(node.filter, PFilter::Inline(_)));
    }

    #[test]
    fn chooses_pull_for_bare_reads_and_push_for_the_rest() {
        let (_, report) = optimized(
            "prop t: f64 = 0.0;\nprop n: f64 = 0.0;\n\
             foreach v { v.n = sum(u in v.in_nbrs) u.t; }\nreturn n;",
            100,
        );
        assert_eq!(report.directions, vec![("n".into(), TraverseMode::Pull)]);

        let (_, report) = optimized(
            "prop h: i64 = INF;\nprop x: i64 = INF;\nprop f: bool = true;\n\
             foreach v { v.x = min(u in v.in_nbrs where u.f) u.h + 1; }\nreturn x;",
            100,
        );
        assert_eq!(report.directions, vec![("x".into(), TraverseMode::Push)]);
    }

    #[test]
    fn push_mode_rejects_destination_filters() {
        let err = {
            let mut plan = build(
                analyze(
                    &parse(
                        "prop h: i64 = 0;\nprop x: i64 = 0;\nprop f: bool = true;\n\
                         foreach v where v.f { v.x = min(u in v.in_nbrs where u.f) u.h + 1; }\n\
                         return x;",
                    )
                    .unwrap(),
                )
                .unwrap(),
            );
            optimize(&mut plan, 100).unwrap_err()
        };
        assert!(err.to_string().contains("push-mode"), "{err}");
    }

    #[test]
    fn eliminates_dead_properties_and_their_jobs() {
        let (plan, report) = optimized(
            "prop keep: f64 = 1.0;\nprop dead: f64 = 2.0;\n\
             foreach v { v.dead = v.keep * 3.0; }\nreturn keep;",
            100,
        );
        assert_eq!(report.eliminated, vec!["dead".to_string()]);
        assert_eq!(plan.props.iter().flatten().count(), 1);
        // The compute job feeding only `dead` is gone too.
        assert!(
            !plan.steps.iter().any(|s| matches!(s, PStep::NodeJob(_))),
            "{}",
            plan.render()
        );
    }

    #[test]
    fn live_chains_through_until_conditions() {
        // `diff` is only read by `until`, and feeds from `nxt`: both live.
        let (plan, report) = optimized(
            "prop r: f64 = 0.5;\nprop diff: f64 = 0.0;\n\
             iterate max 3 {\n  foreach v { v.diff = abs(v.r); }\n  until sum(v) v.diff < 1e-9;\n}\n\
             return r;",
            100,
        );
        assert!(report.eliminated.is_empty(), "{:?}", report.eliminated);
        assert_eq!(plan.props.iter().flatten().count(), 2);
    }

    #[test]
    fn fuses_the_node_jobs_after_an_edge_job_into_its_epilogue() {
        let (plan, report) = optimized(
            "prop h: i64 = INF;\nprop nxt: i64 = INF;\nprop f: bool = false;\n\
             iterate max 9 {\n\
               foreach v { v.nxt = min(u in v.in_nbrs where u.f) u.h + 1; }\n\
               foreach v { v.f = v.nxt < v.h; }\n\
               foreach v { v.h = v.f ? v.nxt : v.h; }\n\
               until count(v where v.f) == 0;\n}\nreturn h;",
            100,
        );
        assert_eq!((report.fused, report.rotated), (2, 0));
        let Some(PStep::Loop { body, .. }) = plan.steps.last() else {
            panic!("{}", plan.render())
        };
        let [PStep::EdgeJob { epilogue, .. }] = &body[..] else {
            panic!("{}", plan.render())
        };
        assert_eq!(epilogue.len(), 2);
    }

    #[test]
    fn shares_a_subexpression_only_where_no_earlier_write_changes_it() {
        let pass = |writes: &str| {
            let src = format!(
                "prop a: f64 = 1.0;\nprop b: f64 = 2.0;\nforeach v {{ {writes} }}\nreturn b;"
            );
            let (plan, report) = optimized(&src, 10);
            let PStep::NodeJob(node) = &plan.steps[2] else {
                panic!("{}", plan.render())
            };
            (report.cse, node.shared.len())
        };
        assert_eq!(
            pass("v.a = v.a * 2.0 + 1.0; v.b = v.a * 2.0 + 1.0;"),
            (0, 0)
        );
        assert_eq!(
            pass("v.b = v.a * 2.0 + 1.0; v.b = v.b + (v.a * 2.0 + 1.0);"),
            (1, 1)
        );
        // A leaf is read where it is: nothing to share.
        assert_eq!(pass("v.b = v.a + v.a;"), (0, 0));
    }
}
