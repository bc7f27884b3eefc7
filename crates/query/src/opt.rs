//! Optimizer passes over the logical plan.
//!
//! Four passes, run in order by [`optimize`]:
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
//!    pulls (one remote read per edge that does not reach a ghosted hub);
//!    anything else pushes the computed value with `write_nbr`.
//! 4. **Dead-property elimination** — a backward liveness fixpoint from
//!    the query outputs removes properties (and the jobs that only fed
//!    them) that cannot affect the result.

use crate::ast::{AggFn, BinOp};
use crate::plan::{PFilter, PStep, Plan, TraverseMode};
use crate::sema::{SOutput, TExpr, TExprKind, TUnOp, Ty, WhichVar};
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
    /// Declared properties removed as dead (synthetic masks excluded).
    pub eliminated: Vec<String>,
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
            "folds={} pushed={} dirs=[{dirs}] dead=[{}]",
            self.folds,
            self.pushed_filters,
            self.eliminated.join(",")
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
            PStep::NodeJob { filter, writes } => {
                fold_filter(filter, nodes, folds);
                for (_, e) in writes {
                    fold_expr(e, nodes, folds);
                }
            }
            PStep::EdgeJob {
                nbr_filter,
                vertex_filter,
                body,
                ..
            } => {
                if let Some(f) = nbr_filter {
                    fold_expr(f, nodes, folds);
                }
                fold_filter(vertex_filter, nodes, folds);
                fold_expr(body, nodes, folds);
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
    props: &mut [Option<crate::sema::PropInfo>],
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
            PStep::NodeJob {
                filter: PFilter::None,
                writes,
            } if writes.len() == 1 => {
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
            Some(PStep::NodeJob {
                filter: PFilter::Mask { slot },
                ..
            })
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
        let PStep::NodeJob { mut writes, .. } = steps.remove(i) else {
            unreachable!("matched NodeJob above")
        };
        let (_, pred) = writes.pop().expect("single write checked");
        match &mut steps[i] {
            PStep::NodeJob { filter, .. } => *filter = PFilter::Inline(pred),
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
    let props = plan.props.clone();
    choose_directions_block(&mut plan.steps, &props, report)
}

fn choose_directions_block(
    steps: &mut [PStep],
    props: &[Option<crate::sema::PropInfo>],
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
            }
            PStep::Loop { body, .. } => choose_directions_block(body, props, report)?,
            _ => {}
        }
    }
    Ok(())
}

// ---- pass 4: dead-property elimination --------------------------------

fn eliminate_dead_props(plan: &mut Plan, report: &mut OptReport) {
    // Seed: the output, plus every driver-side scalar (until conditions).
    let mut live: BTreeSet<usize> = BTreeSet::new();
    match &plan.output {
        SOutput::Column { slot } => {
            live.insert(*slot);
        }
        SOutput::Scalar { expr } => expr_reads(expr, &mut live),
    }
    seed_until(&plan.steps, &mut live);

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
            if !info.name.starts_with("$mask") {
                report.eliminated.push(info.name);
            }
        }
    }
}

fn seed_until(steps: &[PStep], live: &mut BTreeSet<usize>) {
    for step in steps {
        if let PStep::Loop { body, until, .. } = step {
            if let Some(u) = until {
                expr_reads(u, live);
            }
            seed_until(body, live);
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
            PStep::NodeJob { filter, writes } => {
                if writes.iter().any(|(slot, _)| live.contains(slot)) {
                    filter_reads(filter, live);
                }
                for (slot, e) in writes {
                    if live.contains(slot) {
                        expr_reads(e, live);
                    }
                }
            }
            PStep::EdgeJob {
                target,
                nbr_filter,
                vertex_filter,
                body,
                ..
            } => {
                if live.contains(target) {
                    if let Some(f) = nbr_filter {
                        expr_reads(f, live);
                    }
                    filter_reads(vertex_filter, live);
                    expr_reads(body, live);
                }
            }
            PStep::Loop { body, .. } => mark_block(body, live),
        }
    }
}

fn prune_block(steps: &mut Vec<PStep>, live: &BTreeSet<usize>) {
    steps.retain_mut(|step| match step {
        PStep::Fill { slot, .. } | PStep::PointSet { slot, .. } => live.contains(slot),
        PStep::NodeJob { writes, .. } => {
            writes.retain(|(slot, _)| live.contains(slot));
            !writes.is_empty()
        }
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
            .filter(|s| matches!(s, PStep::NodeJob { .. }))
            .count();
        assert_eq!(mask_jobs, 2, "naive plan should materialize the mask");

        let (plan, report) = optimized(src, 100);
        assert_eq!(report.pushed_filters, 1);
        let jobs: Vec<_> = plan
            .steps
            .iter()
            .filter(|s| matches!(s, PStep::NodeJob { .. }))
            .collect();
        assert_eq!(jobs.len(), 1, "mask job fused away:\n{}", plan.render());
        let PStep::NodeJob { filter, .. } = jobs[0] else {
            unreachable!()
        };
        assert!(matches!(filter, PFilter::Inline(_)));
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
            !plan
                .steps
                .iter()
                .any(|s| matches!(s, PStep::NodeJob { .. })),
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
}
