//! Declarative query front-end for the PGX.D reproduction.
//!
//! The paper's engine is not driven by hand-written kernels but by
//! Green-Marl programs compiled to run-to-completion tasks (§2). This
//! crate is that compilation layer: a small, Green-Marl-flavored
//! language is lexed, parsed into a spanned AST, type-checked against
//! the query's property declarations, lowered to a logical plan,
//! optimized (constant folding, predicate pushdown, push-vs-pull
//! direction choice, dead-property elimination), and packaged as an
//! engine-agnostic [`Program`] that `pgxd::query` executes as ordinary
//! node/edge jobs — through admission control, cancellation, deadlines
//! and recovery like any hand-written algorithm.
//!
//! The language (DESIGN.md §17 has the full grammar):
//!
//! ```text
//! prop rank: f64 = 1.0 / N;        // vertex property declarations
//! prop nxt: f64 = 0.0;
//! prop tmp: f64 = 0.0;
//! prop diff: f64 = 0.0;
//! iterate max 12 {                 // fixpoint block
//!   foreach v { v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }
//!   foreach v { v.nxt = sum(u in v.in_nbrs) u.tmp; }   // edge job
//!   foreach v { v.diff = abs((1.0 - 0.85) / N + 0.85 * v.nxt - v.rank);
//!               v.rank = (1.0 - 0.85) / N + 0.85 * v.nxt; }
//!   until sum(v) v.diff < 1e-12;   // driver-side reduction
//! }
//! return rank;                     // a column (or a scalar aggregate)
//! ```
//!
//! Every stage returns a structured, spanned [`QueryError`] — the
//! front end never panics on malformed input (property-tested in
//! `tests/parse_props.rs`).

pub mod ast;
pub mod lex;
pub mod opt;
pub mod parse;
pub mod plan;
pub mod program;
pub mod sema;
pub mod span;

pub use ast::{AggFn, NbrSet};
pub use opt::OptReport;
pub use plan::{NodePass, PFilter, PStep, Plan, TraverseMode};
pub use program::{
    agg_needs_column, const_val, eval, identity, EvalEnv, Program, QueryColumn, QueryResult, Val,
};
pub use sema::{PropInfo, SOutput, TExpr, TExprKind, TUnOp, Ty, WhichVar};
pub use span::{ErrorKind, QueryError, Span};

/// Compile query text against a graph with `nodes` vertices: parse →
/// type-check → plan → optimize → validate.
pub fn compile(src: &str, nodes: u64) -> Result<Program, QueryError> {
    let ast = parse::parse(src)?;
    let typed = sema::analyze(&ast)?;
    let mut plan = plan::build(typed);
    let report = opt::optimize(&mut plan, nodes)?;
    program::finalize(plan, report, nodes)
}

/// The pre-optimization plan for `src` — used by tests to show what the
/// optimizer changed.
pub fn plan_naive(src: &str) -> Result<Plan, QueryError> {
    let ast = parse::parse(src)?;
    let typed = sema::analyze(&ast)?;
    Ok(plan::build(typed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGERANK: &str = "\
prop rank: f64 = 1.0 / N;
prop tmp: f64 = 0.0;
prop nxt: f64 = 0.0;
prop diff: f64 = 0.0;
iterate max 12 {
  foreach v { v.tmp = v.out_degree > 0 ? v.rank / v.out_degree : 0.0; }
  foreach v { v.nxt = sum(u in v.in_nbrs) u.tmp; }
  foreach v { v.diff = abs((1.0 - 0.85) / N + 0.85 * v.nxt - v.rank);
              v.rank = (1.0 - 0.85) / N + 0.85 * v.nxt; }
  until sum(v) v.diff < 1e-12;
}
return rank;
";

    #[test]
    fn compiles_pagerank_with_a_pull_traverse_and_folds() {
        let p = compile(PAGERANK, 1000).unwrap();
        assert!(p.report.folds > 0);
        assert_eq!(
            p.report.directions,
            vec![("nxt".into(), TraverseMode::Pull)]
        );
        assert_eq!(p.live_props(), 4);
        let render = p.render();
        assert!(render.contains("edge-job [pull]"), "{render}");
        assert!(render.contains("output: column rank"), "{render}");
    }

    /// PageRank's loop is one job per pass: the update is the pull's
    /// epilogue, the contribution is rotated to its end (and run once
    /// before the loop), and the update's `base + 0.85 * v.nxt` is shared.
    #[test]
    fn pagerank_fuses_rotates_and_shares() {
        let p = compile(PAGERANK, 1000).unwrap();
        assert_eq!((p.report.fused, p.report.rotated, p.report.cse), (1, 1, 1));
        let render = p.render();
        let want = [
            "node-job\n  tmp = ",
            "loop max 12 rotated {\n  edge-job [pull]",
            "  epilogue\n      %0 = (0.00015",
            "      rank = (0.00015",
            "    epilogue\n      tmp = ",
            "fused=1 rotated=1 cse=1",
        ];
        for part in want {
            assert!(render.contains(part), "{part:?} in\n{render}");
        }
        let steps = &p.plan.steps;
        assert!(matches!(
            steps[..],
            [.., PStep::NodeJob(_), PStep::Loop { .. }]
        ));
    }

    /// Pushdown and dead-property elimination in one plan: the naive
    /// plan materializes the `where` mask, the optimized one has none.
    #[test]
    fn optimizer_removes_the_mask_and_the_dead_prop_the_naive_plan_keeps() {
        let src = "prop a: f64 = 1.0;\nprop dead: f64 = 2.0;\n\
                   foreach v where v.out_degree > 0 { v.a = v.a + 1.0; }\n\
                   foreach v { v.dead = v.dead * 2.0; }\nreturn a;";
        let naive = plan_naive(src).unwrap().render();
        assert!(naive.contains("where-mask"), "{naive}");
        let p = compile(src, 1000).unwrap();
        assert_eq!(p.report.pushed_filters, 1);
        assert_eq!(p.report.eliminated, vec!["dead".to_string()]);
        assert!(!p.render().contains("where-mask"), "{}", p.render());
    }

    #[test]
    fn compile_reports_structured_errors_with_positions() {
        // Malformed: lex-level garbage.
        let err = compile("prop x: f64 = $;", 10).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Lex);
        assert_eq!((err.span.line, err.span.col), (1, 15));

        // Ill-typed: f64 into i64.
        let err = compile("prop x: i64 = 1.5;\nreturn x;", 10).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Type);
        assert!(err.to_string().contains("expected i64, found f64"), "{err}");
    }

    #[test]
    fn point_writes_are_range_checked_against_the_graph() {
        let src = "prop h: i64 = 0;\nh[99] = 1;\nreturn h;";
        assert!(compile(src, 100).is_ok());
        let err = compile(src, 50).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }
}
