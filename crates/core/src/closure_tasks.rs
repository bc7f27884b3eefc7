//! Closure-based task construction — the convenience layer §4.3 motivates
//! ("for the sake of data scientists who may not be experts in C++
//! programming"). Instead of implementing [`EdgeTask`]/[`NodeTask`] on a
//! struct, ad-hoc kernels can be written inline:
//!
//! ```
//! use pgxd::{BuildEngine, tasks, Engine, Dir, JobSpec, ReduceOp};
//! use pgxd_graph::generate;
//!
//! let g = generate::ring(16);
//! let mut engine = Engine::builder().machines(2).engine(&g).unwrap();
//! let deg = engine.add_prop("deg", 0i64);
//!
//! // Count in-degrees with a one-line push kernel.
//! engine
//!     .try_run_edge_job(
//!         Dir::Out,
//!         &JobSpec::new().reduce(deg, ReduceOp::Sum),
//!         tasks::on_edge(move |ctx| ctx.write_nbr(deg, ReduceOp::Sum, 1i64)),
//!     )
//!     .unwrap();
//! assert_eq!(engine.gather::<i64>(deg), vec![1i64; 16]);
//! ```

use crate::task::{EdgeCtx, EdgeTask, NodeCtx, NodeTask, ReadDoneCtx};

/// An [`EdgeTask`] built from a `run` closure.
pub struct EdgeClosure<R> {
    run: R,
}

impl<R> EdgeTask for EdgeClosure<R>
where
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
{
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        (self.run)(ctx)
    }
}

/// An [`EdgeTask`] built from `run` + `read_done` closures (pulls whose
/// continuation does more than fold; a plain pull reduction is a
/// [`Fold`](crate::Fold)).
pub struct EdgePullClosure<R, D> {
    run: R,
    done: D,
}

impl<R, D> EdgeTask for EdgePullClosure<R, D>
where
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
    D: Fn(&mut ReadDoneCtx<'_, '_>) + Send + Sync + 'static,
{
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        (self.run)(ctx)
    }
    fn read_done(&self, ctx: &mut ReadDoneCtx<'_, '_>) {
        (self.done)(ctx)
    }
}

/// An [`EdgeTask`] with a vertex filter.
pub struct FilteredEdgeClosure<F, R> {
    filter: F,
    run: R,
}

impl<F, R> EdgeTask for FilteredEdgeClosure<F, R>
where
    F: Fn(&mut NodeCtx<'_, '_>) -> bool + Send + Sync + 'static,
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
{
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        (self.filter)(ctx)
    }
    fn run(&self, ctx: &mut EdgeCtx<'_, '_>) {
        (self.run)(ctx)
    }
}

/// A [`NodeTask`] built from a closure.
pub struct NodeClosure<R> {
    run: R,
}

impl<R> NodeTask for NodeClosure<R>
where
    R: Fn(&mut NodeCtx<'_, '_>) + Send + Sync + 'static,
{
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        (self.run)(ctx)
    }
}

/// Wraps a closure as an edge task (push-style kernels).
pub fn on_edge<R>(run: R) -> EdgeClosure<R>
where
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
{
    EdgeClosure { run }
}

/// Wraps `run` + `read_done` closures as a pull-style edge task with a
/// continuation.
pub fn on_edge_pull<R, D>(run: R, read_done: D) -> EdgePullClosure<R, D>
where
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
    D: Fn(&mut ReadDoneCtx<'_, '_>) + Send + Sync + 'static,
{
    EdgePullClosure {
        run,
        done: read_done,
    }
}

/// Wraps a filter + run pair as a filtered edge task (active-vertex
/// kernels).
pub fn on_edge_filtered<F, R>(filter: F, run: R) -> FilteredEdgeClosure<F, R>
where
    F: Fn(&mut NodeCtx<'_, '_>) -> bool + Send + Sync + 'static,
    R: Fn(&mut EdgeCtx<'_, '_>) + Send + Sync + 'static,
{
    FilteredEdgeClosure { filter, run }
}

/// Wraps a closure as a node task.
pub fn on_node<R>(run: R) -> NodeClosure<R>
where
    R: Fn(&mut NodeCtx<'_, '_>) + Send + Sync + 'static,
{
    NodeClosure { run }
}

/// A [`NodeTask`] with a vertex filter.
pub struct FilteredNodeClosure<F, R> {
    filter: F,
    run: R,
}

impl<F, R> NodeTask for FilteredNodeClosure<F, R>
where
    F: Fn(&mut NodeCtx<'_, '_>) -> bool + Send + Sync + 'static,
    R: Fn(&mut NodeCtx<'_, '_>) + Send + Sync + 'static,
{
    fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
        (self.filter)(ctx)
    }
    fn run(&self, ctx: &mut NodeCtx<'_, '_>) {
        (self.run)(ctx)
    }
}

/// Wraps a filter + run pair as a filtered node task.
pub fn on_node_filtered<F, R>(filter: F, run: R) -> FilteredNodeClosure<F, R>
where
    F: Fn(&mut NodeCtx<'_, '_>) -> bool + Send + Sync + 'static,
    R: Fn(&mut NodeCtx<'_, '_>) + Send + Sync + 'static,
{
    FilteredNodeClosure { filter, run }
}

#[cfg(test)]
mod tests {
    use crate::{BuildEngine, Dir, Engine, JobSpec, ReduceOp};
    use pgxd_graph::generate;

    #[test]
    fn closure_push_kernel() {
        let g = generate::ring(12);
        let mut e = Engine::builder().machines(3).engine(&g).unwrap();
        let acc = e.add_prop("acc", 0i64);
        e.try_run_edge_job(
            Dir::Out,
            &JobSpec::new().reduce(acc, ReduceOp::Sum),
            super::on_edge(move |ctx| ctx.write_nbr(acc, ReduceOp::Sum, 2i64)),
        )
        .unwrap();
        assert_eq!(e.gather::<i64>(acc), vec![2i64; 12]);
    }

    #[test]
    fn closure_pull_kernel() {
        let g = generate::ring(8);
        let mut e = Engine::builder().machines(2).engine(&g).unwrap();
        let src = e.add_prop("src", 3i64);
        let dst = e.add_prop("dst", 0i64);
        e.try_run_edge_job(
            Dir::In,
            &JobSpec::new().read(src),
            super::on_edge_pull(
                move |ctx| ctx.read_nbr(src),
                move |ctx| {
                    let v: i64 = ctx.value();
                    let cur: i64 = ctx.get(dst);
                    ctx.set(dst, cur + v);
                },
            ),
        )
        .unwrap();
        assert_eq!(e.gather::<i64>(dst), vec![3i64; 8]);
    }

    #[test]
    fn closure_filtered_kernel() {
        let g = generate::ring(10);
        let mut e = Engine::builder().machines(2).engine(&g).unwrap();
        let acc = e.add_prop("acc", 0i64);
        // Only even-numbered vertices push.
        e.try_run_edge_job(
            Dir::Out,
            &JobSpec::new().reduce(acc, ReduceOp::Sum),
            super::on_edge_filtered(
                |ctx| ctx.node() % 2 == 0,
                move |ctx| ctx.write_nbr(acc, ReduceOp::Sum, 1i64),
            ),
        )
        .unwrap();
        // Ring edge v -> v+1: odd receivers got 1, even receivers 0.
        let got = e.gather::<i64>(acc);
        for (v, &x) in got.iter().enumerate() {
            let sender_even = ((v + 10 - 1) % 10) % 2 == 0;
            assert_eq!(x, sender_even as i64, "node {v}");
        }
    }

    #[test]
    fn closure_node_kernel() {
        let g = generate::ring(6);
        let mut e = Engine::builder().machines(2).engine(&g).unwrap();
        let p = e.add_prop("p", 0i64);
        e.try_run_node_job(
            &JobSpec::new(),
            super::on_node(move |ctx| {
                let v = ctx.node() as i64;
                ctx.set(p, v * v);
            }),
        )
        .unwrap();
        assert_eq!(e.gather::<i64>(p), vec![0, 1, 4, 9, 16, 25]);
    }
}
