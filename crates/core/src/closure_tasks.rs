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

use crate::task::{EdgeCtx, EdgeTask, NodeCtx, NodeTask};

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

/// Wraps a closure as a node task.
pub fn on_node<R>(run: R) -> NodeClosure<R>
where
    R: Fn(&mut NodeCtx<'_, '_>) + Send + Sync + 'static,
{
    NodeClosure { run }
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
