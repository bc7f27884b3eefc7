//! One-dimensional distributed data — the §6.2 future-work abstraction
//! ("it would be relatively straightforward for us to provide abstractions
//! for one dimensional data representations, which would suffice various
//! non-graph workloads").
//!
//! A [`DistVec`] is a typed view over a distributed property column: its
//! elements live partitioned across the cluster's machines exactly like
//! node properties (they *are* node properties), and element-wise
//! operations run as node jobs over all machines' worker threads, with
//! driver-side reductions for scalars.
//!
//! ```
//! use pgxd::{BuildEngine, Engine, vector::DistVec, ReduceOp};
//! use pgxd_graph::generate;
//!
//! // The "graph" only supplies the index space 0..n.
//! let domain = generate::ring(1000);
//! let mut engine = Engine::builder().machines(4).engine(&domain).unwrap();
//!
//! let xs = DistVec::<f64>::from_fn(&mut engine, "xs", |i| i as f64);
//! let ys = DistVec::<f64>::from_fn(&mut engine, "ys", |i| 2.0 * i as f64);
//! let dot = xs.dot(&mut engine, &ys);
//! let expect: f64 = (0..1000).map(|i| (i * i * 2) as f64).sum();
//! assert_eq!(dot, expect);
//! ```

use crate::closure_tasks::on_node;
use crate::engine::Engine;
use crate::prop::Prop;
use crate::spec::JobSpec;
use pgxd_runtime::props::{PropValue, ReduceOp};
use std::marker::PhantomData;

/// A distributed vector of `n` elements (the engine's vertex count defines
/// `n`), stored as a property column on each machine.
pub struct DistVec<T: PropValue> {
    prop: Prop<T>,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T: PropValue> DistVec<T> {
    /// Allocates a vector filled with `init`.
    pub fn new(engine: &mut Engine, name: &str, init: T) -> Self {
        let prop = engine.add_prop(name, init);
        DistVec {
            prop,
            len: engine.num_nodes(),
            _marker: PhantomData,
        }
    }

    /// Allocates and fills from an index function, in parallel across the
    /// cluster.
    pub fn from_fn<F>(engine: &mut Engine, name: &str, f: F) -> Self
    where
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        let v = Self::new(engine, name, T::from_bits(0));
        let prop = v.prop;
        engine
            .try_run_node_job(
                &JobSpec::new(),
                on_node(move |ctx| {
                    let i = ctx.node() as usize;
                    ctx.set(prop, f(i));
                }),
            )
            .expect("vector fill job failed");
        v
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying property handle.
    pub fn prop(&self) -> Prop<T> {
        self.prop
    }

    /// Parallel element-wise update in place: `self[i] = f(i, self[i])`.
    pub fn map_inplace<F>(&self, engine: &mut Engine, f: F)
    where
        F: Fn(usize, T) -> T + Send + Sync + 'static,
    {
        let prop = self.prop;
        engine
            .try_run_node_job(
                &JobSpec::new(),
                on_node(move |ctx| {
                    let i = ctx.node() as usize;
                    let cur = ctx.get(prop);
                    ctx.set(prop, f(i, cur));
                }),
            )
            .expect("vector map job failed");
    }

    /// Parallel binary element-wise operation: `dst[i] = f(self[i],
    /// other[i])` into a new vector.
    pub fn zip_map<U, V, F>(
        &self,
        engine: &mut Engine,
        other: &DistVec<U>,
        name: &str,
        f: F,
    ) -> DistVec<V>
    where
        U: PropValue,
        V: PropValue,
        F: Fn(T, U) -> V + Send + Sync + 'static,
    {
        assert_eq!(self.len, other.len, "length mismatch");
        let dst = DistVec::<V>::new(engine, name, V::from_bits(0));
        let (a, b, d) = (self.prop, other.prop, dst.prop);
        engine
            .try_run_node_job(
                &JobSpec::new(),
                on_node(move |ctx| {
                    let x = ctx.get(a);
                    let y = ctx.get(b);
                    ctx.set(d, f(x, y));
                }),
            )
            .expect("vector zip job failed");
        dst
    }

    /// Global reduction to a scalar (driver-side sequential region).
    pub fn reduce(&self, engine: &Engine, op: ReduceOp) -> T {
        engine.reduce(self.prop, op)
    }

    /// Gathers to a local `Vec` in index order.
    pub fn to_vec(&self, engine: &Engine) -> Vec<T> {
        engine.gather(self.prop)
    }

    /// Reads one element (driver-side).
    pub fn get(&self, engine: &Engine, i: usize) -> T {
        engine.get(self.prop, i as u32)
    }

    /// Writes one element (driver-side, between jobs).
    pub fn set(&self, engine: &Engine, i: usize, v: T) {
        engine.set(self.prop, i as u32, v);
    }

    /// Frees the storage on every machine.
    pub fn drop_storage(self, engine: &mut Engine) {
        engine.drop_prop(self.prop);
    }
}

impl DistVec<f64> {
    /// Dot product: element-wise multiply into a temporary, then a global
    /// sum — two jobs, like any PGX.D region pair.
    pub fn dot(&self, engine: &mut Engine, other: &DistVec<f64>) -> f64 {
        let tmp = self.zip_map(engine, other, "dot_tmp", |a, b| a * b);
        let sum = tmp.reduce(engine, ReduceOp::Sum);
        tmp.drop_storage(engine);
        sum
    }

    /// L2 norm.
    pub fn norm(&self, engine: &mut Engine) -> f64 {
        self.dot_self(engine).sqrt()
    }

    fn dot_self(&self, engine: &mut Engine) -> f64 {
        let tmp = self.zip_map(engine, self, "norm_tmp", |a, b| a * b);
        let sum = tmp.reduce(engine, ReduceOp::Sum);
        tmp.drop_storage(engine);
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BuildEngine;
    use pgxd_graph::generate;

    fn engine(n: usize, machines: usize) -> Engine {
        let domain = generate::ring(n);
        Engine::builder()
            .machines(machines)
            .engine(&domain)
            .unwrap()
    }

    #[test]
    fn from_fn_and_gather() {
        let mut e = engine(100, 3);
        let v = DistVec::<i64>::from_fn(&mut e, "v", |i| i as i64 * 3);
        assert_eq!(v.len(), 100);
        let out = v.to_vec(&e);
        assert_eq!(out[0], 0);
        assert_eq!(out[99], 297);
    }

    #[test]
    fn map_inplace_applies_everywhere() {
        let mut e = engine(64, 4);
        let v = DistVec::<i64>::from_fn(&mut e, "v", |i| i as i64);
        v.map_inplace(&mut e, |_, x| x * x);
        let out = v.to_vec(&e);
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (i * i) as i64);
        }
    }

    #[test]
    fn zip_map_and_reduce() {
        let mut e = engine(50, 2);
        let a = DistVec::<i64>::from_fn(&mut e, "a", |i| i as i64);
        let b = DistVec::<i64>::from_fn(&mut e, "b", |i| (49 - i) as i64);
        let sum = a.zip_map(&mut e, &b, "s", |x, y| x + y);
        let out = sum.to_vec(&e);
        assert!(out.iter().all(|&x| x == 49));
        assert_eq!(sum.reduce(&e, ReduceOp::Max), 49);
        assert_eq!(sum.reduce(&e, ReduceOp::Sum), 49 * 50);
    }

    #[test]
    fn dot_and_norm() {
        let mut e = engine(10, 2);
        let a = DistVec::<f64>::from_fn(&mut e, "a", |_| 3.0);
        let b = DistVec::<f64>::from_fn(&mut e, "b", |_| 4.0);
        assert_eq!(a.dot(&mut e, &b), 120.0);
        assert!((a.norm(&mut e) - (90.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn element_access() {
        let mut e = engine(16, 4);
        let v = DistVec::<f64>::new(&mut e, "v", 1.5);
        assert_eq!(v.get(&e, 7), 1.5);
        v.set(&e, 7, 9.0);
        assert_eq!(v.get(&e, 7), 9.0);
        assert_eq!(v.get(&e, 8), 1.5);
    }
}
