//! Per-job property declarations (§4.2).
//!
//! "The user needs to specify the list of properties that are read and
//! written for each job; reduction operators also need to be specified for
//! the properties that are written. Then, PGX.D automatically takes care of
//! synchronization of properties between ghost nodes between each job."

use crate::prop::Prop;
use crate::task::EdgeTask;
use pgxd_runtime::props::{PropId, PropValue, ReduceOp};

/// Declares how a parallel region uses its properties.
#[derive(Clone, Debug, Default)]
pub struct JobSpec {
    pub(crate) reads: Vec<PropId>,
    pub(crate) reduces: Vec<(PropId, ReduceOp)>,
}

impl JobSpec {
    /// An empty declaration (no remote reads, no reductions): suitable for
    /// jobs that only touch node-local state.
    pub fn new() -> Self {
        JobSpec::default()
    }

    /// Declares a property that the region reads (possibly from
    /// neighbors). Ghost copies of it are refreshed before any chunk runs.
    /// A property the region reduces cannot also be read: its ghost slots
    /// hold the region's partials, not the owner's value.
    pub fn read<T: PropValue>(mut self, p: Prop<T>) -> Self {
        assert!(
            !self.reduces.iter().any(|(id, _)| *id == p.id),
            "property declared both read and reduced"
        );
        if !self.reads.contains(&p.id) {
            self.reads.push(p.id);
        }
        self
    }

    /// Declares a property that the region writes with reduction `op`.
    /// Ghost copies are bottom-initialized before the region, and merged
    /// to the owner as each machine's workers finish their tasks. It cannot
    /// also be read (see [`JobSpec::read`]) or reduced twice, and `op` must
    /// be [defined](ReduceOp::defined_on) on `T`.
    pub fn reduce<T: PropValue>(mut self, p: Prop<T>, op: ReduceOp) -> Self {
        assert!(
            op.defined_on(T::TAG),
            "{op:?} is not defined on {:?} properties",
            T::TAG
        );
        assert!(
            !self.reduces.iter().any(|(id, _)| *id == p.id),
            "property declared reduced twice"
        );
        assert!(
            !self.reads.contains(&p.id),
            "property declared both read and reduced"
        );
        self.reduces.push((p.id, op));
        self
    }

    /// Checks what an edge task declares against this job: a fold's `src`
    /// must be declared read (only then are its ghost slots refreshed) and
    /// a scatter's `(dst, op)` declared reduced (only then does a worker
    /// keep a private copy of its ghost slots). Panics otherwise, or when
    /// the task declares both a fold and a scatter.
    pub(crate) fn check_task<T: EdgeTask>(&self, task: &T) {
        let (fold, scatter) = (task.fold(), task.scatter());
        assert!(
            fold.is_none() || scatter.is_none(),
            "an edge task declares both a fold and a scatter"
        );
        if let Some(fold) = fold {
            assert!(
                self.reads.contains(&fold.src),
                "a fold's source property is not declared read"
            );
        }
        if let Some(s) = scatter {
            assert!(
                self.reduces.contains(&(s.dst, s.op)),
                "a scatter's target property is not declared reduced with its op"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Fold, Scatter};

    #[test]
    fn builder_accumulates() {
        let a: Prop<f64> = Prop::new(PropId(0));
        let b: Prop<i64> = Prop::new(PropId(1));
        let s = JobSpec::new().read(a).reduce(b, ReduceOp::Sum);
        assert_eq!(s.reads, vec![PropId(0)]);
        assert_eq!(s.reduces, vec![(PropId(1), ReduceOp::Sum)]);
    }

    #[test]
    fn duplicate_reads_deduped() {
        let a: Prop<f64> = Prop::new(PropId(0));
        let s = JobSpec::new().read(a).read(a);
        assert_eq!(s.reads.len(), 1);
    }

    #[test]
    #[should_panic(expected = "reduced twice")]
    fn duplicate_reduce_panics() {
        let a: Prop<f64> = Prop::new(PropId(0));
        let _ = JobSpec::new()
            .reduce(a, ReduceOp::Sum)
            .reduce(a, ReduceOp::Min);
    }

    /// A logical reduction of an `f64` column would panic on the workers
    /// and hang the driver; it is refused where it is declared.
    #[test]
    #[should_panic(expected = "Or is not defined on F64 properties")]
    fn logical_reduce_of_f64_panics() {
        let a: Prop<f64> = Prop::new(PropId(0));
        let _ = JobSpec::new().reduce(a, ReduceOp::Or);
    }

    #[test]
    #[should_panic(expected = "both read and reduced")]
    fn read_then_reduce_panics() {
        let a: Prop<i64> = Prop::new(PropId(0));
        let _ = JobSpec::new().read(a).reduce(a, ReduceOp::Sum);
    }

    #[test]
    #[should_panic(expected = "both read and reduced")]
    fn reduce_then_read_panics() {
        let a: Prop<i64> = Prop::new(PropId(0));
        let _ = JobSpec::new().reduce(a, ReduceOp::Sum).read(a);
    }

    #[test]
    #[should_panic(expected = "a fold's source property is not declared read")]
    fn fold_of_an_undeclared_source_panics() {
        let (a, b): (Prop<i64>, Prop<i64>) = (Prop::new(PropId(0)), Prop::new(PropId(1)));
        JobSpec::new()
            .read(b)
            .check_task(&Fold::new(a, b, ReduceOp::Sum));
    }

    #[test]
    #[should_panic(expected = "a scatter's target property is not declared reduced")]
    fn scatter_into_an_undeclared_target_panics() {
        let (a, b): (Prop<i64>, Prop<i64>) = (Prop::new(PropId(0)), Prop::new(PropId(1)));
        JobSpec::new().check_task(&Scatter::new(a, b, ReduceOp::Sum));
    }

    #[test]
    #[should_panic(expected = "a scatter's target property is not declared reduced")]
    fn scatter_with_another_op_than_declared_panics() {
        let (a, b): (Prop<i64>, Prop<i64>) = (Prop::new(PropId(0)), Prop::new(PropId(1)));
        let spec = JobSpec::new().reduce(b, ReduceOp::Min);
        spec.check_task(&Scatter::new(a, b, ReduceOp::Max));
    }

    #[test]
    #[should_panic(expected = "declares both a fold and a scatter")]
    fn task_declaring_fold_and_scatter_panics() {
        struct Both(Fold, Scatter);
        impl EdgeTask for Both {
            fn fold(&self) -> Option<Fold> {
                Some(self.0)
            }
            fn scatter(&self) -> Option<Scatter> {
                Some(self.1)
            }
        }
        let (a, b): (Prop<i64>, Prop<i64>) = (Prop::new(PropId(0)), Prop::new(PropId(1)));
        let spec = JobSpec::new().read(a).reduce(b, ReduceOp::Sum);
        spec.check_task(&Both(
            Fold::new(a, a, ReduceOp::Sum),
            Scatter::new(a, b, ReduceOp::Sum),
        ));
    }

    #[test]
    fn declared_fold_and_scatter_pass() {
        let (a, b): (Prop<i64>, Prop<i64>) = (Prop::new(PropId(0)), Prop::new(PropId(1)));
        JobSpec::new()
            .read(a)
            .check_task(&Fold::new(a, b, ReduceOp::Sum));
        let spec = JobSpec::new().reduce(b, ReduceOp::Min);
        spec.check_task(&Scatter::new(a, b, ReduceOp::Min));
    }
}
