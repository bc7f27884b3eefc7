//! Per-job property declarations (§4.2).
//!
//! "The user needs to specify the list of properties that are read and
//! written for each job; reduction operators also need to be specified for
//! the properties that are written. Then, PGX.D automatically takes care of
//! synchronization of properties between ghost nodes between each job."

use crate::prop::Prop;
use crate::task::Reduction;
use pgxd_runtime::props::{PropId, PropValue, ReduceOp};

/// Declares how a parallel region uses its properties. An edge job's
/// [`Reduction`] adds what it implies, so only what the job reads or
/// reduces beyond its declaration is listed here.
#[derive(Clone, Debug, Default)]
pub struct JobSpec {
    pub(crate) reads: Vec<PropId>,
    pub(crate) reduces: Vec<(PropId, ReduceOp)>,
}

impl JobSpec {
    /// An empty declaration (no remote reads, no reductions): suitable for
    /// jobs that only touch node-local state, or whose declared
    /// [`Reduction`] says it all.
    pub fn new() -> Self {
        JobSpec::default()
    }

    /// Declares a property that the region reads (possibly from
    /// neighbors). Ghost copies of it are refreshed before any chunk runs.
    /// A property the region reduces cannot also be read: its ghost slots
    /// hold the region's partials, not the owner's value.
    pub fn read<T: PropValue>(mut self, p: Prop<T>) -> Self {
        self.add_read(p.id);
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
        self.add_reduce(p.id, op);
        self
    }

    /// Adds what `reduction` implies: a fold reads its `src`, a scatter
    /// reduces its `dst` with its `op`. An entry already declared the same
    /// way is kept once; a contradicting one panics as `read` and `reduce`
    /// do.
    pub(crate) fn declare(&mut self, reduction: Reduction) {
        match reduction {
            Reduction::Fold(fold) => self.add_read(fold.src),
            Reduction::Scatter(s) if !self.reduces.contains(&(s.dst, s.op)) => {
                self.add_reduce(s.dst, s.op)
            }
            Reduction::Scatter(_) => {}
        }
    }

    fn add_read(&mut self, id: PropId) {
        assert!(
            !self.reduces.iter().any(|&(p, _)| p == id),
            "property declared both read and reduced"
        );
        if !self.reads.contains(&id) {
            self.reads.push(id);
        }
    }

    fn add_reduce(&mut self, id: PropId, op: ReduceOp) {
        assert!(
            !self.reduces.iter().any(|&(p, _)| p == id),
            "property declared reduced twice"
        );
        assert!(
            !self.reads.contains(&id),
            "property declared both read and reduced"
        );
        self.reduces.push((id, op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
