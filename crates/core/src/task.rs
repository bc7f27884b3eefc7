//! Task traits and execution contexts (§4.1).
//!
//! A PGX.D task is a run-to-completion context object: `run()` is invoked
//! once per edge (or node) and always returns; remote reads an edge task
//! requests inside `run()` continue later in `read_done()`, on the *same*
//! worker thread, with whatever state the task saved in its fields or in
//! node properties (§4.1.2). A pull whose continuation would only fold the
//! value into the current vertex is declared instead, as a [`Fold`], and a
//! push of a column of the current vertex as a [`Scatter`]: the task's
//! [`Reduction`]. The engine then runs the edges itself, with no `run()` or
//! `read_done()`, and derives from the declaration what the job reads or
//! reduces. A node task runs a chunk of vertices at a time
//! ([`NodeTask::run_chunk`]); one whose body is column arithmetic on the
//! vertex resolves its columns once per chunk ([`NodeChunk::col`]) instead
//! of once per access. An edge task can do the same ahead of a chunk's
//! edges ([`EdgeTask::prepare`]), e.g. to compute the column a declared
//! scatter pushes.

use crate::prop::Prop;
use crate::scope::TaskScope;
use pgxd_graph::NodeId;
use pgxd_runtime::chunk::Chunk;
use pgxd_runtime::localgraph::EncTarget;
use pgxd_runtime::props::{PropId, PropValue, ReduceOp, TypeTag};
use pgxd_runtime::worker::SideRec;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which neighbor set an edge task iterates: the paper's
/// `outnbr_iter_task` / `innbr_iter_task` split. `In` is what enables the
/// natural *data pulling* form of algorithms like PageRank.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Iterate each node's outgoing edges (push-friendly).
    Out,
    /// Iterate each node's incoming edges (pull-friendly).
    In,
}

/// A neighborhood-iteration task: `run` executes for every (in- or out-)
/// edge of every active vertex — unless the task declares a
/// [`Reduction`].
pub trait EdgeTask: Send + Sync + 'static {
    /// The chunk's prologue: runs once per chunk, on the worker that
    /// claimed it, before any of the chunk's filters or edges, whichever
    /// loop runs them (a declared fold, a declared scatter, or `run`). It
    /// reaches the chunk's owned cells through [`NodeChunk::col`].
    ///
    /// Evaluating the whole chunk here equals evaluating each vertex just
    /// before its own edges as long as it reads no cell the job's edges
    /// write: edges of earlier chunks have run by then, and a vertex's own
    /// edges have not. A compiled query's prologue meets that: sema refuses
    /// a neighbor aggregate that reads its own target, and a pull's `where`
    /// reads only cells of the vertex, which no other vertex's fold writes.
    fn prepare(&self, _chunk: &mut NodeChunk<'_, '_>) {}

    /// Vertex filter, evaluated once per vertex before its edges run
    /// ("a custom filter method which is evaluated for each vertex prior
    /// to its execution"). Return `false` to skip the vertex entirely.
    fn filter(&self, _ctx: &mut NodeCtx<'_, '_>) -> bool {
        true
    }

    /// The reduction this task consists of. When it returns `Some`, the
    /// engine folds every passing vertex's neighbors, or scatters its value
    /// over them, itself and never calls `run`; the filter still runs
    /// first. The driver asks once per job.
    fn reduction(&self) -> Option<Reduction> {
        None
    }

    /// The per-edge kernel.
    fn run(&self, _ctx: &mut EdgeCtx<'_, '_>) {}

    /// Continuation for reads issued by `run` (one callback per
    /// `read_nbr`). Guaranteed to execute on the worker that ran `run`.
    fn read_done(&self, _ctx: &mut ReadDoneCtx<'_, '_>) {}
}

/// A declared pull reduction: `dst[v] = op(dst[v], src[u])` for every edge
/// `(v, u)` of every vertex `v` the filter passes.
///
/// All of `v`'s edges run on one worker, so local and ghosted values fold
/// into a register that is stored to `dst[v]` once, after `v`'s last edge;
/// remote values travel as reads whose responses are folded into the cell
/// as they drain. A `Fold` is also a task on its own: the fold of every
/// vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold {
    pub(crate) src: PropId,
    pub(crate) dst: PropId,
    pub(crate) tag: TypeTag,
    pub(crate) op: ReduceOp,
}

impl Fold {
    /// Folds `src` of each neighbor into `dst` of the vertex with `op`.
    ///
    /// Panics if `op` is not [defined](ReduceOp::defined_on) on `T`.
    pub fn new<T: PropValue>(src: Prop<T>, dst: Prop<T>, op: ReduceOp) -> Fold {
        assert_defined::<T>(op);
        Fold {
            src: src.id,
            dst: dst.id,
            tag: T::TAG,
            op,
        }
    }
}

impl EdgeTask for Fold {
    fn reduction(&self) -> Option<Reduction> {
        Some((*self).into())
    }
}

/// A declared push reduction: `dst[u] = op(dst[u], src[v])` for every edge
/// `(v, u)` of every vertex `v` the filter passes.
///
/// `src[v]` is loaded once per vertex and written to each target: into the
/// worker's private copy for a ghost, reduced in place for any other local
/// vertex, buffered as a write entry for a remote one. A `Scatter` is also a
/// task on its own: the scatter of every vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scatter {
    pub(crate) src: PropId,
    pub(crate) dst: PropId,
    pub(crate) tag: TypeTag,
    pub(crate) op: ReduceOp,
}

impl Scatter {
    /// Reduces `src` of the vertex into `dst` of each neighbor with `op`.
    ///
    /// Panics if `op` is not [defined](ReduceOp::defined_on) on `T`.
    pub fn new<T: PropValue>(src: Prop<T>, dst: Prop<T>, op: ReduceOp) -> Scatter {
        assert_defined::<T>(op);
        Scatter {
            src: src.id,
            dst: dst.id,
            tag: T::TAG,
            op,
        }
    }
}

impl EdgeTask for Scatter {
    fn reduction(&self) -> Option<Reduction> {
        Some((*self).into())
    }
}

/// A declared edge reduction: what an [`EdgeTask`] runs instead of `run`.
///
/// It is also the job's declaration of what it reads or reduces, merged
/// into the caller's [`JobSpec`](crate::JobSpec) on the driver: a fold's
/// `src` is read (its ghost slots are refreshed before the job), and a
/// scatter's `(dst, op)` is reduced (each worker keeps a private copy of
/// its ghost slots). A spec entry that says the same is a no-op; one that
/// contradicts it panics there, before the job starts, as
/// [`JobSpec::read`](crate::JobSpec::read) and
/// [`JobSpec::reduce`](crate::JobSpec::reduce) do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// A pull: fold the neighbors' `src` into the vertex's `dst`.
    Fold(Fold),
    /// A push: reduce the vertex's `src` into the neighbors' `dst`.
    Scatter(Scatter),
}

impl From<Fold> for Reduction {
    fn from(fold: Fold) -> Reduction {
        Reduction::Fold(fold)
    }
}

impl From<Scatter> for Reduction {
    fn from(scatter: Scatter) -> Reduction {
        Reduction::Scatter(scatter)
    }
}

/// A declared reduction is refused where it is written, not on the workers
/// (where a panic would hang the driver).
fn assert_defined<T: PropValue>(op: ReduceOp) {
    assert!(
        op.defined_on(T::TAG),
        "{op:?} is not defined on {:?} properties",
        T::TAG
    );
}

/// A per-vertex task (the paper's node iterator): `run_chunk` executes
/// once per chunk of the machine's vertices, and by default runs `filter`,
/// then `run`, on each vertex of the chunk in turn.
pub trait NodeTask: Send + Sync + 'static {
    /// Vertex filter (see [`EdgeTask::filter`]).
    fn filter(&self, _ctx: &mut NodeCtx<'_, '_>) -> bool {
        true
    }

    /// The per-vertex kernel of the default [`Self::run_chunk`].
    fn run(&self, _ctx: &mut NodeCtx<'_, '_>) {}

    /// The kernel over one chunk. A task whose body only reads and writes
    /// columns of the vertex overrides it with a loop over [`Col`] views,
    /// resolved once per chunk, and then neither `filter` nor `run` is
    /// called.
    fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
        for v in chunk.nodes() {
            let mut ctx = chunk.ctx(v);
            if self.filter(&mut ctx) {
                self.run(&mut ctx);
            }
        }
    }
}

/// One chunk of a node job: a run of the machine's vertices, addressed by
/// local index (`0..` the machine's vertex count), all processed by one
/// worker.
pub struct NodeChunk<'s, 'a> {
    scope: &'s mut TaskScope<'a>,
    nodes: Chunk,
    out_rows: &'a [usize],
    in_rows: &'a [usize],
}

impl<'s, 'a> NodeChunk<'s, 'a> {
    pub(crate) fn new(scope: &'s mut TaskScope<'a>, nodes: Chunk) -> Self {
        let graph = &scope.machine.graph;
        let (out_rows, in_rows) = (&graph.out.row_ptr[..], &graph.inn.row_ptr[..]);
        NodeChunk {
            scope,
            nodes,
            out_rows,
            in_rows,
        }
    }

    /// The chunk's vertices, as local indices.
    #[inline]
    pub fn nodes(&self) -> Range<usize> {
        self.nodes.clone()
    }

    /// A typed view of `p`'s owned cells, resolved once: hold it for the
    /// chunk's loop.
    pub fn col<T: PropValue>(&mut self, p: Prop<T>) -> Col<T> {
        let column = self.scope.col(p.id);
        Col {
            cells: column.share_cells(),
            owned: column.len_local(),
            _marker: PhantomData,
        }
    }

    /// Full out-degree of local vertex `v`.
    #[inline]
    pub fn out_degree(&self, v: usize) -> usize {
        self.out_rows[v + 1] - self.out_rows[v]
    }

    /// Full in-degree of local vertex `v`.
    #[inline]
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_rows[v + 1] - self.in_rows[v]
    }

    /// The per-vertex context of `v`, a vertex of this chunk: for what a
    /// [`Col`] does not do (its global id, `reduce_global`).
    pub fn ctx(&mut self, v: usize) -> NodeCtx<'_, 'a> {
        assert!(self.nodes.contains(&v), "vertex {v} is not in the chunk");
        NodeCtx {
            scope: self.scope,
            node: v,
        }
    }
}

/// A typed view of one column's owned cells ([`NodeChunk::col`]). A ghost
/// slot is out of its reach: an index at or past the machine's vertex
/// count panics, which fails the job.
pub struct Col<T: PropValue> {
    cells: Arc<[AtomicU64]>,
    owned: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: PropValue> Col<T> {
    /// The value of local vertex `v`.
    #[inline]
    pub fn get(&self, v: usize) -> T {
        T::from_bits(self.cells[..self.owned][v].load(Ordering::Relaxed))
    }

    /// Writes the value of local vertex `v`. Safe without atomics because
    /// one vertex is processed by one worker.
    #[inline]
    pub fn set(&self, v: usize, x: T) {
        self.cells[..self.owned][v].store(x.to_bits(), Ordering::Relaxed);
    }
}

/// Context over the *current vertex* (filters and node tasks): it reads
/// and writes the vertex's cells and reduces into any vertex, but issues
/// no read, so nothing continues on it.
pub struct NodeCtx<'s, 'a> {
    pub(crate) scope: &'s mut TaskScope<'a>,
    pub(crate) node: usize,
}

impl NodeCtx<'_, '_> {
    /// Global id of the current vertex.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.scope.machine.graph.to_global(self.node)
    }

    /// `get_local`: reads a property of the current vertex.
    #[inline]
    pub fn get<T: PropValue>(&mut self, p: Prop<T>) -> T {
        T::from_bits(self.scope.load_local(p.id, self.node))
    }

    /// `set_local`: writes a property of the current vertex. Safe without
    /// atomics because one vertex is processed by one worker.
    #[inline]
    pub fn set<T: PropValue>(&mut self, p: Prop<T>, v: T) {
        self.scope.store_local(p.id, self.node, v.to_bits());
    }

    /// Full out-degree of the current vertex.
    #[inline]
    pub fn out_degree(&self) -> usize {
        self.scope.machine.graph.out.degree(self.node)
    }

    /// Full in-degree of the current vertex.
    #[inline]
    pub fn in_degree(&self) -> usize {
        self.scope.machine.graph.inn.degree(self.node)
    }

    /// `write_remote` to an arbitrary vertex by global id (reduction).
    #[inline]
    pub fn reduce_global<T: PropValue>(&mut self, v: NodeId, p: Prop<T>, op: ReduceOp, val: T) {
        self.scope.reduce_global(v, p.id, op, val.to_bits());
    }
}

/// Context over the *current edge* (edge tasks): the current vertex plus
/// one neighbor.
pub struct EdgeCtx<'s, 'a> {
    pub(crate) scope: &'s mut TaskScope<'a>,
    pub(crate) node: usize,
    pub(crate) edge: usize,
    pub(crate) target: EncTarget,
    pub(crate) dir: Dir,
}

impl EdgeCtx<'_, '_> {
    /// Global id of the current vertex.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.scope.machine.graph.to_global(self.node)
    }

    /// Global id of the neighbor on this edge.
    #[inline]
    pub fn nbr(&self) -> NodeId {
        if self.target.is_remote() {
            let gid = self.target.global_id();
            self.scope.machine.partition.start(gid.machine()) + gid.offset()
        } else {
            let idx = self.target.local_index();
            let g = &self.scope.machine.graph;
            if idx < g.num_local() {
                g.to_global(idx)
            } else {
                g.mirrors().node_at(idx - g.num_local())
            }
        }
    }

    /// `get_local` on the current vertex.
    #[inline]
    pub fn get<T: PropValue>(&mut self, p: Prop<T>) -> T {
        T::from_bits(self.scope.load_local(p.id, self.node))
    }

    /// `set_local` on the current vertex.
    #[inline]
    pub fn set<T: PropValue>(&mut self, p: Prop<T>, v: T) {
        self.scope.store_local(p.id, self.node, v.to_bits());
    }

    /// `write_remote<OP>`: reduces `val` into the neighbor's property —
    /// applied immediately if the neighbor is local, or ghosted and the job
    /// declares `(p, op)` reduced; buffered into a write-request message
    /// otherwise (the *data pushing* pattern).
    #[inline]
    pub fn write_nbr<T: PropValue>(&mut self, p: Prop<T>, op: ReduceOp, val: T) {
        self.scope
            .reduce_target(self.target, p.id, op, val.to_bits());
    }

    /// `read_remote`: requests the neighbor's property value; continues in
    /// [`EdgeTask::read_done`] (the *data pulling* pattern, which
    /// conventional systems disallow). A ghosted neighbor is read locally
    /// only when the job declares `p` read.
    #[inline]
    pub fn read_nbr<T: PropValue>(&mut self, p: Prop<T>) {
        self.read_nbr_tagged(p, 0);
    }

    /// Like [`Self::read_nbr`] with a user tag made available as
    /// [`ReadDoneCtx::aux`] — the paper's mechanism for state-machine tasks
    /// that continue more than once.
    #[inline]
    pub fn read_nbr_tagged<T: PropValue>(&mut self, p: Prop<T>, aux: u64) {
        let rec = SideRec {
            node: self.node as u32,
            aux,
        };
        self.scope.read_target(rec, self.target, p.id);
    }

    /// Weight of the current edge (1.0 for unweighted graphs).
    #[inline]
    pub fn edge_weight(&self) -> f64 {
        let frag = match self.dir {
            Dir::Out => &self.scope.machine.graph.out,
            Dir::In => &self.scope.machine.graph.inn,
        };
        if frag.weights.is_empty() {
            1.0
        } else {
            frag.weights[self.edge]
        }
    }

    /// Full out-degree of the current vertex.
    #[inline]
    pub fn out_degree(&self) -> usize {
        self.scope.machine.graph.out.degree(self.node)
    }

    /// Full in-degree of the current vertex.
    #[inline]
    pub fn in_degree(&self) -> usize {
        self.scope.machine.graph.inn.degree(self.node)
    }

    /// `write_remote` to an arbitrary vertex by global id.
    #[inline]
    pub fn reduce_global<T: PropValue>(&mut self, v: NodeId, p: Prop<T>, op: ReduceOp, val: T) {
        self.scope.reduce_global(v, p.id, op, val.to_bits());
    }
}

/// Continuation context: the value fetched by a `read_nbr` or
/// `read_global`, plus local access to the originating vertex.
pub struct ReadDoneCtx<'s, 'a> {
    pub(crate) scope: &'s mut TaskScope<'a>,
    pub(crate) node: usize,
    pub(crate) aux: u64,
    pub(crate) bits: u64,
}

impl ReadDoneCtx<'_, '_> {
    /// Global id of the vertex whose task issued the read.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.scope.machine.graph.to_global(self.node)
    }

    /// The tag passed to `read_nbr_tagged` (0 for `read_nbr`).
    #[inline]
    pub fn aux(&self) -> u64 {
        self.aux
    }

    /// The fetched value.
    #[inline]
    pub fn value<T: PropValue>(&self) -> T {
        T::from_bits(self.bits)
    }

    /// `get_local` on the originating vertex.
    #[inline]
    pub fn get<T: PropValue>(&mut self, p: Prop<T>) -> T {
        T::from_bits(self.scope.load_local(p.id, self.node))
    }

    /// `set_local` on the originating vertex. Race-free: all callbacks for
    /// one vertex run on one worker.
    #[inline]
    pub fn set<T: PropValue>(&mut self, p: Prop<T>, v: T) {
        self.scope.store_local(p.id, self.node, v.to_bits());
    }

    /// `write_remote` to an arbitrary vertex by global id.
    #[inline]
    pub fn reduce_global<T: PropValue>(&mut self, v: NodeId, p: Prop<T>, op: ReduceOp, val: T) {
        self.scope.reduce_global(v, p.id, op, val.to_bits());
    }

    /// `read_remote` of an arbitrary vertex by global id, continuing in
    /// another `read_done` on the same originating vertex with tag `aux` —
    /// the next step of a state-machine task that continues more than once
    /// (§4.1.2).
    #[inline]
    pub fn read_global<T: PropValue>(&mut self, v: NodeId, p: Prop<T>, aux: u64) {
        let rec = SideRec {
            node: self.node as u32,
            aux,
        };
        self.scope.read_global(rec, v, p.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildEngine, Engine, JobSpec};
    use pgxd_graph::generate;
    use pgxd_runtime::health::JobError;
    use std::sync::atomic::AtomicBool;

    /// Indexes the first ghost slot of `p` through a [`Col`].
    struct PeekGhost {
        p: Prop<f64>,
        had_ghosts: Arc<AtomicBool>,
    }
    impl NodeTask for PeekGhost {
        fn run_chunk(&self, chunk: &mut NodeChunk<'_, '_>) {
            let graph = &chunk.scope.machine.graph;
            let first_ghost = graph.num_local();
            if graph.num_ghosts() > 0 {
                self.had_ghosts.store(true, Ordering::Relaxed);
            }
            chunk.col(self.p).get(first_ghost);
        }
    }

    /// A `Col` view ends at the owned cells: the index of a ghost slot
    /// panics on the worker, which fails the job.
    #[test]
    fn col_cannot_reach_a_ghost_slot() {
        let g = generate::star(32);
        let mut e = Engine::builder()
            .machines(2)
            .ghost_threshold(Some(8))
            .engine(&g)
            .unwrap();
        let p = e.add_prop("p", 1.0f64);
        let had_ghosts = Arc::new(AtomicBool::new(false));
        let task = PeekGhost {
            p,
            had_ghosts: had_ghosts.clone(),
        };
        let err = e.try_run_node_job(&JobSpec::new(), task).unwrap_err();
        assert!(
            had_ghosts.load(Ordering::Relaxed),
            "the hub must be ghosted"
        );
        let JobError::Protocol(msg) = err else {
            panic!("expected a protocol error, got {err:?}");
        };
        assert!(msg.contains("task panicked: index out of bounds"), "{msg}");
    }

    /// Counts its `prepare` calls per vertex in `prepared`, and each filter
    /// call that finds its vertex's count other than 1 in `early`; runs its
    /// edges as `reduction`, or through `run` if it is `None`.
    struct Prologue {
        prepared: Prop<i64>,
        reduction: Option<Reduction>,
        filters: Arc<AtomicU64>,
        early: Arc<AtomicU64>,
    }
    impl EdgeTask for Prologue {
        fn prepare(&self, chunk: &mut NodeChunk<'_, '_>) {
            let prepared = chunk.col(self.prepared);
            for v in chunk.nodes() {
                prepared.set(v, prepared.get(v) + 1);
            }
        }
        fn filter(&self, ctx: &mut NodeCtx<'_, '_>) -> bool {
            self.filters.fetch_add(1, Ordering::Relaxed);
            if ctx.get(self.prepared) != 1 {
                self.early.fetch_add(1, Ordering::Relaxed);
            }
            true
        }
        fn reduction(&self) -> Option<Reduction> {
            self.reduction
        }
    }

    /// `prepare` runs once per chunk, before the chunk's first filter,
    /// whichever loop runs the edges: every vertex is prepared exactly
    /// once and no filter finds its vertex unprepared, in one-vertex chunks
    /// and in larger ones.
    #[test]
    fn prepare_runs_once_per_chunk_before_its_filters() {
        let g = generate::rmat(6, 4, generate::RmatParams::skewed(), 11);
        let n = g.num_nodes();
        for chunk_edges in [1, 64] {
            let builder = Engine::builder().machines(2).chunk_edges(chunk_edges);
            let mut e = builder.engine(&g).unwrap();
            let x = e.add_prop("x", 0i64);
            for shape in 0..3 {
                let prepared = e.add_prop("prepared", 0i64);
                let task = Prologue {
                    prepared,
                    reduction: match shape {
                        0 => Some(Fold::new(x, x, ReduceOp::Max).into()),
                        1 => Some(Scatter::new(prepared, x, ReduceOp::Max).into()),
                        _ => None,
                    },
                    filters: Arc::default(),
                    early: Arc::default(),
                };
                let (filters, early) = (task.filters.clone(), task.early.clone());
                e.try_run_edge_job(Dir::Out, &JobSpec::new(), task).unwrap();
                assert_eq!(e.gather(prepared), vec![1i64; n], "shape {shape}");
                assert_eq!(filters.load(Ordering::Relaxed), n as u64, "shape {shape}");
                assert_eq!(early.load(Ordering::Relaxed), 0, "shape {shape}");
                e.drop_prop(prepared);
            }
        }
    }

    /// A logical fold of an `f64` column would panic on the workers and
    /// hang the driver; it is refused where it is declared.
    #[test]
    #[should_panic(expected = "And is not defined on F64 properties")]
    fn logical_fold_of_f64_panics() {
        let p: Prop<f64> = Prop::new(PropId(0));
        let _ = Fold::new(p, p, ReduceOp::And);
    }

    #[test]
    #[should_panic(expected = "Or is not defined on F64 properties")]
    fn logical_scatter_of_f64_panics() {
        let p: Prop<f64> = Prop::new(PropId(0));
        let _ = Scatter::new(p, p, ReduceOp::Or);
    }
}
