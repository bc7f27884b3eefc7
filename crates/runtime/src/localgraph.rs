//! Per-machine CSR fragments with pre-resolved ("encoded") edge targets.
//!
//! At loading time the Data Manager resolves, for every edge of every owned
//! vertex, where its other endpoint lives (§3.3). The result is baked into
//! the fragment's column array as an [`EncTarget`]:
//!
//! * **local**  — the endpoint is owned by this machine: plain local index;
//! * **ghost**  — the endpoint is a ghost candidate owned elsewhere: index
//!   of this machine's mirror slot for it (`len_local + slot`), so the edge
//!   no longer crosses machines;
//! * **remote** — anything else: the 48-bit [`GlobalId`] (owner machine +
//!   owner-local offset), so no partition lookup is needed at runtime.
//!
//! The same scan finds the machine's [`Mirrors`]: the candidates it reaches
//! (its slots) and, per peer, its owned candidates that peer reaches.

use crate::ghost::{GhostTable, Mirrors};
use crate::ids::{GlobalId, MachineId};
use crate::partition::Partitioning;
use pgxd_graph::{Graph, NodeId};

/// An encoded edge target. Bit 63 distinguishes remote (set) from local /
/// ghost (clear); local values are direct indices into property columns.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct EncTarget(u64);

const REMOTE_BIT: u64 = 1 << 63;

impl EncTarget {
    /// Encodes a local (owned or ghost-slot) index.
    #[inline]
    pub fn local(index: usize) -> Self {
        debug_assert!((index as u64) & REMOTE_BIT == 0);
        EncTarget(index as u64)
    }

    /// Encodes a remote global id.
    #[inline]
    pub fn remote(gid: GlobalId) -> Self {
        EncTarget(REMOTE_BIT | gid.to_bits())
    }

    /// True if the target lives on another machine (and is not ghosted).
    #[inline]
    pub fn is_remote(self) -> bool {
        self.0 & REMOTE_BIT != 0
    }

    /// The local column index (valid only when `!is_remote()`).
    #[inline]
    pub fn local_index(self) -> usize {
        debug_assert!(!self.is_remote());
        self.0 as usize
    }

    /// The remote global id (valid only when `is_remote()`).
    #[inline]
    pub fn global_id(self) -> GlobalId {
        debug_assert!(self.is_remote());
        GlobalId::from_bits(self.0 & !REMOTE_BIT)
    }
}

impl std::fmt::Debug for EncTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_remote() {
            write!(f, "R({:?})", self.global_id())
        } else {
            write!(f, "L({})", self.local_index())
        }
    }
}

/// One direction (out or in) of a machine's fragment.
#[derive(Debug, Default)]
pub struct FragmentDir {
    /// `len_local + 1` row pointers over owned vertices.
    pub row_ptr: Vec<usize>,
    /// Encoded targets.
    pub targets: Vec<EncTarget>,
    /// Per-edge weights aligned with `targets` (empty when unweighted).
    pub weights: Vec<f64>,
}

impl FragmentDir {
    /// Edges of local node `v` as `(range into targets)`.
    #[inline]
    pub fn edge_range(&self, v: usize) -> std::ops::Range<usize> {
        self.row_ptr[v]..self.row_ptr[v + 1]
    }

    /// Degree of local node `v` in this direction. Because fragments keep
    /// *all* edges of owned vertices (crossing or not), this equals the
    /// vertex's true degree in the global graph.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.row_ptr[v + 1] - self.row_ptr[v]
    }

    /// Number of owned vertices.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.row_ptr.len().saturating_sub(1)
    }

    /// Total edges stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }
}

/// A machine's share of the distributed graph.
#[derive(Debug)]
pub struct LocalGraph {
    machine: MachineId,
    /// Global id of local vertex 0.
    start_node: NodeId,
    num_local: usize,
    /// Out-edges of owned vertices.
    pub out: FragmentDir,
    /// In-edges of owned vertices.
    pub inn: FragmentDir,
    mirrors: Mirrors,
}

impl LocalGraph {
    /// Carves machine `m`'s fragment out of the global graph, with a
    /// mirror slot for every candidate of `ghosts` it does not own and
    /// shares an edge with.
    pub fn build(
        graph: &Graph,
        part: &Partitioning,
        ghosts: &GhostTable,
        m: MachineId,
    ) -> LocalGraph {
        let start = part.start(m);
        let end = part.end(m);
        let num_local = (end - start) as usize;
        // Slot of each candidate reached so far, numbered on first reach:
        // numbering them by vertex would take a pass over every edge
        // before the first one is encoded. Dropped after the build; never
        // read without a peer, whose vertices alone can take a slot.
        let peered = !ghosts.is_empty() && part.num_partitions() > 1;
        let mut slot_of = vec![u32::MAX; if peered { graph.num_nodes() } else { 0 }];
        let mut slots = Vec::new();
        // Per machine, the owned candidates with an edge to one of its
        // vertices: the vertices it mirrors.
        let mut shared = vec![vec![0u64; num_local.div_ceil(64)]; part.num_partitions()];

        let mut build_dir = |csr: &pgxd_graph::Csr, weight_of: &dyn Fn(usize) -> Option<f64>| {
            let mut row_ptr = Vec::with_capacity(num_local + 1);
            row_ptr.push(0);
            let cap = if num_local > 0 {
                csr.edge_end(end - 1) - csr.edge_start(start)
            } else {
                0
            };
            let mut targets = Vec::with_capacity(cap);
            let mut weights = Vec::new();
            let weighted = graph.weights().is_some();
            for v in start..end {
                let local = (v - start) as usize;
                let candidate = u64::from(ghosts.contains(v)) << (local % 64);
                // A neighbor list is sorted, so its owners change rarely.
                let mut last = m;
                for e in csr.edge_start(v)..csr.edge_end(v) {
                    let t = csr.col_idx()[e];
                    let owner = part.owner(t);
                    targets.push(if owner == m {
                        EncTarget::local((t - start) as usize)
                    } else {
                        if owner != last {
                            shared[owner as usize][local / 64] |= candidate;
                            last = owner;
                        }
                        if ghosts.contains(t) {
                            let slot = &mut slot_of[t as usize];
                            if *slot == u32::MAX {
                                *slot = slots.len() as u32;
                                slots.push(t);
                            }
                            EncTarget::local(num_local + *slot as usize)
                        } else {
                            EncTarget::remote(GlobalId::new(owner, t - part.start(owner)))
                        }
                    });
                    if weighted {
                        weights.push(weight_of(e).unwrap_or(1.0));
                    }
                }
                row_ptr.push(targets.len());
            }
            FragmentDir {
                row_ptr,
                targets,
                weights,
            }
        };

        let out = build_dir(graph.out_csr(), &|e| graph.weights().map(|w| w[e]));
        let inn = build_dir(graph.in_csr(), &|e| {
            graph.weights().map(|w| w[graph.in_edge_to_out_edge(e)])
        });
        let order = slot_of.into_iter().filter(|&k| k != u32::MAX).collect();
        let sends = shared.iter().map(|w| set_bits(w.iter().copied())).collect();

        LocalGraph {
            machine: m,
            start_node: start,
            num_local,
            out,
            inn,
            mirrors: Mirrors::new(slots, order, sends, part),
        }
    }

    /// This machine's id.
    #[inline]
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// Global id of local vertex 0.
    #[inline]
    pub fn start_node(&self) -> NodeId {
        self.start_node
    }

    /// Number of owned vertices.
    #[inline]
    pub fn num_local(&self) -> usize {
        self.num_local
    }

    /// Number of ghost slots: this machine's mirrors.
    #[inline]
    pub fn num_ghosts(&self) -> usize {
        self.mirrors.len()
    }

    /// This machine's mirror slots.
    #[inline]
    pub fn mirrors(&self) -> &Mirrors {
        &self.mirrors
    }

    /// Maps a local vertex index to its global `0..N` id.
    #[inline]
    pub fn to_global(&self, local: usize) -> NodeId {
        debug_assert!(local < self.num_local);
        self.start_node + local as NodeId
    }

    /// Whether a column index denotes a ghost slot.
    #[inline]
    pub fn is_ghost_index(&self, index: usize) -> bool {
        index >= self.num_local
    }
}

/// The positions of the set bits of `words`, ascending.
fn set_bits(words: impl Iterator<Item = u64>) -> Vec<u32> {
    let mut bits = Vec::new();
    for (i, mut word) in words.enumerate() {
        while word != 0 {
            bits.push(i as u32 * 64 + word.trailing_zeros());
            word &= word - 1;
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PartitioningMode;
    use pgxd_graph::generate;

    fn setup(n_machines: usize) -> (Graph, Partitioning, GhostTable) {
        let g = generate::ring(8);
        let p = Partitioning::build(&g, n_machines, PartitioningMode::Vertex);
        let t = GhostTable::build(&g, None);
        (g, p, t)
    }

    #[test]
    fn enc_target_roundtrip() {
        let l = EncTarget::local(42);
        assert!(!l.is_remote());
        assert_eq!(l.local_index(), 42);
        let r = EncTarget::remote(GlobalId::new(3, 17));
        assert!(r.is_remote());
        assert_eq!(r.global_id(), GlobalId::new(3, 17));
    }

    #[test]
    fn ring_fragments_cover_all_edges() {
        let (g, p, t) = setup(2);
        let f0 = LocalGraph::build(&g, &p, &t, 0);
        let f1 = LocalGraph::build(&g, &p, &t, 1);
        assert_eq!(f0.num_local(), 4);
        assert_eq!(f1.num_local(), 4);
        assert_eq!(f0.out.num_edges() + f1.out.num_edges(), g.num_edges());
        assert_eq!(f0.inn.num_edges() + f1.inn.num_edges(), g.num_edges());
    }

    #[test]
    fn ring_encoding_local_vs_remote() {
        let (g, p, t) = setup(2);
        let f0 = LocalGraph::build(&g, &p, &t, 0);
        // Node 0's out-edge goes to node 1, owned by machine 0: local.
        let e = f0.out.edge_range(0);
        assert_eq!(f0.out.targets[e.start].local_index(), 1);
        // Node 3's out-edge goes to node 4, owned by machine 1: remote.
        let e = f0.out.edge_range(3);
        let tgt = f0.out.targets[e.start];
        assert!(tgt.is_remote());
        assert_eq!(tgt.global_id(), GlobalId::new(1, 0));
    }

    #[test]
    fn ghosted_hub_becomes_local_slot() {
        let g = generate::star(6); // hub 0, spokes 1..=6
        let p = Partitioning::vertex(7, 2);
        let t = GhostTable::build(&g, Some(3)); // hub only
        assert!(t.len() == 1 && t.contains(0));
        let f1 = LocalGraph::build(&g, &p, &t, 1);
        // Machine 1 owns spokes; their edge to the hub must resolve to the
        // ghost slot, i.e. index num_local + 0, not a remote target.
        for v in 0..f1.num_local() {
            let r = f1.out.edge_range(v);
            for &tgt in &f1.out.targets[r] {
                assert!(!tgt.is_remote(), "hub edge should be ghosted");
                assert_eq!(tgt.local_index(), f1.num_local());
            }
        }
        assert!(f1.is_ghost_index(f1.num_local()));
    }

    /// Every edge to a candidate owned elsewhere resolves to the slot that
    /// holds it, any other crossing edge stays remote, and the slots a
    /// machine keeps for an owner are, in order, what that owner sends it.
    #[test]
    fn mirrors_resolve_edges_and_pair_up_across_machines() {
        let g = generate::rmat(8, 4, generate::RmatParams::skewed(), 13);
        let p = Partitioning::build(&g, 3, PartitioningMode::Edge);
        let t = GhostTable::build(&g, Some(6));
        let frags: Vec<_> = (0..3).map(|m| LocalGraph::build(&g, &p, &t, m)).collect();
        for (m, f) in frags.iter().enumerate() {
            let mirrors = f.mirrors();
            for (dir, nbrs) in [(&f.out, g.out_csr()), (&f.inn, g.in_csr())] {
                for v in 0..f.num_local() {
                    let global = f.to_global(v);
                    let want = &nbrs.col_idx()[nbrs.edge_start(global)..nbrs.edge_end(global)];
                    for (&tgt, &u) in dir.targets[dir.edge_range(v)].iter().zip(want) {
                        if tgt.is_remote() {
                            assert!(!t.contains(u), "candidate {u} left remote");
                        } else if f.is_ghost_index(tgt.local_index()) {
                            assert_eq!(mirrors.node_at(tgt.local_index() - f.num_local()), u);
                        } else {
                            assert_eq!(f.to_global(tgt.local_index()), u);
                        }
                    }
                }
            }
            for o in 0..3 {
                let slots: Vec<NodeId> = (mirrors.from_owner(o).iter())
                    .map(|&k| mirrors.node_at(k as usize))
                    .collect();
                let sent = frags[o as usize].mirrors().sent_to(m as MachineId);
                let sent: Vec<NodeId> = sent.iter().map(|&l| p.start(o) + l).collect();
                assert_eq!(slots, sent, "machine {m}'s slots of owner {o}");
            }
            assert_eq!(mirrors.from_owner(m as MachineId).len(), 0);
        }
        assert!(frags.iter().all(|f| !f.mirrors().is_empty()));
    }

    #[test]
    fn degrees_match_global_graph() {
        let g = generate::rmat(8, 4, generate::RmatParams::skewed(), 13);
        let p = Partitioning::build(&g, 3, PartitioningMode::Edge);
        let t = GhostTable::build(&g, Some(50));
        for m in 0..3 {
            let f = LocalGraph::build(&g, &p, &t, m);
            for v in 0..f.num_local() {
                let global = f.to_global(v);
                assert_eq!(f.out.degree(v), g.out_degree(global), "out {global}");
                assert_eq!(f.inn.degree(v), g.in_degree(global), "in {global}");
            }
        }
    }

    #[test]
    fn weighted_fragments_align() {
        let g = generate::ring(6).with_uniform_weights(1.0, 9.0, 4);
        let p = Partitioning::vertex(6, 2);
        let t = GhostTable::build(&g, None);
        let f0 = LocalGraph::build(&g, &p, &t, 0);
        assert_eq!(f0.out.weights.len(), f0.out.num_edges());
        assert_eq!(f0.inn.weights.len(), f0.inn.num_edges());
        // Out-edge of node 0 is the global edge (0 -> 1).
        assert_eq!(f0.out.weights[0], g.weight(0));
        // In-edge weight of node 1 (from 0) must equal the same edge weight.
        let r = f0.inn.edge_range(1);
        assert_eq!(f0.inn.weights[r.start], g.weight(0));
    }

    #[test]
    fn empty_partition_fragment() {
        let g = generate::ring(2);
        let p = Partitioning::vertex(2, 4); // machines 2,3 own nothing
        let t = GhostTable::build(&g, None);
        let f3 = LocalGraph::build(&g, &p, &t, 3);
        assert_eq!(f3.num_local(), 0);
        assert_eq!(f3.out.num_edges(), 0);
    }
}
