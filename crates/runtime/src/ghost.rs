//! Selective ghost nodes (§3.3), kept as per-machine mirrors.
//!
//! "Selective ghost node creation is a technique to choose a set of
//! high-degree vertices and to duplicate *ghost copies* of them on each
//! machine. Consequently, each ghost node only keeps local edges that do
//! not cross machine boundaries. [...] PGX.D computes the in-degree and
//! out-degree of each node and creates a ghost if either degree is larger
//! than the specified threshold value."
//!
//! The [`GhostTable`] is that selection, identical on every machine: a
//! membership bitmap over all vertices (global `0..N` numbering, one bit
//! per vertex) set straight from the degrees. The shipped threshold is
//! `Some(0)`, every vertex with an edge, at every machine count. A
//! candidate is copied only where a copy is read or written: machine `m`
//! keeps a *mirror slot* for candidate `u` when it does not own `u` and one
//! of its vertices has an in- or out-edge to `u` (Yan et al.'s vertex
//! mirroring, PAPERS.md), so a lone machine keeps none. Those slots are
//! the machine's [`Mirrors`], built with its fragment and numbered as its
//! edges first reach them; slot `k` of property `p` lives at column index
//! `len_local + k`. The owner knows from its own fragment which peers
//! mirror each of its vertices, so it addresses a peer's slot by the
//! vertex's ordinal among the owner's vertices that peer mirrors, and the
//! peer looks the slot up in its list of that owner's slots by vertex
//! ([`Mirrors::from_owner`]).

use crate::ids::MachineId;
use crate::partition::Partitioning;
use pgxd_graph::{Graph, NodeId};

/// The cluster-wide ghost candidate set.
#[derive(Clone, Debug, Default)]
pub struct GhostTable {
    /// Number of candidates.
    len: usize,
    /// Membership of the graph's vertices, 64 per word.
    words: Vec<u64>,
}

impl GhostTable {
    /// Selects candidates: every vertex whose in- or out-degree exceeds
    /// `threshold`. `None` produces an empty table (ghosting disabled).
    pub fn build(graph: &Graph, threshold: Option<usize>) -> Self {
        let Some(t) = threshold else {
            return GhostTable::default();
        };
        let mut words = vec![0u64; graph.num_nodes().div_ceil(64)];
        for v in 0..graph.num_nodes() as NodeId {
            if graph.in_degree(v) > t || graph.out_degree(v) > t {
                words[v as usize / 64] |= 1 << (v % 64);
            }
        }
        GhostTable {
            len: words.iter().map(|w| w.count_ones() as usize).sum(),
            words,
        }
    }

    /// Number of candidate vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if ghosting is disabled or selected nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether vertex `v` is a candidate.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words
            .get(v as usize / 64)
            .is_some_and(|&word| word & 1 << (v % 64) != 0)
    }
}

/// One machine's mirror slots.
#[derive(Clone, Debug, Default)]
pub struct Mirrors {
    /// Slot `k` holds a copy of vertex `slots[k]` (global numbering),
    /// numbered in the order the machine's edges first reach them.
    slots: Vec<NodeId>,
    /// The slots sorted by their vertex, so grouped by owner (partitions
    /// are contiguous ranges): the order in which owners send.
    order: Vec<u32>,
    /// `order[starts[o]..starts[o + 1]]`: the slots of owner `o`'s vertices.
    starts: Vec<u32>,
    /// Per peer: the owned vertices it mirrors, as local offsets, in
    /// ascending order — the i-th is the vertex of the peer's i-th slot
    /// for this machine in its `order`.
    sends: Vec<Vec<u32>>,
}

impl Mirrors {
    /// The mirrors of a machine whose slots hold `slots`, listed by vertex
    /// in `order`, and whose owned vertices each peer mirrors are `sends`
    /// (one list per machine of `part`, empty for itself).
    pub(crate) fn new(
        slots: Vec<NodeId>,
        order: Vec<u32>,
        sends: Vec<Vec<u32>>,
        part: &Partitioning,
    ) -> Self {
        let mut starts: Vec<u32> = (0..part.num_partitions() as MachineId)
            .map(|o| order.partition_point(|&k| slots[k as usize] < part.start(o)) as u32)
            .collect();
        starts.push(order.len() as u32);
        Mirrors {
            slots,
            order,
            starts,
            sends,
        }
    }

    /// Number of slots (the machine's ghost cells per property column).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the machine keeps no slot.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Global vertex of slot `slot`.
    #[inline]
    pub fn node_at(&self, slot: usize) -> NodeId {
        self.slots[slot]
    }

    /// The slots holding owner `owner`'s vertices, in the order the owner
    /// sends them (empty when there are no slots at all).
    #[inline]
    pub fn from_owner(&self, owner: MachineId) -> &[u32] {
        match self.starts.get(owner as usize..owner as usize + 2) {
            Some(&[lo, hi]) => &self.order[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The owned vertices (local offsets) `peer` mirrors, in the order of
    /// its [`Mirrors::from_owner`] for this machine.
    #[inline]
    pub fn sent_to(&self, peer: MachineId) -> &[u32] {
        self.sends.get(peer as usize).map_or(&[], Vec::as_slice)
    }

    /// Number of (owned vertex, peer) pairs: the entries one read property
    /// costs this machine's owners at a job's start.
    pub fn num_sent(&self) -> usize {
        self.sends.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::generate;

    #[test]
    fn disabled_table_empty() {
        let g = generate::star(10);
        let t = GhostTable::build(&g, None);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn threshold_selects_hub() {
        let g = generate::star(50);
        let t = GhostTable::build(&g, Some(10));
        assert_eq!(t.len(), 1);
        assert!(t.contains(0) && !t.contains(3));
    }

    #[test]
    fn zero_threshold_selects_everything_with_degree() {
        let g = generate::ring(5);
        let t = GhostTable::build(&g, Some(0));
        assert_eq!(t.len(), 5);
    }

    /// The bitmap answers the paper's degree rule across word boundaries,
    /// and nothing past the last vertex.
    #[test]
    fn contains_matches_the_degree_rule() {
        let g = generate::rmat(10, 8, generate::RmatParams::skewed(), 3);
        let t = GhostTable::build(&g, Some(12));
        let hub = |v: NodeId| g.in_degree(v) > 12 || g.out_degree(v) > 12;
        let n = g.num_nodes() as NodeId;
        assert!(t.len() > 64, "candidates span several words");
        assert_eq!(t.len(), (0..n).filter(|&v| hub(v)).count());
        for v in 0..n + 130 {
            assert_eq!(t.contains(v), v < n && hub(v), "vertex {v}");
        }
    }
}
