//! Selective ghost nodes (§3.3).
//!
//! "Selective ghost node creation is a technique to choose a set of
//! high-degree vertices and to duplicate *ghost copies* of them on each
//! machine. Consequently, each ghost node only keeps local edges that do
//! not cross machine boundaries. [...] PGX.D computes the in-degree and
//! out-degree of each node and creates a ghost if either degree is larger
//! than the specified threshold value."
//!
//! The ghost table is identical on every machine: the sorted list of
//! ghosted vertices (in the global `0..N` numbering) and their full
//! degrees. Machine-local ghost *slots* are indexed by the vertex's
//! ordinal in this list; property columns allocate `len_ghost` extra cells
//! after the owned region, so slot `k` of property `p` lives at column
//! index `len_local + k`. A rank bitmap over all vertices, built once with
//! the table (2 bits per vertex), maps a vertex to its ordinal in O(1), so
//! encoding a fragment's edge endpoints costs no search.

use pgxd_graph::{Graph, NodeId};
use std::sync::Arc;

/// The cluster-wide ghost-node table.
#[derive(Clone, Debug, Default)]
pub struct GhostTable {
    /// Ghosted vertices, sorted ascending (global numbering).
    nodes: Arc<Vec<NodeId>>,
    /// `(in_degree, out_degree)` of each ghosted vertex, by ordinal.
    degrees: Arc<Vec<(u32, u32)>>,
    /// Ghost membership of the graph's vertices, 64 per word, each word
    /// paired with the number of ghosts before it: a ghost's ordinal is
    /// that count plus the set bits below its own. Empty when nothing is
    /// ghosted.
    ranks: Arc<Vec<(u32, u64)>>,
}

impl GhostTable {
    /// Selects ghosts: every vertex whose in- or out-degree exceeds
    /// `threshold`. `None` produces an empty table (ghosting disabled).
    pub fn build(graph: &Graph, threshold: Option<usize>) -> Self {
        match threshold {
            None => GhostTable::default(),
            Some(t) => Self::over(graph, pgxd_graph::stats::high_degree_nodes(graph, t)),
        }
    }

    /// Builds a table from an explicit vertex list (used by tests and by
    /// the Figure 6a sweep, which controls the exact ghost count).
    pub fn from_nodes(graph: &Graph, mut nodes: Vec<NodeId>) -> Self {
        nodes.sort_unstable();
        nodes.dedup();
        Self::over(graph, nodes)
    }

    /// The table over `nodes` (sorted, distinct).
    fn over(graph: &Graph, nodes: Vec<NodeId>) -> Self {
        let degrees = nodes
            .iter()
            .map(|&v| (graph.in_degree(v) as u32, graph.out_degree(v) as u32))
            .collect();
        let mut ranks = Vec::new();
        if !nodes.is_empty() {
            ranks = vec![(0u32, 0u64); graph.num_nodes().div_ceil(64)];
            for &v in &nodes {
                ranks[v as usize / 64].1 |= 1 << (v % 64);
            }
            let mut before = 0;
            for (rank, word) in &mut ranks {
                *rank = before;
                before += word.count_ones();
            }
        }
        GhostTable {
            nodes: Arc::new(nodes),
            degrees: Arc::new(degrees),
            ranks: Arc::new(ranks),
        }
    }

    /// Number of ghosted vertices (== ghost slots per machine).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if ghosting is disabled or selected nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The sorted ghosted vertices.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Ordinal of vertex `v` in the ghost list, if ghosted.
    #[inline]
    pub fn ordinal(&self, v: NodeId) -> Option<u32> {
        let &(before, word) = self.ranks.get(v as usize / 64)?;
        let bit = 1u64 << (v % 64);
        (word & bit != 0).then(|| before + (word & (bit - 1)).count_ones())
    }

    /// Global vertex at ordinal `ord`.
    #[inline]
    pub fn node_at(&self, ord: u32) -> NodeId {
        self.nodes[ord as usize]
    }

    /// Full `(in, out)` degree of the ghosted vertex at `ord` — available
    /// locally on every machine so algorithms can use `t.degree()` on hubs
    /// without communication.
    #[inline]
    pub fn degree_at(&self, ord: u32) -> (u32, u32) {
        self.degrees[ord as usize]
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
        assert_eq!(t.nodes(), &[0]);
        assert_eq!(t.ordinal(0), Some(0));
        assert_eq!(t.ordinal(3), None);
        assert_eq!(t.degree_at(0), (50, 50));
    }

    #[test]
    fn zero_threshold_selects_everything_with_degree() {
        let g = generate::ring(5);
        let t = GhostTable::build(&g, Some(0));
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn from_nodes_sorts_and_dedups() {
        let g = generate::ring(8);
        let t = GhostTable::from_nodes(&g, vec![5, 2, 5, 0]);
        assert_eq!(t.nodes(), &[0, 2, 5]);
        assert_eq!(t.ordinal(5), Some(2));
        assert_eq!(t.ordinal(4), None);
        assert_eq!(t.ordinal(8), None, "past the graph");
        assert_eq!(t.node_at(1), 2);
        assert_eq!(t.degree_at(0), (1, 1));
    }

    /// The rank bitmap answers what a search of the sorted list would,
    /// across word boundaries and past the last vertex.
    #[test]
    fn ordinal_matches_the_sorted_list() {
        let g = generate::rmat(10, 8, generate::RmatParams::skewed(), 3);
        let t = GhostTable::build(&g, Some(12));
        assert!(t.len() > 64, "ghosts span several words");
        for v in 0..g.num_nodes() as NodeId + 130 {
            let want = t.nodes().binary_search(&v).ok().map(|i| i as u32);
            assert_eq!(t.ordinal(v), want, "vertex {v}");
        }
    }
}
