//! Degree statistics used by the partitioner and the experiment reports.

use crate::csr::Graph;
use crate::NodeId;

/// Summary of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Maximum out-degree over all nodes.
    pub max_out: usize,
    /// Maximum in-degree over all nodes.
    pub max_in: usize,
    /// Mean total degree (in + out).
    pub mean_total: f64,
    /// Number of isolated nodes (no in or out edges).
    pub isolated: usize,
    /// Gini-like skew indicator: share of total degree held by the top 1%
    /// of nodes (1.0 = all, ~0.01 = perfectly uniform).
    pub top1pct_share: f64,
}

/// Computes [`DegreeStats`] in one pass over the degree arrays.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    let n = g.num_nodes();
    if n == 0 {
        return DegreeStats {
            max_out: 0,
            max_in: 0,
            mean_total: 0.0,
            isolated: 0,
            top1pct_share: 0.0,
        };
    }
    let mut totals: Vec<usize> = Vec::with_capacity(n);
    let mut max_out = 0;
    let mut max_in = 0;
    let mut isolated = 0;
    for v in 0..n as NodeId {
        let o = g.out_degree(v);
        let i = g.in_degree(v);
        max_out = max_out.max(o);
        max_in = max_in.max(i);
        if o == 0 && i == 0 {
            isolated += 1;
        }
        totals.push(o + i);
    }
    let sum: usize = totals.iter().sum();
    totals.sort_unstable_by(|a, b| b.cmp(a));
    let k = (n / 100).max(1);
    let top: usize = totals[..k].iter().sum();
    DegreeStats {
        max_out,
        max_in,
        mean_total: sum as f64 / n as f64,
        isolated,
        top1pct_share: if sum == 0 {
            0.0
        } else {
            top as f64 / sum as f64
        },
    }
}

/// Sum of `in_degree + out_degree` per node — the quantity the paper's edge
/// partitioner balances ("it first computes the total sum of in-degrees and
/// out-degrees for all vertices").
pub fn total_degrees(g: &Graph) -> Vec<usize> {
    (0..g.num_nodes() as NodeId)
        .map(|v| g.in_degree(v) + g.out_degree(v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn stats_on_star() {
        let g = generate::star(99);
        let s = degree_stats(&g);
        assert_eq!(s.max_out, 99);
        assert_eq!(s.max_in, 99);
        assert_eq!(s.isolated, 0);
        // The hub (top 1% = 1 node of 100) holds half of all degree.
        assert!(s.top1pct_share > 0.45);
    }

    #[test]
    fn stats_on_empty() {
        let g = crate::builder::GraphBuilder::new().build();
        let s = degree_stats(&g);
        assert_eq!(s.max_out, 0);
        assert_eq!(s.mean_total, 0.0);
    }

    #[test]
    fn isolated_counted() {
        let g = crate::builder::graph_from_edges(5, vec![(0, 1)]);
        assert_eq!(degree_stats(&g).isolated, 3);
    }

    #[test]
    fn total_degrees_match() {
        let g = generate::ring(4);
        assert_eq!(total_degrees(&g), vec![2, 2, 2, 2]);
    }
}
