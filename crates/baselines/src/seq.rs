//! Sequential reference implementations — ground truth for every engine's
//! tests. Written for clarity, not speed.

use pgxd_graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Exact PageRank by power iteration; mirrors the paper's kernel
/// (`n.PR_nxt += t.PR / t.degree()` over in-neighbors).
pub fn pagerank(g: &Graph, damping: f64, iters: usize) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut nxt = vec![0.0f64; n];
    for _ in 0..iters {
        for v in 0..n as NodeId {
            let mut sum = 0.0;
            for &t in g.in_neighbors(v) {
                let d = g.out_degree(t);
                if d > 0 {
                    sum += pr[t as usize] / d as f64;
                }
            }
            nxt[v as usize] = base + damping * sum;
        }
        std::mem::swap(&mut pr, &mut nxt);
    }
    pr
}

/// Weakly connected components: BFS over the union of both directions.
/// Returns the smallest member id per component, matching the label the
/// propagation algorithms converge to.
pub fn wcc(g: &Graph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut comp = vec![u32::MAX; n];
    for start in 0..n as NodeId {
        if comp[start as usize] != u32::MAX {
            continue;
        }
        comp[start as usize] = start;
        let mut q = VecDeque::from([start]);
        while let Some(v) = q.pop_front() {
            for &t in g.out_neighbors(v).iter().chain(g.in_neighbors(v)) {
                if comp[t as usize] == u32::MAX {
                    comp[t as usize] = start;
                    q.push_back(t);
                }
            }
        }
    }
    comp
}

/// Bellman-Ford shortest paths from `root` along out-edges. Requires that
/// no negative cycle is reachable from `root`: on one, it never returns.
pub fn sssp(g: &Graph, root: NodeId) -> Vec<f64> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[root as usize] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..n as NodeId {
            if dist[v as usize].is_finite() {
                for (k, &t) in g.out_neighbors(v).iter().enumerate() {
                    let e = g.out_csr().edge_start(v) + k;
                    let cand = dist[v as usize] + g.weight(e);
                    if cand < dist[t as usize] {
                        dist[t as usize] = cand;
                        changed = true;
                    }
                }
            }
        }
    }
    dist
}

/// Breadth-first hop counts from `root` along out-edges; `i64::MAX` for
/// unreachable vertices.
pub fn bfs(g: &Graph, root: NodeId) -> Vec<i64> {
    let n = g.num_nodes();
    let mut hops = vec![i64::MAX; n];
    hops[root as usize] = 0;
    let mut q = VecDeque::from([root]);
    while let Some(v) = q.pop_front() {
        for &t in g.out_neighbors(v) {
            if hops[t as usize] == i64::MAX {
                hops[t as usize] = hops[v as usize] + 1;
                q.push_back(t);
            }
        }
    }
    hops
}

/// Eigenvector centrality by power iteration with L2 normalization,
/// pulling over in-edges. Same step structure as the distributed version
/// so fixed-iteration comparisons are exact.
pub fn eigenvector(g: &Graph, iters: usize) -> Vec<f64> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut ev = vec![1.0 / (n as f64).sqrt(); n];
    let mut nxt = vec![0.0f64; n];
    for _ in 0..iters {
        for v in 0..n as NodeId {
            nxt[v as usize] = g.in_neighbors(v).iter().map(|&t| ev[t as usize]).sum();
        }
        let norm: f64 = nxt.iter().map(|x| x * x).sum::<f64>().sqrt();
        let inv = if norm > 0.0 { 1.0 / norm } else { 0.0 };
        for v in 0..n {
            ev[v] = nxt[v] * inv;
            nxt[v] = 0.0;
        }
    }
    ev
}

/// K-core peeling with the degree convention shared by all engines in this
/// workspace: a vertex's degree counts its directed in-edges plus
/// out-edges. Returns `(max_core, core_number_per_vertex)`.
pub fn kcore(g: &Graph) -> (i64, Vec<i64>) {
    let n = g.num_nodes();
    let mut deg: Vec<i64> = (0..n as NodeId)
        .map(|v| (g.in_degree(v) + g.out_degree(v)) as i64)
        .collect();
    let mut alive = vec![true; n];
    let mut core = vec![0i64; n];
    let mut max_core = 0i64;
    let mut remaining = n;
    let mut k = 1i64;
    while remaining > 0 {
        loop {
            let dying: Vec<usize> = (0..n).filter(|&v| alive[v] && deg[v] < k).collect();
            if dying.is_empty() {
                break;
            }
            for &v in &dying {
                alive[v] = false;
                core[v] = k - 1;
                remaining -= 1;
                for &t in g
                    .out_neighbors(v as NodeId)
                    .iter()
                    .chain(g.in_neighbors(v as NodeId))
                {
                    deg[t as usize] -= 1;
                }
            }
        }
        if remaining == 0 {
            max_core = k - 1;
            break;
        }
        max_core = k;
        k += 1;
    }
    for v in 0..n {
        if alive[v] {
            core[v] = max_core;
        }
    }
    (max_core, core)
}

/// Brandes' betweenness centrality (unnormalized, directed, all sources).
/// Parallel edges count as distinct shortest paths, matching the
/// distributed implementation's per-edge semantics.
pub fn betweenness(g: &Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut bc = vec![0.0f64; n];
    for s in 0..n as NodeId {
        // Forward BFS with path counting.
        let mut dist = vec![i64::MAX; n];
        let mut sigma = vec![0.0f64; n];
        let mut order: Vec<NodeId> = Vec::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut q = VecDeque::from([s]);
        while let Some(v) = q.pop_front() {
            order.push(v);
            for &w in g.out_neighbors(v) {
                if dist[w as usize] == i64::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    q.push_back(w);
                }
                if dist[w as usize] == dist[v as usize] + 1 {
                    sigma[w as usize] += sigma[v as usize];
                }
            }
        }
        // Backward dependency accumulation.
        let mut delta = vec![0.0f64; n];
        for &v in order.iter().rev() {
            for &w in g.out_neighbors(v) {
                if dist[w as usize] == dist[v as usize] + 1 && sigma[w as usize] > 0.0 {
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                }
            }
            if v != s {
                bc[v as usize] += delta[v as usize];
            }
        }
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgxd_graph::{builder::graph_from_edges, generate};

    #[test]
    fn pagerank_uniform_on_ring() {
        let g = generate::ring(10);
        let pr = pagerank(&g, 0.85, 50);
        for &p in &pr {
            assert!((p - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_prefers_in_hub() {
        // All spokes point at vertex 0; 0 points at 1.
        let g = graph_from_edges(5, vec![(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]);
        let pr = pagerank(&g, 0.85, 50);
        assert!(pr[0] > pr[2]);
        assert!(pr[1] > pr[2], "vertex 1 inherits hub mass");
    }

    #[test]
    fn wcc_components() {
        let g = graph_from_edges(6, vec![(0, 1), (2, 1), (4, 5)]);
        let c = wcc(&g);
        assert_eq!(c[0], c[1]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[4], c[5]);
        assert_ne!(c[0], c[4]);
        assert_eq!(c[3], 3);
    }

    #[test]
    fn sssp_simple() {
        let g = generate::path(4);
        assert_eq!(sssp(&g, 0), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn bfs_tree() {
        let g = generate::binary_tree(7);
        assert_eq!(bfs(&g, 0), vec![0, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn eigenvector_normalized() {
        let g = generate::complete(6);
        let ev = eigenvector(&g, 30);
        let norm: f64 = ev.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kcore_complete() {
        let (k, cores) = kcore(&generate::complete(5));
        assert_eq!(k, 8);
        assert!(cores.iter().all(|&c| c == 8));
    }

    #[test]
    fn betweenness_path() {
        let g = generate::path(4);
        let bc = betweenness(&g);
        // Through 1: (0,2),(0,3); through 2: (0,3),(1,3).
        assert_eq!(bc, vec![0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn kcore_ring() {
        let (k, _) = kcore(&generate::ring(9));
        assert_eq!(k, 2);
    }
}
