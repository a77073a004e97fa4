//! Search engines.
//!
//! * [`dial`] — bucketed integer-weight SSSP ("weighted parallel BFS" in
//!   the paper, after \[KS97\]): processes distance values in increasing
//!   order, one parallel round per distinct settled distance. Depth =
//!   number of distinct distance levels, which the rounding scheme of
//!   Lemma 5.2 keeps small; on unit weights that is the number of BFS
//!   levels. Algorithm 4's clique searches run on it.
//! * [`mod@dijkstra`] — sequential exact SSSP, the verification referee,
//!   and the bidirectional pair search the served oracle answers with.
//! * [`bellman_ford`] — hop-limited relaxation over the graph plus an
//!   optional hopset: computes `dist^h_{E ∪ E'}`, the quantity hopsets are
//!   about (Definition 2.4), and is the query engine of Theorem 1.2 that
//!   the experiment binaries run.

pub mod bellman_ford;
pub mod dial;
pub mod dijkstra;

pub use bellman_ford::{hop_limited_pair, hop_limited_sssp, ExtraEdges, HopQuery, PairQuery};
pub use dial::{dial_sssp, dial_sssp_bounded};
pub use dijkstra::{bidirectional_pair, dijkstra, dijkstra_bounded, dijkstra_pair};

use crate::csr::{VertexId, Weight, INF};

/// Distances and a shortest-path forest from one or more sources.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsspResult {
    /// `dist[v]`: distance from the nearest source ([`INF`] if unreachable).
    pub dist: Vec<Weight>,
    /// `parent[v]`: predecessor on a shortest path (`v` itself for sources,
    /// `u32::MAX` for unreachable vertices).
    pub parent: Vec<VertexId>,
}

impl SsspResult {
    /// True if `v` was reached.
    #[inline]
    pub fn reachable(&self, v: VertexId) -> bool {
        self.dist[v as usize] != INF
    }

    /// The path from the source to `v` (inclusive), or `None` if
    /// unreachable. Linear in the path length.
    pub fn path_to(&self, v: VertexId) -> Option<Vec<VertexId>> {
        if !self.reachable(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
            path.push(cur);
            if path.len() > self.dist.len() {
                panic!("parent pointers contain a cycle");
            }
        }
        path.reverse();
        Some(path)
    }

    /// Eccentricity from the source set: the maximum finite distance.
    pub fn max_finite_dist(&self) -> Weight {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != INF)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_to_reconstructs_tree_paths() {
        // hand-built result: 0 -> 1 -> 2
        let r = SsspResult {
            dist: vec![0, 1, 2, INF],
            parent: vec![0, 0, 1, u32::MAX],
        };
        assert_eq!(r.path_to(2), Some(vec![0, 1, 2]));
        assert_eq!(r.path_to(0), Some(vec![0]));
        assert_eq!(r.path_to(3), None);
        assert!(r.reachable(1));
        assert!(!r.reachable(3));
        assert_eq!(r.max_finite_dist(), 2);
    }
}
