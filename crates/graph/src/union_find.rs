//! Union-find (disjoint set union), sequential and concurrent.
//!
//! Used by Appendix B's hierarchical weight decomposition (components of
//! edge-weight prefixes) and by the contraction bookkeeping in
//! `WellSeparatedSpanner` (Algorithm 3), where cluster forests from earlier
//! levels are merged into the running contraction `H_{i-1}`.

use std::sync::atomic::{AtomicU32, Ordering};

/// Sequential union-find with union by size and path halving.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            // path halving
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true if they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Size of the set containing `x`.
    pub fn component_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }

    /// Dense relabeling: returns `(labels, k)` where `labels[v] in 0..k`
    /// and vertices share a label iff they share a set.
    pub fn labels(&mut self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut map = vec![u32::MAX; n];
        let mut labels = vec![0u32; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            let r = self.find(v);
            if map[r as usize] == u32::MAX {
                map[r as usize] = next;
                next += 1;
            }
            labels[v as usize] = map[r as usize];
        }
        (labels, next as usize)
    }
}

/// Lock-free concurrent union-find (Anderson–Woll style hooking with CAS),
/// suitable for processing edge lists from rayon parallel iterators. This is
/// the shape used by the linear-work parallel connectivity of \[SDB14\] that
/// the paper cites.
#[derive(Debug)]
pub struct AtomicUnionFind {
    parent: Vec<AtomicU32>,
}

impl AtomicUnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        AtomicUnionFind {
            parent: (0..n as u32).map(AtomicU32::new).collect(),
        }
    }

    /// Representative of `x`'s set (with path compression via CAS).
    pub fn find(&self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize].load(Ordering::Acquire);
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize].load(Ordering::Acquire);
            if gp == p {
                return p;
            }
            // halve the path; failure is benign (someone else compressed)
            let _ = self.parent[x as usize].compare_exchange(
                p,
                gp,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`. Hooks the larger-id root under the
    /// smaller-id root so the outcome is deterministic regardless of
    /// interleaving. Returns true if a merge happened in this call.
    pub fn union(&self, a: u32, b: u32) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        loop {
            if ra == rb {
                return false;
            }
            // deterministic direction: larger root hooks under smaller
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            match self.parent[hi as usize].compare_exchange(
                hi,
                lo,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(_) => {
                    ra = self.find(ra);
                    rb = self.find(rb);
                }
            }
        }
    }

    /// Freeze into dense labels `(labels, k)`.
    pub fn labels(&self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut map = vec![u32::MAX; n];
        let mut labels = vec![0u32; n];
        let mut next = 0u32;
        for v in 0..n as u32 {
            let r = self.find(v);
            if map[r as usize] == u32::MAX {
                map[r as usize] = next;
                next += 1;
            }
            labels[v as usize] = map[r as usize];
        }
        (labels, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rayon::prelude::*;

    #[test]
    fn sequential_union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert_eq!(uf.num_components(), 3);
        assert_eq!(uf.component_size(0), 2);
    }

    #[test]
    fn labels_are_dense_and_consistent() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 2);
        uf.union(2, 4);
        uf.union(1, 5);
        let (labels, k) = uf.labels();
        assert_eq!(k, 3);
        assert!(labels.iter().all(|&l| (l as usize) < k));
        assert_eq!(labels[0], labels[2]);
        assert_eq!(labels[2], labels[4]);
        assert_eq!(labels[1], labels[5]);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn atomic_union_find_agrees_with_sequential() {
        let edges: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5), (1, 2), (6, 7)];
        let auf = AtomicUnionFind::new(8);
        edges.par_iter().for_each(|&(a, b)| {
            auf.union(a, b);
        });
        let (la, ka) = auf.labels();
        let mut uf = UnionFind::new(8);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        let (ls, ks) = uf.labels();
        assert_eq!(ka, ks);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(la[i] == la[j], ls[i] == ls[j], "pair ({i},{j})");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_concurrent_equals_sequential(
            edges in proptest::collection::vec((0u32..64, 0u32..64), 0..300)) {
            let auf = AtomicUnionFind::new(64);
            edges.par_iter().for_each(|&(a, b)| { auf.union(a, b); });
            let (la, _) = auf.labels();
            let mut uf = UnionFind::new(64);
            for &(a, b) in &edges { uf.union(a, b); }
            let (ls, _) = uf.labels();
            for i in 0..64 {
                for j in 0..64 {
                    prop_assert_eq!(la[i] == la[j], ls[i] == ls[j]);
                }
            }
        }
    }
}
