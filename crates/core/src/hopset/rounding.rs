//! Lemma 5.2 — the Klein–Subramanian rounding scheme.
//!
//! To search for a path of at most `k` edges and weight in `[d, c·d]`
//! without paying depth proportional to `d`, round weights to the grid
//! `ŵ = ζ·d/k`:
//!
//! ```text
//! w̃(e) = ⌈ w(e) / ŵ ⌉
//! ```
//!
//! Lemma 5.2: any such path then has rounded weight `w̃(p) ≤ ⌈ck/ζ⌉` — so
//! the weighted parallel BFS only runs `O(ck/ζ)` levels — while the
//! rounded-back value never exceeds `(1+ζ)·w(p)` (each of the ≤ k edges
//! gains at most `ŵ = ζd/k`, totalling `≤ ζd ≤ ζ·w(p)`).
//!
//! Rounding up means the grid value `ŵ·w̃(p)` also never *undershoots* the
//! true weight — the property that makes the multi-estimate oracle of §5
//! sound (taking a min over estimate bands cannot return less than the
//! true distance).

use psh_graph::{CsrGraph, Edge, Weight};

/// A rounding of a graph's weights to the grid `ŵ`.
#[derive(Clone, Debug)]
pub struct Rounding {
    /// The grid granularity `ŵ` (≥ 1; weights are already integers, so a
    /// finer grid would be a no-op).
    pub what: f64,
}

impl Rounding {
    /// The scheme for paths of ≤ `k_hops` edges and weight ≈ `d`, with
    /// distortion budget `ζ`.
    pub fn for_band(d: u64, k_hops: u64, zeta: f64) -> Rounding {
        assert!(zeta > 0.0 && zeta < 1.0, "zeta must be in (0,1)");
        assert!(k_hops >= 1);
        let what = (zeta * d as f64 / k_hops as f64).max(1.0);
        Rounding { what }
    }

    /// Round one weight: `⌈w/ŵ⌉` (always ≥ 1). The f64 quotient is exact
    /// for every `w ≤ 2⁵³`, the range the banded builders accept, so at
    /// `ŵ = 1` this is the identity.
    #[inline]
    pub fn round_weight(&self, w: Weight) -> Weight {
        ((w as f64 / self.what).ceil() as u64).max(1)
    }

    /// Map a rounded-scale distance back to the original scale.
    /// Monotone and never below the true weight it represents.
    #[inline]
    pub fn unround(&self, rounded: Weight) -> f64 {
        rounded as f64 * self.what
    }

    /// Rounded copy of a graph.
    pub fn round_graph(&self, g: &CsrGraph) -> CsrGraph {
        CsrGraph::from_edges(
            g.n(),
            g.edges()
                .iter()
                .map(|e| Edge::new(e.u, e.v, self.round_weight(e.w))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_grid_when_band_is_small() {
        // ζd/k < 1 → grid clamps to 1 → integer weights unchanged
        let r = Rounding::for_band(10, 100, 0.5);
        assert_eq!(r.what, 1.0);
        assert_eq!(r.round_weight(7), 7);
        assert_eq!(r.unround(7), 7.0);
    }

    #[test]
    fn rounding_never_undershoots() {
        let r = Rounding::for_band(1_000_000, 100, 0.25);
        for w in [1u64, 17, 999, 123_456] {
            let back = r.unround(r.round_weight(w));
            assert!(back >= w as f64, "w={w} came back as {back}");
            // and overshoots by at most one grid cell
            assert!(back <= w as f64 + r.what);
        }
    }

    #[test]
    fn lemma_5_2_path_weight_bound() {
        // a synthetic path: k edges, weights summing into [d, c·d]
        let k = 50u64;
        let d = 10_000u64;
        let c = 4.0;
        let zeta = 0.5;
        let r = Rounding::for_band(d, k, zeta);
        // worst case: all weights tiny (max relative inflation)
        let weights: Vec<u64> = (0..k).map(|i| d / k + (i % 3)).collect();
        let w_p: u64 = weights.iter().sum();
        assert!(w_p >= d && (w_p as f64) <= c * d as f64);
        let rounded: u64 = weights.iter().map(|&w| r.round_weight(w)).sum();
        // bound 1: rounded path weight ≤ ⌈ck/ζ⌉ (+k slack for per-edge ceils)
        assert!(
            rounded <= ((c * k as f64 / zeta).ceil() as u64) + k,
            "rounded weight {rounded} too large"
        );
        // bound 2: value distortion ≤ (1+ζ)
        let back = r.unround(rounded);
        assert!(
            back <= (1.0 + zeta) * w_p as f64,
            "distortion {} exceeds 1+ζ",
            back / w_p as f64
        );
    }

    #[test]
    fn rounded_graph_preserves_structure() {
        let g = psh_graph::generators::with_uniform_weights(
            &psh_graph::generators::grid(5, 5),
            100,
            1000,
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let r = Rounding::for_band(5_000, 10, 0.25);
        let rg = r.round_graph(&g);
        assert_eq!(rg.n(), g.n());
        assert_eq!(rg.m(), g.m());
        for (e, re) in g.edges().iter().zip(rg.edges()) {
            assert_eq!((e.u, e.v), (re.u, re.v));
            assert_eq!(re.w, r.round_weight(e.w));
        }
    }

    use rand::SeedableRng;

    proptest! {
        /// ŵ·⌈w/ŵ⌉ ∈ [w, w + ŵ] for arbitrary weights and bands.
        #[test]
        fn prop_round_trip_sandwich(w in 1u64..1_000_000, d in 1u64..1_000_000,
                                    k in 1u64..1000) {
            let r = Rounding::for_band(d, k, 0.3);
            let back = r.unround(r.round_weight(w));
            prop_assert!(back >= w as f64);
            prop_assert!(back <= w as f64 + r.what + 1e-6);
        }
    }
}
