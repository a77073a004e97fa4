//! The builder/pipeline API: typed, seeded, fallible construction of every
//! artifact in the reproduction.
//!
//! This is the surface all scaling work builds on (batch query serving,
//! artifact caching by seed, multi-backend selection). The contract, shared
//! with [`psh_cluster::ClusterBuilder`]:
//!
//! * builders consume a `&CsrGraph` plus a [`Seed`] and return
//!   `Result<Run<A>, PshError>` — a [`Run`] carries the artifact, its
//!   [`psh_pram::Cost`], and the seed that produced it;
//! * invalid parameters and violated preconditions are [`PshError`]
//!   values, never panics;
//! * the same `Seed` always rebuilds the byte-identical artifact, and
//!   matches what `build_with_rng` produces for an RNG seeded with the
//!   same value (enforced by the `builder_equivalence` integration
//!   tests).
//!
//! ```
//! use psh_core::api::{Seed, SpannerBuilder};
//! use psh_graph::generators;
//!
//! let g = generators::grid(12, 12);
//! let run = SpannerBuilder::unweighted(3.0).seed(Seed(7)).build(&g).unwrap();
//! assert!(run.artifact.size() < g.m() + g.n());
//! assert_eq!(run.seed, Seed(7));
//! ```

use crate::error::PshError;
use crate::hopset::unweighted::build_hopset_with_beta0_on;
use crate::hopset::weighted::build_weighted_hopsets_impl;
use crate::hopset::{limited, Hopset, HopsetParams, WeightedHopsets};
use crate::oracle::ApproxShortestPaths;
use crate::spanner::unweighted::{beta_for, spanner_from_clustering_with};
use crate::spanner::weighted::weighted_spanner_impl;
use crate::spanner::well_separated::well_separated_spanner_with;
use crate::spanner::Spanner;
use psh_cluster::ClusterBuilder;
use psh_exec::ExecutionPolicy;
use psh_graph::connectivity::components_union_find;
use psh_graph::CsrGraph;
use psh_pram::Cost;
use rand::Rng;

pub use psh_cluster::api::{Run, Seed};

/// Count connected components for `require_connected` validation.
fn component_count(g: &CsrGraph) -> usize {
    components_union_find(g).0.count
}

/// Refuse a graph of `n` vertices whose heaviest edge weighs `max_weight`
/// when a shortest path can weigh more than 2⁵³, where `f64` distances
/// and §5's rounding stop being exact ([`PshError::DistancesExceedF64`]).
/// The oracle and the weighted hopset builders apply it, and so does
/// `Verify::Deep` on a v2 file.
pub(crate) fn check_distance_cap(n: usize, max_weight: u64) -> Result<(), PshError> {
    if n.saturating_sub(1) as u128 * max_weight as u128 > 1 << 53 {
        return Err(PshError::DistancesExceedF64 { n, max_weight });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Spanners (Theorem 1.1)
// ---------------------------------------------------------------------------

/// Which spanner construction to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpannerKind {
    /// Algorithm 2: one clustering at `β = ln n / 2k` plus boundary edges.
    /// Requires unit weights.
    Unweighted,
    /// Algorithm 3 over explicit, ascending, well-separated weight levels
    /// (canonical edge ids per level).
    WellSeparated { levels: Vec<Vec<u32>> },
    /// Theorem 3.3: bucket by powers of two, deal into `O(log k)`
    /// well-separated groups, run Algorithm 3 per group.
    Weighted,
}

/// Builder for the spanner constructions of §3.
#[derive(Clone, Debug)]
pub struct SpannerBuilder {
    kind: SpannerKind,
    stretch_k: f64,
    beta_override: Option<f64>,
    seed: Seed,
    require_connected: bool,
    policy: ExecutionPolicy,
}

impl SpannerBuilder {
    /// Algorithm 2 on a unit-weight graph with stretch parameter `k`.
    pub fn unweighted(k: f64) -> Self {
        Self::with_kind(SpannerKind::Unweighted, k)
    }

    /// Theorem 3.3 on an arbitrarily weighted graph.
    pub fn weighted(k: f64) -> Self {
        Self::with_kind(SpannerKind::Weighted, k)
    }

    /// Algorithm 3 over caller-supplied well-separated weight levels.
    pub fn well_separated(k: f64, levels: Vec<Vec<u32>>) -> Self {
        Self::with_kind(SpannerKind::WellSeparated { levels }, k)
    }

    fn with_kind(kind: SpannerKind, k: f64) -> Self {
        SpannerBuilder {
            kind,
            stretch_k: k,
            beta_override: None,
            seed: Seed::default(),
            require_connected: false,
            policy: ExecutionPolicy::default(),
        }
    }

    /// Choose how the construction executes (default:
    /// [`ExecutionPolicy::from_env`]). Artifacts and costs are
    /// byte-identical for every policy; only wall-clock changes.
    pub fn execution(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Change the stretch parameter.
    pub fn stretch_k(mut self, k: f64) -> Self {
        self.stretch_k = k;
        self
    }

    /// Override the paper's `β = ln n / 2k` clustering parameter
    /// (unweighted kind only; ablation experiments sweep this).
    pub fn beta_override(mut self, beta: f64) -> Self {
        self.beta_override = Some(beta);
        self
    }

    /// Set the RNG seed (default `Seed(0)`).
    pub fn seed(mut self, seed: impl Into<Seed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Reject disconnected inputs with [`PshError::Disconnected`] instead
    /// of spanning each component separately (default: off).
    pub fn require_connected(mut self, yes: bool) -> Self {
        self.require_connected = yes;
        self
    }

    /// Check parameters and preconditions against `g` without building.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), PshError> {
        if !(self.stretch_k >= 1.0 && self.stretch_k.is_finite()) {
            return Err(PshError::InvalidStretch { k: self.stretch_k });
        }
        if let Some(beta) = self.beta_override {
            if !matches!(self.kind, SpannerKind::Unweighted) {
                return Err(PshError::SettingNotApplicable {
                    setting: "beta_override",
                    kind: "weighted/well-separated spanner",
                });
            }
            if !(beta > 0.0 && beta.is_finite()) {
                return Err(PshError::InvalidBetaOverride { beta });
            }
        }
        if matches!(self.kind, SpannerKind::Unweighted) && !g.is_unit_weight() {
            return Err(PshError::RequiresUnitWeights {
                algorithm: "unweighted_spanner",
            });
        }
        if let SpannerKind::WellSeparated { levels } = &self.kind {
            if levels.is_empty() {
                return Err(PshError::MissingLevels);
            }
        }
        if self.require_connected && g.n() > 0 {
            let components = component_count(g);
            if components > 1 {
                return Err(PshError::Disconnected { components });
            }
        }
        Ok(())
    }

    /// Build the spanner with this builder's seed.
    pub fn build(&self, g: &CsrGraph) -> Result<Run<Spanner>, PshError> {
        let mut rng = self.seed.rng();
        let (artifact, cost) = self.build_with_rng(g, &mut rng)?;
        Ok(Run {
            artifact,
            cost,
            seed: self.seed,
        })
    }

    /// Build against a caller-supplied generator, for callers that pass
    /// in their own RNG. [`SpannerBuilder::build`] runs this on a
    /// generator seeded from the builder's [`Seed`] and records the seed.
    pub fn build_with_rng<R: Rng>(
        &self,
        g: &CsrGraph,
        rng: &mut R,
    ) -> Result<(Spanner, Cost), PshError> {
        self.validate(g)?;
        let k = self.stretch_k;
        let exec = self.policy.executor();
        match &self.kind {
            SpannerKind::Unweighted => {
                let n = g.n();
                if n <= 1 || g.m() == 0 {
                    return Ok((Spanner::new(n, Vec::new()), Cost::ZERO));
                }
                let beta = self.beta_override.unwrap_or_else(|| beta_for(n, k));
                let (clustering, c_cost) =
                    ClusterBuilder::new(beta).build_with_rng_on(&exec, g, rng)?;
                let (spanner, s_cost) = spanner_from_clustering_with(&exec, g, &clustering);
                Ok((spanner, c_cost.then(s_cost)))
            }
            SpannerKind::Weighted => Ok(weighted_spanner_impl(&exec, g, k, rng)),
            SpannerKind::WellSeparated { levels } => {
                let (edges, cost) = well_separated_spanner_with(&exec, g, levels, k, rng);
                Ok((Spanner::new(g.n(), edges), cost))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hopsets (Theorem 1.2, §5, Appendix C)
// ---------------------------------------------------------------------------

/// Which hopset construction to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HopsetKind {
    /// Algorithm 4 on a unit-weight (or §5-pre-rounded integer) graph.
    Unweighted,
    /// §5: one Algorithm 4 hopset per distance band `d = (n^η)^j`.
    Weighted { eta: f64 },
    /// Appendix C: iterated limited hopsets targeting `O(n^α)`-hop paths.
    Limited { alpha: f64 },
}

/// What a [`HopsetBuilder`] run produced.
#[derive(Clone, Debug)]
pub enum HopsetArtifact {
    /// A single shortcut-edge set (unweighted / limited kinds).
    Single(Hopset),
    /// The per-distance-band family of §5 (weighted kind).
    Banded(WeightedHopsets),
}

impl HopsetArtifact {
    /// Total number of shortcut edges.
    pub fn size(&self) -> usize {
        match self {
            HopsetArtifact::Single(h) => h.size(),
            HopsetArtifact::Banded(b) => b.total_size(),
        }
    }

    /// The single hopset, if this run produced one.
    pub fn as_single(&self) -> Option<&Hopset> {
        match self {
            HopsetArtifact::Single(h) => Some(h),
            HopsetArtifact::Banded(_) => None,
        }
    }

    /// The banded family, if this run produced one.
    pub fn as_banded(&self) -> Option<&WeightedHopsets> {
        match self {
            HopsetArtifact::Single(_) => None,
            HopsetArtifact::Banded(b) => Some(b),
        }
    }

    /// Unwrap the single hopset (panics on a banded artifact — only call
    /// after building with the unweighted/limited kinds).
    pub fn into_single(self) -> Hopset {
        match self {
            HopsetArtifact::Single(h) => h,
            HopsetArtifact::Banded(_) => {
                panic!("weighted hopset runs produce a banded artifact")
            }
        }
    }
}

/// Builder for the hopset constructions of §4, §5, and Appendix C.
#[derive(Clone, Debug)]
pub struct HopsetBuilder {
    kind: HopsetKind,
    params: HopsetParams,
    beta0_override: Option<f64>,
    seed: Seed,
    policy: ExecutionPolicy,
}

impl HopsetBuilder {
    /// Algorithm 4 with the paper's default parameters.
    pub fn unweighted() -> Self {
        Self::with_kind(HopsetKind::Unweighted)
    }

    /// §5's banded construction with band exponent `eta ∈ (0, 1)`. Its
    /// build refuses a graph whose distances can exceed 2⁵³
    /// ([`PshError::DistancesExceedF64`]).
    pub fn weighted(eta: f64) -> Self {
        Self::with_kind(HopsetKind::Weighted { eta })
    }

    /// Appendix C's low-depth construction targeting `O(n^alpha)`-hop
    /// queries, `alpha ∈ (0, 1)` — `alpha` is the *hop target* exponent.
    ///
    /// This variant derives its internal parameters from `alpha` and
    /// [`HopsetBuilder::epsilon`] (Lemma C.1); the other knobs
    /// (`delta`, `gamma1`, `gamma2`) are not read, and
    /// `beta0_override` is rejected at validation.
    pub fn limited(alpha: f64) -> Self {
        Self::with_kind(HopsetKind::Limited { alpha })
    }

    fn with_kind(kind: HopsetKind) -> Self {
        HopsetBuilder {
            kind,
            params: HopsetParams::default(),
            beta0_override: None,
            seed: Seed::default(),
            policy: ExecutionPolicy::default(),
        }
    }

    /// Choose how the construction executes (default:
    /// [`ExecutionPolicy::from_env`]). Artifacts and costs are
    /// byte-identical for every policy; only wall-clock changes.
    pub fn execution(mut self, policy: ExecutionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the full parameter set.
    pub fn params(mut self, params: HopsetParams) -> Self {
        self.params = params;
        self
    }

    /// Per-level distortion budget `ε ∈ (0, 1)`.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.params.epsilon = epsilon;
        self
    }

    /// Small-cluster threshold exponent `δ > 1` — this sets the
    /// large-cluster divisor `ρ = (k·log n/ε)^δ` of Algorithm 4.
    pub fn delta(mut self, delta: f64) -> Self {
        self.params.delta = delta;
        self
    }

    /// Base-case exponent `γ₁` (recursion stops below `n^{γ₁}` vertices).
    pub fn gamma1(mut self, gamma1: f64) -> Self {
        self.params.gamma1 = gamma1;
        self
    }

    /// Top-level exponent `γ₂` (`β₀ = n^{−γ₂}`).
    pub fn gamma2(mut self, gamma2: f64) -> Self {
        self.params.gamma2 = gamma2;
        self
    }

    /// Override the derived top-level `β₀` (§5 / Appendix C call patterns).
    pub fn beta0_override(mut self, beta0: f64) -> Self {
        self.beta0_override = Some(beta0);
        self
    }

    /// Set the RNG seed (default `Seed(0)`).
    pub fn seed(mut self, seed: impl Into<Seed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Check parameters without building.
    pub fn validate(&self) -> Result<(), PshError> {
        self.params
            .validate()
            .map_err(|reason| PshError::InvalidHopsetParams { reason })?;
        if let Some(beta0) = self.beta0_override {
            if matches!(self.kind, HopsetKind::Limited { .. }) {
                // Appendix C derives its own β₀ per band from (α, ε)
                return Err(PshError::SettingNotApplicable {
                    setting: "beta0_override",
                    kind: "limited hopset",
                });
            }
            if !(beta0 > 0.0 && beta0.is_finite()) {
                return Err(PshError::InvalidBetaOverride { beta: beta0 });
            }
        }
        match self.kind {
            HopsetKind::Unweighted => Ok(()),
            HopsetKind::Weighted { eta } => {
                if eta > 0.0 && eta < 1.0 {
                    Ok(())
                } else {
                    Err(PshError::InvalidEta { eta })
                }
            }
            HopsetKind::Limited { alpha } => {
                if alpha > 0.0 && alpha < 1.0 {
                    Ok(())
                } else {
                    Err(PshError::InvalidAlpha { alpha })
                }
            }
        }
    }

    /// Build the hopset with this builder's seed.
    pub fn build(&self, g: &CsrGraph) -> Result<Run<HopsetArtifact>, PshError> {
        let mut rng = self.seed.rng();
        let (artifact, cost) = self.build_with_rng(g, &mut rng)?;
        Ok(Run {
            artifact,
            cost,
            seed: self.seed,
        })
    }

    /// Build against a caller-supplied generator, for callers that pass
    /// in their own RNG. [`HopsetBuilder::build`] runs this on a
    /// generator seeded from the builder's [`Seed`] and records the seed.
    /// The recursion below seeds one generator per piece from that RNG and
    /// clusters the piece through [`ClusterBuilder::build_with_rng_on`].
    pub fn build_with_rng<R: Rng>(
        &self,
        g: &CsrGraph,
        rng: &mut R,
    ) -> Result<(HopsetArtifact, Cost), PshError> {
        self.validate()?;
        let exec = self.policy.executor();
        match self.kind {
            HopsetKind::Unweighted => {
                let beta0 = self
                    .beta0_override
                    .unwrap_or_else(|| self.params.beta0(g.n()));
                let (h, cost) = build_hopset_with_beta0_on(&exec, g, &self.params, beta0, rng);
                Ok((HopsetArtifact::Single(h), cost))
            }
            HopsetKind::Weighted { eta } => {
                check_distance_cap(g.n(), g.max_weight().unwrap_or(0))?;
                let beta0 = self
                    .beta0_override
                    .unwrap_or_else(|| self.params.beta0_weighted(g.n()));
                let (b, cost) =
                    build_weighted_hopsets_impl(&exec, g, &self.params, eta, beta0, rng);
                Ok((HopsetArtifact::Banded(b), cost))
            }
            HopsetKind::Limited { alpha } => {
                let (h, cost) =
                    limited::low_depth_hopset_impl(&exec, g, alpha, self.params.epsilon, rng);
                Ok((HopsetArtifact::Single(h), cost))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The served oracle
// ---------------------------------------------------------------------------

/// Builder for the served shortest-path oracle: it validates the graph
/// and copies it, and builds no hopset (see [`crate::oracle`] for why).
#[derive(Clone, Debug, Default)]
pub struct OracleBuilder {
    seed: Seed,
    require_connected: bool,
}

impl OracleBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepted for the builder contract. The build is one validation
    /// scan and one copy on the calling thread, so no policy changes its
    /// artifact, its cost or (measurably) its time.
    pub fn execution(self, _policy: ExecutionPolicy) -> Self {
        self
    }

    /// Set the seed recorded in the [`Run`] and in a snapshot's META
    /// (default `Seed(0)`). The oracle draws nothing from it, so it does
    /// not change the artifact.
    pub fn seed(mut self, seed: impl Into<Seed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Reject disconnected inputs (default: off — disconnected queries
    /// report `∞` and are well-defined).
    pub fn require_connected(mut self, yes: bool) -> Self {
        self.require_connected = yes;
        self
    }

    /// Check preconditions against `g` without building: every distance
    /// must fit `f64` exactly ([`PshError::DistancesExceedF64`]), since
    /// answers are `f64`.
    pub fn validate(&self, g: &CsrGraph) -> Result<(), PshError> {
        check_distance_cap(g.n(), g.max_weight().unwrap_or(0))?;
        if self.require_connected && g.n() > 0 {
            let components = component_count(g);
            if components > 1 {
                return Err(PshError::Disconnected { components });
            }
        }
        Ok(())
    }

    /// Validate and copy `g`, recording this builder's seed.
    pub fn build(&self, g: &CsrGraph) -> Result<Run<ApproxShortestPaths>, PshError> {
        let mut rng = self.seed.rng();
        let (artifact, cost) = self.build_with_rng(g, &mut rng)?;
        Ok(Run {
            artifact,
            cost,
            seed: self.seed,
        })
    }

    /// [`OracleBuilder::build`] for callers that pass in their own RNG,
    /// like every other builder. The oracle draws nothing from it. The
    /// [`Cost`] charges the validation scan over the `m` edges and the
    /// `n + m` copy, one flat round each.
    pub fn build_with_rng<R: Rng>(
        &self,
        g: &CsrGraph,
        _rng: &mut R,
    ) -> Result<(ApproxShortestPaths, Cost), PshError> {
        self.validate(g)?;
        let cost = Cost::flat(g.m() as u64).then(Cost::flat((g.n() + g.m()) as u64));
        Ok((ApproxShortestPaths::owned(g.clone()), cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psh_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spanner_invalid_k_is_typed_error() {
        let g = generators::grid(4, 4);
        for k in [0.0, 0.5, -3.0, f64::NAN] {
            let err = SpannerBuilder::unweighted(k).build(&g).unwrap_err();
            assert!(matches!(err, PshError::InvalidStretch { .. }), "k={k}");
        }
    }

    #[test]
    fn spanner_weighted_input_rejected_by_unweighted_kind() {
        let g = CsrGraph::from_edges(3, [psh_graph::Edge::new(0, 1, 5)]);
        let err = SpannerBuilder::unweighted(2.0).build(&g).unwrap_err();
        assert!(matches!(err, PshError::RequiresUnitWeights { .. }));
        // the weighted kind accepts it
        assert!(SpannerBuilder::weighted(2.0).build(&g).is_ok());
    }

    #[test]
    fn spanner_beta_override_changes_granularity() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::connected_random(300, 900, &mut rng);
        let base = SpannerBuilder::unweighted(2.0).seed(Seed(5));
        let default_run = base.clone().build(&g).unwrap();
        // β = 50: singleton clusters, so every edge becomes a boundary pick
        let dense_run = base.clone().beta_override(50.0).build(&g).unwrap();
        assert!(dense_run.artifact.size() >= default_run.artifact.size());
        let err = base.beta_override(-1.0).build(&g).unwrap_err();
        assert!(matches!(err, PshError::InvalidBetaOverride { .. }));
    }

    #[test]
    fn inapplicable_settings_are_rejected_not_ignored() {
        let g = generators::path(8);
        let err = SpannerBuilder::weighted(2.0)
            .beta_override(0.3)
            .build(&g)
            .unwrap_err();
        assert!(
            matches!(err, PshError::SettingNotApplicable { setting, .. } if setting == "beta_override")
        );
        let err = HopsetBuilder::limited(0.5)
            .beta0_override(0.01)
            .build(&g)
            .unwrap_err();
        assert!(
            matches!(err, PshError::SettingNotApplicable { setting, .. } if setting == "beta0_override")
        );
    }

    #[test]
    fn spanner_require_connected_rejects_disconnected() {
        let g = CsrGraph::from_unit_edges(4, [(0, 1), (2, 3)]);
        let err = SpannerBuilder::unweighted(2.0)
            .require_connected(true)
            .build(&g)
            .unwrap_err();
        assert_eq!(err, PshError::Disconnected { components: 2 });
        // without the flag it spans each component
        assert!(SpannerBuilder::unweighted(2.0).build(&g).is_ok());
    }

    #[test]
    fn well_separated_kind_needs_levels() {
        let g = generators::path(5);
        let err = SpannerBuilder::well_separated(2.0, Vec::new())
            .build(&g)
            .unwrap_err();
        assert_eq!(err, PshError::MissingLevels);
        let levels = vec![(0..g.m() as u32).collect::<Vec<_>>()];
        let run = SpannerBuilder::well_separated(2.0, levels)
            .build(&g)
            .unwrap();
        assert!(run.artifact.is_subgraph_of(&g));
    }

    #[test]
    fn hopset_invalid_params_are_typed_errors() {
        let g = generators::path(8);
        let err = HopsetBuilder::unweighted()
            .epsilon(0.0)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PshError::InvalidHopsetParams { .. }));
        let err = HopsetBuilder::unweighted()
            .delta(1.0)
            .build(&g)
            .unwrap_err();
        assert!(matches!(err, PshError::InvalidHopsetParams { .. }));
        let err = HopsetBuilder::weighted(0.0).build(&g).unwrap_err();
        assert_eq!(err, PshError::InvalidEta { eta: 0.0 });
        let err = HopsetBuilder::limited(1.5).build(&g).unwrap_err();
        assert_eq!(err, PshError::InvalidAlpha { alpha: 1.5 });
    }

    #[test]
    fn hopset_artifact_accessors_match_kind() {
        let g = generators::grid(8, 8);
        let single = HopsetBuilder::unweighted()
            .epsilon(0.5)
            .delta(1.5)
            .gamma1(0.25)
            .gamma2(0.75)
            .seed(Seed(3))
            .build(&g)
            .unwrap();
        assert!(single.artifact.as_single().is_some());
        assert!(single.artifact.as_banded().is_none());

        let mut rng = StdRng::seed_from_u64(4);
        let wg = generators::with_uniform_weights(&g, 1, 9, &mut rng);
        let banded = HopsetBuilder::weighted(0.5)
            .epsilon(0.5)
            .delta(1.5)
            .gamma1(0.25)
            .gamma2(0.75)
            .seed(Seed(5))
            .build(&wg)
            .unwrap();
        assert!(banded.artifact.as_banded().is_some());
        assert_eq!(
            banded.artifact.size(),
            banded.artifact.as_banded().unwrap().total_size()
        );
    }

    #[test]
    fn oracle_answers_unit_and_weighted_graphs_and_charges_the_copy() {
        let g = CsrGraph::from_edges(3, [psh_graph::Edge::new(0, 1, 7)]);
        let run = OracleBuilder::new().seed(Seed(6)).build(&g).unwrap();
        assert_eq!(run.artifact.query(0, 1).0.distance, 7.0);
        // one scan of m = 1 edges, one copy of n + m = 4 entries
        assert_eq!(run.cost, Cost::new(5, 2));
        // a weight ratio far above n³ is served like any other
        let wide = CsrGraph::from_edges(
            3,
            [
                psh_graph::Edge::new(0, 1, 1),
                psh_graph::Edge::new(1, 2, 1_000_000_000_000),
            ],
        );
        let run = OracleBuilder::new().build(&wide).unwrap();
        assert_eq!(run.artifact.query(0, 2).0.distance, 1_000_000_000_001.0);
    }

    #[test]
    fn banded_builders_refuse_distances_above_2_pow_53() {
        use psh_graph::Edge;
        let path = |w| CsrGraph::from_edges(3, [Edge::new(0, 1, w), Edge::new(1, 2, w)]);
        // 2·2⁵² = 2⁵³ itself is in range
        let (big, at_cap) = (path((1 << 52) + 1), path(1 << 52));
        let expect = Err(PshError::DistancesExceedF64 {
            n: 3,
            max_weight: (1 << 52) + 1,
        });
        let oracle = OracleBuilder::new();
        assert_eq!(oracle.build(&big).map(|_| ()), expect);
        assert!(oracle.build(&at_cap).is_ok());
        let hopsets = HopsetBuilder::weighted(0.5);
        assert_eq!(hopsets.build(&big).map(|_| ()), expect);
        assert!(hopsets.build(&at_cap).is_ok());
    }
}
