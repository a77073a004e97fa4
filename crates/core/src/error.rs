//! The workspace-wide typed error for spanner/hopset/oracle construction.
//!
//! Every builder in [`crate::api`] returns `Result<Run<A>, PshError>`
//! instead of panicking: invalid parameters, precondition violations
//! (unit-weight requirements, connectivity requirements), and weight-range
//! violations all surface as values a service can handle.

use psh_cluster::ClusterError;
use std::fmt;

/// Why a spanner, hopset, or oracle could not be built.
#[derive(Clone, Debug, PartialEq)]
pub enum PshError {
    /// The underlying clustering rejected its parameters.
    Cluster(ClusterError),
    /// The stretch parameter `k` must satisfy `k ≥ 1` (Theorem 1.1).
    InvalidStretch { k: f64 },
    /// An explicit `β` override must be positive and finite.
    InvalidBetaOverride { beta: f64 },
    /// The chosen algorithm requires unit weights (Algorithm 2 / the
    /// unweighted oracle path); route weighted graphs to the weighted
    /// variant.
    RequiresUnitWeights { algorithm: &'static str },
    /// Hopset parameters violate the constraints of Theorem 4.4
    /// (`ε ∈ (0,1)`, `δ > 1`, `0 < γ₁ < γ₂ < 1`, `k_conf ≥ 1`).
    InvalidHopsetParams { reason: String },
    /// The band exponent `η` of §5 / Appendix C must lie in `(0, 1)`.
    InvalidEta { eta: f64 },
    /// The hop-target exponent `α` of Appendix C must lie in `(0, 1)`.
    InvalidAlpha { alpha: f64 },
    /// The well-separated variant needs explicit weight levels.
    MissingLevels,
    /// A builder setting was supplied that the selected variant never
    /// reads (e.g. `beta_override` on the weighted spanner) — reported
    /// instead of silently ignoring the configuration.
    SettingNotApplicable {
        setting: &'static str,
        kind: &'static str,
    },
    /// The input graph must be connected for this run
    /// (`require_connected(true)` was set) but has `components` pieces.
    Disconnected { components: usize },
    /// A shortest path can weigh more than 2⁵³: `(n − 1)·w_max` exceeds
    /// the range in which an `f64` distance and §5's rounding `⌈w/ŵ⌉`
    /// are exact. The oracle and `HopsetBuilder::weighted` refuse such
    /// graphs.
    DistancesExceedF64 { n: usize, max_weight: u64 },
}

impl fmt::Display for PshError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PshError::Cluster(e) => write!(f, "{e}"),
            PshError::InvalidStretch { k } => {
                write!(f, "stretch parameter k must be >= 1, got {k}")
            }
            PshError::InvalidBetaOverride { beta } => {
                write!(f, "beta override must be positive and finite, got {beta}")
            }
            PshError::RequiresUnitWeights { algorithm } => {
                write!(
                    f,
                    "{algorithm} requires unit weights; use the weighted variant"
                )
            }
            PshError::InvalidHopsetParams { reason } => {
                write!(f, "invalid hopset parameters: {reason}")
            }
            PshError::InvalidEta { eta } => {
                write!(f, "eta must be in (0,1), got {eta}")
            }
            PshError::InvalidAlpha { alpha } => {
                write!(f, "need 0 < alpha < 1, got {alpha}")
            }
            PshError::MissingLevels => {
                write!(f, "well-separated spanner needs explicit weight levels")
            }
            PshError::SettingNotApplicable { setting, kind } => {
                write!(f, "{setting} has no effect on the {kind} variant")
            }
            PshError::Disconnected { components } => {
                write!(
                    f,
                    "input graph must be connected, found {components} components"
                )
            }
            PshError::DistancesExceedF64 { n, max_weight } => {
                write!(
                    f,
                    "distances up to (n - 1)·w_max = {}·{max_weight} exceed 2^53, \
                     past which f64 distances are not exact; scale the weights down",
                    n.saturating_sub(1)
                )
            }
        }
    }
}

impl std::error::Error for PshError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PshError::Cluster(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ClusterError> for PshError {
    fn from(e: ClusterError) -> Self {
        PshError::Cluster(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_panic_substrings() {
        // test shims that unwrap a builder's error panic with its
        // Display; should_panic tests match on these substrings
        let e = PshError::RequiresUnitWeights {
            algorithm: "unweighted_spanner",
        };
        assert!(e.to_string().contains("requires unit weights"));
        let e = PshError::InvalidStretch { k: 0.0 };
        assert!(e.to_string().contains("must be >= 1"));
    }

    #[test]
    fn cluster_errors_convert_and_chain() {
        let e: PshError = ClusterError::InvalidBeta { beta: -1.0 }.into();
        assert!(matches!(e, PshError::Cluster(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
