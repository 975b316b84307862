//! Tunable parameters of the framework.
//!
//! Defaults mirror the paper's experimental settings: `k = 3` assignments
//! per microtask (Section 6.1), `alpha = 1.0` (Appendix D.2), similarity
//! threshold `0.8` with topic-based similarity (Appendix D.1), `Q = 10`
//! qualification microtasks with a `0.6` rejection threshold over the first
//! five answers (Section 2.2).

use serde::{Deserialize, Serialize};

/// Parameters of the personalized-PageRank solver (Equation 4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PprConfig {
    /// Convergence tolerance on the L1 change of `p` between iterations.
    pub tolerance: f64,
    /// Hard cap on power iterations.
    pub max_iterations: usize,
    /// Entries of precomputed `p_{t_i}` vectors below this value are
    /// dropped from the linearity index (sparsification; keeps the index
    /// small on large graphs without visibly changing estimates).
    pub index_epsilon: f64,
    /// Worker threads for offline construction (linearity-index build and
    /// the pairwise similarity sweep). `0` means "use available hardware
    /// parallelism"; `1` forces the serial path. Results are bit-identical
    /// for every value — this knob trades wall-clock time only.
    pub threads: usize,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self {
            tolerance: 1e-9,
            max_iterations: 200,
            index_epsilon: 1e-6,
            threads: 0,
        }
    }
}

/// Parameters of the warm-up (qualification) component — Section 2.2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmupConfig {
    /// Number of qualification microtasks selected (`Q`, Section 6.3.1).
    pub num_qualification: usize,
    /// A worker is rejected if her average qualification accuracy falls
    /// below this threshold...
    pub reject_threshold: f64,
    /// ...once she has completed at least this many qualification tasks
    /// (the paper's "less than 3 correct out of 5" example).
    pub reject_after: usize,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        Self {
            num_qualification: 10,
            // The paper's worked example uses 0.6, but with domain-diverse
            // workers an *average* threshold that high rejects the very
            // experts iCrowd exists to exploit (a worker at 0.9 in one of
            // six domains averages ~0.47). We default to spammer level:
            // only workers bad everywhere are rejected.
            reject_threshold: 0.4,
            reject_after: 5,
        }
    }
}

/// Top-level framework configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ICrowdConfig {
    /// Assignment size `k`: workers per microtask (odd for clean majority).
    pub assignment_size: usize,
    /// Balance `alpha` in Equation (2) between graph smoothness and
    /// fidelity to observed accuracies.
    pub alpha: f64,
    /// Edges below this similarity are dropped when building the graph.
    pub similarity_threshold: f64,
    /// Optional cap on neighbors per task in the similarity graph
    /// (Figure 10's "maximal number of neighbors"); `None` = uncapped.
    pub max_neighbors: Option<usize>,
    /// Activity window in platform ticks (Section 4.1, Step 1).
    pub activity_window: u64,
    /// Assignment lease duration in ticks: an assignment not answered
    /// within this window is reclaimed — capacity returns to the worker
    /// and the task re-enters the candidate pool. `None` (the default)
    /// uses `activity_window`, matching the pre-lease abandon behaviour.
    pub lease_ticks: Option<u64>,
    /// Default accuracy assumed for a worker with no signal at all.
    pub default_accuracy: f64,
    /// Budget-saving extension (beyond the paper; related to
    /// CrowdScreen-style stopping rules): complete a microtask early once
    /// the naive-Bayes posterior of its leading answer, under the current
    /// accuracy estimates, reaches this confidence — even before `(k+1)/2`
    /// votes agree. `None` (the default and the paper's behaviour)
    /// disables it.
    pub early_stop_confidence: Option<f64>,
    /// Warm-up component settings.
    pub warmup: WarmupConfig,
    /// PPR solver settings.
    pub ppr: PprConfig,
}

impl Default for ICrowdConfig {
    fn default() -> Self {
        Self {
            assignment_size: 3,
            alpha: 1.0,
            similarity_threshold: 0.8,
            max_neighbors: None,
            activity_window: 30,
            lease_ticks: None,
            default_accuracy: 0.5,
            early_stop_confidence: None,
            warmup: WarmupConfig::default(),
            ppr: PprConfig::default(),
        }
    }
}

impl ICrowdConfig {
    /// Validates parameter ranges.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::InvalidConfig`] describing the first
    /// violated constraint.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        fn bad(msg: &str) -> Result<(), crate::CoreError> {
            Err(crate::CoreError::InvalidConfig {
                reason: msg.to_owned(),
            })
        }
        if self.assignment_size == 0 {
            return bad("assignment_size must be at least 1");
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return bad("alpha must be positive and finite");
        }
        if !(0.0..=1.0).contains(&self.similarity_threshold) {
            return bad("similarity_threshold must lie in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.default_accuracy) {
            return bad("default_accuracy must lie in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.warmup.reject_threshold) {
            return bad("warmup.reject_threshold must lie in [0, 1]");
        }
        if self.ppr.tolerance <= 0.0 {
            return bad("ppr.tolerance must be positive");
        }
        if self.ppr.max_iterations == 0 {
            return bad("ppr.max_iterations must be at least 1");
        }
        if self.ppr.index_epsilon < 0.0 {
            return bad("ppr.index_epsilon must be non-negative");
        }
        if self.max_neighbors == Some(0) {
            return bad("max_neighbors, when set, must be at least 1");
        }
        if self.lease_ticks == Some(0) {
            return bad("lease_ticks, when set, must be at least 1");
        }
        if let Some(c) = self.early_stop_confidence {
            if !(c > 0.5 && c <= 1.0) {
                return bad("early_stop_confidence must lie in (0.5, 1]");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = ICrowdConfig::default();
        assert_eq!(c.assignment_size, 3);
        assert_eq!(c.alpha, 1.0);
        assert_eq!(c.similarity_threshold, 0.8);
        assert_eq!(c.warmup.num_qualification, 10);
        // Spammer-level rejection default (see WarmupConfig::default docs
        // for why the paper's illustrative 0.6 is not the default here).
        assert_eq!(c.warmup.reject_threshold, 0.4);
        c.validate().expect("defaults must validate");
    }

    #[test]
    fn validation_catches_bad_values() {
        let base = ICrowdConfig::default();
        let cases: Vec<ICrowdConfig> = vec![
            ICrowdConfig {
                assignment_size: 0,
                ..base.clone()
            },
            ICrowdConfig {
                alpha: 0.0,
                ..base.clone()
            },
            ICrowdConfig {
                alpha: f64::NAN,
                ..base.clone()
            },
            ICrowdConfig {
                similarity_threshold: 1.5,
                ..base.clone()
            },
            ICrowdConfig {
                default_accuracy: -0.1,
                ..base.clone()
            },
            ICrowdConfig {
                max_neighbors: Some(0),
                ..base.clone()
            },
            ICrowdConfig {
                lease_ticks: Some(0),
                ..base.clone()
            },
            ICrowdConfig {
                early_stop_confidence: Some(0.3),
                ..base.clone()
            },
            ICrowdConfig {
                early_stop_confidence: Some(1.5),
                ..base.clone()
            },
            ICrowdConfig {
                ppr: PprConfig {
                    tolerance: 0.0,
                    ..base.ppr
                },
                ..base.clone()
            },
            ICrowdConfig {
                ppr: PprConfig {
                    max_iterations: 0,
                    ..base.ppr
                },
                ..base.clone()
            },
        ];
        for c in cases {
            assert!(c.validate().is_err(), "should reject {c:?}");
        }
    }
}
