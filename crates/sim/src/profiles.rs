//! Worker accuracy profiles — the Figure 6 diversity regime.
//!
//! Figure 6's headline observation: individual workers are *diverse*
//! across domains (strong where they have background knowledge, at or
//! below chance elsewhere), and the top worker differs per domain. The
//! paper's text pins several concrete values, reproduced verbatim here as
//! *anchor* workers; the remaining population is drawn from the same
//! regime with a seeded RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A worker's name and per-domain accuracy vector.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// AMT-style worker name.
    pub name: String,
    /// Accuracy per domain index.
    pub domain_accuracy: Vec<f64>,
}

impl WorkerProfile {
    /// Mean accuracy across domains (what AvgAccPV effectively sees).
    pub fn average_accuracy(&self) -> f64 {
        self.domain_accuracy.iter().sum::<f64>() / self.domain_accuracy.len() as f64
    }
}

/// Anchor workers for YahooQA (Figure 6a): domains are ordered
/// [FIFA, Books&Authors, Diet&Fitness, HomeSchooling, Hunting, Philosophy].
///
/// `A2YEBGPVQ41ESM`'s row reproduces the values quoted in Section 6.2:
/// BA 0.875, PH 0.70, DF 0.35, HS 0.30, HT 0.231, FF 0.176.
pub fn yahooqa_anchors() -> Vec<WorkerProfile> {
    vec![
        WorkerProfile {
            name: "A2YEBGPVQ41ESM".into(),
            domain_accuracy: vec![0.176, 0.875, 0.35, 0.30, 0.231, 0.70],
        },
        // Quoted in Section 6.3.1 as a worker with limited FIFA accuracy
        // that InfQF eliminates early.
        WorkerProfile {
            name: "A1H8Y5D04A7T5E".into(),
            domain_accuracy: vec![0.25, 0.55, 0.60, 0.45, 0.40, 0.50],
        },
    ]
}

/// Anchor workers for ItemCompare (Figure 6b): domains are ordered
/// [Food, NBA, Auto, Country].
///
/// Section 6.2: `A2V99E4YEP14RI` is the best Country worker (0.95) but
/// low-ranked in NBA (0.52); `A3JOGMTOAUEFUP` is the best NBA worker.
/// Section 6.4: the best Auto worker only reaches 0.76 while the other
/// domains' best workers exceed 0.9 — the generator preserves that cap.
pub fn item_compare_anchors() -> Vec<WorkerProfile> {
    vec![
        WorkerProfile {
            name: "A2V99E4YEP14RI".into(),
            domain_accuracy: vec![0.61, 0.52, 0.55, 0.95],
        },
        WorkerProfile {
            name: "A3JOGMTOAUEFUP".into(),
            domain_accuracy: vec![0.55, 0.92, 0.50, 0.63],
        },
        // The best Auto worker in the population (capped at 0.76).
        WorkerProfile {
            name: "A1AUTOBEST4XQZ".into(),
            domain_accuracy: vec![0.58, 0.49, 0.76, 0.60],
        },
    ]
}

/// Caps applied per domain when generating random profiles (`None` =
/// uncapped). ItemCompare's Auto domain is capped at 0.76 per the paper.
#[derive(Debug, Clone)]
pub struct DiversityRegime {
    /// Number of domains.
    pub num_domains: usize,
    /// Expert-domain accuracy range.
    pub expert_range: (f64, f64),
    /// Non-expert accuracy range.
    pub weak_range: (f64, f64),
    /// Per-domain accuracy cap.
    pub caps: Vec<Option<f64>>,
    /// Fraction of "mediocre" workers with flat, middling accuracy.
    pub mediocre_fraction: f64,
}

impl DiversityRegime {
    /// The default regime matching Figure 6's spread.
    pub fn new(num_domains: usize) -> Self {
        Self {
            num_domains,
            expert_range: (0.72, 0.95),
            weak_range: (0.20, 0.60),
            caps: vec![None; num_domains],
            mediocre_fraction: 0.2,
        }
    }

    /// Caps a domain's accuracy (e.g. Auto at 0.76).
    pub fn with_cap(mut self, domain: usize, cap: f64) -> Self {
        self.caps[domain] = Some(cap);
        self
    }
}

/// Generates `count` random profiles in the regime, named `AWKR...`
/// AMT-style, deterministically from `seed`.
pub fn generate_profiles(regime: &DiversityRegime, count: usize, seed: u64) -> Vec<WorkerProfile> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let name = format!("AWKR{:010X}", rng.gen::<u32>() as u64 | ((i as u64) << 32));
        let mediocre = rng.gen_bool(regime.mediocre_fraction);
        let mut accs = Vec::with_capacity(regime.num_domains);
        if mediocre {
            for d in 0..regime.num_domains {
                let mut a: f64 = rng.gen_range(0.45..0.65);
                if let Some(cap) = regime.caps[d] {
                    a = a.min(cap);
                }
                accs.push(a);
            }
        } else {
            // One or two expert domains, weak elsewhere.
            let first = rng.gen_range(0..regime.num_domains);
            let second = if regime.num_domains > 1 && rng.gen_bool(0.35) {
                let mut s = rng.gen_range(0..regime.num_domains);
                while s == first {
                    s = rng.gen_range(0..regime.num_domains);
                }
                Some(s)
            } else {
                None
            };
            for d in 0..regime.num_domains {
                let expert = d == first || Some(d) == second;
                let (lo, hi) = if expert {
                    regime.expert_range
                } else {
                    regime.weak_range
                };
                let mut a = rng.gen_range(lo..hi);
                if let Some(cap) = regime.caps[d] {
                    a = a.min(cap);
                }
                accs.push(a);
            }
        }
        out.push(WorkerProfile {
            name,
            domain_accuracy: accs,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_quoted_paper_values() {
        let y = yahooqa_anchors();
        let a = &y[0];
        assert_eq!(a.name, "A2YEBGPVQ41ESM");
        assert_eq!(a.domain_accuracy[1], 0.875, "Books&Authors");
        assert_eq!(a.domain_accuracy[5], 0.70, "Philosophy");
        assert_eq!(a.domain_accuracy[0], 0.176, "FIFA");

        let ic = item_compare_anchors();
        assert_eq!(ic[0].domain_accuracy[3], 0.95, "Country expert");
        assert_eq!(ic[0].domain_accuracy[1], 0.52, "low-ranked in NBA");
        assert!(ic[2].domain_accuracy[2] <= 0.76, "Auto cap");
    }

    #[test]
    fn generated_profiles_are_diverse_and_deterministic() {
        let regime = DiversityRegime::new(4);
        let a = generate_profiles(&regime, 50, 9);
        let b = generate_profiles(&regime, 50, 9);
        assert_eq!(a, b, "same seed, same population");
        assert_eq!(a.len(), 50);
        // Most workers have a clear best domain well above their worst.
        let diverse = a
            .iter()
            .filter(|p| {
                let max = p
                    .domain_accuracy
                    .iter()
                    .cloned()
                    .fold(f64::NEG_INFINITY, f64::max);
                let min = p
                    .domain_accuracy
                    .iter()
                    .cloned()
                    .fold(f64::INFINITY, f64::min);
                max - min > 0.2
            })
            .count();
        assert!(diverse > 25, "only {diverse}/50 workers look diverse");
        // All accuracies are probabilities.
        for p in &a {
            assert_eq!(p.domain_accuracy.len(), 4);
            for &acc in &p.domain_accuracy {
                assert!((0.0..=1.0).contains(&acc));
            }
        }
    }

    #[test]
    fn caps_are_enforced() {
        let regime = DiversityRegime::new(4).with_cap(2, 0.76);
        let profiles = generate_profiles(&regime, 200, 123);
        for p in &profiles {
            assert!(p.domain_accuracy[2] <= 0.76);
        }
        // Other domains still produce experts above the cap sometimes.
        assert!(profiles.iter().any(|p| p.domain_accuracy[0] > 0.85));
    }

    #[test]
    fn average_accuracy_is_the_mean() {
        let p = WorkerProfile {
            name: "X".into(),
            domain_accuracy: vec![0.2, 0.8],
        };
        assert!((p.average_accuracy() - 0.5).abs() < 1e-12);
    }
}
