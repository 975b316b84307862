//! Property tests holding the framework's per-request assignment kernel
//! to its reference implementations: the bounded top-`remaining`
//! insertion ([`offer_top_worker`]) against [`top_worker_set`]'s
//! sort-and-truncate, and the requester-stop packing
//! ([`greedy_winner_for`]) against the full [`greedy_assign`] scheme.

use icrowd_assign::{
    greedy_assign, greedy_winner_for, offer_top_worker, top_worker_set, PackedSets, TopWorkerSet,
};
use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use proptest::prelude::*;

/// Scores drawn mostly from a small palette so ties — within a task and
/// across workers — are common, with both NaN signs and both zeros.
fn score(choice: usize, x: f64) -> f64 {
    const PALETTE: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 0.0, -0.0, f64::NAN, -f64::NAN];
    PALETTE.get(choice).copied().unwrap_or(x)
}

/// Eligible `(worker, score)` lists with distinct worker ids, as the
/// framework offers them (active-list order, not id order).
fn eligible(raw: &[(u32, usize, f64)]) -> Vec<(WorkerId, f64)> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for &(w, c, x) in raw {
        if !seen.contains(&w) {
            seen.push(w);
            out.push((WorkerId(w), score(c, x)));
        }
    }
    out
}

fn bits(workers: &[(WorkerId, f64)]) -> Vec<(u32, u64)> {
    workers.iter().map(|&(w, s)| (w.0, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_sort_truncate_and_full_greedy(
        family in proptest::collection::vec(
            (
                0u32..16,
                1usize..=5,
                proptest::collection::vec((0u32..10, 0usize..12, 0.0f64..1.0), 0..10),
            ),
            0..12,
        ),
        requester in 0u32..10,
    ) {
        let mut oracle: Vec<TopWorkerSet> = Vec::new();
        let mut packed = PackedSets::default();
        let mut top = Vec::new();
        for (task, remaining, raw) in &family {
            let list = eligible(raw);
            let want = top_worker_set(TaskId(*task), list.iter().copied(), *remaining);
            top.clear();
            for &entry in &list {
                offer_top_worker(&mut top, entry, *remaining);
            }
            prop_assert_eq!(bits(&top), bits(&want.workers));
            prop_assert!(top.len() <= *remaining);
            packed.push(want.task, &top);
            oracle.push(want);
        }

        let requester = WorkerId(requester);
        let want = greedy_assign(&oracle)
            .into_iter()
            .find(|a| a.worker_ids().any(|w| w == requester))
            .map(|a| (a.task, bits(&a.workers)));
        let got = greedy_winner_for(&packed, requester).map(|i| {
            let set = packed.get(i);
            (set.task, bits(set.workers))
        });
        prop_assert_eq!(got, want);
        for (set, full) in packed.iter().zip(oracle.iter().filter(|s| !s.workers.is_empty())) {
            prop_assert_eq!(set.average.to_bits(), full.average_accuracy().to_bits());
        }
    }
}
