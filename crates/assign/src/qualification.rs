//! Qualification microtask selection — Section 5 of the paper.
//!
//! The requester can only hand-label a small number `Q` of qualification
//! microtasks, so iCrowd chooses the subset with the maximum *influence*:
//! `INF(T^q)` counts the tasks receiving non-zero estimated accuracy when
//! the worker answers exactly the qualification set (Definition 5) — i.e.
//! the size of the union of the supports of the precomputed PPR vectors
//! `p_{t_i}`. Maximizing coverage is NP-hard (Lemma 5, reduction from
//! maximum coverage); the greedy algorithm (Algorithm 4) achieves the
//! classic `1 − 1/e` ratio. We implement it with CELF lazy evaluation:
//! marginal coverage is submodular, so stale heap entries only ever
//! overestimate and can be re-evaluated on demand instead of rescoring
//! every task each round.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use icrowd_core::task::TaskId;
use icrowd_graph::LinearityIndex;
use rand::Rng;

/// Greedy influence-maximizing qualification selection (`InfQF`,
/// Algorithm 4).
///
/// Returns exactly `min(q, |T|)` task ids in selection order. Once
/// coverage saturates (no remaining task adds influence), the remaining
/// slots are filled with unselected tasks in id order so the requester
/// still gets the `Q` qualification tasks she asked for (the warm-up
/// rejection rule needs enough of them to be meaningful).
pub fn select_qualification_influence(index: &LinearityIndex, q: usize) -> Vec<TaskId> {
    let n = index.num_tasks();
    let n32 = u32::try_from(n).expect("task count fits in u32");
    let mut covered = vec![false; n];
    let mut selected = Vec::with_capacity(q.min(n));

    // CELF heap: (optimistic marginal gain, round it was computed in, task).
    #[derive(PartialEq)]
    struct Entry {
        gain: usize,
        round: usize,
        task: u32,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .cmp(&other.gain)
                .then(Reverse(self.task).cmp(&Reverse(other.task)))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let marginal = |task: u32, covered: &[bool]| -> usize {
        index
            .vector(TaskId(task))
            .support()
            .filter(|&i| !covered[i as usize])
            .count()
    };

    let mut heap: BinaryHeap<Entry> = (0..n32)
        .map(|task| Entry {
            gain: marginal(task, &covered),
            round: 0,
            task,
        })
        .collect();

    let target = q.min(n);
    'rounds: for round in 1..=target {
        let chosen = loop {
            let Some(top) = heap.pop() else {
                break 'rounds;
            };
            if top.gain == 0 {
                // Submodularity: nothing gains anything anymore.
                break 'rounds;
            }
            if top.round == round {
                break top;
            }
            // Stale optimistic bound: recompute and push back.
            let fresh = marginal(top.task, &covered);
            heap.push(Entry {
                gain: fresh,
                round,
                task: top.task,
            });
        };
        for i in index.vector(TaskId(chosen.task)).support() {
            covered[i as usize] = true;
        }
        selected.push(TaskId(chosen.task));
    }
    // Coverage saturated early: top up with unselected tasks in id order.
    if selected.len() < target {
        let chosen: std::collections::HashSet<u32> = selected.iter().map(|t| t.0).collect();
        for i in 0..n32 {
            if selected.len() == target {
                break;
            }
            if !chosen.contains(&i) {
                selected.push(TaskId(i));
            }
        }
    }
    selected
}

/// Random qualification selection (`RandomQF`): `q` distinct tasks drawn
/// uniformly, in draw order.
pub fn select_qualification_random<R: Rng>(num_tasks: usize, q: usize, rng: &mut R) -> Vec<TaskId> {
    let n32 = u32::try_from(num_tasks).expect("task count fits in u32");
    let mut ids: Vec<u32> = (0..n32).collect();
    let take = q.min(num_tasks);
    for i in 0..take {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids[..take].iter().map(|&i| TaskId(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::config::PprConfig;
    use icrowd_graph::SimilarityGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    /// Three disjoint cliques of sizes 4, 3 and 2 plus one isolated task.
    fn clustered_index() -> LinearityIndex {
        let edges = vec![
            // Clique A: 0-3.
            (t(0), t(1), 0.9),
            (t(0), t(2), 0.9),
            (t(0), t(3), 0.9),
            (t(1), t(2), 0.9),
            (t(1), t(3), 0.9),
            (t(2), t(3), 0.9),
            // Clique B: 4-6.
            (t(4), t(5), 0.9),
            (t(4), t(6), 0.9),
            (t(5), t(6), 0.9),
            // Pair C: 7-8. Task 9 isolated.
            (t(7), t(8), 0.9),
        ];
        let g = SimilarityGraph::from_edges(10, &edges);
        LinearityIndex::build(&g, 1.0, &PprConfig::default())
    }

    #[test]
    fn greedy_picks_one_task_per_cluster_first() {
        let idx = clustered_index();
        let sel = select_qualification_influence(&idx, 3);
        assert_eq!(sel.len(), 3);
        // First pick covers the biggest clique (A: 4 tasks), second the
        // next (B: 3), third the pair (C: 2).
        assert!(
            sel[0].index() <= 3,
            "first pick from clique A, got {:?}",
            sel
        );
        assert!(
            (4..=6).contains(&sel[1].index()),
            "second from B: {:?}",
            sel
        );
        assert!((7..=8).contains(&sel[2].index()), "third from C: {:?}", sel);
        // Together they influence all but the isolated task... the isolated
        // task influences only itself, and is not selected yet.
        assert_eq!(idx.influence(&sel), 9);
    }

    #[test]
    fn greedy_is_monotone_in_q() {
        let idx = clustered_index();
        let small = select_qualification_influence(&idx, 2);
        let large = select_qualification_influence(&idx, 4);
        assert_eq!(&large[..2], &small[..], "greedy choices are a prefix chain");
        assert!(idx.influence(&large) >= idx.influence(&small));
    }

    #[test]
    fn saturated_coverage_fills_to_q_deterministically() {
        let idx = clustered_index();
        // After 4 picks (one per cluster + the isolated task) everything
        // is covered; the remaining slots fill with unselected ids in
        // order so the requester still gets Q tasks.
        let sel = select_qualification_influence(&idx, 7);
        assert_eq!(sel.len(), 7);
        assert_eq!(idx.influence(&sel[..4]), 10, "first 4 cover everything");
        let mut dedup = sel.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 7, "no duplicates in the fill");
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instance() {
        let idx = clustered_index();
        let greedy_sel = select_qualification_influence(&idx, 2);
        let greedy_inf = idx.influence(&greedy_sel);
        // Exhaustive best over all pairs.
        let mut best = 0;
        for a in 0..10u32 {
            for b in (a + 1)..10u32 {
                best = best.max(idx.influence(&[t(a), t(b)]));
            }
        }
        // Coverage is a matroid-free max-coverage instance where greedy is
        // optimal when clusters are disjoint.
        assert_eq!(greedy_inf, best);
    }

    #[test]
    fn random_selection_is_distinct_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let sel = select_qualification_random(10, 5, &mut rng);
        assert_eq!(sel.len(), 5);
        let mut dedup = sel.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 5, "selections must be distinct");
        // Deterministic given the seed.
        let mut rng2 = StdRng::seed_from_u64(7);
        assert_eq!(select_qualification_random(10, 5, &mut rng2), sel);
        // q larger than n truncates.
        let mut rng3 = StdRng::seed_from_u64(7);
        assert_eq!(select_qualification_random(3, 10, &mut rng3).len(), 3);
    }
}
