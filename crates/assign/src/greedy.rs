//! The greedy assignment algorithm — Algorithm 3 of the paper.
//!
//! Optimal microtask assignment (Definition 4: pick disjoint top-worker
//! sets maximizing summed accuracy) is NP-hard by reduction from k-set
//! packing (Lemma 4, Appendix B). Algorithm 3 approximates it greedily:
//! repeatedly commit the candidate with the highest *average* worker
//! accuracy, then discard every candidate sharing a worker with it.
//!
//! The implementation sorts candidates by score once and walks the sorted
//! order with a used-worker set — semantically identical to the paper's
//! repeated-maximum loop (scores never change between iterations) at
//! `O(|T| log |T| + Σ|Ŵ(t)|)` instead of `O(|T|^2)`.

use std::collections::HashSet;

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

use crate::top_workers::{PackedSet, PackedSets, TopWorkerSet};

/// One committed assignment: a task and the workers it goes to.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The microtask.
    pub task: TaskId,
    /// Workers receiving the task, highest estimated accuracy first.
    pub workers: Vec<(WorkerId, f64)>,
}

impl Assignment {
    /// Summed estimated accuracy (the Definition-4 objective term).
    pub fn total_accuracy(&self) -> f64 {
        self.workers.iter().map(|&(_, p)| p).sum()
    }

    /// The worker ids in rank order.
    pub fn worker_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.workers.iter().map(|&(w, _)| w)
    }
}

/// Algorithm 3: greedy disjoint assignment.
///
/// Candidates with empty worker sets are ignored. Ties on average
/// accuracy break toward the smaller task id, keeping runs deterministic.
///
/// ```
/// use icrowd_assign::{greedy_assign, top_worker_set};
/// use icrowd_core::{TaskId, WorkerId};
///
/// let sets = vec![
///     top_worker_set(TaskId(0), vec![(WorkerId(0), 0.9), (WorkerId(1), 0.8)], 2),
///     top_worker_set(TaskId(1), vec![(WorkerId(1), 0.95)], 1), // conflicts on w1
///     top_worker_set(TaskId(2), vec![(WorkerId(2), 0.6)], 1),
/// ];
/// let scheme = greedy_assign(&sets);
/// // t1 wins first (avg 0.95), knocking out t0; t2 is disjoint.
/// let tasks: Vec<_> = scheme.iter().map(|a| a.task).collect();
/// assert_eq!(tasks, vec![TaskId(1), TaskId(2)]);
/// ```
pub fn greedy_assign(candidates: &[TopWorkerSet]) -> Vec<Assignment> {
    let mut order: Vec<&TopWorkerSet> = candidates
        .iter()
        .filter(|c| !c.workers.is_empty())
        .collect();
    order.sort_by(|a, b| {
        b.average_accuracy()
            .total_cmp(&a.average_accuracy())
            .then(a.task.cmp(&b.task))
    });

    let mut used: HashSet<WorkerId> = HashSet::new();
    let mut out = Vec::new();
    for cand in order {
        if cand.workers.iter().any(|(w, _)| used.contains(w)) {
            continue;
        }
        used.extend(cand.workers.iter().map(|&(w, _)| w));
        out.push(Assignment {
            task: cand.task,
            workers: cand.workers.clone(),
        });
    }
    out
}

/// Algorithm 3 run only as far as one requester needs: the index of the
/// set in `sets` that wins the greedy packing *and* contains
/// `requester`, or `None` when no winning set contains her. Same result
/// as `greedy_assign(..).iter().find(|a| a contains requester)`, since
/// only the requester's own assignment is executed per request.
///
/// This is the paper's repeated-maximum loop over the precomputed
/// `(average, task)` keys: each pass takes the best set (average
/// descending by `total_cmp`, then task id, then insertion order)
/// disjoint from a small used-worker list. Every set ranked above it
/// already conflicted with a committed set, so it is exactly the set
/// the sorted walk of [`greedy_assign`] commits next. The loop stops as
/// soon as that set contains the requester, or once no set disjoint
/// from the used workers contains her. Each pass commits at least one
/// new worker, so there are at most as many passes as active workers —
/// on a typical request one or two — and winning sets are never cloned
/// or sorted.
pub fn greedy_winner_for(sets: &PackedSets, requester: WorkerId) -> Option<usize> {
    let mut used: Vec<WorkerId> = Vec::new();
    loop {
        let mut best: Option<PackedSet<'_>> = None;
        let mut best_index = 0;
        let mut requester_free = false;
        for (i, set) in sets.iter().enumerate() {
            if set.workers.iter().any(|(w, _)| used.contains(w)) {
                continue;
            }
            requester_free |= set.workers.iter().any(|&(w, _)| w == requester);
            let ahead = best.is_none_or(|b| {
                set.average
                    .total_cmp(&b.average)
                    .then(b.task.cmp(&set.task))
                    .is_gt()
            });
            if ahead {
                best = Some(set);
                best_index = i;
            }
        }
        let best = best.filter(|_| requester_free)?;
        if best.workers.iter().any(|&(w, _)| w == requester) {
            return Some(best_index);
        }
        used.extend(best.workers.iter().map(|&(w, _)| w));
    }
}

/// The total objective value of an assignment scheme (Definition 4).
pub fn scheme_objective(scheme: &[Assignment]) -> f64 {
    scheme.iter().map(Assignment::total_accuracy).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top_workers::top_worker_set;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    /// The paper's Table 3 worked example: greedy picks t11 first
    /// (highest average 0.825), discarding t4 and t10, then picks t9.
    #[test]
    fn reproduces_table3_walkthrough() {
        let candidates = vec![
            top_worker_set(t(3), vec![(w(4), 0.75), (w(3), 0.7), (w(0), 0.6)], 3), // t4
            top_worker_set(t(10), vec![(w(4), 0.85), (w(2), 0.8)], 2),             // t11
            top_worker_set(t(8), vec![(w(3), 0.85), (w(1), 0.75), (w(0), 0.7)], 3), // t9
            top_worker_set(t(9), vec![(w(2), 0.7), (w(0), 0.6)], 2),               // t10
        ];
        let scheme = greedy_assign(&candidates);
        assert_eq!(scheme.len(), 2);
        assert_eq!(scheme[0].task, t(10), "t11 wins the first iteration");
        assert_eq!(scheme[0].worker_ids().collect::<Vec<_>>(), vec![w(4), w(2)]);
        assert_eq!(scheme[1].task, t(8), "t9 wins the second iteration");
        // Objective: (0.85 + 0.8) + (0.85 + 0.75 + 0.7).
        assert!((scheme_objective(&scheme) - 3.95).abs() < 1e-12);
    }

    #[test]
    fn worker_disjointness_always_holds() {
        let candidates = vec![
            top_worker_set(t(0), vec![(w(0), 0.9), (w(1), 0.9)], 2),
            top_worker_set(t(1), vec![(w(1), 0.95), (w(2), 0.9)], 2),
            top_worker_set(t(2), vec![(w(3), 0.5)], 1),
        ];
        let scheme = greedy_assign(&candidates);
        let mut seen = HashSet::new();
        for a in &scheme {
            for wid in a.worker_ids() {
                assert!(seen.insert(wid), "worker {wid} assigned twice");
            }
        }
        // t1 has the highest average (0.925) → wins; t0 conflicts on w1.
        assert!(scheme.iter().any(|a| a.task == t(1)));
        assert!(!scheme.iter().any(|a| a.task == t(0)));
        assert!(scheme.iter().any(|a| a.task == t(2)));
    }

    #[test]
    fn empty_candidates_and_empty_sets() {
        assert!(greedy_assign(&[]).is_empty());
        let only_empty = vec![top_worker_set(t(0), vec![], 3)];
        assert!(greedy_assign(&only_empty).is_empty());
    }

    #[test]
    fn ties_break_deterministically_by_task_id() {
        let candidates = vec![
            top_worker_set(t(5), vec![(w(0), 0.8)], 1),
            top_worker_set(t(2), vec![(w(0), 0.8)], 1),
        ];
        let scheme = greedy_assign(&candidates);
        assert_eq!(scheme.len(), 1);
        assert_eq!(scheme[0].task, t(2), "lower task id wins ties");
    }

    #[test]
    fn average_not_total_drives_selection() {
        // A 1-worker set with avg 0.9 must beat a 3-worker set with total
        // 2.4 (avg 0.8) when they conflict.
        let candidates = vec![
            top_worker_set(t(0), vec![(w(0), 0.9)], 1),
            top_worker_set(t(1), vec![(w(0), 0.8), (w(1), 0.8), (w(2), 0.8)], 3),
        ];
        let scheme = greedy_assign(&candidates);
        assert_eq!(scheme[0].task, t(0));
        // The other candidate conflicts on w0 and is dropped entirely.
        assert_eq!(scheme.len(), 1);
    }
}
