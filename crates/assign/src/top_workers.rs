//! Top worker sets — Definition 3 of the paper.
//!
//! For an uncompleted microtask `t` with assigned workers `W^d(t)` (those
//! who completed it or are currently working on it), the *top worker set*
//! is the `k' = k − |W^d(t)|` eligible active workers with the highest
//! estimated accuracies `p_t^w`.

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;
use icrowd_estimate::AccuracyEstimator;

/// The top worker set of one microtask.
#[derive(Debug, Clone, PartialEq)]
pub struct TopWorkerSet {
    /// The microtask.
    pub task: TaskId,
    /// Top workers with their estimated accuracies, highest first.
    /// Contains at most `k'` entries — fewer when not enough active
    /// workers are eligible.
    pub workers: Vec<(WorkerId, f64)>,
    /// The remaining capacity `k'` (how many workers the task still
    /// needs).
    pub remaining: usize,
}

impl TopWorkerSet {
    /// Mean estimated accuracy of the set — Algorithm 3's selection
    /// score. Zero for an empty set.
    pub fn average_accuracy(&self) -> f64 {
        mean_accuracy(&self.workers)
    }

    /// Summed estimated accuracy — the objective contribution in
    /// Definition 4.
    pub fn total_accuracy(&self) -> f64 {
        self.workers.iter().map(|&(_, p)| p).sum()
    }

    /// Whether the set holds enough workers to globally complete the
    /// task in one round (`|workers| == remaining`).
    pub fn is_full(&self) -> bool {
        !self.workers.is_empty() && self.workers.len() == self.remaining
    }

    /// The worker ids, highest accuracy first.
    pub fn worker_ids(&self) -> impl Iterator<Item = WorkerId> + '_ {
        self.workers.iter().map(|&(w, _)| w)
    }
}

/// Computes the top worker set of one task.
///
/// `eligible` are the active workers the task can still be assigned to
/// (`W^u(t)`, i.e. active workers minus `W^d(t)`), paired with their
/// estimated accuracies on this task. `remaining` is `k'`.
///
/// Workers are ranked by accuracy descending with worker-id ascending as
/// the deterministic tie-break.
pub fn top_worker_set(
    task: TaskId,
    eligible: impl IntoIterator<Item = (WorkerId, f64)>,
    remaining: usize,
) -> TopWorkerSet {
    let mut workers: Vec<(WorkerId, f64)> = eligible.into_iter().collect();
    workers.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    workers.truncate(remaining);
    TopWorkerSet {
        task,
        workers,
        remaining,
    }
}

/// Computes top worker sets for every uncompleted task (Algorithm 2,
/// Step 1).
///
/// * `uncompleted` — the tasks in `T − T^d` that still have capacity.
/// * `active` — the currently active workers.
/// * `assigned` — `W^d(t)`: returns the workers already assigned to a
///   task (completed it or holding it in flight).
/// * `k` — the assignment size.
///
/// Tasks whose remaining capacity is zero, or with no eligible worker,
/// yield sets with empty `workers` and are filtered out.
pub fn top_worker_sets(
    estimator: &mut AccuracyEstimator,
    uncompleted: &[TaskId],
    active: &[WorkerId],
    mut assigned: impl FnMut(TaskId) -> Vec<WorkerId>,
    k: usize,
) -> Vec<TopWorkerSet> {
    // Pre-warm per-worker accuracy caches once (each call borrows &mut).
    for &w in active {
        estimator.accuracies(w);
    }
    let mut out = Vec::with_capacity(uncompleted.len());
    for &t in uncompleted {
        let done = assigned(t);
        let remaining = k.saturating_sub(done.len());
        if remaining == 0 {
            continue;
        }
        let eligible = active
            .iter()
            .filter(|w| !done.contains(w))
            .map(|&w| (w, estimator.accuracy_cached(w, t)));
        let set = top_worker_set(t, eligible, remaining);
        if !set.workers.is_empty() {
            out.push(set);
        }
    }
    out
}

/// Mean accuracy of a worker list, zero when empty. Shared by
/// [`TopWorkerSet::average_accuracy`] and [`PackedSets`] so both yield
/// the same bits.
fn mean_accuracy(workers: &[(WorkerId, f64)]) -> f64 {
    if workers.is_empty() {
        0.0
    } else {
        workers.iter().map(|&(_, p)| p).sum::<f64>() / workers.len() as f64
    }
}

/// Offers one eligible worker to a bounded top-`remaining` list kept in
/// [`top_worker_set`]'s order: accuracy descending under `total_cmp`,
/// worker id ascending. Once every eligible worker (distinct ids) has
/// been offered, `top` equals `top_worker_set(..).workers` bitwise,
/// without collecting, sorting and truncating the whole eligible list.
/// `top` never grows past `remaining`, so a list with that capacity
/// never reallocates.
pub fn offer_top_worker(top: &mut Vec<(WorkerId, f64)>, entry: (WorkerId, f64), remaining: usize) {
    let pos = top.partition_point(|e| {
        entry.1.total_cmp(&e.1).then(e.0.cmp(&entry.0)) == std::cmp::Ordering::Less
    });
    if pos >= remaining {
        return;
    }
    if top.len() >= remaining {
        top.pop();
    }
    top.insert(pos, entry);
}

/// A family of non-empty top worker sets packed into one member buffer:
/// the layout the framework builds on every request, two allocations
/// in all instead of one `Vec` per task. Each set's average accuracy is
/// computed once at insertion, with the same bits as
/// [`TopWorkerSet::average_accuracy`].
#[derive(Debug, Clone, Default)]
pub struct PackedSets {
    members: Vec<(WorkerId, f64)>,
    /// Per set: `(task, start, len, average)` over `members`.
    spans: Vec<(TaskId, usize, usize, f64)>,
}

/// One set of a [`PackedSets`] family.
#[derive(Debug, Clone, Copy)]
pub struct PackedSet<'a> {
    /// The microtask.
    pub task: TaskId,
    /// Top workers with their estimated accuracies, highest first.
    pub workers: &'a [(WorkerId, f64)],
    /// Mean estimated accuracy of `workers` (Algorithm 3's key).
    pub average: f64,
}

impl PackedSets {
    /// An empty family with room for `sets` sets of up to `k` workers.
    pub fn with_capacity(sets: usize, k: usize) -> Self {
        Self {
            members: Vec::with_capacity(sets * k),
            spans: Vec::with_capacity(sets),
        }
    }

    /// Appends the set of `task`; an empty `workers` list is skipped, as
    /// Algorithm 2 drops tasks with no eligible worker.
    pub fn push(&mut self, task: TaskId, workers: &[(WorkerId, f64)]) {
        if workers.is_empty() {
            return;
        }
        let start = self.members.len();
        self.members.extend_from_slice(workers);
        self.spans
            .push((task, start, workers.len(), mean_accuracy(workers)));
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the family holds no set.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th set, in insertion order.
    pub fn get(&self, i: usize) -> PackedSet<'_> {
        let (task, start, len, average) = self.spans[i];
        PackedSet {
            task,
            workers: &self.members[start..start + len],
            average,
        }
    }

    /// The sets in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = PackedSet<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::answer::Answer;
    use icrowd_core::config::ICrowdConfig;
    use icrowd_core::task::TaskId;
    use icrowd_estimate::EstimationMode;
    use icrowd_graph::SimilarityGraph;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    fn w(i: u32) -> WorkerId {
        WorkerId(i)
    }

    #[test]
    fn ranks_by_accuracy_then_id() {
        let set = top_worker_set(
            t(0),
            vec![(w(3), 0.7), (w(1), 0.9), (w(2), 0.7), (w(0), 0.2)],
            3,
        );
        assert_eq!(
            set.workers,
            vec![(w(1), 0.9), (w(2), 0.7), (w(3), 0.7)],
            "ties break toward the smaller worker id"
        );
        assert!((set.average_accuracy() - (0.9 + 0.7 + 0.7) / 3.0).abs() < 1e-12);
        assert!((set.total_accuracy() - 2.3).abs() < 1e-12);
        assert!(set.is_full());
    }

    #[test]
    fn respects_remaining_capacity() {
        // Paper's Table 3: t11 already has one assignee, so its top worker
        // set holds only k' = 2 workers.
        let set = top_worker_set(t(10), vec![(w(4), 0.85), (w(2), 0.8), (w(0), 0.6)], 2);
        assert_eq!(set.workers.len(), 2);
        assert_eq!(set.remaining, 2);
        assert_eq!(set.workers[0], (w(4), 0.85));
    }

    #[test]
    fn underfull_set_is_not_full() {
        let set = top_worker_set(t(0), vec![(w(0), 0.9)], 3);
        assert!(!set.is_full());
        assert_eq!(set.average_accuracy(), 0.9);
        let empty = top_worker_set(t(0), vec![], 3);
        assert_eq!(empty.average_accuracy(), 0.0);
        assert!(!empty.is_full());
    }

    #[test]
    fn sets_computed_per_task_with_exclusions() {
        let graph = SimilarityGraph::from_edges(3, &[(t(0), t(1), 0.9), (t(1), t(2), 0.9)]);
        let mut est =
            AccuracyEstimator::new(graph, ICrowdConfig::default(), EstimationMode::Centered);
        // Worker 0 is visibly better than worker 1 near task 0.
        est.record_qualification(w(0), t(0), Answer::YES, Answer::YES);
        est.record_qualification(w(1), t(0), Answer::NO, Answer::YES);

        let active = vec![w(0), w(1)];
        let sets = top_worker_sets(
            &mut est,
            &[t(1), t(2)],
            &active,
            |task| {
                if task == t(2) {
                    vec![w(0)] // w0 already assigned to t2
                } else {
                    vec![]
                }
            },
            3,
        );
        assert_eq!(sets.len(), 2);
        let s1 = sets.iter().find(|s| s.task == t(1)).unwrap();
        assert_eq!(s1.workers.len(), 2);
        assert_eq!(s1.workers[0].0, w(0), "better worker ranks first");
        let s2 = sets.iter().find(|s| s.task == t(2)).unwrap();
        assert_eq!(s2.remaining, 2, "one of k=3 slots already used");
        assert!(
            s2.worker_ids().all(|x| x != w(0)),
            "already-assigned workers are excluded"
        );
    }

    #[test]
    fn saturated_tasks_are_dropped() {
        let graph = SimilarityGraph::from_edges(1, &[]);
        let mut est =
            AccuracyEstimator::new(graph, ICrowdConfig::default(), EstimationMode::Centered);
        let sets = top_worker_sets(
            &mut est,
            &[t(0)],
            &[w(0)],
            |_| vec![w(1), w(2), w(3)], // already has k = 3 assignees
            3,
        );
        assert!(sets.is_empty());
    }
}
