//! Top worker sets — Definition 3 of the paper.
//!
//! For an uncompleted microtask `t` with assigned workers `W^d(t)` (those
//! who completed it or are currently working on it), the *top worker set*
//! is the `k' = k − |W^d(t)|` eligible active workers with the highest
//! estimated accuracies `p_t^w`.

use icrowd_core::task::TaskId;
use icrowd_core::worker::WorkerId;

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
    fn underfull_and_empty_sets_average_their_members() {
        let set = top_worker_set(t(0), vec![(w(0), 0.9)], 3);
        assert_eq!(set.average_accuracy(), 0.9);
        let empty = top_worker_set(t(0), vec![], 3);
        assert_eq!(empty.average_accuracy(), 0.0);
    }
}
