//! Microtasks, task identifiers and domains.
//!
//! A *microtask* (Section 2.1 of the paper) is the smallest unit of
//! crowdsourced work: a short question a worker answers with one of a small
//! number of choices. The paper presents binary YES/NO microtasks and notes
//! the techniques extend to more choices; [`Microtask::num_choices`]
//! carries that generality.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::answer::Answer;

/// Identifier of a microtask, dense and zero-based.
///
/// Dense ids let the graph and estimation layers index accuracy vectors by
/// plain `Vec` offset instead of hash lookups, which matters in the paper's
/// scalability experiment (Figure 10, millions of microtasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0 + 1)
    }
}

/// Identifier of a domain (topic) a microtask belongs to.
///
/// Domains are *evaluation-side* metadata: iCrowd itself never reads them
/// (it discovers topical structure through the similarity graph), but the
/// paper reports per-domain accuracies (Figures 6–9), so tasks carry their
/// domain for measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Domain(pub u16);

impl Domain {
    /// The domain as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Bidirectional mapping between domain names and [`Domain`] ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DomainRegistry {
    names: Vec<String>,
    by_name: HashMap<String, Domain>,
}

impl DomainRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or freshly allocated).
    pub fn intern(&mut self, name: &str) -> Domain {
        if let Some(&d) = self.by_name.get(name) {
            return d;
        }
        let d = Domain(u16::try_from(self.names.len()).expect("more than u16::MAX domains"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), d);
        d
    }

    /// Looks up a domain by name without interning.
    pub fn get(&self, name: &str) -> Option<Domain> {
        self.by_name.get(name).copied()
    }

    /// The name of `domain`, if registered.
    pub fn name(&self, domain: Domain) -> Option<&str> {
        self.names.get(domain.index()).map(String::as_str)
    }

    /// Number of registered domains.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(Domain, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (Domain, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (Domain(i as u16), n.as_str()))
    }
}

/// A crowdsourcing microtask.
///
/// The `text` field is whatever the worker sees (for entity resolution it is
/// the record pair, Table 1); similarity metrics tokenize it. `features`
/// optionally carries a numeric representation for Euclidean similarity
/// (Section 3.3 case 2, e.g. POI coordinates).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Microtask {
    /// Dense task id.
    pub id: TaskId,
    /// Human-readable question text shown to workers.
    pub text: String,
    /// Number of answer choices; `2` for the paper's YES/NO tasks.
    pub num_choices: u8,
    /// Evaluation-side domain label (not visible to the framework logic).
    pub domain: Option<Domain>,
    /// Requester-side ground truth, when known (qualification microtasks and
    /// simulation-side evaluation).
    pub ground_truth: Option<Answer>,
    /// Optional numeric feature vector for Euclidean similarity.
    pub features: Option<Vec<f64>>,
}

impl Microtask {
    /// Creates a binary YES/NO microtask with the given text.
    pub fn binary(id: TaskId, text: impl Into<String>) -> Self {
        Self {
            id,
            text: text.into(),
            num_choices: 2,
            domain: None,
            ground_truth: None,
            features: None,
        }
    }

    /// Sets the evaluation-side domain.
    pub fn with_domain(mut self, domain: Domain) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Sets the ground-truth answer.
    pub fn with_ground_truth(mut self, truth: Answer) -> Self {
        debug_assert!(truth.0 < self.num_choices, "ground truth out of range");
        self.ground_truth = Some(truth);
        self
    }

    /// Sets the numeric feature vector.
    pub fn with_features(mut self, features: Vec<f64>) -> Self {
        self.features = Some(features);
        self
    }
}

/// A set of microtasks with dense, contiguous ids `0..len`.
///
/// Most algorithms in the workspace operate on a `TaskSet` so they can use
/// `Vec`-indexed per-task state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Microtask>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a task set from tasks, validating ids are dense and in order.
    ///
    /// # Errors
    /// Returns [`crate::CoreError::NonDenseTaskIds`] if `tasks[i].id != i`.
    pub fn from_tasks(tasks: Vec<Microtask>) -> Result<Self, crate::CoreError> {
        for (i, t) in tasks.iter().enumerate() {
            if t.id.index() != i {
                return Err(crate::CoreError::NonDenseTaskIds {
                    position: i,
                    found: t.id,
                });
            }
        }
        Ok(Self { tasks })
    }

    /// Appends a new microtask built by `make`, which receives the assigned id.
    pub fn push_with(&mut self, make: impl FnOnce(TaskId) -> Microtask) -> TaskId {
        let id = TaskId(u32::try_from(self.tasks.len()).expect("more than u32::MAX tasks"));
        let task = make(id);
        debug_assert_eq!(task.id, id);
        self.tasks.push(task);
        id
    }

    /// The microtask with the given id.
    #[inline]
    pub fn get(&self, id: TaskId) -> Option<&Microtask> {
        self.tasks.get(id.index())
    }

    /// Number of microtasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the microtasks in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Microtask> {
        self.tasks.iter()
    }

    /// Iterates over all task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// Slice view of the underlying tasks.
    pub fn as_slice(&self) -> &[Microtask] {
        &self.tasks
    }
}

impl std::ops::Index<TaskId> for TaskSet {
    type Output = Microtask;

    fn index(&self, id: TaskId) -> &Microtask {
        &self.tasks[id.index()]
    }
}

impl FromIterator<Microtask> for TaskSet {
    /// Collects tasks, asserting dense ids (panics otherwise; use
    /// [`TaskSet::from_tasks`] for fallible construction).
    fn from_iter<I: IntoIterator<Item = Microtask>>(iter: I) -> Self {
        let tasks: Vec<_> = iter.into_iter().collect();
        Self::from_tasks(tasks).expect("tasks must have dense ids 0..n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display_is_one_based_like_the_paper() {
        assert_eq!(TaskId(0).to_string(), "t1");
        assert_eq!(TaskId(11).to_string(), "t12");
    }

    #[test]
    fn domain_registry_interns_and_resolves() {
        let mut reg = DomainRegistry::new();
        let food = reg.intern("Food");
        let nba = reg.intern("NBA");
        assert_ne!(food, nba);
        assert_eq!(reg.intern("Food"), food);
        assert_eq!(reg.get("NBA"), Some(nba));
        assert_eq!(reg.name(food), Some("Food"));
        assert_eq!(reg.len(), 2);
        let names: Vec<_> = reg.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["Food", "NBA"]);
    }

    #[test]
    fn binary_task_builder_sets_fields() {
        let t = Microtask::binary(TaskId(3), "iphone 4 vs iphone four")
            .with_domain(Domain(1))
            .with_ground_truth(Answer::YES)
            .with_features(vec![1.0, 2.0]);
        assert_eq!(t.num_choices, 2);
        assert_eq!(t.domain, Some(Domain(1)));
        assert_eq!(t.ground_truth, Some(Answer::YES));
    }

    #[test]
    fn task_set_push_with_assigns_dense_ids() {
        let mut set = TaskSet::new();
        let a = set.push_with(|id| Microtask::binary(id, "a"));
        let b = set.push_with(|id| Microtask::binary(id, "b"));
        assert_eq!(a, TaskId(0));
        assert_eq!(b, TaskId(1));
        assert_eq!(set.len(), 2);
        assert_eq!(set[b].text, "b");
        assert_eq!(set.ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn from_tasks_rejects_non_dense_ids() {
        let tasks = vec![Microtask::binary(TaskId(1), "x")];
        let err = TaskSet::from_tasks(tasks).unwrap_err();
        match err {
            crate::CoreError::NonDenseTaskIds { position, found } => {
                assert_eq!(position, 0);
                assert_eq!(found, TaskId(1));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
