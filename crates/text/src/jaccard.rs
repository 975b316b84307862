//! Jaccard similarity over token sets (Section 3.3 case 1).
//!
//! Each microtask is viewed as a *set* of tokens; the similarity of two
//! tasks is `|A ∩ B| / |A ∪ B|`. This is the metric the paper uses for its
//! worked example: the edge between `t2` and `t7` in Figure 3 carries
//! weight 4/7, the Jaccard similarity of their token sets in Table 1.

use icrowd_core::task::{TaskId, TaskSet};

use crate::metric::TaskSimilarity;
use crate::tokenize::Tokenizer;

/// Precomputed token-set Jaccard similarity over a task set.
#[derive(Debug, Clone)]
pub struct JaccardSimilarity {
    /// Sorted, deduplicated token-id sets per task.
    sets: Vec<Vec<u32>>,
}

impl JaccardSimilarity {
    /// Tokenizes every task and stores sorted token-id sets.
    pub fn new(tasks: &TaskSet, tokenizer: &Tokenizer) -> Self {
        let mut vocab = crate::tokenize::Vocabulary::new();
        let sets = tasks
            .iter()
            .map(|t| {
                let mut ids = vocab.encode(tokenizer, &t.text);
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        Self { sets }
    }

    /// Intersection size of two sorted, deduplicated id slices.
    fn intersection_size(a: &[u32], b: &[u32]) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }
}

impl TaskSimilarity for JaccardSimilarity {
    fn similarity(&self, a: TaskId, b: TaskId) -> f64 {
        let (sa, sb) = (&self.sets[a.index()], &self.sets[b.index()]);
        if sa.is_empty() && sb.is_empty() {
            // Two empty token sets are conventionally identical.
            return 1.0;
        }
        let inter = Self::intersection_size(sa, sb);
        let union = sa.len() + sb.len() - inter;
        inter as f64 / union as f64
    }

    fn name(&self) -> &str {
        "Jaccard"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_core::task::Microtask;

    fn task_set(texts: &[&str]) -> TaskSet {
        texts
            .iter()
            .enumerate()
            .map(|(i, t)| Microtask::binary(TaskId(i as u32), *t))
            .collect()
    }

    /// The paper's Table 1 token sets for t2 and t7:
    /// t2 = {ipod touch 32gb wifi headphone}, t7 = {ipod touch 32gb wifi case black}.
    /// Intersection = 4, union = 7 → Figure 3's 4/7 edge weight.
    #[test]
    fn reproduces_figure3_edge_t2_t7() {
        let ts = task_set(&[
            "ipod touch 32GB WiFi headphone",
            "ipod touch 32GB WiFi case black",
        ]);
        let j = JaccardSimilarity::new(&ts, &Tokenizer::keeping_stopwords());
        let s = j.similarity(TaskId(0), TaskId(1));
        assert!((s - 4.0 / 7.0).abs() < 1e-12, "expected 4/7, got {s}");
    }

    #[test]
    fn identical_and_disjoint_tasks() {
        let ts = task_set(&["iphone 4 wifi", "iphone 4 wifi", "samsung galaxy"]);
        let j = JaccardSimilarity::new(&ts, &Tokenizer::keeping_stopwords());
        assert_eq!(j.similarity(TaskId(0), TaskId(1)), 1.0);
        assert_eq!(j.similarity(TaskId(0), TaskId(2)), 0.0);
        assert_eq!(j.similarity(TaskId(0), TaskId(0)), 1.0);
    }

    #[test]
    fn duplicate_tokens_do_not_inflate_similarity() {
        let ts = task_set(&["ipod ipod ipod nano", "ipod nano"]);
        let j = JaccardSimilarity::new(&ts, &Tokenizer::keeping_stopwords());
        assert_eq!(j.similarity(TaskId(0), TaskId(1)), 1.0);
    }

    #[test]
    fn empty_texts_are_identical_by_convention() {
        let ts = task_set(&["", ""]);
        let j = JaccardSimilarity::new(&ts, &Tokenizer::new());
        assert_eq!(j.similarity(TaskId(0), TaskId(1)), 1.0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_text() -> impl Strategy<Value = String> {
            proptest::collection::vec("[a-e]{1,3}", 0..8).prop_map(|v| v.join(" "))
        }

        proptest! {
            #[test]
            fn symmetric_and_bounded(a in arb_text(), b in arb_text()) {
                let ts = task_set(&[a.as_str(), b.as_str()]);
                let j = JaccardSimilarity::new(&ts, &Tokenizer::keeping_stopwords());
                let ab = j.similarity(TaskId(0), TaskId(1));
                let ba = j.similarity(TaskId(1), TaskId(0));
                prop_assert!((ab - ba).abs() < 1e-15);
                prop_assert!((0.0..=1.0).contains(&ab));
            }

            #[test]
            fn self_similarity_is_one(a in arb_text()) {
                let ts = task_set(&[a.as_str()]);
                let j = JaccardSimilarity::new(&ts, &Tokenizer::keeping_stopwords());
                prop_assert_eq!(j.similarity(TaskId(0), TaskId(0)), 1.0);
            }
        }
    }
}
