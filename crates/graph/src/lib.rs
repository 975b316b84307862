//! # icrowd-graph
//!
//! The microtask similarity graph and the personalized-PageRank (PPR)
//! estimation engine behind iCrowd's graph-based accuracy model
//! (Section 3 of the paper).
//!
//! * [`csr`] — a compressed-sparse-row weighted undirected graph
//!   ([`SimilarityGraph`]) with the symmetric normalization
//!   `S' = D^(-1/2) S D^(-1/2)` baked in.
//! * [`builder`] — constructing the graph from any
//!   [`icrowd_text::TaskSimilarity`] metric with a similarity threshold,
//!   plus the neighbor-capped and explicit-edge constructors used by the
//!   scalability experiment (Figure 10).
//! * [`ppr`] — Equation (4)'s power iteration and a sparse truncated
//!   variant for large graphs.
//! * [`index`] — the Lemma-3 *linearity index*: precomputed per-task PPR
//!   vectors `p_{t_i}`, making online estimation a sparse weighted sum.
//! * [`sparsevec`] — the sparse task-indexed vectors shared by `ppr` and
//!   `index`.
//! * [`parallel`] — deterministic scoped-thread helpers used to
//!   parallelize offline construction (index build, pairwise similarity
//!   sweep) with bit-identical output for any thread count.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod builder;
pub mod csr;
pub mod index;
pub mod parallel;
pub mod ppr;
pub mod sparsevec;

pub use builder::GraphBuilder;
pub use csr::SimilarityGraph;
pub use index::LinearityIndex;
pub use parallel::{par_map_indexed, resolve_threads};
pub use ppr::{power_iteration, sparse_ppr};
pub use sparsevec::SparseTaskVector;
