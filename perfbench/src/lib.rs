//! # icrowd-perfbench
//!
//! One benchmark for the iCrowd system: what a served campaign gives
//! its requester and workers (throughput, submission latency, label
//! quality, budget), how long a campaign takes to set up, and where the
//! time goes layer by layer. See `README.md` beside this crate for the
//! workloads, the metrics and what each layer metric should move.

#![warn(missing_docs)]

pub mod inproc;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod served;
pub mod stats;
pub mod timed;
pub mod trace;

use metrics::Report;
use run::Opts;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["served-yahooqa", "campaign-item_compare", "build-50k"];

/// Campaigns a run of `workload` makes at least, and the seeds its
/// quality metrics average (see [`run::Opts::quality_seeds`]).
pub fn campaign_counts(workload: &str) -> (usize, usize) {
    match workload {
        "campaign-item_compare" => (64, 64),
        "build-50k" => (8, 8),
        _ => (8, 64),
    }
}

/// Runs one workload; `None` for an unknown name.
pub fn run_workload(workload: &str, opts: &Opts) -> Option<Report> {
    Some(match workload {
        "served-yahooqa" => served::run_served(opts),
        "campaign-item_compare" => inproc::run_item_compare(opts),
        "build-50k" => inproc::run_build(opts),
        _ => return None,
    })
}
