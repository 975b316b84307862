//! # icrowd-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! iCrowd paper's evaluation (Section 6 and Appendix D). Each artefact
//! is a binary: `cargo run --release -p icrowd-bench --bin fig9`.
//!
//! The paper ran each configuration once against the live AMT crowd; our
//! crowd is stochastic, so every experiment averages a few seeds and
//! reports the mean (the seed list is printed with each run).

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

use icrowd_sim::campaign::{run_campaign_with, Approach, CampaignConfig};
use icrowd_sim::datasets::Dataset;
use icrowd_sim::metrics::DomainAccuracy;

/// Seeds used by averaged experiments.
pub const SEEDS: [u64; 5] = [42, 1337, 20150531, 7, 271828];

/// Telemetry plumbing shared by the bench bins: arm the `icrowd-obs`
/// sink from the `ICROWD_TELEMETRY` environment variable and write the
/// JSONL export when the bin finishes. (`fig10` uses its own
/// `FIG10_TELEMETRY` knob because it fans out over child processes.)
pub mod telemetry {
    /// Environment variable naming the JSONL export path.
    pub const ENV: &str = "ICROWD_TELEMETRY";

    /// Enables telemetry collection when [`ENV`] is set, returning the
    /// export path. Call once at the top of `main`.
    #[must_use]
    pub fn init_from_env() -> Option<String> {
        let path = std::env::var(ENV).ok()?;
        icrowd_obs::reset();
        icrowd_obs::enable();
        Some(path)
    }

    /// Writes the JSONL export when telemetry was armed by
    /// [`init_from_env`] and names the file on stderr (`icrowd obs
    /// report <file>` renders it). Call at the end of `main`.
    pub fn finish(path: Option<String>) {
        let Some(path) = path else { return };
        icrowd_obs::disable();
        match icrowd_obs::write_jsonl(&path) {
            Ok(()) => eprintln!("telemetry written to {path}"),
            Err(e) => eprintln!("cannot write telemetry to {path}: {e}"),
        }
    }
}

/// Parses `fig10`'s child-mode positional arguments (`<n> <cap>`).
///
/// `Ok(None)` means no child arguments were given (parent mode);
/// `Ok(Some((n, cap)))` runs one configuration. Malformed invocations
/// are reported as errors so the binary can exit nonzero instead of
/// panicking mid-benchmark.
///
/// # Errors
/// A wrong argument count or unparseable numbers.
pub fn parse_child_args(args: &[String]) -> Result<Option<(usize, usize)>, String> {
    match args {
        [] => Ok(None),
        [n, cap] => {
            let n = n
                .parse()
                .map_err(|_| format!("invalid task count `{n}` (expected a number)"))?;
            let cap = cap
                .parse()
                .map_err(|_| format!("invalid neighbor cap `{cap}` (expected a number)"))?;
            Ok(Some((n, cap)))
        }
        other => Err(format!(
            "expected `fig10 <tasks> <cap>` or no arguments, got {} argument(s)",
            other.len()
        )),
    }
}

/// Accuracy rows averaged over seeds: one entry per domain plus `ALL`.
#[derive(Debug, Clone)]
pub struct AveragedResult {
    /// Approach name.
    pub approach: String,
    /// `(domain, mean accuracy)` pairs in domain order, then `("ALL", ..)`.
    pub rows: Vec<(String, f64)>,
}

/// Runs `approach` on `dataset` across [`SEEDS`], sharing the graph and
/// gold set per seed, and averages the per-domain accuracies.
pub fn averaged_campaign(
    make_dataset: &dyn Fn(u64) -> Dataset,
    approach: Approach,
    base: &CampaignConfig,
) -> AveragedResult {
    let mut sums: Vec<(String, f64)> = Vec::new();
    let mut overall_sum = 0.0;
    for &seed in &SEEDS {
        let dataset = make_dataset(seed);
        let config = CampaignConfig {
            seed,
            ..base.clone()
        };
        let graph = icrowd_sim::campaign::build_graph(&dataset, &config);
        let gold = icrowd_sim::campaign::select_gold(&dataset, &graph, &config);
        let r = run_campaign_with(&dataset, approach, &config, graph, gold);
        accumulate(&mut sums, &r.per_domain);
        overall_sum += r.overall;
    }
    let n = SEEDS.len() as f64;
    let mut rows: Vec<(String, f64)> = sums.into_iter().map(|(d, s)| (d, s / n)).collect();
    rows.push(("ALL".into(), overall_sum / n));
    AveragedResult {
        approach: approach.name(),
        rows,
    }
}

fn accumulate(sums: &mut Vec<(String, f64)>, per_domain: &[DomainAccuracy]) {
    if sums.is_empty() {
        *sums = per_domain.iter().map(|d| (d.domain.clone(), 0.0)).collect();
    }
    for (slot, d) in sums.iter_mut().zip(per_domain) {
        debug_assert_eq!(slot.0, d.domain);
        slot.1 += d.accuracy();
    }
}

/// Prints a figure-style accuracy table: approaches as rows, domains as
/// columns.
pub fn print_accuracy_table(title: &str, results: &[AveragedResult]) {
    println!("\n=== {title} ===");
    if results.is_empty() {
        return;
    }
    let headers: Vec<&str> = results[0].rows.iter().map(|(d, _)| d.as_str()).collect();
    print!("{:<12}", "approach");
    for h in &headers {
        print!(" {h:>14}");
    }
    println!();
    for r in results {
        print!("{:<12}", r.approach);
        for (_, acc) in &r.rows {
            print!(" {acc:>14.3}");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icrowd_sim::campaign::MetricChoice;
    use icrowd_sim::datasets::table1;

    #[test]
    fn averaged_campaign_produces_domain_rows_plus_all() {
        let base = CampaignConfig {
            metric: MetricChoice::Jaccard,
            icrowd: icrowd::core::ICrowdConfig {
                similarity_threshold: 0.3,
                warmup: icrowd::core::WarmupConfig {
                    num_qualification: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let r = averaged_campaign(&|_| table1(), Approach::RandomMV, &base);
        assert_eq!(r.rows.len(), 4, "3 domains + ALL");
        assert_eq!(r.rows.last().unwrap().0, "ALL");
        for (_, acc) in &r.rows {
            assert!((0.0..=1.0).contains(acc));
        }
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn child_args_parse_parent_and_child_modes() {
        assert_eq!(parse_child_args(&[]).unwrap(), None);
        assert_eq!(
            parse_child_args(&strings(&["200000", "40"])).unwrap(),
            Some((200_000, 40))
        );
    }

    // Regression: child-mode argument parsing reports malformed input
    // instead of panicking (three malformed invocations).
    #[test]
    fn child_args_reject_non_numeric_task_count() {
        let err = parse_child_args(&strings(&["banana", "40"])).unwrap_err();
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn child_args_reject_non_numeric_cap() {
        let err = parse_child_args(&strings(&["200000", "wide"])).unwrap_err();
        assert!(err.contains("wide"), "{err}");
    }

    #[test]
    fn child_args_reject_wrong_arity() {
        let err = parse_child_args(&strings(&["200000"])).unwrap_err();
        assert!(err.contains("1 argument"), "{err}");
        assert!(parse_child_args(&strings(&["1", "2", "3"])).is_err());
    }
}
