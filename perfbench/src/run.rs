//! What every workload shares: run options, the campaign loop, the
//! per-run accumulator and the step from accumulated samples to metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use icrowd_obs::LogHistogram;
use serde_json::json;

use crate::metrics::{Report, PER_LAYER};
use crate::probe::ObsRead;
use crate::stats::{hist_us, median, quantile, ratio};
use crate::trace::Tracer;

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Base seed; campaign `i` of the run uses `seed + i`.
    pub seed: u64,
    /// Keep starting campaigns until this much time has passed.
    pub seconds: f64,
    /// Traced run: arm `icrowd-obs` and record the benchmark's spans on
    /// every other campaign, and report per-layer metrics.
    pub trace: bool,
    /// Campaigns a run makes at least.
    pub min_campaigns: usize,
    /// Quality metrics average exactly the seeds `seed` to
    /// `seed + quality_seeds - 1`, so they depend on the seed alone.
    pub quality_seeds: usize,
    /// Tasks and requests of `build-50k` (smaller in smoke tests).
    pub build: BuildScale,
    /// Where journals and trace files go.
    pub out_dir: PathBuf,
    /// The `perfbench` executable, started as `perfbench serve-child`
    /// for the server process of a served campaign.
    pub server_exe: PathBuf,
}

/// The size of the `build-50k` workload.
#[derive(Debug, Clone, Copy)]
pub struct BuildScale {
    /// Tasks in the graph.
    pub tasks: usize,
    /// `request_task` calls after each build.
    pub requests: usize,
}

impl BuildScale {
    /// The benchmark's size.
    pub const FULL: BuildScale = BuildScale {
        tasks: 50_000,
        requests: 24_000,
    };
}

/// Threads the host offers (client threads and build threads).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Samples gathered over the campaigns of one run.
#[derive(Debug, Default)]
pub struct Acc {
    /// Campaigns run, traced or not.
    pub campaigns: usize,
    /// Campaigns run with tracing armed.
    pub traced: usize,
    /// Set-up time of every campaign, seconds.
    pub setup_s: Vec<f64>,
    /// Drive time of untraced campaigns, seconds.
    pub drive_s: f64,
    /// Answers accepted in untraced campaigns.
    pub answers: u64,
    /// Submission latencies measured in-process, microseconds.
    pub submit_us: Vec<f64>,
    /// Submission round trips measured by the client, nanoseconds.
    pub submit_hist: LogHistogram,
    /// `(accuracy, answers per task)` of the first `quality_seeds`
    /// seeds.
    pub quality: Vec<(f64, f64)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
    /// Peak resident memory of the serving process during each
    /// campaign, MiB.
    pub rss_mb: Vec<f64>,
    /// Answers per second of traced and of untraced campaigns.
    pub aps_traced: Vec<f64>,
    /// See [`Self::aps_traced`].
    pub aps_plain: Vec<f64>,
    /// Per-layer values, one per traced campaign.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer latencies, merged over traced campaigns, nanoseconds,
    /// keyed by the names of their p50 and p99 metrics.
    pub layer_hist: BTreeMap<(&'static str, &'static str), LogHistogram>,
    /// The program's telemetry, merged over traced campaigns.
    pub obs: ObsRead,
    /// Campaigns whose crowd left before every task settled.
    pub incomplete: u64,
    /// One line per campaign: seed, set-up and drive figures.
    pub log: Vec<serde_json::Value>,
}

impl Acc {
    /// Records one per-layer value of a traced campaign.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.entry(name).or_default().push(value);
    }

    /// Folds latencies (nanoseconds) into the per-layer histogram
    /// reported as the metrics `p50` and `p99`.
    pub fn layer_ns(&mut self, p50: &'static str, p99: &'static str, ns: &[u64]) {
        let h = self.layer_hist.entry((p50, p99)).or_default();
        for &v in ns {
            h.record(v);
        }
    }

    /// Folds a histogram (nanoseconds) the program recorded into the
    /// per-layer histogram reported as `p50` and `p99`.
    pub fn layer_hist(&mut self, p50: &'static str, p99: &'static str, h: &LogHistogram) {
        self.layer_hist.entry((p50, p99)).or_default().merge(h);
    }

    /// Adds a campaign to the run's log; `kind` says how it ran.
    pub fn log(&mut self, seed: u64, kind: &str, setup_s: f64, aps: f64, submit_us: [f64; 2]) {
        self.log.push(json!({
            "seed": seed,
            "kind": kind,
            "setup_s": setup_s,
            "answers_per_s": aps,
            "submit_p50_us": submit_us[0],
            "submit_p99_us": submit_us[1]
        }));
    }

    /// Records a campaign's drive phase: throughput for the traced or
    /// untraced series, and (untraced only) the end-to-end totals.
    pub fn drive(&mut self, traced: bool, answers: u64, drive: Duration) {
        let aps = ratio(answers as f64, drive.as_secs_f64());
        if traced {
            self.aps_traced.push(aps);
        } else {
            self.aps_plain.push(aps);
            self.answers += answers;
            self.drive_s += drive.as_secs_f64();
        }
    }
}

/// Runs campaigns until `opts.seconds` have passed and at least
/// `opts.min_campaigns` were made. The closure gets the campaign's
/// index, its seed and whether it is traced. In a traced run campaign
/// `i` runs untraced when `i % period == 1` and traced otherwise, so
/// the untraced ones give the tracing overhead.
pub fn campaign_loop(
    opts: &Opts,
    acc: &mut Acc,
    report: &mut Report,
    tracer: &mut Tracer,
    period: u64,
    mut campaign: impl FnMut(u64, u64, bool, &mut Acc, &mut Report, &mut Tracer),
) {
    let start = Instant::now();
    let mut i = 0u64;
    loop {
        let traced = opts.trace && i % period != 1;
        if traced {
            icrowd_obs::reset();
            icrowd_obs::enable();
        } else {
            icrowd_obs::disable();
        }
        tracer.set_on(traced);
        campaign(i, opts.seed + i, traced, acc, report, tracer);
        acc.campaigns += 1;
        acc.traced += usize::from(traced);
        i += 1;
        if acc.campaigns >= opts.min_campaigns && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    icrowd_obs::disable();
    tracer.set_on(false);
}

/// Times `f` as a span of `tracer` and returns its result with the
/// elapsed seconds.
pub fn stage<R>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let span = tracer.open(name);
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    tracer.close(span);
    (out, secs)
}

/// Turns a run's samples into every metric of the report.
pub fn finish(acc: &Acc, report: &mut Report) {
    report.attempted += acc.attempted;
    report.failed += acc.failed;

    report.set("setup_s", median(&acc.setup_s));
    report.set("answers_per_s", ratio(acc.answers as f64, acc.drive_s));
    let (p50, p90, submits) = if acc.submit_us.is_empty() {
        (
            hist_us(&acc.submit_hist, 0.50),
            hist_us(&acc.submit_hist, 0.90),
            acc.submit_hist.count(),
        )
    } else {
        (
            quantile(&acc.submit_us, 0.50),
            quantile(&acc.submit_us, 0.90),
            acc.submit_us.len() as u64,
        )
    };
    report.set("submit_p50_us", p50);
    report.set("submit_p90_us", p90);
    let n = acc.quality.len().max(1) as f64;
    report.set("accuracy", acc.quality.iter().map(|q| q.0).sum::<f64>() / n);
    report.set(
        "answers_per_task",
        acc.quality.iter().map(|q| q.1).sum::<f64>() / n,
    );
    report.set(
        "ok_frac",
        1.0 - ratio(acc.failed as f64, acc.attempted as f64),
    );
    report.set("peak_rss_mb", median(&acc.rss_mb));

    // Per-layer: the program's own spans and counters first, then the
    // values the workload measured itself (which take precedence).
    let obs = &acc.obs;
    let per = |x: f64| ratio(x, acc.traced as f64);
    report.set("graph.index_s", per(obs.total_s("index.build")));
    report.set("graph.index_builds", per(obs.count("index.build") as f64));
    report.set("graph.ppr_solve_p50_us", obs.quantile_us("ppr.solve", 0.5));
    report.set(
        "graph.ppr_iters_per_solve",
        ratio(
            obs.counter("ppr.iterations") as f64,
            obs.counter("ppr.solves") as f64,
        ),
    );
    report.set("graph.par_balance", obs.par_balance());
    report.set(
        "estimate.refresh_p50_us",
        obs.quantile_us("estimator.refresh", 0.5),
    );
    let hits = obs.counter("estimator.cache_hit") as f64;
    report.set(
        "estimate.cache_hit_frac",
        ratio(hits, hits + obs.counter("estimator.cache_rebuild") as f64),
    );
    report.set(
        "obs.overhead_frac",
        1.0 - ratio(median(&acc.aps_traced), median(&acc.aps_plain)),
    );
    for (name, values) in &acc.layer {
        report.set(name, median(values));
    }
    for (&(p50, p99), h) in &acc.layer_hist {
        report.set(p50, hist_us(h, 0.50));
        report.set(p99, hist_us(h, 0.99));
    }
    for &(name, _) in PER_LAYER {
        report.values.entry(name).or_insert(0.0);
    }

    report.note("campaigns", json!(acc.campaigns as u64));
    report.note("traced_campaigns", json!(acc.traced as u64));
    report.note("setup_samples", json!(acc.setup_s.len() as u64));
    report.note("submit_samples", json!(submits));
    report.note("quality_campaigns", json!(acc.quality.len() as u64));
    report.note("incomplete_campaigns", json!(acc.incomplete));
    report.note("campaign_log", serde_json::Value::Array(acc.log.clone()));
}
