//! The in-process workloads: `campaign-item_compare` (the simulated
//! marketplace against iCrowd's uncapped assignment path) and
//! `build-50k` (the Figure-10 offline build at scale, then the capped
//! assignment path).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use icrowd::core::{Answer, ICrowdConfig, PprConfig, Tick, WarmupConfig};
use icrowd::{AssignStrategy, ICrowdBuilder};
use icrowd_graph::GraphBuilder;
use icrowd_platform::market::{ExternalQuestionServer, Marketplace, WorkerBehavior, WorkerScript};
use icrowd_sim::campaign::{
    labels_lines, prepare_campaign, prepare_campaign_with, run_campaign, score_campaign,
    select_gold, Approach, CampaignConfig, CampaignResult, CampaignSetup,
};
use icrowd_sim::datasets::{item_compare, scalability_edges, scalability_tasks, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Report;
use crate::probe::ObsRead;
use crate::run::{campaign_loop, finish, nproc, stage, Acc, Opts};
use crate::stats::{p50_p99_us, peak_rss_mb, reset_peak_rss};
use crate::timed::{CallTimes, Timed};
use crate::trace::Tracer;

/// The approach every workload runs: iCrowd's adaptive assignment.
pub const APPROACH: Approach = Approach::ICrowd(AssignStrategy::Adapt);

/// The campaign configuration of a served or in-process campaign at
/// `seed`: the defaults `icrowd serve` and `icrowd campaign` use.
pub fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        ..Default::default()
    }
}

/// Set-up split into the public calls `prepare_campaign` makes, each
/// timed as a span: the similarity metric (`MetricChoice::build`), the
/// graph sweep (`GraphBuilder::build`), gold selection
/// (`select_gold`) and the server build (`prepare_campaign_with`, i.e.
/// `CampaignServer::new`). Returns the set-up and the four times in
/// seconds.
///
/// A traced campaign times this split on a copy built just before the
/// program's own `prepare_campaign` (see [`split_setup`]), so
/// `setup.parts_frac` compares the parts with the set-up as the
/// program makes it.
pub fn timed_setup(
    dataset: &Dataset,
    config: &CampaignConfig,
    tracer: &mut Tracer,
) -> (CampaignSetup, [f64; 4]) {
    let (metric, similarity) = stage(tracer, "text.similarity", || {
        config.metric.build(&dataset.tasks, config.seed)
    });
    let (graph, sweep) = stage(tracer, "graph.sweep", || {
        let mut builder = GraphBuilder::new(config.icrowd.similarity_threshold)
            .with_threads(config.icrowd.ppr.threads);
        if let Some(m) = config.icrowd.max_neighbors {
            builder = builder.with_max_neighbors(m);
        }
        builder.build(&dataset.tasks, &metric)
    });
    let (gold, qual) = stage(tracer, "assign.qual_select", || {
        select_gold(dataset, &graph, config)
    });
    let (setup, build) = stage(tracer, "icrowd.build", || {
        prepare_campaign_with(dataset, APPROACH, config, graph, gold)
    });
    (setup, [similarity, sweep, qual, build])
}

/// The set-up split of a traced campaign, timed on a copy that is
/// dropped again. Its telemetry is discarded, so the program's spans
/// and counters describe only the set-up that follows.
fn split_setup(tracer: &mut Tracer, copy: impl FnOnce(&mut Tracer) -> Vec<f64>) -> Vec<f64> {
    let span = tracer.open("bench.setup_split");
    let parts = copy(tracer);
    tracer.close(span);
    icrowd_obs::reset();
    parts
}

/// Runs a prepared campaign on the simulated marketplace with every
/// server call going through the timing wrapper. Returns the scored
/// campaign, the call times and the drive time.
pub fn drive_campaign(
    dataset: &Dataset,
    config: &CampaignConfig,
    setup: CampaignSetup,
    tracer: &mut Tracer,
) -> (CampaignResult, CallTimes, std::time::Duration) {
    let CampaignSetup {
        mut server,
        scripts,
        market,
        gold,
    } = setup;
    let behaviors: Vec<(WorkerScript, Box<dyn WorkerBehavior>)> = dataset
        .spawn_workers(config.seed)
        .into_iter()
        .zip(scripts)
        .map(|(w, script)| (script, Box::new(w) as Box<dyn WorkerBehavior>))
        .collect();
    let marketplace = Marketplace::new(dataset.tasks.clone(), market);
    let span = tracer.open("platform.drive");
    let t0 = Instant::now();
    let mut timed = Timed::new(&mut server, tracer);
    let outcome = marketplace.run_with_faults(&mut timed, behaviors, config.faults.clone());
    let times = timed.times;
    let drive = t0.elapsed();
    tracer.close(span);
    let result = score_campaign(
        dataset,
        APPROACH,
        config,
        &mut server,
        gold,
        &outcome,
        drive.as_secs_f64() * 1e3,
    );
    (result, times, drive)
}

/// Non-gold tasks of a finished campaign.
pub fn measured_tasks(result: &CampaignResult, dataset: &Dataset) -> f64 {
    (dataset.tasks.len() - result.gold.len()) as f64
}

/// `campaign-item_compare`: one in-process campaign per seed.
pub fn run_item_compare(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    campaign_loop(
        opts,
        &mut acc,
        &mut report,
        &mut tracer,
        2,
        |_, seed, traced, acc, report, tracer| {
            let dataset = item_compare(seed);
            let config = campaign_config(seed);
            let root = tracer.open("bench.campaign");
            let parts = if traced {
                split_setup(tracer, |tracer| {
                    timed_setup(&dataset, &config, tracer).1.to_vec()
                })
            } else {
                Vec::new()
            };
            reset_peak_rss();
            let (setup, setup_s) = stage(tracer, "bench.setup", || {
                prepare_campaign(&dataset, APPROACH, &config)
            });
            let (result, times, drive) = drive_campaign(&dataset, &config, setup, tracer);
            tracer.close(root);

            report.gate(result.accounting.balanced(), || {
                format!(
                    "seed {seed}: accounting unbalanced: {:?}",
                    result.accounting
                )
            });
            if !result.completed {
                // A seed's simulated crowd may leave before every task
                // settles. That is the campaign's outcome, not a fault,
                // only if the plain in-process run ends the same way.
                let plain = run_campaign(&dataset, APPROACH, &config);
                report.gate(
                    !plain.completed && labels_lines(&plain.labels) == labels_lines(&result.labels),
                    || format!("seed {seed}: campaign did not complete, unlike run_campaign"),
                );
                acc.incomplete += 1;
            }
            let answers = result.accounting.answers_accepted;
            acc.log(
                seed,
                if traced { "traced" } else { "plain" },
                setup_s,
                answers as f64 / drive.as_secs_f64(),
                p50_p99_us(&times.submit_ns),
            );
            acc.setup_s.push(setup_s);
            acc.rss_mb.push(peak_rss_mb());
            acc.drive(traced, answers, drive);
            acc.attempted += times.calls();
            acc.failed += times.rejected;
            if acc.quality.len() < opts.quality_seeds {
                acc.quality.push((
                    result.overall,
                    result.answers as f64 / measured_tasks(&result, &dataset),
                ));
            }
            if traced {
                record_setup_layers(acc, &parts, setup_s);
                record_call_layers(acc, &times);
                let inside = times.inside_ns() as f64 / 1e9;
                acc.layer("platform.drive_self_s", drive.as_secs_f64() - inside);
                acc.obs.merge(&ObsRead::capture());
            } else {
                acc.submit_us
                    .extend(times.submit_ns.iter().map(|&ns| ns as f64 / 1e3));
            }
        },
    );
    finish(&acc, &mut report);
    write_trace(opts, "campaign-item_compare", &tracer, &mut report);
    report
}

/// Records the set-up split of a traced campaign: similarity, sweep,
/// gold selection and build times, and their sum over `setup_s`.
pub fn record_setup_layers(acc: &mut Acc, parts: &[f64], setup_s: f64) {
    let names = [
        "text.similarity_s",
        "graph.sweep_s",
        "assign.qual_select_s",
        "icrowd.build_s",
    ];
    for (name, &part) in names.into_iter().zip(parts) {
        acc.layer(name, part);
    }
    acc.layer("setup.parts_frac", parts.iter().sum::<f64>() / setup_s);
}

/// Records the engine's call latencies measured by the wrapper.
fn record_call_layers(acc: &mut Acc, times: &CallTimes) {
    acc.layer_ns(
        "icrowd.request_task_p50_us",
        "icrowd.request_task_p99_us",
        &times.request_ns,
    );
    acc.layer_ns(
        "icrowd.submit_answer_p50_us",
        "icrowd.submit_answer_p99_us",
        &times.submit_ns,
    );
    acc.layer(
        "icrowd.assigned_frac",
        times.assigned as f64 / times.request_ns.len().max(1) as f64,
    );
}

/// Writes the benchmark's spans of a traced run under `opts.out_dir`.
pub fn write_trace(opts: &Opts, workload: &str, tracer: &Tracer, report: &mut Report) {
    if !opts.trace {
        return;
    }
    let path = opts
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", opts.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note("trace_file", serde_json::json!(path.display().to_string())),
        Err(e) => report.note(
            "trace_file_error",
            serde_json::json!(format!("{}: {e}", path.display())),
        ),
    }
}

/// Random neighbours per task on `build-50k` (Figure 10's smallest cap).
const NEIGHBOR_CAP: usize = 20;
/// Simulated workers taking turns on `build-50k`, as in Figure 10.
const WORKERS: usize = 20;

/// `build-50k`: the Figure-10 offline build (`build_from_edges`, then
/// `ICrowdBuilder` with a candidate cap and one build thread per core),
/// then a closed request/submit loop over the capped assignment path.
pub fn run_build(opts: &Opts) -> Report {
    let scale = opts.build;
    let threads = nproc();
    let mut report = Report::default();
    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    campaign_loop(
        opts,
        &mut acc,
        &mut report,
        &mut tracer,
        2,
        |_, seed, traced, acc, report, tracer| {
            let tasks = scalability_tasks(scale.tasks);
            let edges = scalability_edges(scale.tasks, NEIGHBOR_CAP, seed);
            let config = ICrowdConfig {
                warmup: WarmupConfig {
                    num_qualification: 10,
                    ..Default::default()
                },
                ppr: PprConfig {
                    index_epsilon: 1e-3,
                    max_iterations: 20,
                    tolerance: 1e-6,
                    threads,
                },
                ..Default::default()
            };
            let graph = |edges| {
                GraphBuilder::new(0.5)
                    .with_max_neighbors(NEIGHBOR_CAP)
                    .with_threads(threads)
                    .build_from_edges(scale.tasks, edges)
            };
            let engine = |tasks, config, graph| {
                ICrowdBuilder::new(tasks)
                    .config(config)
                    .strategy(AssignStrategy::Adapt)
                    .graph(graph)
                    .candidate_limit(2_048)
                    .build()
            };
            let root = tracer.open("bench.campaign");
            let parts = if traced {
                let (tasks, edges, config) = (tasks.clone(), edges.clone(), config.clone());
                split_setup(tracer, |tracer| {
                    let (g, sweep) = stage(tracer, "graph.sweep", || graph(edges));
                    let (_, build) = stage(tracer, "icrowd.build", || engine(tasks, config, g));
                    vec![sweep, build]
                })
            } else {
                Vec::new()
            };
            reset_peak_rss();
            let (mut server, setup_s) = stage(tracer, "bench.setup", || {
                engine(tasks, config, graph(edges))
            });

            // Workers of fixed, seeded accuracy answer every assignment.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xB0_1D50);
            let skill: Vec<f64> = (0..WORKERS).map(|_| rng.gen_range(0.6..0.95)).collect();
            let names: Vec<String> = (0..WORKERS).map(|w| format!("W{w}")).collect();
            let span = tracer.open("bench.assign_loop");
            let t1 = Instant::now();
            let mut timed = Timed::new(&mut server, tracer);
            for r in 0..scale.requests {
                let w = r % WORKERS;
                let now = Tick(r as u64);
                if let Some(task) = timed.request_task(&names[w], now) {
                    let answer = if rng.gen_bool(skill[w]) {
                        Answer::YES
                    } else {
                        Answer::NO
                    };
                    timed.submit_answer(&names[w], task, answer, now);
                }
            }
            let times = timed.times;
            let drive = t1.elapsed();
            tracer.close(span);
            tracer.close(root);

            let valid = catch_unwind(AssertUnwindSafe(|| server.validate_incremental_state()));
            report.gate(valid.is_ok(), || {
                format!("seed {seed}: incremental assignment state drifted from its oracle")
            });
            let consensus = server.consensus();
            let settled: Vec<_> = consensus
                .completed_tasks()
                .filter(|&t| !server.warmup().is_qualification(t))
                .collect();
            let correct = settled
                .iter()
                .filter(|&&t| consensus.consensus(t) == server.tasks()[t].ground_truth)
                .count();
            // Most of the tasks stay partly answered after the loop, so
            // the budget is counted on the settled ones: votes per task.
            let votes: usize = settled
                .iter()
                .map(|&t| consensus.votes(t).votes().len())
                .sum();
            report.gate(!settled.is_empty(), || {
                format!("seed {seed}: no task reached consensus")
            });
            let answers = times.submit_ns.len() as u64 - times.rejected;
            acc.log(
                seed,
                if traced { "traced" } else { "plain" },
                setup_s,
                answers as f64 / drive.as_secs_f64(),
                p50_p99_us(&times.submit_ns),
            );
            acc.setup_s.push(setup_s);
            acc.rss_mb.push(peak_rss_mb());
            acc.drive(traced, answers, drive);
            acc.attempted += times.calls();
            acc.failed += times.rejected;
            if acc.quality.len() < opts.quality_seeds {
                let n = settled.len().max(1) as f64;
                acc.quality.push((correct as f64 / n, votes as f64 / n));
            }
            if traced {
                acc.layer("graph.sweep_s", parts[0]);
                acc.layer("icrowd.build_s", parts[1]);
                acc.layer("setup.parts_frac", parts.iter().sum::<f64>() / setup_s);
                record_call_layers(acc, &times);
                let obs = ObsRead::capture();
                acc.layer("assign.qual_select_s", obs.total_s("qualification.select"));
                acc.obs.merge(&obs);
            } else {
                acc.submit_us
                    .extend(times.submit_ns.iter().map(|&ns| ns as f64 / 1e3));
            }
        },
    );
    report.note("build_threads", serde_json::json!(threads as u64));
    finish(&acc, &mut report);
    write_trace(opts, "build-50k", &tracer, &mut report);
    report
}
