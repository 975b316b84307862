//! The served workload, `served-yahooqa`.
//!
//! Each campaign runs its server in a child process of the benchmark
//! (`perfbench serve-child`), built with `CampaignEngine::new` and
//! `serve`, and drives it from this process with `run_loadgen`.
//! `run_loadgen` arms `icrowd-obs` in the process that calls it (its
//! round-trip percentiles come from there), so a server in the same
//! process would always be traced; in its own process the server's
//! telemetry stays off unless the campaign is traced, and the child
//! reports that it recorded nothing, which untraced campaigns check.
//!
//! A traced run cycles through three kinds of campaign: traced, plain
//! (for the tracing overhead) and traced with the write-ahead journal
//! at the CLI defaults, which gives the journal's layer metrics and
//! checks that the journal replays through `recover()` to the same
//! labels.

use std::io::{BufRead, BufReader, Write as _};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use icrowd_serve::{recover, run_loadgen, serve, CampaignEngine, LoadgenConfig, ServeConfig};
use icrowd_sim::campaign::{labels_lines, run_campaign};
use icrowd_sim::datasets::yahooqa;
use serde_json::{json, Value};

use crate::inproc::{
    campaign_config, measured_tasks, record_setup_layers, timed_setup, write_trace, APPROACH,
};
use crate::metrics::Report;
use crate::probe::ObsRead;
use crate::run::{campaign_loop, finish, nproc, Acc, Opts};
use crate::stats::{hist_us, peak_rss_mb, ratio};
use crate::trace::{Span, Tracer};

/// The served dataset (`by_name` key).
const DATASET: &str = "yahooqa";
/// Journal settings of `icrowd serve --journal` by default: fsync
/// every record, snapshot every 64 accepted answers, fail-stop.
const FSYNC_EVERY: usize = 1;
const SNAPSHOT_EVERY: usize = 64;

/// Server-side spans the program records, and the per-layer p50/p99
/// metrics each one gives.
const SERVER_HISTS: [(&str, &str, &str); 3] = [
    (
        "server.handle_p50_us",
        "server.handle_p99_us",
        "serve.request",
    ),
    (
        "icrowd.request_task_p50_us",
        "icrowd.request_task_p99_us",
        "assign.loop",
    ),
    (
        "icrowd.submit_answer_p50_us",
        "icrowd.submit_answer_p99_us",
        "answer.submit",
    ),
];

/// Kills and reaps the server process if the campaign ends early.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// `served-yahooqa`.
pub fn run_served(opts: &Opts) -> Report {
    let mut report = Report::default();
    let mut acc = Acc::default();
    let mut tracer = Tracer::new(false);
    campaign_loop(
        opts,
        &mut acc,
        &mut report,
        &mut tracer,
        3,
        |i, seed, traced, acc, report, tracer| {
            let journaled = traced && i % 3 == 2;
            if let Err(e) = served_campaign(opts, seed, journaled, traced, acc, report, tracer) {
                report.gate(false, || format!("seed {seed}: {e}"));
            }
        },
    );
    if !opts.trace {
        quality_in_process(opts, &mut acc);
    }
    report.note("client_threads", json!(nproc() as u64));
    finish(&acc, &mut report);
    write_trace(opts, "served-yahooqa", &tracer, &mut report);
    report
}

/// Completes the quality sample of an untraced run with the seeds it
/// did not serve, run in process by `run_campaign`. A run serves about
/// ten campaigns, too few for a steady mean over the seeds' crowds;
/// every served campaign is gated to give `run_campaign`'s labels byte
/// for byte and its answer count, so the in-process seeds stand for
/// served ones.
fn quality_in_process(opts: &Opts, acc: &mut Acc) {
    let first = opts.seed + acc.quality.len() as u64;
    for seed in first..opts.seed + opts.quality_seeds as u64 {
        let dataset = yahooqa(seed);
        let result = run_campaign(&dataset, APPROACH, &campaign_config(seed));
        let per_task = ratio(result.answers as f64, measured_tasks(&result, &dataset));
        acc.quality.push((result.overall, per_task));
    }
}

fn served_campaign(
    opts: &Opts,
    seed: u64,
    journaled: bool,
    traced: bool,
    acc: &mut Acc,
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let journal = journaled.then(|| {
        opts.out_dir
            .join(format!("journal-{}-{seed}.wal", std::process::id()))
    });
    if let Some(dir) = journal.as_ref().and_then(|j| j.parent()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let root = tracer.open("bench.campaign");
    let spawned_at = tracer.clock_ns();
    let child = Command::new(&opts.server_exe)
        .arg("serve-child")
        .arg(seed.to_string())
        .arg(
            journal
                .clone()
                .map_or_else(|| "-".into(), PathBuf::into_os_string),
        )
        .arg(if traced { "1" } else { "0" })
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the server process: {e}"))?;
    let mut child = ChildGuard(child);
    let mut lines = BufReader::new(child.0.stdout.take().expect("stdout is piped")).lines();
    let ready = lines
        .next()
        .and_then(Result::ok)
        .ok_or("server process exited before it was ready")?;
    let addr = ready
        .strip_prefix("READY ")
        .ok_or_else(|| format!("unexpected line from the server process: {ready}"))?
        .to_owned();

    icrowd_obs::reset();
    let drive_span = tracer.open("loadgen.drive");
    let loadgen = run_loadgen(&LoadgenConfig {
        addr,
        workers: nproc(),
        think_ms: 0,
        shutdown: true,
        fetch_labels: true,
        ..Default::default()
    });
    tracer.close(drive_span);
    let client = ObsRead::capture();
    let loadgen = loadgen?;

    let line = lines
        .next()
        .and_then(Result::ok)
        .ok_or("server process exited without a result")?;
    let exited = child.0.wait().map_err(|e| e.to_string())?;
    let server: Value =
        serde_json::from_str(&line).map_err(|e| format!("bad server result: {e:?}"))?;
    let mut spans = vec![Span {
        name: "server.process".into(),
        parent: None,
        start_ns: 0,
        dur_ns: tracer.clock_ns() - spawned_at,
    }];
    spans.extend(
        Tracer::spans_from_json(server.get("spans").unwrap_or(&Value::Null))
            .into_iter()
            .map(|s| Span {
                parent: Some(s.parent.map_or(0, |p| p + 1)),
                ..s
            }),
    );
    tracer.adopt(&spans, spawned_at);

    let dataset = yahooqa(seed);
    let config = campaign_config(seed);
    let oracle = tracer.time("bench.oracle", || run_campaign(&dataset, APPROACH, &config));
    let expected = labels_lines(&oracle.labels);
    tracer.close(root);

    let flag = |k: &str| server.get(k).and_then(Value::as_bool) == Some(true);
    let num = |k: &str| server.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    report.gate(exited.success(), || {
        format!("seed {seed}: server process failed: {exited}")
    });
    // Some seeds' simulated crowds leave before every task settles, in
    // process as well as served; the served campaign must complete
    // exactly when the in-process one does.
    report.gate(
        loadgen.complete == oracle.completed && loadgen.balanced,
        || {
            format!(
                "seed {seed}: loadgen saw complete={} balanced={} (in process: complete={})",
                loadgen.complete, loadgen.balanced, oracle.completed
            )
        },
    );
    report.gate(loadgen.labels.as_deref() == Some(expected.as_str()), || {
        format!("seed {seed}: labels fetched over RESULTS differ from run_campaign")
    });
    report.gate(
        server.get("labels").and_then(Value::as_str) == Some(expected.as_str()),
        || format!("seed {seed}: served labels differ from run_campaign"),
    );
    report.gate(
        flag("completed") == oracle.completed
            && flag("balanced")
            && num("answers") == oracle.answers as f64,
        || format!("seed {seed}: served campaign's completion, accounting or answers differ"),
    );
    acc.incomplete += u64::from(!oracle.completed);
    if journaled {
        report.gate(flag("recover_ok"), || {
            format!(
                "seed {seed}: journal replay through recover() failed: {}",
                server
                    .get("recover_error")
                    .and_then(Value::as_str)
                    .unwrap_or("labels differ")
            )
        });
    }
    let server_obs = ObsRead::from_json(server.get("obs").unwrap_or(&Value::Null));
    if !traced {
        report.gate(!flag("obs_enabled") && server_obs.is_empty(), || {
            format!("seed {seed}: the server recorded telemetry in an untraced run")
        });
    }

    let answers = loadgen.accepted;
    let submit = client
        .histogram("loadgen.submit")
        .cloned()
        .unwrap_or_default();
    acc.attempted += loadgen.requests;
    acc.failed += loadgen.busy + loadgen.retries + loadgen.rejected;
    acc.log(
        seed,
        match (traced, journaled) {
            (false, _) => "plain",
            (true, false) => "traced",
            (true, true) => "traced+journal",
        },
        num("setup_ns") / 1e9,
        loadgen.throughput,
        [0.5, 0.99].map(|p| hist_us(&submit, p)),
    );
    if journaled {
        // Only the journal's own figures: the journal changes the
        // server's timings, which the other layers describe without it.
        if let Some(h) = server_obs.histogram("journal.append") {
            acc.layer_hist(
                "platform.journal_append_p50_us",
                "platform.journal_append_p99_us",
                h,
            );
        }
        let per_answer = |c: &str| ratio(server_obs.counter(c) as f64, answers as f64);
        acc.layer("platform.fsyncs_per_answer", per_answer("journal.fsync"));
        acc.layer(
            "platform.journal_bytes_per_answer",
            per_answer("journal.bytes"),
        );
        acc.layer("platform.recover_s", num("recover_s"));
        acc.obs.merge(&server_obs);
        return Ok(());
    }

    acc.setup_s.push(num("setup_ns") / 1e9);
    acc.drive(traced, answers, loadgen.elapsed);
    acc.rss_mb.push(num("rss_mb"));
    if acc.quality.len() < opts.quality_seeds {
        let measured = num("tasks") - num("gold");
        acc.quality
            .push((num("accuracy"), ratio(num("answers"), measured)));
    }
    if !traced {
        acc.submit_hist.merge(&submit);
        return Ok(());
    }
    let requests = loadgen.requests as f64;
    if let Some(h) = client.histogram("loadgen.request") {
        acc.layer_hist("server.request_p50_us", "server.request_p99_us", h);
    }
    acc.layer_hist("server.submit_p50_us", "server.submit_p99_us", &submit);
    for (p50, p99, span) in SERVER_HISTS {
        if let Some(h) = server_obs.histogram(span) {
            acc.layer_hist(p50, p99, h);
        }
    }
    acc.layer(
        "server.requests_per_answer",
        ratio(requests, answers as f64),
    );
    acc.layer(
        "server.conns_per_request",
        ratio(server_obs.counter("serve.conn_accepted") as f64, requests),
    );
    acc.layer("server.busy", loadgen.busy as f64);
    acc.layer("server.retries", loadgen.retries as f64);
    let issued = ["assign.issued", "assign.warmup", "assign.repeat"]
        .iter()
        .map(|c| server_obs.counter(c))
        .sum::<u64>();
    acc.layer(
        "icrowd.assigned_frac",
        ratio(issued as f64, server_obs.count("assign.loop") as f64),
    );
    if let Some(parts) = server.get("setup_parts").and_then(Value::as_array) {
        let part = |i: usize| parts.get(i).and_then(Value::as_f64).unwrap_or(0.0);
        let split = [part(0), part(1), part(2), part(3)];
        record_setup_layers(acc, &split, num("setup_ns") / 1e9);
    }
    acc.obs.merge(&server_obs);
    Ok(())
}

/// The server process of one served campaign: build and bind, report
/// `READY <addr>`, serve until the load generator's `SHUTDOWN`, then
/// check the journal and print one JSON result line.
///
/// In a traced campaign the set-up is first split into its public
/// calls on identical copies (telemetry off), then the real server is
/// built with telemetry on.
///
/// # Errors
/// Bind and journal-creation failures.
pub fn serve_child(seed: u64, journal: Option<PathBuf>, traced: bool) -> Result<(), String> {
    let dataset = yahooqa(seed);
    let config = campaign_config(seed);
    let mut tracer = Tracer::new(traced);
    let mut parts = Vec::new();
    if traced {
        // Twice, keeping the second: the first warms the process (page
        // faults, allocator), which would otherwise make the copy slower
        // than the real engine that follows it.
        let span = tracer.open("bench.setup_split");
        for _ in 0..2 {
            parts = timed_setup(&dataset, &config, &mut tracer).1.to_vec();
        }
        tracer.close(span);
        icrowd_obs::reset();
        icrowd_obs::enable();
    }

    let setup_span = tracer.open("server.setup");
    let t0 = Instant::now();
    let engine = tracer.time("server.engine_new", || {
        CampaignEngine::new(DATASET, dataset.clone(), APPROACH, config.clone())
    });
    if let Some(path) = &journal {
        tracer
            .time("platform.start_journal", || {
                engine.start_journal(path, FSYNC_EVERY, SNAPSHOT_EVERY)
            })
            .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
    }
    let handle = tracer
        .time("server.bind", || {
            serve(
                engine,
                &ServeConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    ..Default::default()
                },
            )
        })
        .map_err(|e| format!("cannot bind: {e}"))?;
    let setup_ns = t0.elapsed().as_nanos() as u64;
    tracer.close(setup_span);
    let mut stdout = std::io::stdout();
    writeln!(stdout, "READY {}", handle.addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;

    let result = tracer.time("server.serve", || handle.join());
    let obs_enabled = icrowd_obs::is_enabled();
    let obs = ObsRead::capture();
    icrowd_obs::disable();
    let labels = labels_lines(&result.labels);

    let (mut recover_ok, mut recover_s, mut recover_error) = (false, 0.0, None);
    if let Some(path) = &journal {
        let t1 = Instant::now();
        let recovered = tracer.time("platform.recover", || {
            recover(
                path,
                DATASET,
                dataset.clone(),
                APPROACH,
                config.clone(),
                FSYNC_EVERY,
                SNAPSHOT_EVERY,
            )
        });
        recover_s = t1.elapsed().as_secs_f64();
        match recovered {
            Ok((engine, rep)) => recover_ok = rep.balanced && engine.labels() == labels,
            Err(e) => recover_error = Some(e),
        }
        let _ = std::fs::remove_file(path);
    }

    let line = json!({
        "setup_ns": setup_ns,
        "setup_parts": parts,
        "accuracy": result.overall,
        "answers": result.answers as u64,
        "tasks": dataset.tasks.len() as u64,
        "gold": result.gold.len() as u64,
        "completed": result.completed,
        "balanced": result.accounting.balanced(),
        "labels": labels,
        "recover_ok": recover_ok,
        "recover_s": recover_s,
        "recover_error": recover_error,
        "obs_enabled": obs_enabled,
        "obs": obs.to_json(),
        "rss_mb": peak_rss_mb(),
        "spans": tracer.to_json()
    });
    writeln!(stdout, "{}", serde_json::to_string(&line).expect("json")).map_err(|e| e.to_string())
}
