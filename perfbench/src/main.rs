//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics). The line before it carries the
//! run's context: sample counts, cores, source revision and any failed
//! correctness gate. Exits nonzero when a gate failed.
//!
//! `perfbench serve-child <seed> <journal|-> <0|1>` is the server
//! process of one served campaign (started by the served workloads).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use icrowd_perfbench::metrics::{END_TO_END, PER_LAYER};
use icrowd_perfbench::run::{nproc, BuildScale, Opts};
use icrowd_perfbench::{campaign_counts, run_workload, served, WORKLOADS};
use serde_json::json;

/// Directory (relative to the working directory) for journals and
/// trace files.
const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return serve_child(&args[1..]);
    }
    match parse(&args) {
        Ok((workload, opts)) => bench(&workload, &opts),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let server_exe =
        std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        min_campaigns: 1,
        quality_seeds: 1,
        build: BuildScale::FULL,
        out_dir: PathBuf::from(OUT_DIR),
        server_exe,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = |what: &str| format!("invalid {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    (opts.min_campaigns, opts.quality_seeds) = campaign_counts(&workload);
    Ok((workload, opts))
}

fn bench(workload: &str, opts: &Opts) -> ExitCode {
    let Some(mut report) = run_workload(workload, opts) else {
        eprintln!("error: unknown workload `{workload}`");
        return ExitCode::from(2);
    };
    report.note("workload", json!(workload));
    report.note("seed", json!(opts.seed));
    report.note("trace", json!(opts.trace));
    report.note("nproc", json!(nproc() as u64));
    report.note("rev", json!(source_revision()));
    for gate in &report.failed_gates {
        eprintln!("gate failed: {gate}");
    }
    println!("{}", report.info_line());
    match report.result_line(if opts.trace { PER_LAYER } else { END_TO_END }) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn serve_child(args: &[String]) -> ExitCode {
    let parsed = match args {
        [seed, journal, trace] => seed.parse::<u64>().ok().map(|seed| {
            let journal = (journal != "-").then(|| PathBuf::from(journal));
            (seed, journal, trace == "1")
        }),
        _ => None,
    };
    let Some((seed, journal, trace)) = parsed else {
        eprintln!("usage: perfbench serve-child <seed> <journal|-> <0|1>");
        return ExitCode::from(2);
    };
    match served::serve_child(seed, journal, trace) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve-child: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The commit of the working directory's checkout, read from `.git`
/// without leaving the directory; `unknown` elsewhere.
fn source_revision() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.chars().take(12).collect()
    }
}
