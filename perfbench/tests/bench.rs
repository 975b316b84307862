//! The benchmark's own checks: metric names, every workload's
//! correctness gates at smoke size, and a timing wrapper that changes
//! nothing it wraps.

use std::path::PathBuf;

use icrowd_perfbench::inproc::{campaign_config, drive_campaign, timed_setup, APPROACH};
use icrowd_perfbench::metrics::{valid_name, END_TO_END, PER_LAYER};
use icrowd_perfbench::run::{BuildScale, Opts};
use icrowd_perfbench::trace::Tracer;
use icrowd_perfbench::{run_workload, WORKLOADS};
use icrowd_sim::campaign::{labels_lines, run_campaign};
use icrowd_sim::datasets::{item_compare, yahooqa};
use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &Value, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(Value::as_array)
        .expect("a list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_metric_and_workload_name_is_well_formed() {
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
    }
    for w in WORKLOADS {
        assert!(valid_name(w), "bad workload name {w}");
    }
    for bad in ["", "-x", "a b", "p99%", &"x".repeat(65)] {
        assert!(!valid_name(bad), "accepted {bad:?}");
    }
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_the_runs_print() {
    let spec = benchmark_json();
    let own = |set: &[(&str, &str)]| set.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
    assert_eq!(names(&spec, "end_to_end"), own(END_TO_END));
    assert_eq!(names(&spec, "per_layer"), own(PER_LAYER));
    assert_eq!(names(&spec, "workloads"), WORKLOADS);
    for m in spec.get("end_to_end").and_then(Value::as_array).unwrap() {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        let unit = END_TO_END.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
    }
}

fn smoke_opts(trace: bool) -> Opts {
    Opts {
        seed: 3,
        seconds: 0.0,
        trace,
        // Four, so a traced run makes two traced campaigns (one smoke-size
        // set-up split is too noisy to check alone) and the served one
        // also a journaled campaign.
        min_campaigns: 4,
        // Five, so the served workload runs one quality seed in process.
        quality_seeds: 5,
        build: BuildScale {
            tasks: 2_000,
            requests: 1_500,
        },
        out_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

#[test]
fn every_workload_passes_its_gates_at_smoke_size() {
    for trace in [false, true] {
        let opts = smoke_opts(trace);
        for w in WORKLOADS {
            let report = run_workload(w, &opts).expect("known workload");
            assert!(
                report.correct(),
                "{w} (trace {trace}) failed gates: {:?}",
                report.failed_gates
            );
            let set = if trace { PER_LAYER } else { END_TO_END };
            let line = report.result_line(set).expect("every metric measured");
            let parsed: Value = serde_json::from_str(&line).unwrap();
            assert_eq!(parsed.get("correct").and_then(Value::as_bool), Some(true));
            if !trace {
                for &(name, _) in END_TO_END {
                    assert!(report.values[name] > 0.0, "{w}: {name} is 0");
                }
            } else {
                let parts = report.values["setup.parts_frac"];
                assert!(
                    parts > 0.7 && parts < 1.3,
                    "{w}: set-up parts sum to {parts}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&opts.out_dir);
    }
}

#[test]
fn timing_wrapper_leaves_labels_byte_identical() {
    for (dataset, seed) in [(item_compare(5), 5), (yahooqa(6), 6)] {
        let config = campaign_config(seed);
        let plain = run_campaign(&dataset, APPROACH, &config);
        let mut tracer = Tracer::new(true);
        let (setup, _) = timed_setup(&dataset, &config, &mut tracer);
        let (wrapped, times, _) = drive_campaign(&dataset, &config, setup, &mut tracer);
        assert!(times.calls() > 0);
        assert_eq!(labels_lines(&wrapped.labels), labels_lines(&plain.labels));
        assert_eq!(wrapped.answers, plain.answers);
        assert_eq!(wrapped.accounting, plain.accounting);
    }
}

#[test]
fn a_failed_gate_fails_every_operation_of_the_run() {
    let mut report = icrowd_perfbench::metrics::Report {
        attempted: 10,
        failed: 1,
        ..Default::default()
    };
    for &(name, _) in END_TO_END {
        report.set(name, 1.0);
    }
    report.gate(false, || "broken".into());
    let v: Value = serde_json::from_str(&report.result_line(END_TO_END).unwrap()).unwrap();
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(10));
    let ok_frac = v
        .get("metrics")
        .and_then(|m| m.get("ok_frac"))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64);
    assert_eq!(ok_frac, Some(0.0));
}
