//! Network faults end in a clean retry or a clean error — never a
//! hang. The chaos proxy sits between a real served campaign and the
//! hardened load generator; a fully blackholed network must surface a
//! bounded-time error, a resetting one must still converge to the
//! baseline labels through clean reconnects, and a lost `SHUTDOWN`
//! reply must not fail the run.

use std::time::{Duration, Instant};

use icrowd::core::ICrowdConfig;
use icrowd_serve::{
    run_loadgen, serve, CampaignEngine, ChaosProxy, ChaosProxyConfig, LoadgenConfig, Request,
    ServeConfig,
};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::table1;

fn config() -> CampaignConfig {
    let mut icrowd = ICrowdConfig {
        assignment_size: 3,
        similarity_threshold: 0.3,
        ..Default::default()
    };
    icrowd.warmup.num_qualification = 3;
    CampaignConfig {
        seed: 42,
        icrowd,
        metric: MetricChoice::Jaccard,
        ..Default::default()
    }
}

/// Regression for the blackhole hang: before the loadgen grew I/O
/// timeouts and the no-progress watchdog, a proxy that swallowed every
/// byte would wedge the client forever. Now it must return a clean
/// error in bounded time.
#[test]
fn blackholed_network_surfaces_a_clean_error_in_bounded_time() {
    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosProxyConfig::parse("blackhole=1.0,seed=3").expect("spec parses"),
    )
    .expect("bind proxy");

    let started = Instant::now();
    let err = run_loadgen(&LoadgenConfig {
        addr: proxy.addr().to_string(),
        workers: 2,
        give_up_ms: 1_000,
        io_timeout_ms: 200,
        ..Default::default()
    })
    .expect_err("a fully blackholed network must surface an error, not hang");
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_secs(30),
        "blackhole error took {elapsed:?}; the watchdog should bound it"
    );
    assert!(!err.is_empty(), "error carries no diagnostic");
    let stats = proxy.stop();
    assert!(stats.blackholed > 0, "proxy never blackholed a connection");
    handle.shutdown();
    handle.join();
}

/// Connection resets are transport damage, not protocol failures: the
/// loadgen reconnects and the campaign still converges byte-for-byte to
/// the baseline labels with balanced books. Clients keep one connection
/// each, so every connection gets a reset budget; each one dies within
/// 1 KiB and its client reconnects.
#[test]
fn resetting_proxy_still_converges_to_baseline_labels() {
    let expected = run_campaign(&table1(), Approach::RandomMV, &config());
    let baseline = labels_lines(&expected.labels);

    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosProxyConfig::parse("reset=1.0,seed=11").expect("spec parses"),
    )
    .expect("bind proxy");

    let report = run_loadgen(&LoadgenConfig {
        addr: proxy.addr().to_string(),
        workers: 4,
        io_timeout_ms: 500,
        give_up_ms: 60_000,
        ..Default::default()
    })
    .expect("loadgen rides through resets");
    let result = handle.join();
    let stats = proxy.stop();

    assert!(report.complete, "campaign incomplete under resets");
    assert!(report.balanced, "accounting unbalanced under resets");
    assert!(result.accounting.balanced());
    assert_eq!(
        report.labels.as_deref(),
        Some(baseline.as_str()),
        "labels diverged from baseline under resets"
    );
    assert!(stats.resets > 0, "proxy never reset a connection");
}

/// Regression for the `chaos --net` flake. The end-of-run probe used to
/// retry STATUS, RESULTS and SHUTDOWN as one unit, so when the network
/// lost only the SHUTDOWN reply, the server had already drained, no
/// retry could reach it, and the load generator spun until its deadline
/// and failed. A scheduled cut kills exactly that reply: the run must
/// succeed with baseline labels, and the server must have drained.
#[test]
fn lost_shutdown_reply_still_ends_the_run_cleanly() {
    let expected = run_campaign(&table1(), Approach::RandomMV, &config());
    let baseline = labels_lines(&expected.labels);

    let engine = CampaignEngine::new("table1", table1(), Approach::RandomMV, config());
    let handle = serve(engine, &ServeConfig::default()).expect("bind server");
    // Finish the campaign over clean connections, leaving the server up.
    run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 1,
        shutdown: false,
        ..Default::default()
    })
    .expect("campaign completes");

    // Through the proxy, one client thread opens connection 0 for HELLO,
    // 1 for its polls, 2 for the final STATUS + RESULTS and 3 for
    // SHUTDOWN. Cut connection 3 right after the SHUTDOWN line is
    // through: the server gets it, its reply is lost.
    let shutdown_line = serde_json::to_string(&Request::Shutdown.to_value())
        .expect("encodes")
        .len() as u64
        + 1;
    let proxy = ChaosProxy::start(
        handle.addr(),
        ChaosProxyConfig::parse(&format!("cut=3:{shutdown_line},seed=5")).expect("spec parses"),
    )
    .expect("bind proxy");
    let started = Instant::now();
    let report = run_loadgen(&LoadgenConfig {
        addr: proxy.addr().to_string(),
        workers: 1,
        io_timeout_ms: 500,
        give_up_ms: 10_000,
        ..Default::default()
    })
    .expect("a lost SHUTDOWN reply is not a failed run");
    let elapsed = started.elapsed();
    let stats = proxy.stop();

    // One reset and no retry: the cut hurt no exchange but SHUTDOWN's.
    assert_eq!(stats.resets, 1, "the scheduled cut fired once: {stats:?}");
    assert_eq!(report.retries, 0, "no other exchange was cut: {report:?}");
    assert!(handle.is_draining(), "the SHUTDOWN reached the server");
    assert!(
        elapsed < Duration::from_secs(8),
        "the run took {elapsed:?}; it must not wait out the probe deadline"
    );
    assert_eq!(report.labels.as_deref(), Some(baseline.as_str()));
    let result = handle.join();
    assert_eq!(labels_lines(&result.labels), baseline);
    assert!(result.accounting.balanced());
}
