//! End-to-end tests of the TCP serving layer: a campaign driven over
//! real sockets by the concurrent load generator must complete, keep
//! the marketplace accounting's conservation laws, and produce
//! consensus labels byte-identical to the in-process path at the same
//! seed.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use icrowd::AssignStrategy;
use icrowd_serve::protocol::Request;
use icrowd_serve::{client, run_loadgen, serve, CampaignEngine, Conn, LoadgenConfig, ServeConfig};
use icrowd_sim::campaign::{labels_lines, run_campaign, Approach, CampaignConfig, MetricChoice};
use icrowd_sim::datasets::{table1, yahooqa};
use serde_json::Value;

/// A fast campaign configuration (table1, Jaccard, 3 gold tasks).
fn quick_config() -> CampaignConfig {
    let mut config = CampaignConfig {
        metric: MetricChoice::Jaccard,
        ..Default::default()
    };
    config.icrowd.similarity_threshold = 0.3;
    config.icrowd.warmup.num_qualification = 3;
    config
}

fn start(approach: Approach, max_conns: usize) -> icrowd_serve::ServerHandle {
    let engine = CampaignEngine::new("table1", table1(), approach, quick_config());
    serve(
        engine,
        &ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            max_conns,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port")
}

/// The tentpole acceptance path: ≥8 concurrent loadgen workers drive a
/// served campaign to completion, the accounting balances, and the
/// final consensus is byte-identical to the in-process run.
#[test]
fn loadgen_campaign_matches_in_process_labels_byte_for_byte() {
    let approach = Approach::ICrowd(AssignStrategy::Adapt);
    let expected = run_campaign(&table1(), approach, &quick_config());

    let handle = start(approach, 32);
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 8,
        think_ms: 0,
        faults: None,
        shutdown: true,
        fetch_labels: true,
        ..Default::default()
    })
    .expect("loadgen completes");
    let served = handle.join();

    assert!(report.complete, "campaign did not complete: {report:?}");
    assert!(report.balanced, "conservation law violated: {report:?}");
    assert_eq!(
        report.labels.as_deref(),
        Some(labels_lines(&expected.labels).as_str()),
        "served consensus diverged from the in-process path"
    );
    assert_eq!(labels_lines(&served.labels), labels_lines(&expected.labels));
    assert_eq!(served.answers, expected.answers);
    assert_eq!(served.spend_cents, expected.spend_cents);
    assert!(served.accounting.balanced());
    assert!(served.completed);
    assert!(report.requests > 0 && report.accepted > 0);
}

/// Two threads racing the same submission: exactly one acceptance, one
/// duplicate rejection, and the accounting never double-counts (which
/// would show up as `balanced == false` — the double-payment detector).
#[test]
fn duplicate_submission_race_settles_exactly_once() {
    let handle = start(Approach::RandomMV, 32);
    let addr = handle.addr().to_string();

    // Find the worker whose turn is first and get her assignment.
    let mut assigned = None;
    'outer: for _ in 0..100 {
        for i in 1..=5u32 {
            let worker = format!("W{i}");
            let v = client::call_once(
                addr.as_str(),
                &Request::RequestTask {
                    worker: worker.clone(),
                },
            )
            .expect("poll");
            if v.get("type").and_then(Value::as_str) == Some("task") {
                assigned = Some((worker, v.get("task").and_then(Value::as_u64).unwrap()));
                break 'outer;
            }
        }
    }
    let (worker, task) = assigned.expect("some worker gets assigned");

    let barrier = Arc::new(Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let worker = worker.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = Conn::open(addr.as_str()).expect("connect");
                barrier.wait();
                conn.call(&Request::SubmitAnswer {
                    worker,
                    task: icrowd_core::task::TaskId(task as u32),
                    answer: icrowd_core::answer::Answer(0),
                })
                .expect("submit")
            })
        })
        .collect();
    let verdicts: Vec<Value> = racers.into_iter().map(|t| t.join().unwrap()).collect();

    let results: Vec<&str> = verdicts
        .iter()
        .map(|v| v.get("result").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        results.iter().filter(|r| **r == "accepted").count(),
        1,
        "exactly one acceptance: {verdicts:?}"
    );
    assert_eq!(
        results.iter().filter(|r| **r == "rejected").count(),
        1,
        "exactly one rejection: {verdicts:?}"
    );
    let rejected = verdicts
        .iter()
        .find(|v| v.get("result").and_then(Value::as_str) == Some("rejected"))
        .unwrap();
    assert_eq!(
        rejected.get("reason").and_then(Value::as_str),
        Some("duplicate"),
        "{rejected:?}"
    );

    // The conservation law holds: both submissions counted, one each way.
    let status = client::call_once(addr.as_str(), &Request::Status).expect("status");
    assert_eq!(status["balanced"].as_bool(), Some(true), "{status:?}");
    let a = &status["accounting"];
    assert_eq!(a["submitted"].as_u64(), Some(2));
    assert_eq!(a["accepted"].as_u64(), Some(1));
    assert_eq!(a["rejected"].as_u64(), Some(1));

    handle.shutdown();
    let result = handle.join();
    assert!(result.accounting.balanced(), "no double payment at drain");
}

/// Backpressure: once the live-connection cap is reached, the acceptor
/// rejects the next connection with an explicit `BUSY` line instead of
/// hanging or resetting, and admits again once a connection closes.
#[test]
fn overloaded_server_rejects_with_busy() {
    let handle = start(Approach::RandomMV, 2);
    let addr = handle.addr().to_string();

    // Two live connections fill the cap; a round-trip on each proves
    // its thread is serving it.
    let mut conn1 = Conn::open(addr.as_str()).expect("conn1");
    conn1.call(&Request::Hello).expect("hello");
    let mut conn2 = Conn::open(addr.as_str()).expect("conn2");
    conn2.call(&Request::Hello).expect("hello");
    // Over the cap: the acceptor must answer BUSY and close.
    let mut conn3 = Conn::open(addr.as_str()).expect("conn3");
    let v = conn3.call(&Request::Hello).expect("busy line");
    assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false), "{v:?}");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("busy"), "{v:?}");

    // The admitted connections keep being served, and report the cap.
    let v = conn1.call(&Request::Status).expect("status on a live conn");
    assert_eq!(v.get("type").and_then(Value::as_str), Some("status"));
    assert_eq!(v["connections"].as_u64(), Some(2), "{v:?}");

    // Closing one frees a slot.
    drop(conn2);
    let admitted = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let mut conn = Conn::open(addr.as_str()).expect("connect");
        conn.call(&Request::Hello)
            .is_ok_and(|v| v.get("type").and_then(Value::as_str) == Some("hello"))
    });
    assert!(admitted, "a freed slot was never reused");

    handle.shutdown();
    let _ = handle.join();
}

/// Drain with persistent clients: idle connections stay open and the
/// acceptor sits blocked in `accept`, yet `join` returns promptly after
/// `SHUTDOWN` — the self-connect wakes the acceptor and every idle
/// connection thread notices the drain at its next read tick.
#[test]
fn join_returns_promptly_with_idle_persistent_connections() {
    let handle = start(Approach::RandomMV, 32);
    let addr = handle.addr().to_string();
    let idle: Vec<Conn> = (0..4)
        .map(|_| {
            let mut conn = Conn::open(addr.as_str()).expect("connect");
            conn.call(&Request::Hello).expect("hello");
            conn
        })
        .collect();
    // Let the acceptor go back to blocking in accept.
    std::thread::sleep(Duration::from_millis(50));

    let mut conn = Conn::open(addr.as_str()).expect("connect");
    let bye = conn.call(&Request::Shutdown).expect("bye");
    assert_eq!(bye["type"].as_str(), Some("bye"), "{bye:?}");
    assert!(handle.is_draining(), "a `bye` reply means the drain began");
    let started = Instant::now();
    let result = handle.join();
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(2),
        "join took {waited:?} with idle persistent connections open"
    );
    assert!(result.accounting.balanced());
    drop(idle);
}

/// The head-of-line guard: 64 client threads, each holding one
/// persistent connection, against the default transport on yahooqa.
/// With a fixed handler pool the turn-holder's connection could queue
/// forever behind pinned ones; a thread per connection must finish the
/// campaign with labels byte-identical to the in-process run.
#[test]
fn sixty_four_persistent_clients_finish_yahooqa_with_in_process_labels() {
    let approach = Approach::ICrowd(AssignStrategy::Adapt);
    let config = CampaignConfig {
        seed: 42,
        ..Default::default()
    };
    let expected = run_campaign(&yahooqa(42), approach, &config);

    let engine = CampaignEngine::new("yahooqa", yahooqa(42), approach, config);
    let handle = serve(engine, &ServeConfig::default()).expect("bind ephemeral port");
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 64,
        ..Default::default()
    })
    .expect("loadgen completes");
    let served = handle.join();

    let expected_labels = labels_lines(&expected.labels);
    assert_eq!(report.labels.as_deref(), Some(expected_labels.as_str()));
    assert_eq!(labels_lines(&served.labels), expected_labels);
    assert_eq!(served.answers, expected.answers);
    assert_eq!(report.complete, expected.completed);
    assert!(report.balanced && served.accounting.balanced());
    assert_eq!(report.retries, 0, "a clean run needs no reconnects");
}

/// Malformed protocol lines get an error response; the connection (and
/// the campaign) survive.
#[test]
fn malformed_requests_get_error_responses_not_resets() {
    let handle = start(Approach::RandomMV, 8);
    let addr = handle.addr().to_string();

    use std::io::{BufRead as _, BufReader, Write as _};
    let stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for bad in [
        "this is not json",
        "{\"op\":\"EXPLODE\"}",
        "{\"no\":\"op\"}",
    ] {
        writer.write_all(bad.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(&line).expect("error response parses");
        assert_eq!(v["ok"].as_bool(), Some(false), "{line}");
    }
    // Same connection still serves valid requests afterwards.
    writer.write_all(b"{\"op\":\"HELLO\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(v["type"].as_str(), Some("hello"));
    assert_eq!(v["dataset"].as_str(), Some("table1"));

    handle.shutdown();
    let _ = handle.join();
}

/// A client that streams bytes without ever sending `\n` is cut off at
/// the line cap, long before the idle deadline, instead of growing the
/// server's buffer; other clients are still served.
#[test]
fn endless_request_line_is_cut_off_at_the_cap() {
    use std::io::{Read as _, Write as _};
    let handle = start(Approach::RandomMV, 8);
    let addr = handle.addr().to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_write_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let chunk = vec![b'x'; 64 * 1024];
    for _ in 0..16 {
        // 1 MiB in total. The server may close (or reset) mid-stream;
        // later writes then fail, which is fine.
        if stream.write_all(&chunk).is_err() {
            break;
        }
    }
    let started = Instant::now();
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        // An error line and/or EOF: the server closed the connection.
        Ok(_) => {
            let text = String::from_utf8_lossy(&reply);
            if let Some(line) = text.lines().next() {
                let v: Value = serde_json::from_str(line).expect("error response parses");
                assert_eq!(v["ok"].as_bool(), Some(false), "{line}");
            }
        }
        Err(e) => assert!(
            e.kind() == std::io::ErrorKind::ConnectionReset,
            "expected an error line, EOF or a reset, got {e}"
        ),
    }
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "the server held the connection open for {:?}",
        started.elapsed()
    );

    let mut conn = Conn::open(addr.as_str()).expect("a new connection is accepted");
    let v = conn.call(&Request::Hello).expect("HELLO answered");
    assert_eq!(v["type"].as_str(), Some("hello"), "{v}");
    drop(conn);
    handle.shutdown();
    let _ = handle.join();
}

/// Client-side fault injection: duplicate submissions are rejected as
/// strays, the campaign still completes, and consensus is unchanged —
/// duplicates must never alter labels or double-pay.
#[test]
fn loadgen_duplicates_do_not_perturb_consensus() {
    let approach = Approach::RandomMV;
    let expected = run_campaign(&table1(), approach, &quick_config());

    let handle = start(approach, 32);
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        workers: 8,
        think_ms: 0,
        faults: Some(icrowd_serve::ClientFaultConfig {
            dup: 0.5,
            late: 0.0,
            late_ms: 0,
            seed: 11,
        }),
        shutdown: true,
        fetch_labels: true,
        ..Default::default()
    })
    .expect("loadgen completes");
    let served = handle.join();

    assert!(report.complete);
    assert!(report.balanced);
    assert!(report.dups_sent > 0, "fault plan injected no duplicates");
    assert!(
        served.accounting.answers_rejected >= report.dups_sent,
        "every duplicate copy must be rejected: {:?} vs {} dups",
        served.accounting,
        report.dups_sent
    );
    assert_eq!(
        labels_lines(&served.labels),
        labels_lines(&expected.labels),
        "duplicates changed the consensus"
    );
    assert!(served.accounting.balanced());
}
