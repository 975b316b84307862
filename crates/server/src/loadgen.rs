//! The load generator: N concurrent client threads multiplexing the
//! campaign's simulated worker roster against a running server.
//!
//! From the server's `HELLO` announcement the generator regenerates the
//! dataset and worker population locally (`by_name(dataset, seed)` +
//! `spawn_workers(seed)` — the same construction the in-process harness
//! uses), so each logical worker answers with the *identical* RNG
//! stream: one draw per assignment, in the order the server's
//! deterministic schedule issues assignments. That is what makes the
//! served campaign's consensus byte-identical to `run_campaign` at the
//! same seed.
//!
//! Each client thread keeps one persistent connection for its whole
//! run. Logical workers sit in a shared dispenser; a thread takes one,
//! runs one poll cycle on its connection (`REQUEST_TASK`, and on
//! assignment `SUBMIT_ANSWER`), and gives the worker back — so any
//! number of threads drives any roster size, and "64 concurrent
//! workers" means 64 real connections in flight, even though the
//! schedule serializes turns. A `wait` response names the worker the
//! schedule is waiting on (`"turn":"W7"`); the dispenser hands that
//! worker to the next free thread instead of the next one in line, and
//! falls back to first-in-first-out when no hint is given.
//!
//! Client-side fault injection covers the misbehaviours a *client* can
//! produce: duplicate submissions (`dup`) and late submissions
//! (`late`). Drops and stalls are server-side faults (`icrowd serve
//! --faults`) — a client that goes silent on a scheduled assignment
//! would wedge the campaign, which is the lease/fault machinery's
//! domain, not the load generator's.
//!
//! The generator survives server restarts: transport failures and
//! `BUSY` back-pressure retry with bounded exponential backoff plus
//! jitter on a fresh connection, the target address is re-read from
//! `--addr-file` on every reconnect (a restarted server binds a fresh
//! ephemeral port), and
//! answers are memoized per assignment so a re-submit after a
//! crash-rewind replays the *identical* answer — the server accepts it
//! once and rejects the copy as a duplicate, keeping accepted answers
//! exactly-once. A no-progress watchdog (`give_up_ms`) bounds how long
//! a wedged campaign can hang the run.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use icrowd_platform::market::WorkerBehavior;
use icrowd_sim::datasets::{by_name, Dataset};
use icrowd_sim::worker_model::SimWorker;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::client::Conn;
use crate::protocol::Request;

/// Client-side fault plan: rates in `[0,1]`, deterministic under `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientFaultConfig {
    /// Probability a submission is sent twice (the copy is stray).
    pub dup: f64,
    /// Probability a submission is delayed by [`Self::late_ms`].
    pub late: f64,
    /// Delay for late submissions, milliseconds.
    pub late_ms: u64,
    /// RNG seed for the fault draws.
    pub seed: u64,
}

impl ClientFaultConfig {
    /// Parses a `dup=0.1,late=0.05:20,seed=7` spec.
    ///
    /// # Errors
    /// Unknown keys, unparseable numbers, and rates outside `[0,1]` —
    /// reported, never panicked.
    pub fn parse(spec: &str) -> Result<ClientFaultConfig, String> {
        let mut out = ClientFaultConfig {
            dup: 0.0,
            late: 0.0,
            late_ms: 10,
            seed: 0,
        };
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            let rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid rate `{v}` for `{key}`"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("rate `{v}` for `{key}` outside [0,1]"));
                }
                Ok(r)
            };
            match key {
                "dup" => out.dup = rate(value)?,
                "late" => match value.split_once(':') {
                    Some((r, ms)) => {
                        out.late = rate(r)?;
                        out.late_ms = ms
                            .parse()
                            .map_err(|_| format!("invalid late delay `{ms}`"))?;
                    }
                    None => out.late = rate(value)?,
                },
                "seed" => {
                    out.seed = value
                        .parse()
                        .map_err(|_| format!("invalid seed `{value}`"))?;
                }
                other => return Err(format!("unknown fault key `{other}`")),
            }
        }
        Ok(out)
    }
}

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Re-read the server address from this file before every
    /// (re)connect (falls back to [`Self::addr`] while the file is
    /// missing or empty). A restarted server writes its fresh ephemeral
    /// address here.
    pub addr_file: Option<String>,
    /// Number of concurrent client threads, each with one persistent
    /// connection.
    pub workers: usize,
    /// Think time between a worker's poll cycles, milliseconds.
    pub think_ms: u64,
    /// Abort when no answer lands for this long (milliseconds; `0`
    /// disables the watchdog).
    pub give_up_ms: u64,
    /// Per-connection connect/read/write timeout, milliseconds. A
    /// blackholed or wedged connection surfaces as a clean retriable
    /// error after this long instead of hanging a client thread.
    pub io_timeout_ms: u64,
    /// Client-side fault plan.
    pub faults: Option<ClientFaultConfig>,
    /// Send `SHUTDOWN` after the campaign completes.
    pub shutdown: bool,
    /// Fetch the final consensus labels via `RESULTS`.
    pub fetch_labels: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7700".to_owned(),
            addr_file: None,
            workers: 8,
            think_ms: 0,
            give_up_ms: 30_000,
            io_timeout_ms: 5_000,
            faults: None,
            shutdown: true,
            fetch_labels: true,
        }
    }
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Roster size announced by the server.
    pub roster: usize,
    /// Client threads run.
    pub threads: usize,
    /// Total protocol requests issued.
    pub requests: u64,
    /// Transport-level retries (reconnects after drops/`BUSY`).
    pub retries: u64,
    /// `BUSY` back-pressure responses received.
    pub busy: u64,
    /// Duplicate submissions injected (client faults).
    pub dups_sent: u64,
    /// Answers the server accepted (final `STATUS`).
    pub accepted: u64,
    /// Submissions the server rejected.
    pub rejected: u64,
    /// Every task reached consensus.
    pub complete: bool,
    /// The accounting conservation law held at the end.
    pub balanced: bool,
    /// Wall-clock duration of the drive phase.
    pub elapsed: Duration,
    /// Accepted answers per second.
    pub throughput: f64,
    /// p50/p99 of `REQUEST_TASK` round-trips, microseconds.
    pub request_p50_us: f64,
    /// p99 of `REQUEST_TASK` round-trips, microseconds.
    pub request_p99_us: f64,
    /// p50 of `SUBMIT_ANSWER` round-trips, microseconds.
    pub submit_p50_us: f64,
    /// p99 of `SUBMIT_ANSWER` round-trips, microseconds.
    pub submit_p99_us: f64,
    /// Final consensus labels (when fetched).
    pub labels: Option<String>,
}

/// One logical worker in the dispenser.
struct Logical {
    external: String,
    sim: SimWorker,
    rng: Option<StdRng>,
    /// Answers already drawn, by task id. `SimWorker::answer` advances
    /// the worker's RNG, so a re-submit (reconnect, crash-rewind
    /// re-issue) must replay the memoized draw rather than draw again —
    /// that is what keeps a recovered campaign byte-identical to the
    /// uninterrupted baseline. Entries are dropped on `dropped` /
    /// `rejected` verdicts, after which the in-process harness would
    /// also re-draw on the next assignment of that task.
    answered: HashMap<u32, icrowd_core::answer::Answer>,
}

/// How one poll cycle left its worker.
enum Cycle {
    /// Work continues; give the worker back to the dispenser, with the
    /// turn-holder a `wait` named (as a roster index), if any.
    Continue { answered: bool, turn: Option<usize> },
    /// The worker is done and the campaign finished.
    Done,
    /// Transient pressure (`BUSY`); back off and retry.
    Backoff,
    /// Transport failure or damaged exchange (refused, reset, timeout,
    /// eviction, a garbled line); reconnect with backoff — the server
    /// may be restarting, or the network corrupting. The no-progress
    /// watchdog bounds how long retries can go nowhere.
    Retry(String),
}

/// Where a logical worker is.
enum Slot<T> {
    /// In the dispenser, ready for a free thread.
    Ready(T),
    /// Checked out by a client thread.
    Out,
    /// Gone for good: left the campaign.
    Retired,
}

/// What the dispenser hands a free thread.
enum Take<T> {
    /// Poll as this worker (roster index, worker).
    Worker(usize, T),
    /// Nothing to hand out yet: the named turn-holder, or every live
    /// worker, is out with other threads.
    Wait,
    /// Every worker retired.
    Finished,
}

/// The pool of logical workers the client threads share. A hinted
/// turn-holder goes out first — or, while another thread has it, no one
/// does, since no other worker's poll can advance the schedule. With no
/// hint the pool is first-in-first-out.
struct Dispenser<T> {
    slots: Vec<Slot<T>>,
    /// Ready workers in the order they came back.
    ready: VecDeque<usize>,
    /// The worker the server last named as turn-holder; cleared once it
    /// is handed out.
    turn: Option<usize>,
    live: usize,
}

impl<T> Dispenser<T> {
    fn new(workers: Vec<T>) -> Self {
        Self {
            live: workers.len(),
            ready: (0..workers.len()).collect(),
            slots: workers.into_iter().map(Slot::Ready).collect(),
            turn: None,
        }
    }

    fn take(&mut self) -> Take<T> {
        if self.live == 0 {
            return Take::Finished;
        }
        if let Some(t) = self.turn {
            match self.slots[t] {
                Slot::Ready(_) => {
                    self.turn = None;
                    self.ready.retain(|&i| i != t);
                    return Take::Worker(t, self.check_out(t));
                }
                Slot::Out => return Take::Wait,
                Slot::Retired => self.turn = None,
            }
        }
        match self.ready.pop_front() {
            Some(i) => Take::Worker(i, self.check_out(i)),
            None => Take::Wait,
        }
    }

    fn check_out(&mut self, i: usize) -> T {
        match std::mem::replace(&mut self.slots[i], Slot::Out) {
            Slot::Ready(worker) => worker,
            _ => unreachable!("only ready workers are checked out"),
        }
    }

    /// Returns a worker; `turn` is the turn-holder its poll was told
    /// to wait for.
    fn give_back(&mut self, i: usize, worker: T, turn: Option<usize>) {
        self.slots[i] = Slot::Ready(worker);
        self.ready.push_back(i);
        if let Some(t) = turn.filter(|&t| t < self.slots.len()) {
            self.turn = Some(t);
        }
    }

    fn retire(&mut self, i: usize) {
        self.slots[i] = Slot::Retired;
        self.live -= 1;
        if self.turn == Some(i) {
            self.turn = None;
        }
    }
}

struct Shared {
    pool: Mutex<Dispenser<Logical>>,
    /// Signalled whenever a worker comes back or retires.
    returned: Condvar,
    requests: AtomicU64,
    retries: AtomicU64,
    dups_sent: AtomicU64,
    abort: AtomicBool,
    error: Mutex<Option<String>>,
    /// Most recent transport error, folded into the give-up message.
    last_retry: Mutex<Option<String>>,
    /// Watchdog: when the run started, and elapsed-ms at last progress.
    started: Instant,
    progress_ms: AtomicU64,
}

impl Shared {
    fn pool(&self) -> MutexGuard<'_, Dispenser<Logical>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a worker to poll as, waiting one bounded slice for one to
    /// come back if none is free (the caller re-checks the watchdog and
    /// the abort flag between slices).
    fn take(&self) -> Take<Logical> {
        let mut pool = self.pool();
        match pool.take() {
            Take::Wait => {}
            taken => return taken,
        }
        let mut pool = self
            .returned
            .wait_timeout(pool, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        pool.take()
    }

    fn give_back(&self, i: usize, worker: Logical, turn: Option<usize>) {
        self.pool().give_back(i, worker, turn);
        self.returned.notify_one();
    }

    fn retire(&self, i: usize) {
        self.pool().retire(i);
        self.returned.notify_all();
    }

    fn mark_progress(&self) {
        self.progress_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn stalled_for_ms(&self) -> u64 {
        (self.started.elapsed().as_millis() as u64)
            .saturating_sub(self.progress_ms.load(Ordering::Relaxed))
    }
}

/// The configured per-connection I/O deadline (connect, read, write).
fn io_timeout(config: &LoadgenConfig) -> Duration {
    Duration::from_millis(config.io_timeout_ms.max(1))
}

/// The connect target: the addr-file contents when configured and
/// non-empty, else the static address.
fn resolve_addr(config: &LoadgenConfig) -> String {
    if let Some(path) = &config.addr_file {
        if let Ok(text) = std::fs::read_to_string(path) {
            let addr = text.trim();
            if !addr.is_empty() {
                return addr.to_owned();
            }
        }
    }
    config.addr.clone()
}

/// Bounded exponential backoff with jitter: ~2ms doubling to a 500ms
/// cap, plus up to +50% random jitter so a fleet of retrying clients
/// does not reconnect in lockstep.
fn backoff_sleep(streak: u32, rng: &mut StdRng) {
    let base = 2u64 << streak.min(8).saturating_sub(1);
    let capped = base.min(500);
    let jitter = rng.gen_range(0..=capped / 2 + 1);
    std::thread::sleep(Duration::from_millis(capped + jitter));
}

/// Drives a full campaign against the server at `config.addr`.
///
/// # Errors
/// Connection failures, protocol violations, and unknown datasets in
/// the server's announcement.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.workers == 0 {
        return Err("loadgen needs at least one worker thread".to_owned());
    }
    if !icrowd_obs::is_enabled() {
        icrowd_obs::enable();
    }

    // Campaign announcement → regenerate the roster locally. Retried
    // with backoff: the server (or its addr-file) may not be up yet.
    let mut jitter_rng = jitter_rng();
    let hello_deadline = Instant::now() + Duration::from_millis(config.give_up_ms.max(5_000));
    let hello = loop {
        let addr = resolve_addr(config);
        match Conn::open_timeout(addr.as_str(), io_timeout(config))
            .and_then(|mut c| c.call(&Request::Hello))
        {
            Ok(v) => break v,
            Err(e) => {
                if Instant::now() >= hello_deadline {
                    return Err(format!("cannot reach server at `{addr}`: {e}"));
                }
                backoff_sleep(3, &mut jitter_rng);
            }
        }
    };
    expect_ok(&hello, "hello")?;
    let dataset_key = hello
        .get("dataset")
        .and_then(Value::as_str)
        .ok_or("hello carries no dataset")?;
    let seed = hello
        .get("seed")
        .and_then(Value::as_u64)
        .ok_or("hello carries no seed")?;
    let dataset = by_name(dataset_key, seed)
        .ok_or_else(|| format!("server announced unknown dataset `{dataset_key}`"))?;
    let dataset = Arc::new(dataset);
    let roster: Vec<Logical> = dataset
        .spawn_workers(seed)
        .into_iter()
        .enumerate()
        .map(|(i, sim)| Logical {
            external: format!("W{}", i + 1),
            sim,
            rng: config.faults.as_ref().map(|f| {
                StdRng::seed_from_u64(f.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            }),
            answered: HashMap::new(),
        })
        .collect();
    let roster_size = roster.len();

    let shared = Arc::new(Shared {
        pool: Mutex::new(Dispenser::new(roster)),
        returned: Condvar::new(),
        requests: AtomicU64::new(1), // the HELLO
        retries: AtomicU64::new(0),
        dups_sent: AtomicU64::new(0),
        abort: AtomicBool::new(false),
        error: Mutex::new(None),
        last_retry: Mutex::new(None),
        started: Instant::now(),
        progress_ms: AtomicU64::new(0),
    });

    let start = Instant::now();
    let threads: Vec<_> = (0..config.workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            let dataset = Arc::clone(&dataset);
            let config = config.clone();
            std::thread::spawn(move || drive(&shared, &dataset, &config))
        })
        .collect();
    for t in threads {
        t.join().map_err(|_| "client thread panicked".to_owned())?;
    }
    let elapsed = start.elapsed();
    if let Some(e) = shared
        .error
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }

    // Final probe: accounting and labels, then the optional shutdown.
    // The server may be mid-restart right now (a crash harness kills it
    // at arbitrary instants), so the probe rides through transport
    // failures the same way the drive loop does: re-resolve the
    // address, back off, retry until the give-up deadline. STATUS and
    // RESULTS are idempotent, so retrying them whole is safe; SHUTDOWN
    // is not, and goes out once, after them.
    let probe_deadline = Instant::now() + Duration::from_millis(config.give_up_ms.max(5_000));
    let mut streak = 0u32;
    let (status, labels) = loop {
        match final_probe(config) {
            Ok(out) => break out,
            Err(e) => {
                if Instant::now() >= probe_deadline {
                    return Err(format!("final probe never succeeded: {e}"));
                }
                shared.retries.fetch_add(1, Ordering::Relaxed);
                icrowd_obs::counter_add("loadgen.retry", 1);
                backoff_sleep(streak, &mut jitter_rng);
                streak += 1;
            }
        }
    };
    if config.shutdown {
        shutdown_server(config, probe_deadline, &shared, &mut jitter_rng)?;
    }

    let accepted = status_u64(&status, "accepted");
    let snap = icrowd_obs::snapshot();
    let span_us = |name: &str| {
        snap.spans
            .iter()
            .find(|s| s.name == name)
            .map_or((0.0, 0.0), |s| {
                (s.p50_ns as f64 / 1e3, s.p99_ns as f64 / 1e3)
            })
    };
    let (request_p50_us, request_p99_us) = span_us("loadgen.request");
    let (submit_p50_us, submit_p99_us) = span_us("loadgen.submit");

    Ok(LoadgenReport {
        roster: roster_size,
        threads: config.workers,
        requests: shared.requests.load(Ordering::Relaxed),
        retries: shared.retries.load(Ordering::Relaxed),
        busy: icrowd_obs::counter_value("loadgen.busy"),
        dups_sent: shared.dups_sent.load(Ordering::Relaxed),
        accepted,
        rejected: status_u64(&status, "rejected"),
        complete: status
            .get("complete")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        balanced: status
            .get("balanced")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        elapsed,
        throughput: accepted as f64 / elapsed.as_secs_f64().max(1e-9),
        request_p50_us,
        request_p99_us,
        submit_p50_us,
        submit_p99_us,
        labels,
    })
}

/// One attempt at the end-of-run probe: connect, fetch STATUS (and
/// RESULTS when requested). Any transport failure aborts the attempt;
/// the caller retries the whole sequence.
fn final_probe(config: &LoadgenConfig) -> Result<(Value, Option<String>), String> {
    let mut conn = Conn::open_timeout(resolve_addr(config).as_str(), io_timeout(config))?;
    let status = conn.call(&Request::Status)?;
    expect_ok(&status, "status")?;
    if !config.fetch_labels {
        return Ok((status, None));
    }
    let results = conn.call(&Request::Results)?;
    expect_ok(&results, "results")?;
    let labels = results
        .get("labels")
        .and_then(Value::as_str)
        .ok_or("results carry no labels")?;
    Ok((status, Some(labels.to_owned())))
}

/// STATUS attempts that must all fail before a lost `SHUTDOWN` reply is
/// taken to mean the server drained. A faulty network can fail a few
/// probes of a live server; it is very unlikely to fail this many. The
/// backoff between them spans about 2–3 s, long enough for a crashed
/// server that is being restarted to come back and answer.
const DRAIN_CONFIRM_ATTEMPTS: u32 = 12;

/// Sends `SHUTDOWN` until it is known to have landed. A server that got
/// it drains and can never answer a retry, so a transport error once
/// the line is written is not retried blindly: if the server still
/// answers STATUS, the line was lost and goes out again; if it answers
/// nothing any more, it drained and the reply was what got lost.
fn shutdown_server(
    config: &LoadgenConfig,
    deadline: Instant,
    shared: &Shared,
    rng: &mut StdRng,
) -> Result<(), String> {
    let mut streak = 0u32;
    loop {
        let sent = Conn::open_timeout(resolve_addr(config).as_str(), io_timeout(config))
            .and_then(|mut conn| conn.send(&Request::Shutdown).map(|()| conn));
        match sent {
            Ok(mut conn) => match conn.recv() {
                Ok(bye) if expect_ok(&bye, "shutdown").is_ok() => return Ok(()),
                _ if !server_answers(config, rng) => return Ok(()),
                _ => {}
            },
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("shutdown never reached the server: {e}"));
            }
            Err(_) => {}
        }
        if Instant::now() >= deadline {
            return Err("server still serving after repeated SHUTDOWN".to_owned());
        }
        shared.retries.fetch_add(1, Ordering::Relaxed);
        icrowd_obs::counter_add("loadgen.retry", 1);
        backoff_sleep(streak, rng);
        streak += 1;
    }
}

/// Whether the server answers STATUS within
/// [`DRAIN_CONFIRM_ATTEMPTS`] fresh connections.
fn server_answers(config: &LoadgenConfig, rng: &mut StdRng) -> bool {
    (0..DRAIN_CONFIRM_ATTEMPTS).any(|attempt| {
        if attempt > 0 {
            backoff_sleep(attempt, rng);
        }
        Conn::open_timeout(resolve_addr(config).as_str(), io_timeout(config))
            .and_then(|mut conn| conn.call(&Request::Status))
            .is_ok_and(|status| expect_ok(&status, "status").is_ok())
    })
}

fn status_u64(status: &Value, field: &str) -> u64 {
    status
        .get("accounting")
        .and_then(|a| a.get(field))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn expect_ok(v: &Value, what: &str) -> Result<(), String> {
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("{what} failed: {v:?}"))
    }
}

/// The next request trace id: unique within the process, never zero
/// (zero means "untraced" on the wire). Only drawn when telemetry is
/// enabled — untraced runs keep their request lines byte-identical to
/// the pre-tracing encoding.
fn next_trace_id() -> Option<u64> {
    if !icrowd_obs::is_enabled() {
        return None;
    }
    static NEXT: AtomicU64 = AtomicU64::new(1);
    Some(NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Records one client-side op round-trip under its outcome series:
/// successful protocol ops land in `op` (the series the report and
/// BENCH gates read), while BUSY back-pressure, server errors, and
/// transport failures land in `retry_op` so retries never pollute the
/// success quantiles. `started` is `None` when telemetry is disabled.
fn record_op(started: Option<Instant>, ok: bool, op: &'static str, retry_op: &'static str) {
    if let Some(t0) = started {
        let ns = t0.elapsed().as_nanos() as u64;
        icrowd_obs::record_span_ns(if ok { op } else { retry_op }, ns);
    }
}

/// A jitter RNG seeded from the process-global hash randomness — the
/// campaign's determinism never depends on backoff timing.
fn jitter_rng() -> StdRng {
    let seed = std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish();
    StdRng::seed_from_u64(seed)
}

/// One client thread: take a worker, run one cycle on the thread's
/// connection, repeat until every worker retired (or the run aborts).
fn drive(shared: &Shared, dataset: &Dataset, config: &LoadgenConfig) {
    let mut retry_streak = 0u32;
    let mut rng = jitter_rng();
    let mut conn: Option<Conn> = None;
    while !shared.abort.load(Ordering::SeqCst) {
        if config.give_up_ms > 0 && shared.stalled_for_ms() > config.give_up_ms {
            let last = shared
                .last_retry
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .map_or(String::new(), |e| format!(" (last transport error: {e})"));
            *shared.error.lock().unwrap_or_else(PoisonError::into_inner) = Some(format!(
                "no answer accepted for {}ms — campaign wedged, giving up{last}",
                config.give_up_ms
            ));
            shared.abort.store(true, Ordering::SeqCst);
            return;
        }
        let (i, mut worker) = match shared.take() {
            Take::Worker(i, worker) => (i, worker),
            Take::Wait => continue,
            Take::Finished => return,
        };
        match cycle(shared, dataset, config, &mut worker, &mut conn) {
            Cycle::Continue { answered, turn } => {
                retry_streak = 0;
                if answered {
                    shared.mark_progress();
                }
                shared.give_back(i, worker, turn);
                if answered && config.think_ms > 0 {
                    std::thread::sleep(Duration::from_millis(config.think_ms));
                }
            }
            Cycle::Done => {
                retry_streak = 0;
                shared.mark_progress();
                shared.retire(i);
            }
            res @ (Cycle::Backoff | Cycle::Retry(_)) => {
                // Transient: BUSY back-pressure, or the transport
                // dropped (possibly a server restart). Drop the
                // connection; the next cycle reconnects, re-resolving
                // the address. Exponential backoff with jitter; the
                // no-progress watchdog bounds the total.
                conn = None;
                if let Cycle::Retry(e) = res {
                    *shared
                        .last_retry
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(e);
                }
                retry_streak += 1;
                shared.retries.fetch_add(1, Ordering::Relaxed);
                icrowd_obs::counter_add("loadgen.retry", 1);
                shared.give_back(i, worker, None);
                backoff_sleep(retry_streak, &mut rng);
            }
        }
    }
}

/// The schedule says this worker is gone (left, terminally declined,
/// or stalled) — but after a crash-rewind the recovered server may
/// rewind that verdict, and the final sweep is driven by `STATUS`
/// pumps. Probe the campaign state: the worker only retires once the
/// campaign is actually complete or finished; until then it keeps
/// polling (and gets `WAIT` when it truly has nothing to do).
fn retire_probe(conn: &mut Conn, shared: &Shared) -> Cycle {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    match conn.call(&Request::Status) {
        Ok(status) => {
            let flag = |k: &str| status.get(k).and_then(Value::as_bool) == Some(true);
            if flag("complete") || flag("finished") {
                Cycle::Done
            } else {
                Cycle::Continue {
                    answered: false,
                    turn: None,
                }
            }
        }
        Err(e) => Cycle::Retry(e),
    }
}

/// The roster index a `wait` response names as turn-holder
/// (`"turn":"W7"` is index 6).
fn turn_hint(resp: &Value) -> Option<usize> {
    let id = resp.get("turn")?.as_str()?.strip_prefix('W')?;
    id.parse::<usize>().ok()?.checked_sub(1)
}

/// One poll cycle on the thread's connection (opened first if the last
/// cycle dropped it): request, and on assignment answer + submit (plus
/// client-fault variations).
fn cycle(
    shared: &Shared,
    dataset: &Dataset,
    config: &LoadgenConfig,
    worker: &mut Logical,
    conn: &mut Option<Conn>,
) -> Cycle {
    if conn.is_none() {
        match Conn::open_timeout(resolve_addr(config).as_str(), io_timeout(config)) {
            Ok(c) => *conn = Some(c),
            Err(e) => return Cycle::Retry(e),
        }
    }
    let conn = conn.as_mut().expect("connected above");
    let req = Request::RequestTask {
        worker: worker.external.clone(),
    };
    // Client-side round-trip timing is recorded under an
    // outcome-dependent series: `loadgen.request` holds only requests
    // the campaign made progress on, `loadgen.request.retry` holds
    // BUSY/error/transport attempts — so queueing delay under overload
    // is visible without skewing the success quantiles the BENCH gates
    // read.
    let started = icrowd_obs::is_enabled().then(Instant::now);
    let resp = conn.call_traced(&req, next_trace_id());
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let resp = match resp {
        Ok(v) => v,
        Err(e) => {
            record_op(started, false, "loadgen.request", "loadgen.request.retry");
            return Cycle::Retry(e);
        }
    };
    let kind = resp.get("type").and_then(Value::as_str);
    record_op(
        started,
        matches!(kind, Some("task" | "wait" | "declined" | "left")),
        "loadgen.request",
        "loadgen.request.retry",
    );
    match kind {
        Some("task") => {}
        Some("wait") => {
            return Cycle::Continue {
                answered: false,
                turn: turn_hint(&resp),
            }
        }
        Some("busy") => {
            icrowd_obs::counter_add("loadgen.busy", 1);
            return Cycle::Backoff;
        }
        // Server-side trouble with this connection (idle eviction, a
        // parse hiccup on a torn line): reconnect and retry.
        Some("error") => return Cycle::Retry(format!("server error: {resp:?}")),
        Some("declined") => {
            return if resp.get("retry").and_then(Value::as_bool) == Some(true) {
                Cycle::Continue {
                    answered: false,
                    turn: None,
                }
            } else {
                retire_probe(conn, shared)
            }
        }
        Some("left") => return retire_probe(conn, shared),
        // A response that parses but doesn't match the grammar is
        // transport damage on this connection (a corrupting network can
        // garble a line into different-but-valid JSON), not a proven
        // server bug: reconnect and retry. A genuinely broken server
        // still terminates the run via the no-progress watchdog.
        _ => return Cycle::Retry(format!("malformed poll response {resp:?}")),
    }
    let Some(task) = resp.get("task").and_then(Value::as_u64) else {
        return Cycle::Retry("task response without task id".to_owned());
    };
    let Ok(task) = u32::try_from(task) else {
        return Cycle::Retry(format!("task id {task} out of range"));
    };
    let task = icrowd_core::task::TaskId(task);

    // One answer draw per assignment — the same call the in-process
    // harness makes, in the same schedule order. A re-issued assignment
    // (reconnect, crash rewind) replays the memoized draw instead of
    // advancing the RNG again.
    let answer = if let Some(a) = worker.answered.get(&task.0) {
        *a
    } else {
        let a = worker.sim.answer(&dataset.tasks[task]);
        worker.answered.insert(task.0, a);
        a
    };

    let mut dup = false;
    if let (Some(faults), Some(rng)) = (config.faults.as_ref(), worker.rng.as_mut()) {
        dup = faults.dup > 0.0 && rng.gen_bool(faults.dup);
        let late = faults.late > 0.0 && rng.gen_bool(faults.late);
        if late {
            std::thread::sleep(Duration::from_millis(faults.late_ms));
        }
    }

    let submit = Request::SubmitAnswer {
        worker: worker.external.clone(),
        task,
        answer,
    };
    let started = icrowd_obs::is_enabled().then(Instant::now);
    let resp = conn.call_traced(&submit, next_trace_id());
    shared.requests.fetch_add(1, Ordering::Relaxed);
    let resp = match resp {
        Ok(v) => v,
        // The submit may or may not have landed before the transport
        // dropped. The memoized answer makes the retry idempotent: the
        // server accepts the (worker, task, answer) triple at most once
        // and rejects the replay as a duplicate.
        Err(e) => {
            record_op(started, false, "loadgen.submit", "loadgen.submit.retry");
            return Cycle::Retry(e);
        }
    };
    record_op(
        started,
        resp.get("result").and_then(Value::as_str).is_some(),
        "loadgen.submit",
        "loadgen.submit.retry",
    );
    if dup {
        // The copy is a stray; a compliant server rejects it as a
        // duplicate, and the accounting's conservation law still holds.
        shared.dups_sent.fetch_add(1, Ordering::Relaxed);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let _ = conn.call(&submit);
    }
    match resp.get("result").and_then(Value::as_str) {
        Some("stalled") => retire_probe(conn, shared),
        Some("rejected" | "dropped") => {
            // The answer did not enter consensus; the next assignment
            // of this task draws fresh, as the in-process harness does.
            worker.answered.remove(&task.0);
            Cycle::Continue {
                answered: true,
                turn: None,
            }
        }
        Some("accepted" | "deferred") => Cycle::Continue {
            answered: true,
            turn: None,
        },
        _ => Cycle::Retry(format!("malformed submit response {resp:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parses_the_documented_grammar() {
        let f = ClientFaultConfig::parse("dup=0.25,late=0.1:35,seed=9").unwrap();
        assert_eq!(f.dup, 0.25);
        assert_eq!(f.late, 0.1);
        assert_eq!(f.late_ms, 35);
        assert_eq!(f.seed, 9);
        let f = ClientFaultConfig::parse("late=0.5").unwrap();
        assert_eq!(f.late_ms, 10, "default delay");
    }

    #[test]
    fn dispenser_hands_out_the_named_turn_holder_first() {
        let mut d = Dispenser::new(vec!["W1", "W2", "W3", "W4"]);
        let taken = |d: &mut Dispenser<&'static str>| match d.take() {
            Take::Worker(i, w) => Some((i, w)),
            Take::Wait => None,
            Take::Finished => panic!("workers are still live"),
        };
        // No hint: first in, first out.
        assert_eq!(taken(&mut d), Some((0, "W1")));
        // W1's poll was told to wait for W3: W3 goes next, ahead of W2.
        d.give_back(0, "W1", Some(2));
        assert_eq!(taken(&mut d), Some((2, "W3")));
        // The hint is spent: back to first in, first out.
        assert_eq!(taken(&mut d), Some((1, "W2")));
        // Named again while another thread has it out: no one else goes
        // until it comes back, then it goes first.
        d.give_back(1, "W2", Some(2));
        assert_eq!(taken(&mut d), None);
        d.give_back(2, "W3", None);
        assert_eq!(taken(&mut d), Some((2, "W3")));
        // A hint naming an unknown or retired worker is dropped.
        d.retire(2);
        assert_eq!(taken(&mut d), Some((3, "W4")));
        d.give_back(3, "W4", Some(99));
        assert_eq!(taken(&mut d), Some((0, "W1")));
        d.give_back(0, "W1", Some(2));
        assert_eq!(taken(&mut d), Some((1, "W2")));
        // Every worker retired: the run is over.
        d.retire(1);
        assert_eq!(taken(&mut d), Some((3, "W4")));
        d.retire(3);
        assert_eq!(taken(&mut d), Some((0, "W1")));
        d.retire(0);
        assert!(matches!(d.take(), Take::Finished));
    }

    #[test]
    fn turn_hints_parse_to_roster_indices() {
        let wait = |turn: &str| serde_json::from_str::<Value>(turn).unwrap();
        assert_eq!(turn_hint(&wait(r#"{"type":"wait","turn":"W7"}"#)), Some(6));
        assert_eq!(turn_hint(&wait(r#"{"type":"wait"}"#)), None);
        assert_eq!(turn_hint(&wait(r#"{"type":"wait","turn":"W0"}"#)), None);
        assert_eq!(turn_hint(&wait(r#"{"type":"wait","turn":"X7"}"#)), None);
    }

    // Regression: spec parsers return errors instead of panicking on
    // malformed input (three malformed specs).
    #[test]
    fn malformed_dup_rate_is_an_error_not_a_panic() {
        let err = ClientFaultConfig::parse("dup=banana").unwrap_err();
        assert!(err.contains("banana"), "{err}");
    }

    #[test]
    fn malformed_late_delay_is_an_error_not_a_panic() {
        let err = ClientFaultConfig::parse("late=0.5:xx").unwrap_err();
        assert!(err.contains("xx"), "{err}");
    }

    #[test]
    fn unknown_fault_key_is_an_error_not_a_panic() {
        let err = ClientFaultConfig::parse("wobble=0.1").unwrap_err();
        assert!(err.contains("wobble"), "{err}");
        let err = ClientFaultConfig::parse("dup=1.5").unwrap_err();
        assert!(err.contains("outside"), "{err}");
    }
}
