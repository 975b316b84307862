//! The TCP transport: a blocking acceptor and one thread per
//! connection.
//!
//! The acceptor blocks in `accept` and hands every connection its own
//! thread, which serves request lines until the client closes. Clients
//! keep one connection for a whole run, so a fixed handler pool would
//! let the first few clients pin every handler while the rest — among
//! them, sooner or later, the worker whose turn the schedule is
//! waiting on — queue forever behind them. A thread per connection
//! rules that out without an event loop.
//!
//! Back-pressure is one cap on live connections: once
//! [`ServeConfig::max_conns`] are open, the acceptor writes a `BUSY`
//! line and closes (the client gets an explicit signal instead of an
//! opaque reset).
//!
//! Shutdown (the `SHUTDOWN` op, a fail-stop drain, or
//! [`ServerHandle::shutdown`]) sets a flag and wakes the acceptor with
//! a self-connect. The acceptor closes the listener and joins the
//! connection threads: each finishes the request in hand and drops its
//! connection at the next read. [`ServerHandle::join`] then finalizes
//! the campaign into its scored result.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use icrowd_sim::campaign::CampaignResult;

use crate::engine::CampaignEngine;
use crate::protocol::{Request, Response};

/// Transport parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port (the bound
    /// address is available via [`ServerHandle::addr`]).
    pub addr: String,
    /// Live-connection cap. Every connection is served by its own
    /// thread; one arriving while this many are open gets `BUSY` and
    /// is closed. It must admit every persistent client plus probes.
    pub max_conns: usize,
    /// Evict a connection that has not completed a request line for
    /// this long (slow-loris / stalled-client guard). `0` disables
    /// eviction.
    pub idle_timeout_ms: u64,
    /// Advance and emit a telemetry window every this many
    /// milliseconds (`icrowd serve --metrics-every`). `0` disables the
    /// emitter; the `METRICS` verb works regardless.
    pub metrics_every_ms: u64,
    /// Where the periodic window JSONL stream goes; `None` writes to
    /// stderr.
    pub metrics_out: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            max_conns: 256,
            idle_timeout_ms: 10_000,
            metrics_every_ms: 0,
            metrics_out: None,
        }
    }
}

/// What the acceptor and the connection threads share.
struct Transport {
    /// Where a self-connect reaches the listener.
    wake_addr: SocketAddr,
    shutdown: AtomicBool,
    /// Connections being served right now.
    live: AtomicUsize,
}

impl Transport {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Starts the drain and wakes the acceptor out of its blocking
    /// `accept`: it re-checks the flag after every connection, so a
    /// self-connect is enough. Returns whether this call started the
    /// drain (later calls are no-ops).
    fn drain(&self) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        true
    }
}

/// Decrements the live-connection count when a connection thread ends,
/// however it ends.
struct LiveGuard(Arc<Transport>);

impl Drop for LiveGuard {
    fn drop(&mut self) {
        let live = self.0.live.fetch_sub(1, Ordering::SeqCst) - 1;
        icrowd_obs::gauge_set("serve.connections", live as f64);
    }
}

/// A running server; join it to collect the campaign result.
pub struct ServerHandle {
    addr: SocketAddr,
    transport: Arc<Transport>,
    acceptor: JoinHandle<()>,
    emitter: Option<JoinHandle<()>>,
    engine: Arc<CampaignEngine>,
}

impl ServerHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful drain (idempotent; the `SHUTDOWN` op does the
    /// same through the wire).
    pub fn shutdown(&self) {
        self.transport.drain();
    }

    /// Whether the drain has started — a `SHUTDOWN` op arrived (its
    /// reply is written only after this turns true), a fail-stop
    /// tripped, or [`Self::shutdown`] was called. A harness whose
    /// client lost the `SHUTDOWN` reply checks here that it landed.
    pub fn is_draining(&self) -> bool {
        self.transport.draining()
    }

    /// Blocks until the server drains (a `SHUTDOWN` op arrives or
    /// [`Self::shutdown`] is called), then finalizes and scores the
    /// campaign. A panicked transport thread is counted, not
    /// propagated — the campaign result is still recoverable from the
    /// engine.
    pub fn join(self) -> CampaignResult {
        join_counted(self.acceptor);
        if let Some(e) = self.emitter {
            join_counted(e);
        }
        // All threads are joined, so their engine refs are dropped;
        // brief retries cover the unwinder still releasing a clone.
        let mut engine = self.engine;
        for _ in 0..50 {
            match Arc::try_unwrap(engine) {
                Ok(e) => return e.finalize(),
                Err(arc) => {
                    engine = arc;
                    thread::sleep(Duration::from_millis(10));
                }
            }
        }
        unreachable!("connection threads hold no engine refs after join")
    }
}

/// Joins a transport thread, counting (not propagating) a panic.
fn join_counted(handle: JoinHandle<()>) {
    if handle.join().is_err() {
        icrowd_obs::counter_add("serve.thread_panic", 1);
    }
}

/// Starts serving `engine` per `config`. Returns once the listener is
/// bound; the campaign runs on the connection threads until shutdown.
///
/// # Errors
/// Propagates socket errors from binding the listener.
pub fn serve(engine: CampaignEngine, config: &ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let wake_ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let transport = Arc::new(Transport {
        wake_addr: SocketAddr::new(wake_ip, addr.port()),
        shutdown: AtomicBool::new(false),
        live: AtomicUsize::new(0),
    });
    let engine = Arc::new(engine);

    let acceptor = {
        let transport = Arc::clone(&transport);
        let engine = Arc::clone(&engine);
        let idle_timeout = Duration::from_millis(config.idle_timeout_ms);
        let max_conns = config.max_conns.max(1);
        thread::spawn(move || acceptor_loop(listener, &transport, &engine, max_conns, idle_timeout))
    };
    let emitter = (config.metrics_every_ms > 0).then(|| {
        let transport = Arc::clone(&transport);
        let every = Duration::from_millis(config.metrics_every_ms);
        let out = config.metrics_out.clone();
        thread::spawn(move || metrics_emitter_loop(&transport.shutdown, every, out.as_deref()))
    });

    Ok(ServerHandle {
        addr,
        transport,
        acceptor,
        emitter,
        engine,
    })
}

/// Closes a telemetry window every `every` and appends its JSON line to
/// `out` (stderr when `None`). Emits one final window on shutdown so
/// the tail of the run is never lost to the tick boundary.
fn metrics_emitter_loop(shutdown: &AtomicBool, every: Duration, out: Option<&str>) {
    let mut sink: Option<std::fs::File> = out.and_then(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .ok()
    });
    // Stream only flows when the operator passed `--metrics-every`;
    // with no `--metrics-out` path it goes to stderr (never stdout,
    // which belongs to the caller's output).
    let mut emit = |line: String| {
        let ok = match sink.as_mut() {
            Some(f) => f.write_all(line.as_bytes()).and_then(|()| f.flush()),
            None => std::io::stderr().write_all(line.as_bytes()),
        };
        if ok.is_err() {
            icrowd_obs::counter_add("serve.metrics_emit_error", 1);
        }
    };
    loop {
        let done = shutdown.load(Ordering::SeqCst);
        let window = icrowd_obs::window_advance();
        emit(format!("{}\n", window.to_json()));
        if done {
            return;
        }
        // Sleep in short slices so shutdown latency stays bounded even
        // with a long window period.
        let tick_start = Instant::now();
        while tick_start.elapsed() < every {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            thread::sleep(Duration::from_millis(20).min(every));
        }
    }
}

/// Accepts until the drain starts, one thread per connection; then
/// closes the listener and joins every connection thread.
fn acceptor_loop(
    listener: TcpListener,
    transport: &Arc<Transport>,
    engine: &Arc<CampaignEngine>,
    max_conns: usize,
    idle_timeout: Duration,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if transport.draining() {
            break; // the wake-up self-connect, or a late client
        }
        let mut stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Transient (aborted handshake, fd exhaustion): keep
                // listening, without spinning on a persistent error.
                icrowd_obs::counter_add("serve.accept_error", 1);
                thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _span = icrowd_obs::span!("serve.accept");
        icrowd_obs::counter_add("serve.conn_accepted", 1);
        // Reap connection threads that already ended.
        let mut i = 0;
        while i < conns.len() {
            if conns[i].is_finished() {
                join_counted(conns.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if transport.live.load(Ordering::SeqCst) >= max_conns {
            icrowd_obs::counter_add("serve.conn_busy", 1);
            let line = crate::protocol::response_line(&Response::Busy);
            let _ = stream.write_all(line.as_bytes());
            continue; // closed on drop — accept-then-reject back-pressure
        }
        let live = transport.live.fetch_add(1, Ordering::SeqCst) + 1;
        icrowd_obs::gauge_set("serve.connections", live as f64);
        let guard = LiveGuard(Arc::clone(transport));
        let engine = Arc::clone(engine);
        let spawned = thread::Builder::new()
            .name("icrowd-conn".to_owned())
            .spawn(move || serve_connection(stream, &engine, &guard.0, idle_timeout));
        match spawned {
            Ok(handle) => conns.push(handle),
            // The closure (stream and guard) is dropped: the client
            // sees its connection close and retries.
            Err(_) => icrowd_obs::counter_add("serve.spawn_error", 1),
        }
    }
    drop(listener); // new clients are refused from here on
    for handle in conns {
        join_counted(handle);
    }
}

/// Longest request line accepted, newline excluded. Real requests are
/// under 1 KiB; the cap bounds what a client that never sends `\n` can
/// make a connection thread buffer.
const MAX_LINE: usize = 64 * 1024;

/// A request line (trailing `\n` stripped) accumulated byte-by-byte, or
/// the reason the connection ended.
enum LineRead {
    Line(String),
    Eof,
    Evicted,
    TooLong,
    ShuttingDown,
    Error,
}

/// Reads until `acc` holds a complete line, enforcing the idle
/// deadline and [`MAX_LINE`]. Partial bytes survive read timeouts — a
/// slow writer is only evicted once the *deadline* passes, never by
/// losing data to a 100 ms poll tick. Each byte is scanned for `\n`
/// once.
fn read_deadline_line(
    stream: &mut TcpStream,
    acc: &mut Vec<u8>,
    transport: &Transport,
    idle_timeout: Duration,
) -> LineRead {
    let deadline_start = Instant::now();
    let mut buf = [0u8; 4096];
    let mut scanned = 0;
    loop {
        if let Some(pos) = acc[scanned..].iter().position(|&b| b == b'\n') {
            let rest = acc.split_off(scanned + pos + 1);
            let line = std::mem::replace(acc, rest);
            return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
        }
        scanned = acc.len();
        if scanned > MAX_LINE {
            return LineRead::TooLong;
        }
        match stream.read(&mut buf) {
            Ok(0) => return LineRead::Eof,
            Ok(n) => acc.extend_from_slice(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if transport.draining() {
                    return LineRead::ShuttingDown; // drain: drop idle connections
                }
                if !idle_timeout.is_zero() && deadline_start.elapsed() >= idle_timeout {
                    return LineRead::Evicted;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Error,
        }
    }
}

/// Serves one connection until the client closes it, the drain
/// starts, or the idle deadline evicts it. Errors drop the connection;
/// the protocol is stateless per line, so clients just reconnect.
fn serve_connection(
    mut stream: TcpStream,
    engine: &CampaignEngine,
    transport: &Transport,
    idle_timeout: Duration,
) {
    let durability = engine.durability();
    let _ = stream.set_nodelay(true);
    // A finite read timeout lets the thread notice the drain and the
    // idle deadline while parked on a quiet connection; a write
    // deadline keeps a non-draining client from wedging it.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut acc: Vec<u8> = Vec::new();
    let mut out = String::new();
    loop {
        let line = match read_deadline_line(&mut stream, &mut acc, transport, idle_timeout) {
            LineRead::Line(line) => line,
            LineRead::Evicted => {
                icrowd_obs::counter_add("serve.conn_evicted", 1);
                out.clear();
                Response::Error {
                    message: "idle timeout — connection evicted".to_owned(),
                }
                .encode_line(&mut out);
                let _ = writer.write_all(out.as_bytes());
                return;
            }
            LineRead::TooLong => {
                icrowd_obs::counter_add("serve.line_too_long", 1);
                out.clear();
                Response::Error {
                    message: format!("request line exceeds {MAX_LINE} bytes — connection closed"),
                }
                .encode_line(&mut out);
                let _ = writer.write_all(out.as_bytes());
                return;
            }
            LineRead::Eof | LineRead::ShuttingDown | LineRead::Error => return,
        };
        // A busy persistent client never idles long enough to see the
        // drain at a read tick; stop serving it at its next line.
        if transport.draining() {
            return;
        }
        if line.trim().is_empty() {
            continue;
        }
        let connections = transport.live.load(Ordering::SeqCst);
        let resp = match Request::parse_with_trace(&line) {
            Ok((Request::Shutdown, _)) => {
                let resp = engine.handle(&Request::Shutdown, connections);
                // Drain before replying: a client that reads `bye`
                // knows the drain has started.
                transport.drain();
                out.clear();
                resp.encode_line_flagged(durability.degraded(), &mut out);
                let _ = writer.write_all(out.as_bytes());
                let _ = writer.flush();
                return;
            }
            // METRICS is transport-level: it scrapes the telemetry
            // plane, not the campaign, so it never takes the engine
            // lock (scraping a busy server cannot perturb assignment).
            Ok((Request::Metrics, _)) => Response::Metrics {
                window: icrowd_obs::window_advance().to_json(),
            },
            Ok((req, trace)) => {
                // The root span of this request's trace; engine /
                // driver / journal spans attach underneath via the
                // thread-local trace context. Untraced lines skip all
                // of this at the cost of one atomic load.
                let _root = icrowd_obs::trace_begin(
                    trace.unwrap_or(0),
                    match &req {
                        Request::RequestTask { .. } => "serve.rpc.request",
                        Request::SubmitAnswer { .. } => "serve.rpc.submit",
                        _ => "serve.rpc.other",
                    },
                );
                engine.handle(&req, connections)
            }
            Err(message) => Response::Error { message },
        };
        // Advertised degradation: once durability is lost under the
        // degrade policy, every response line carries the flag.
        resp.encode_line_flagged(durability.degraded(), &mut out);
        if writer
            .write_all(out.as_bytes())
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        // Fail-stop: a journal error under the fail-stop policy drains
        // the server exactly like a SHUTDOWN op — the response that
        // carried the refusal is already flushed.
        if durability.fail_stopped() && transport.drain() {
            icrowd_obs::counter_add("serve.fail_stop_drain", 1);
        }
    }
}
