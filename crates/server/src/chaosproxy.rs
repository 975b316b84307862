//! A std-only, in-process TCP chaos proxy — the network counterpart of
//! the journal's disk fault injector.
//!
//! The proxy listens on an ephemeral port and forwards every accepted
//! connection to a fixed upstream, injecting toxiproxy-style faults on
//! the way:
//!
//! * **latency** — a fixed per-chunk delay, configurable per direction;
//! * **bandwidth cap** — bytes per second throttling, per direction;
//! * **reset** — the connection is abruptly closed after a drawn byte
//!   budget (clients observe EOF mid-conversation and must retry);
//! * **corruption** — a random byte of a forwarded chunk is flipped
//!   (the line protocol's JSON parsing must reject the damage);
//! * **blackhole** — the connection is accepted and everything the
//!   client sends is swallowed; nothing is forwarded and nothing
//!   comes back (client timeouts must fire — a wedged connection may
//!   never hang the worker loop).
//!
//! A scheduled **cut** pins a reset to one exchange: connection *n* (in
//! accept order) is closed after exactly *b* forwarded bytes, whatever
//! the seeded draws say — how a regression test kills one specific
//! reply.
//!
//! All decisions come from a counter-seeded splitmix64 stream keyed by
//! the connection index — the same discipline as
//! [`icrowd_platform::faults::FaultPlan`] — so a given seed yields the
//! same fault plan for connection *n* on every run. Timing (thread
//! interleaving, OS scheduling) is of course not deterministic; the
//! *decisions* are, which is what makes failures reproducible enough
//! to bisect.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Chaos proxy fault configuration. All rates are per-connection
/// probabilities in `[0, 1]`; latency and bandwidth apply to every
/// connection. The default forwards cleanly.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosProxyConfig {
    /// Seed of the per-connection decision stream.
    pub seed: u64,
    /// Added delay per forwarded chunk, client → upstream, in ms.
    pub latency_up_ms: u64,
    /// Added delay per forwarded chunk, upstream → client, in ms.
    pub latency_down_ms: u64,
    /// Bandwidth cap per direction in bytes/second (`0` = unlimited).
    pub bandwidth_bps: u64,
    /// Probability that a connection is reset (abruptly closed) after a
    /// drawn byte budget in `1..=1024`.
    pub reset_rate: f64,
    /// Probability, per forwarded chunk, that one byte is flipped.
    pub corrupt_rate: f64,
    /// Probability that a connection is blackholed: accepted, then all
    /// traffic swallowed until the client gives up.
    pub blackhole_rate: f64,
    /// A scheduled reset `(connection, bytes)`: the connection with this
    /// 0-based accept index is closed after this many forwarded bytes
    /// (both directions counted), overriding its seeded reset draw.
    pub cut: Option<(u64, u64)>,
}

impl Default for ChaosProxyConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            latency_up_ms: 0,
            latency_down_ms: 0,
            bandwidth_bps: 0,
            reset_rate: 0.0,
            corrupt_rate: 0.0,
            blackhole_rate: 0.0,
            cut: None,
        }
    }
}

impl ChaosProxyConfig {
    /// Validates rate ranges.
    ///
    /// # Errors
    /// Returns a human-readable message naming the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let unit = |name: &str, v: f64| -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must lie in [0, 1], got {v}"))
            }
        };
        unit("reset rate", self.reset_rate)?;
        unit("corrupt rate", self.corrupt_rate)?;
        unit("blackhole rate", self.blackhole_rate)
    }

    /// Parses a compact chaos-proxy specification:
    ///
    /// ```text
    /// latency=5:10,bw=65536,reset=0.1,corrupt=0.01,blackhole=0.05,seed=7
    /// ```
    ///
    /// `latency` takes `UP_MS:DOWN_MS` or a single value for both
    /// directions; `cut=CONN:BYTES` schedules one reset. Unknown keys
    /// and out-of-range rates are errors.
    ///
    /// # Errors
    /// Returns a human-readable message describing the malformed field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut config = Self::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos proxy spec entry `{part}` is not key=value"))?;
            let bad = |what: &str| format!("invalid {what} in chaos proxy spec entry `{part}`");
            let value = value.trim();
            match key.trim() {
                "seed" => config.seed = value.parse().map_err(|_| bad("seed"))?,
                "latency" => match value.split_once(':') {
                    Some((up, down)) => {
                        config.latency_up_ms = up.parse().map_err(|_| bad("latency"))?;
                        config.latency_down_ms = down.parse().map_err(|_| bad("latency"))?;
                    }
                    None => {
                        let both: u64 = value.parse().map_err(|_| bad("latency"))?;
                        config.latency_up_ms = both;
                        config.latency_down_ms = both;
                    }
                },
                "bw" => config.bandwidth_bps = value.parse().map_err(|_| bad("bandwidth"))?,
                "reset" => config.reset_rate = value.parse().map_err(|_| bad("rate"))?,
                "corrupt" => config.corrupt_rate = value.parse().map_err(|_| bad("rate"))?,
                "blackhole" => config.blackhole_rate = value.parse().map_err(|_| bad("rate"))?,
                "cut" => {
                    let (conn, bytes) = value.split_once(':').ok_or_else(|| bad("cut"))?;
                    config.cut = Some((
                        conn.parse().map_err(|_| bad("cut"))?,
                        bytes.parse().map_err(|_| bad("cut"))?,
                    ));
                }
                other => return Err(format!("unknown chaos proxy spec key `{other}`")),
            }
        }
        config.validate()?;
        Ok(config)
    }
}

/// Tally of faults the proxy injected, readable while it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosProxyStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections blackholed.
    pub blackholed: u64,
    /// Connections reset after their byte budget.
    pub resets: u64,
    /// Chunks with a flipped byte.
    pub corrupted: u64,
}

#[derive(Default)]
struct StatCells {
    connections: AtomicU64,
    blackholed: AtomicU64,
    resets: AtomicU64,
    corrupted: AtomicU64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A per-connection deterministic decision stream.
struct ConnPlan {
    seed: u64,
    counter: u64,
}

impl ConnPlan {
    fn new(seed: u64, conn_index: u64) -> Self {
        Self {
            // Fold the connection index into the seed so each
            // connection draws an independent, reproducible stream.
            seed: seed
                .wrapping_mul(0xA24B_AED4_963E_E407)
                .wrapping_add(conn_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            counter: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.seed ^ self.counter)
    }

    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// How one accepted connection behaves, drawn once at accept time.
struct ConnFate {
    blackhole: bool,
    /// Close both directions after forwarding this many bytes.
    reset_after: Option<u64>,
}

/// A running chaos proxy; drop or [`ChaosProxy::stop`] it to shut down.
pub struct ChaosProxy {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    stats: Arc<StatCells>,
}

impl ChaosProxy {
    /// Starts the proxy on an ephemeral localhost port, forwarding to
    /// `upstream`.
    ///
    /// # Errors
    /// Propagates listener binding failures.
    pub fn start(
        upstream: std::net::SocketAddr,
        config: ChaosProxyConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(StatCells::default());
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            thread::spawn(move || accept_loop(&listener, upstream, &config, &shutdown, &stats))
        };
        Ok(Self {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            stats,
        })
    }

    /// The proxy's listen address — what clients should dial.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Faults injected so far.
    pub fn stats(&self) -> ChaosProxyStats {
        ChaosProxyStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            blackholed: self.stats.blackholed.load(Ordering::Relaxed),
            resets: self.stats.resets.load(Ordering::Relaxed),
            corrupted: self.stats.corrupted.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and winds down the pump threads.
    pub fn stop(mut self) -> ChaosProxyStats {
        self.shut();
        self.stats()
    }

    fn shut(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shut();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: std::net::SocketAddr,
    config: &ChaosProxyConfig,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<StatCells>,
) {
    let mut conn_index = 0u64;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let mut plan = ConnPlan::new(config.seed, conn_index);
                let mut fate = ConnFate {
                    blackhole: plan.next_unit() < config.blackhole_rate,
                    reset_after: (plan.next_unit() < config.reset_rate)
                        .then(|| 1 + plan.next_u64() % 1024),
                };
                if let Some((_, bytes)) = config.cut.filter(|&(c, _)| c == conn_index) {
                    fate.reset_after = Some(bytes);
                }
                conn_index += 1;
                let config = config.clone();
                let shutdown = Arc::clone(shutdown);
                let stats = Arc::clone(stats);
                // One thread per connection; loadgen keeps connection
                // counts small and the pump threads exit with the
                // connection.
                thread::spawn(move || {
                    serve_proxied(client, upstream, &config, plan, &fate, &shutdown, &stats);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

/// Swallows everything the client sends until EOF, shutdown, or the
/// client's own timeout closes the socket. Nothing is ever forwarded
/// and nothing is ever written back.
fn blackhole(mut client: TcpStream, shutdown: &AtomicBool) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match client.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

fn serve_proxied(
    client: TcpStream,
    upstream_addr: std::net::SocketAddr,
    config: &ChaosProxyConfig,
    plan: ConnPlan,
    fate: &ConnFate,
    shutdown: &Arc<AtomicBool>,
    stats: &Arc<StatCells>,
) {
    if fate.blackhole {
        stats.blackholed.fetch_add(1, Ordering::Relaxed);
        blackhole(client, shutdown);
        return;
    }
    let Ok(upstream) = TcpStream::connect_timeout(&upstream_addr, Duration::from_secs(5)) else {
        return; // upstream gone: the client sees EOF and retries
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    let (Ok(client_r), Ok(upstream_r)) = (client.try_clone(), upstream.try_clone()) else {
        return;
    };
    // The two directions share the connection's byte budget (reset) via
    // an atomic; corruption draws stay deterministic per direction by
    // splitting the plan into two independent streams.
    let budget = Arc::new(AtomicU64::new(fate.reset_after.unwrap_or(u64::MAX)));
    let reset_armed = fate.reset_after.is_some();
    let up = PumpSide {
        latency: Duration::from_millis(config.latency_up_ms),
        bandwidth_bps: config.bandwidth_bps,
        corrupt_rate: config.corrupt_rate,
        plan: ConnPlan {
            seed: plan.seed ^ 0x5555_5555_5555_5555,
            counter: 0,
        },
    };
    let down = PumpSide {
        latency: Duration::from_millis(config.latency_down_ms),
        bandwidth_bps: config.bandwidth_bps,
        corrupt_rate: config.corrupt_rate,
        plan: ConnPlan {
            seed: plan.seed ^ 0xAAAA_AAAA_AAAA_AAAA,
            counter: 0,
        },
    };
    let t_up = {
        let shutdown = Arc::clone(shutdown);
        let stats = Arc::clone(stats);
        let budget = Arc::clone(&budget);
        thread::spawn(move || {
            pump(
                client_r,
                upstream,
                up,
                &shutdown,
                &stats,
                &budget,
                reset_armed,
            );
        })
    };
    pump(
        upstream_r,
        client,
        down,
        shutdown,
        stats,
        &budget,
        reset_armed,
    );
    let _ = t_up.join();
}

struct PumpSide {
    latency: Duration,
    bandwidth_bps: u64,
    corrupt_rate: f64,
    plan: ConnPlan,
}

/// Forwards bytes `from` → `to`, applying latency, bandwidth, byte
/// corruption and the shared reset budget. Exits on EOF, error,
/// shutdown, or an exhausted budget (abrupt close — the reset).
fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    mut side: PumpSide,
    shutdown: &AtomicBool,
    stats: &StatCells,
    budget: &AtomicU64,
    reset_armed: bool,
) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) || budget.load(Ordering::Relaxed) == 0 {
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if !side.latency.is_zero() {
            thread::sleep(side.latency);
        }
        // Model the cap as the time this chunk would take on a link of
        // that bandwidth; zero bps means uncapped.
        if let Some(ms) = (n as u64)
            .saturating_mul(1000)
            .checked_div(side.bandwidth_bps)
        {
            if ms > 0 {
                thread::sleep(Duration::from_millis(ms.min(1000)));
            }
        }
        if side.corrupt_rate > 0.0 && side.plan.next_unit() < side.corrupt_rate {
            let at = (side.plan.next_u64() % n as u64) as usize;
            buf[at] ^= 0x20;
            stats.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        let mut send = n as u64;
        if reset_armed {
            // Claim bytes from the shared budget; crossing zero fires
            // the reset after this (possibly truncated) chunk.
            let before =
                budget.fetch_sub(send.min(budget.load(Ordering::Relaxed)), Ordering::Relaxed);
            if before <= send {
                send = before;
                // Only the chunk that crosses zero counts the reset; the
                // other direction finding the budget spent does not.
                if before > 0 {
                    stats.resets.fetch_add(1, Ordering::Relaxed);
                }
                budget.store(0, Ordering::Relaxed);
            }
        }
        if to.write_all(&buf[..send as usize]).is_err() {
            break;
        }
        let _ = to.flush();
        if reset_armed && budget.load(Ordering::Relaxed) == 0 {
            break;
        }
    }
    // Abrupt close on both directions: the peer observes EOF
    // mid-conversation, which the client treats as a retriable error.
    let _ = to.shutdown(Shutdown::Both);
    let _ = from.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_rejects() {
        let c = ChaosProxyConfig::parse(
            "latency=5:10,bw=65536,reset=0.1,corrupt=0.01,blackhole=0.05,seed=7",
        )
        .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.latency_up_ms, 5);
        assert_eq!(c.latency_down_ms, 10);
        assert_eq!(c.bandwidth_bps, 65536);
        assert_eq!(c.reset_rate, 0.1);
        assert_eq!(c.corrupt_rate, 0.01);
        assert_eq!(c.blackhole_rate, 0.05);
        let c = ChaosProxyConfig::parse("latency=3").unwrap();
        assert_eq!((c.latency_up_ms, c.latency_down_ms), (3, 3));
        assert!(ChaosProxyConfig::parse("reset=1.5").is_err());
        assert!(ChaosProxyConfig::parse("warp=1").is_err());
        assert!(ChaosProxyConfig::parse("latency").is_err());
        let c = ChaosProxyConfig::parse("cut=3:18").unwrap();
        assert_eq!(c.cut, Some((3, 18)));
        assert!(ChaosProxyConfig::parse("cut=3").is_err());
        assert!(ChaosProxyConfig::parse("cut=x:18").is_err());
    }

    #[test]
    fn connection_fates_are_deterministic_per_seed() {
        let draw = |seed: u64| -> Vec<(bool, Option<u64>)> {
            (0..32)
                .map(|i| {
                    let mut plan = ConnPlan::new(seed, i);
                    let blackhole = plan.next_unit() < 0.3;
                    let reset = (plan.next_unit() < 0.3).then(|| 1 + plan.next_u64() % 1024);
                    (blackhole, reset)
                })
                .collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        assert!(
            draw(42).iter().any(|(b, _)| *b) && draw(42).iter().any(|(_, r)| r.is_some()),
            "30% rates must fire within 32 connections"
        );
    }

    #[test]
    fn clean_proxy_forwards_transparently() {
        // Echo upstream: reads a line, writes it back.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let echo = thread::spawn(move || {
            let (mut s, _) = upstream.accept().unwrap();
            let mut buf = [0u8; 64];
            let n = s.read(&mut buf).unwrap();
            s.write_all(&buf[..n]).unwrap();
        });
        let proxy = ChaosProxy::start(upstream_addr, ChaosProxyConfig::default()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"ping\n").unwrap();
        let mut buf = [0u8; 64];
        let n = c.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping\n");
        echo.join().unwrap();
        let stats = proxy.stop();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.blackholed + stats.resets + stats.corrupted, 0);
    }

    #[test]
    fn blackholed_connection_returns_nothing_and_client_times_out() {
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream_addr = upstream.local_addr().unwrap();
        let proxy = ChaosProxy::start(
            upstream_addr,
            ChaosProxyConfig {
                blackhole_rate: 1.0,
                ..Default::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        c.write_all(b"{\"op\":\"HELLO\"}\n").unwrap();
        let mut buf = [0u8; 16];
        let err = c.read(&mut buf).expect_err("blackhole must starve reads");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        let stats = proxy.stop();
        assert_eq!(stats.blackholed, 1);
    }
}
