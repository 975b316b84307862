//! # icrowd-serve
//!
//! A zero-dependency concurrent TCP serving layer and load generator
//! for the marketplace loop — the networked deployment of the paper's
//! Appendix A, where AMT workers reach iCrowd through its web server's
//! ExternalQuestion endpoint.
//!
//! The server fronts one campaign (a [`icrowd_platform::MarketDriver`]
//! plus an `ExternalQuestionServer`) behind a line-delimited JSON
//! protocol:
//!
//! * [`protocol`] — request/response grammar (`HELLO`, `REQUEST_TASK`,
//!   `SUBMIT_ANSWER`, `STATUS`, `RESULTS`, `SHUTDOWN`).
//! * [`engine`] — the shared campaign state: every mutation funnels
//!   through the driver's `poll`/`submit` paths, so `SubmitOutcome`
//!   validation and the `MarketAccounting` conservation laws hold under
//!   concurrent clients, and the final consensus is byte-identical to
//!   an in-process run at the same seed.
//! * [`server`] — a blocking acceptor and one thread per persistent
//!   connection; past the live-connection cap it rejects with `BUSY`
//!   (accept-then-reject backpressure), and shutdown drains in-flight
//!   requests before finalizing the campaign.
//! * [`recovery`] — crash recovery: replay the write-ahead journal
//!   (see [`icrowd_platform::journal`]) through a freshly prepared
//!   engine, verify snapshots and conservation laws, truncate any torn
//!   tail, and resume serving byte-identically.
//! * [`chaosproxy`] — a seeded, deterministic in-process TCP chaos
//!   proxy (latency, bandwidth caps, resets, corruption, blackholes)
//!   interposable between client and server for network-fault testing.
//! * [`client`] — a minimal blocking protocol client.
//! * [`loadgen`] — N client threads, each on one persistent
//!   connection, multiplexing the simulated workers (rebuilt from the
//!   server's `HELLO` announcement) to drive a campaign to completion,
//!   reporting throughput and p50/p99 latency via `icrowd-obs`.

#![warn(missing_docs)]
#![warn(clippy::dbg_macro)]

pub mod chaosproxy;
pub mod client;
pub mod engine;
pub mod loadgen;
pub mod protocol;
pub mod recovery;
pub mod server;

pub use chaosproxy::{ChaosProxy, ChaosProxyConfig, ChaosProxyStats};
pub use client::Conn;
pub use engine::{config_fingerprint, CampaignEngine, DurabilityPolicy, DurabilityProbe};
pub use loadgen::{run_loadgen, ClientFaultConfig, LoadgenConfig, LoadgenReport};
pub use protocol::{JournalHealth, Request, Response};
pub use recovery::{recover, recover_with_policy, RecoveryReport};
pub use server::{serve, ServeConfig, ServerHandle};
