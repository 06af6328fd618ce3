//! # pmcs-serve
//!
//! Schedulability-as-a-service: a dependency-free NDJSON-over-TCP daemon
//! wrapping [`pmcs_core::AnalysisSession`]. Clients `admit`, `remove`,
//! `update` and `query` tasks over a plain socket; each connection holds
//! its own incremental sessions while every session in the process shares
//! one sharded [`pmcs_core::SharedDelayCache`], so a window bound solved
//! for one client is a cache hit for all of them. A stateless `partition`
//! op packs a posted task set onto `M` cores — optionally under
//! shared-bus bandwidth regulation with contention-aware admission, or
//! with a server-side search over uniform per-core budgets.
//!
//! Three layers, each usable on its own:
//!
//! * [`proto`] — the wire codec: request/response JSON in the certificate
//!   dialect, stable machine-readable error codes ([`ERROR_CODES`]),
//!   request batching via JSON arrays;
//! * [`server`] — the listener/worker-pool daemon ([`spawn`]); protocol
//!   errors never drop a connection, a `shutdown` op drains it cleanly;
//! * [`replay`] / [`mod@bench`] — verification and measurement: the bench
//!   replays a seeded workload from concurrent clients, timing only the
//!   round trips, then checks every logged response against the
//!   from-scratch batch analyzer via [`replay_log`] (also exposed as
//!   `pmcs-audit serve-replay` for recorded logs).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod proto;
pub mod replay;
pub mod server;

pub use bench::{run as run_bench, BenchConfig, BenchOutcome};
pub use proto::{decode_request, encode_request, Request, WireError, ERROR_CODES};
pub use replay::{replay_log, ReplayOutcome};
pub use server::{spawn, Server, ServerConfig};
