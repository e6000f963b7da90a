//! `dpsyn-server`: a crash-safe, multi-tenant differentially private release
//! server.
//!
//! The engine crates answer the *statistical* question — how to release a
//! join synopsis under `(ε, δ)`-DP.  This crate answers the *operational*
//! one: how to serve those releases to multiple tenants such that **no
//! crash, at any instant, lets a tenant exceed its privacy budget**.
//!
//! Four pillars:
//!
//! 1. **Durable budget ledger** ([`store`]): every tenant's spend lives in
//!    an append-only, CRC-checksummed, fsync'd ledger file
//!    (format: [`dpsyn_noise::ledger`]).  Charges use a two-phase
//!    *intent → commit/abort* protocol — the intent is durable **before**
//!    the mechanism touches data, and recovery resolves unresolved intents
//!    conservatively (as spent).  Startup replays the ledger, truncating a
//!    torn final record and refusing to start on real corruption.
//! 2. **Admission control** ([`handlers`], [`wire`]): requests are parsed
//!    from bounded bodies into versioned wire structs and checked against
//!    the tenant's *remaining* budget before any data is touched; an
//!    over-budget request is rejected with `429` and zero side effects.
//! 3. **Fault isolation** ([`handlers::run_isolated`]): each mechanism
//!    execution runs on its own thread under `catch_unwind` with a
//!    deadline; a panicking or hung release burns its (already-intended)
//!    budget but never takes the server down.  SIGTERM drains in-flight
//!    requests before exit ([`server`]).
//! 4. **Failpoints** ([`failpoint`]): `DPSYN_FAILPOINT=ledger_pre_commit`
//!    (and friends) crash the process at precisely chosen ledger-write
//!    instants, so the integration suite can kill and restart the server at
//!    every point of the two-phase protocol and assert that recovered
//!    budgets match an independent oracle replay *bit for bit*.
//!
//! Datasets themselves are mutable between releases:
//! `POST /v1/dataset/{id}/updates` applies a versioned batch of inserts and
//! deletes (`{"v":1,"updates":[{"relation":0,"op":"insert","tuple":[1,2],
//! "count":3}, ...]}`) through `ExecContext::apply_updates`, which drops
//! the dataset's warm cache slot, so the next release rebuilds it — a
//! post-update release is byte-identical to one over a freshly uploaded
//! copy of the updated data.  Updates touch no budget (writes are
//! free; *releases* are charged) and, like uploads, are in-memory only.
//!
//! The HTTP layer ([`http`]) is a deliberately small hand-rolled HTTP/1.1
//! over [`std::net::TcpListener`] — one request per connection, bounded
//! head and body, no external dependencies — because the build environment
//! is offline and the workload (a handful of tenants running expensive DP
//! releases) needs robustness, not throughput.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod failpoint;
pub mod handlers;
pub mod http;
pub mod routes;
pub mod server;
pub mod store;
pub mod wire;

pub use config::ServerConfig;
pub use server::{start, ServerHandle};
pub use store::{RecoveryReport, Store};
pub use wire::{ApiError, Json, WIRE_VERSION};
