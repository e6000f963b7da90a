//! # dpsyn — Differentially Private Data Release over Multiple Tables
//!
//! A Rust implementation of the algorithms from *"Differentially Private Data
//! Release over Multiple Tables"* (Ghazi, Hu, Kumar, Manurangsi — PODS 2023),
//! together with every substrate the paper relies on: a relational engine for
//! frequency-annotated multi-table instances, differential-privacy noise
//! primitives, join sensitivity machinery (local / global / residual
//! sensitivity), the single-table Private Multiplicative Weights release
//! algorithm, workload generators, and an experiment harness.
//!
//! This crate is a thin facade that re-exports the workspace crates and adds
//! the [`Session`] API on top:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`session`] | (this crate) | [`Session`] + [`ReleaseRequest`]: the long-lived entry point owning one `ExecContext`: parallelism, the other execution settings and the persistent caches |
//! | [`relational`] | `dpsyn-relational` | schemas, annotated relations, join hypergraphs, the hash-join engine (columnar `JoinResult`, inline `TupleKey`), the `ExecContext` execution layer, the `SubJoinLattice` behind subset enumerations, degrees, attribute trees, plus the retained `naive` reference engine |
//! | [`noise`] | `dpsyn-noise` | Laplace / truncated Laplace, exponential mechanism, privacy budgets & composition |
//! | [`sensitivity`] | `dpsyn-sensitivity` | local, global, and residual sensitivity; maximum degrees; degree configurations |
//! | [`query`] | `dpsyn-query` | linear query families over joins and their evaluation |
//! | [`pmw`] | `dpsyn-pmw` | single-table Private Multiplicative Weights (Algorithm 2) |
//! | [`core`] | `dpsyn-core` | the paper's release algorithms (Algorithms 1, 3–7) behind the [`Mechanism`](dpsyn_core::Mechanism) trait, flawed strawmen, baselines |
//! | [`datagen`] | `dpsyn-datagen` | paper figure instances, random / Zipf generators, realistic scenarios |
//! | [`server`] | `dpsyn-server` | the `dpsyn-serve` release server: durable budget ledger, admission control, fault isolation, failpoints |
//!
//! ## Quickstart
//!
//! Hold one [`Session`] for as long as you work with an instance; bundle each
//! release's inputs into a [`ReleaseRequest`]; run any of the paper's
//! algorithms through [`Session::release`]:
//!
//! ```no_run
//! use dpsyn::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A two-table join query R1(A, B) ⋈ R2(B, C).
//! let query = JoinQuery::two_table(16, 16, 16);
//!
//! // 2. Some private data.
//! let mut instance = Instance::empty_for(&query)?;
//! instance.relation_mut(0).add_one(vec![1, 2])?;
//! instance.relation_mut(1).add_one(vec![2, 3])?;
//!
//! // 3. A long-lived session (owns parallelism + caches), a workload of
//! //    linear queries, and a privacy budget.
//! let session = Session::new();
//! let workload = session.random_sign_workload(&query, 64, 7)?;
//! let request = ReleaseRequest::new(
//!     &query,
//!     &instance,
//!     &workload,
//!     PrivacyParams::new(1.0, 1e-6)?,
//! )
//! .with_seed(7);
//!
//! // 4. Release a DP synthetic dataset (Algorithm 1) and answer every
//! //    query from it.  Any mechanism — TwoTable, MultiTable,
//! //    UniformizedTwoTable, HierarchicalRelease, the flawed strawmen —
//! //    runs through the same call.
//! let release = session.release(&TwoTable::default(), &request)?;
//! let answers = release.answer_all(&workload)?;
//! println!("answered {} queries privately", answers.len());
//!
//! // 5. Repeat calls on the same instance reuse the session's cached
//! //    boundary values and full join — same bytes, less work.
//! let rs = session.residual_sensitivity(&query, &instance, 0.5)?;
//! println!("RS^0.5 = {:.2} ({} cached instances)", rs.value, session.cached_instances());
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for a complete end-to-end run, and the
//! [`session`] module docs for the cache-reuse and determinism contract.
//!
//! ## Serving releases (`dpsyn-serve`)
//!
//! The workspace also ships a crash-safe multi-tenant release **server**:
//! the `dpsyn-serve` binary (backed by the [`server`] module /
//! `dpsyn-server` crate).  It fronts the same mechanisms behind a small
//! hand-rolled HTTP/1.1 API with four operational guarantees the library
//! alone cannot give:
//!
//! * **Durable budgets** — every tenant's `(ε, δ)` spend is an append-only,
//!   checksummed, fsync'd ledger (`ledger.log`); charges are two-phase
//!   (intent → commit/abort) and replayed on startup, so *no crash at any
//!   instant lets a tenant exceed its grant*.  Unresolved charges are
//!   counted as spent (conservative), torn final records are truncated, and
//!   real corruption refuses to start.
//! * **Admission control** — a release is checked against the tenant's
//!   remaining budget *before* any private data is touched; over-budget
//!   requests cost nothing and answer `429`.
//! * **Fault isolation** — each mechanism runs on its own thread under
//!   `catch_unwind` with a deadline; panics and hangs burn the charged
//!   budget but never take the server down.  `SIGTERM` drains in-flight
//!   requests before exit.
//! * **Failpoints** — `DPSYN_FAILPOINT=ledger_pre_commit` (and five
//!   siblings) crash the process at exact ledger-write instants; the
//!   integration suite kills and restarts the server at every one and
//!   asserts recovered budgets match an independent oracle replay bit for
//!   bit.
//!
//! ```sh
//! DPSYN_DATA_DIR=/var/lib/dpsyn cargo run --release --bin dpsyn_serve
//! ```
//!
//! then `POST /v1/tenant`, `POST /v1/dataset`, `POST /v1/dataset/{id}/updates`,
//! `POST /v1/release` with versioned JSON bodies (`"v":1`) — see
//! `examples/server_demo.rs` for a complete client round-trip over raw TCP.
//!
//! A release reply carries the workload's answers on the released
//! histogram.  The server computes them as a library caller would over a
//! session's context, from the query weights the release just memoised
//! there (bit-identical to the context-free `answer_all`):
//!
//! ```no_run
//! # use dpsyn::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! # let query = JoinQuery::two_table(8, 8, 8);
//! # let instance = Instance::empty_for(&query)?;
//! let session = Session::new();
//! let workload = session.random_sign_workload(&query, 16, 7)?;
//! let params = PrivacyParams::new(1.0, 1e-6)?;
//! let request = ReleaseRequest::new(&query, &instance, &workload, params).with_seed(7);
//! let release = session.release(&MultiTable::default(), &request)?;
//! let answers = release.answer_all_in(session.context(), &workload)?;
//! # Ok(())
//! # }
//! ```
//!
//! That read is one memo hit, so a dataset's `GET /v1/dataset/{id}` cache
//! counters gain one hit per served release.
//!
//! ## Streaming updates
//!
//! Instances are rarely static: real traffic is a stream of insert/delete
//! batches between releases.  [`Session::apply_updates`] validates an
//! [`relational::UpdateBatch`] ([`relational::stream`]), drops the
//! session's warm LRU slot for the old instance — full join and memoised
//! release values — and applies the batch, so the next
//! release rebuilds that state for the updated instance.  A post-update
//! release is therefore identical to one from a cold session at the same
//! seed, at every thread count.  Served datasets take the same path
//! through `POST /v1/dataset/{id}/updates`; see `examples/stream_demo.rs`.
//!
//! ## Performance and determinism
//!
//! The relational data plane is built for throughput: join results are
//! stored columnar (flat row-major buffers, no per-tuple allocation), hash
//! indexes use an Fx-style hasher keyed by the inline
//! [`relational::TupleKey`], multi-way joins pick their fold order by
//! relation size, and the `2^m` relation-subset enumerations behind residual
//! sensitivity share sub-join work through a
//! [`relational::SubJoinLattice`] built level by level inside each cold
//! call, while [`Session`] / [`relational::ExecContext`] keep the values it yields
//! **across calls** (a small per-instance LRU of full joins and memoised
//! release values), so repeated releases and sensitivity sweeps over a
//! working set of instances build the lattice once
//! ([`Session::cached_subjoin_bytes`] reports the full joins' resident
//! bytes).  Hash order is never observable: every tuple-exposing API sorts on emit, so runs are
//! byte-reproducible from an RNG seed — see the determinism contract in
//! [`relational`]'s crate docs.  The previous `BTreeMap` engine survives as
//! `relational::naive`, the cross-check oracle for `tests/properties.rs` and
//! the `join_throughput` / `residual_subsets` benchmarks (speedups tracked
//! in `BENCH_join.json`).

#![forbid(unsafe_code)]

pub mod session;

pub use dpsyn_core as core;
pub use dpsyn_datagen as datagen;
pub use dpsyn_noise as noise;
pub use dpsyn_pmw as pmw;
pub use dpsyn_query as query;
pub use dpsyn_relational as relational;
pub use dpsyn_sensitivity as sensitivity;
pub use dpsyn_server as server;

pub use session::{ReleaseRequest, Session};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::session::{ReleaseRequest, Session};
    pub use dpsyn_core::{
        FlawedJoinAsOne, FlawedPadAfter, HierarchicalRelease, IndependentLaplaceBaseline,
        Mechanism, MultiTable, SyntheticRelease, TwoTable, UniformizedTwoTable,
    };
    pub use dpsyn_datagen::{self as datagen};
    pub use dpsyn_noise::{PrivacyParams, TruncatedLaplace};
    pub use dpsyn_pmw::{Histogram, Pmw, PmwConfig};
    pub use dpsyn_query::{AnswerOps, LinearQuery, ProductQuery, QueryFamily};
    pub use dpsyn_relational::{
        join, join_size, AttrId, Attribute, EvictionStats, ExecContext, Instance, JoinQuery,
        NeighborEdit, Parallelism, Relation, Schema, UpdateBatch, UpdateOp, UpdateReport,
    };
    pub use dpsyn_sensitivity::{
        local_sensitivity, residual_sensitivity, ResidualSensitivity, SensitivityOps,
    };
}
