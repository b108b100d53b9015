//! # ftspm-serve — batched FTSPM evaluation over TCP
//!
//! A zero-dependency HTTP/1.1 service on `std::net` that accepts
//! evaluation jobs as JSON, runs them through the harness front door
//! ([`RunBuilder`]), and streams the report back. Connections are
//! keep-alive: a client may pipeline many requests down one socket
//! (bounded per-connection and by an idle window). Every job runs
//! inside the request that carried it, through one cached path. The
//! endpoints:
//!
//! | endpoint | does |
//! |---|---|
//! | `POST /v1/run` | one job → one report |
//! | `POST /v1/batch` | array of jobs → array of reports, fanned out over the worker pool, merged in input order; jobs on one workload share one profiling pass |
//! | `POST /v1/traces` | upload a binary `FTSPMTRC` access trace → content-addressed trace id for `{"workload": {"trace"\|"fit": id}}` jobs |
//! | `GET`/`HEAD` `/healthz` | liveness probe |
//! | `GET`/`HEAD` `/metrics` | CSV snapshot of the service's metrics registry |
//!
//! Every execution path is fronted by a content-addressed result cache
//! ([`cache`]): identical jobs (by decoded spec, not raw bytes) replay
//! byte-identical responses without re-simulating — provably safe
//! because responses are a pure function of the spec.
//!
//! Contracts (pinned by `tests/differential.rs` and the CI smoke
//! stage):
//!
//! - **Determinism.** The same job body and seed produce byte-identical
//!   response bytes at any worker-pool size, and identical to running
//!   the same spec in-process through [`JobSpec::run`]. Nothing
//!   wall-clock-dependent goes on the wire (no `Date` header); batch
//!   fan-out rides `ftspm_testkit::par`'s ordered executor.
//! - **Backpressure.** The connection queue is bounded; when full, the
//!   accept thread answers `503` with `retry-after` instead of letting
//!   the queue grow.
//! - **Typed failure.** Malformed requests — truncated frames, bad
//!   framing, junk JSON, out-of-range job dials — get a typed 4xx/5xx
//!   with a JSON error body; they never panic a worker or hang a
//!   connection (socket timeouts bound every read).
//! - **Panic isolation.** Every job runs under `catch_unwind`; a
//!   panicking job answers `500` with `{"kind":"panic"}`, a job that
//!   exhausts its `deadline_cycles` budget answers `504` with
//!   `{"kind":"deadline"}`, and in both cases the pool, queue, and
//!   `/metrics` keep working (all locks recover from poisoning).
//! - **Graceful shutdown.** [`Server::shutdown`] drains everything
//!   already queued and joins all service threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod job;
pub mod json;
pub mod server;
pub mod traces;

pub use cache::{CacheKey, CachedResult, ResultCache};
pub use ftspm_harness::{RunBuilder, RunError};
pub use ftspm_trace::{TraceId, WorkloadSource};
pub use job::{
    render_multi_report, render_report, structure_token, JobError, JobOutput, JobRunError, JobSpec,
};
pub use server::{ServeConfig, ServeError, Server, MAX_BATCH_JOBS};
pub use traces::{Stored, TraceTable};
