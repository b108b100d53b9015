//! Deterministic observability for the FTSPM simulator.
//!
//! Three pieces, layered so the disabled path costs nothing:
//!
//! - [`MetricsRegistry`] — named counters and fixed-bucket
//!   [`Histogram`]s. Plain data, `&'static str` keys, `BTreeMap`
//!   ordering; shard registries merge field-wise in input order so
//!   totals are bit-identical at every `FTSPM_THREADS` value.
//! - [`Trace`] — a bounded ring of typed [`TraceEvent`]s (accesses,
//!   recovery actions, quarantine/remap decisions) plus harness
//!   [`PhaseSpan`]s on a logical cycle timeline.
//! - [`Recorder`] — the [`ftspm_sim::Observer`] implementation feeding
//!   both, with [`chrome_trace_json`] and
//!   [`MetricsRegistry::to_csv`] as exporters.
//!
//! When observability is off, the harness passes an
//! [`ftspm_sim::NullObserver`] instead: every hook is an empty inlined
//! body, so the simulator's hot loop pays only a devirtualizable call —
//! the `injected_run` bench pins this under its regression budget.
//!
//! Everything here is a pure function of the simulated event stream —
//! no wall clocks, no host state — which is what makes the exports
//! golden-file-testable (see `tests/golden.rs`) and deterministic
//! across thread counts (DESIGN.md §10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod recorder;
mod registry;
mod trace;

pub use export::chrome_trace_json;
pub use recorder::{Recorder, RecorderConfig, DMA_BURST_BOUNDS, DUE_ATTEMPT_BOUNDS};
pub use registry::{merge_metrics_csv, Histogram, MetricsRegistry};
pub use trace::{PhaseSpan, Trace, TraceEvent};
