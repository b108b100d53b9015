//! External access traces: record, encode, replay, and fit.
//!
//! This crate gives the evaluation pipeline a fourth kind of workload
//! input — *recorded behaviour* — alongside the built-in kernels and
//! parametric synthetics:
//!
//! - [`record()`] runs any [`Workload`](ftspm_workloads::Workload) on a
//!   private ideal machine with the CPU's op tap armed and captures the
//!   full public op sequence, the program shape, and the initial-memory
//!   snapshot.
//! - [`Trace::encode`] / [`Trace::decode`] round the capture through
//!   the `FTSPMTRC` binary format: a versioned header plus
//!   varint-delta-encoded record chunks, each framed with the length +
//!   CRC32 discipline the crash journal uses, so a torn tail degrades
//!   to a clean prefix instead of an error.
//! - [`TraceWorkload`] replays a decoded trace as an ordinary workload:
//!   the evaluation pipeline cannot tell replay from the original run,
//!   and the rendered report is byte-identical.
//! - [`fit`] extracts a compact behavioural model (per-block lifetimes,
//!   R/W mix, phase structure, gap histogram), and [`FittedWorkload`]
//!   regenerates a synthetic workload from it that preserves the
//!   source's block count, write fraction, and phase structure.
//! - [`WorkloadSource`] is the redesigned naming seam: jobs and tools
//!   describe any of the four workload forms with one value and build
//!   it through one call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod format;
pub mod record;
pub mod replay;
pub mod source;

pub use extract::{fit, BlockUse, FittedWorkload, PhaseModel, TraceModel};
pub use format::{
    BlockInit, Tail, Trace, TraceError, TraceId, TraceOp, TraceRecord, MAGIC, MAX_CODE_BYTES,
    MAX_DATA_BYTES, MAX_OPS, VERSION,
};
pub use record::{record, RecordError};
pub use replay::TraceWorkload;
pub use source::{NoTraces, SourceError, TraceResolver, WorkloadSource};
