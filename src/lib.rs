//! # FTSPM — a fault-tolerant hybrid scratchpad memory
//!
//! A full reproduction of *"FTSPM: A Fault-Tolerant ScratchPad Memory"*
//! (Hosseini Monazzah, Farbeh, Miremadi, Fazeli, Asadi — DSN 2013):
//! a hybrid STT-RAM / SEC-DED-SRAM / parity-SRAM scratchpad together
//! with the multi-priority, reliability-aware Mapping Determiner
//! Algorithm (MDA) that distributes program blocks across the regions by
//! susceptibility, under performance, energy and endurance budgets.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`mem`] — NVSIM-substitute memory technology models (latency,
//!   dynamic energy, leakage; 40 nm presets calibrated to the paper),
//! * [`ecc`] — real parity and extended-Hamming SEC-DED codecs plus the
//!   40 nm MBU distribution and the analytic SDC/DUE/DRE model,
//! * [`sim`] — the cycle-accurate embedded memory-hierarchy simulator
//!   (FaCSim substitute): L1 caches, SPM regions, DMA, DRAM,
//! * [`profile`] — the Table I profiler (reads/writes/references/ACE
//!   lifetimes/stack statistics, each block's first use),
//! * [`core`] — the paper's contribution: hybrid structure, MDA
//!   (Algorithm 1), transfer scheduling, AVF reliability model,
//!   endurance model,
//! * [`workloads`] — the MiBench-substitute kernel suite and the §IV
//!   case study, all self-checking,
//! * [`faults`] — Monte-Carlo particle-strike injection validating the
//!   analytic reliability model,
//! * [`obs`] — deterministic observability: metrics registry, bounded
//!   structured trace, chrome-trace/CSV exporters,
//! * [`harness`] — the [`harness::RunBuilder`] profile → map → re-run
//!   orchestration plus renderers for every table and figure of the
//!   paper,
//! * [`trace`] — external access traces: a versioned, CRC-framed
//!   binary format, a recorder, a torn-tail-tolerant reader, replay
//!   as a [`workloads::Workload`], model extraction
//!   ([`trace::fit`]) producing trace-fitted synthetics, and
//!   [`trace::WorkloadSource`], the unified way every entry point
//!   names a workload, and
//! * [`serve`] — a zero-dependency HTTP/1.1 evaluation service: batched
//!   jobs over TCP through the same [`harness::RunBuilder`] path, with
//!   byte-identical responses at any worker-pool size, plus trace
//!   ingestion (`POST /v1/traces`).
//!
//! ## Quickstart
//!
//! ```
//! use ftspm::core::OptimizeFor;
//! use ftspm::harness::evaluate_workload;
//! use ftspm::workloads::CaseStudy;
//!
//! let mut workload = CaseStudy::new();
//! let eval = evaluate_workload(&mut workload, OptimizeFor::Reliability);
//! assert!(eval.all_checksums_ok());
//! // The hybrid SPM is ~2.5x less vulnerable than the SEC-DED baseline
//! // on this workload, at roughly half the dynamic energy.
//! assert!(eval.ftspm.vulnerability < eval.pure_sram.vulnerability / 2.0);
//! assert!(eval.ftspm.spm_dynamic_pj < 0.6 * eval.pure_sram.spm_dynamic_pj);
//! ```
//!
//! Run `cargo run --release -p ftspm-bench --bin repro -- all` to
//! regenerate every table and figure of the paper; see `EXPERIMENTS.md`
//! for the paper-vs-measured record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ftspm_core as core;
pub use ftspm_ecc as ecc;
pub use ftspm_faults as faults;
pub use ftspm_harness as harness;
pub use ftspm_mem as mem;
pub use ftspm_obs as obs;
pub use ftspm_profile as profile;
pub use ftspm_serve as serve;
pub use ftspm_sim as sim;
pub use ftspm_trace as trace;
pub use ftspm_workloads as workloads;
