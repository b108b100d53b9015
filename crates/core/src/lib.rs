//! # ftspm-core — the FTSPM method
//!
//! This crate implements the contribution of *"FTSPM: A Fault-Tolerant
//! ScratchPad Memory"* (DSN 2013):
//!
//! * the **hybrid SPM structure** ([`SpmStructure`]): a pure STT-RAM
//!   instruction SPM plus a data SPM split into STT-RAM, SEC-DED SRAM and
//!   parity SRAM regions (the paper's Fig. 1 / Table IV), along with the
//!   two baselines the paper compares against;
//! * the **Mapping Determiner Algorithm** ([`mda::run_mda`], the paper's
//!   Algorithm 1): a multi-priority, reliability-aware mapper that places
//!   program blocks by susceptibility subject to performance, energy and
//!   endurance thresholds ([`MdaThresholds`], [`OptimizeFor`]);
//! * the **online phase** ([`schedule`]): turning a mapping and the
//!   blocks' profiled first uses into block transfer commands;
//! * the **reliability model** ([`reliability`]): the paper's AVF
//!   equations (1)–(7) over the 40 nm MBU distribution; and
//! * the **endurance model** ([`endurance`]): write-rate → lifetime
//!   (Table III / Fig. 8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod endurance;
pub mod estimate;
pub mod mda;
pub mod reliability;
pub mod remap;
pub mod schedule;
mod structure;
mod thresholds;

pub use structure::{RegionRole, SpmStructure};
pub use thresholds::{MdaThresholds, OptimizeFor};
