//! # ftspm-sim — cycle-accurate embedded memory-hierarchy simulator
//!
//! This crate is the reproduction's substitute for **FaCSim**, the
//! cycle-accurate ARM9 simulator the FTSPM paper evaluates on. Every
//! number in the paper's evaluation (per-region read/write distributions,
//! cycle counts, dynamic/static energy, per-line write counts, block
//! residency intervals) is a function of the *memory access stream*, so
//! this simulator models exactly that, cycle by cycle:
//!
//! * a 32-bit in-order embedded core abstraction ([`Cpu`]) executing
//!   block-structured programs with a real call stack,
//! * split 8 KiB L1 instruction/data caches (set-associative, write-back,
//!   LRU) in front of an off-chip DRAM,
//! * a software-managed scratchpad composed of [`SpmRegion`]s with
//!   per-technology latency/energy ([`ftspm_mem`]) and per-line write
//!   counters (for the endurance model), and
//! * a DMA engine that transfers program blocks between DRAM and the SPM
//!   (the paper's SPM-mapping-instruction mechanism), lazily on first
//!   access.
//!
//! Programs address memory *block-relatively* — `(block, offset)` — and
//! the active [`PlacementMap`] decides which device serves each access.
//! This mirrors the paper's tool flow, where the mapper rewrites addresses
//! after deciding each block's home, and lets one workload run unmodified
//! on FTSPM and on both baselines.
//!
//! All stores are real: workloads read back the values they wrote, so
//! every kernel can self-check its output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cpu;
mod dram;
mod error;
mod fault;
mod machine;
mod multi;
mod observer;
mod placement;
mod program;
mod spm;
mod stats;

pub use cache::{Cache, CacheConfig, CoherenceState};
pub use cpu::{Cpu, CpuConfig, CpuOp, CpuState, TappedOp};
pub use dram::{Dram, DramConfig};
pub use error::SimError;
pub use fault::{FaultConfig, FaultStats, MarkTable};
pub use machine::{CoherenceStats, CoreFaultView, Machine, MachineConfig};
pub use multi::{MultiMachine, MAX_CORES};
pub use observer::{
    AccessEvent, AccessKind, NullObserver, Observer, QuarantineCause, QuarantineEvent, RemapEvent,
    Target,
};
pub use placement::{Placement, PlacementMap, RegionId};
pub use program::{BlockId, BlockKind, BlockSpec, Program, ProgramBuilder};
pub use spm::{SpmRegion, SpmRegionSpec};
pub use stats::{DeviceStats, MachineStats, RegionStats};
