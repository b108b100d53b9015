//! Simulator error type.

use crate::{BlockId, RegionId};
use std::fmt;

/// Errors raised when constructing or driving a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A block was placed into a region without enough free space.
    RegionFull {
        /// The region that overflowed.
        region: RegionId,
        /// The block that did not fit.
        block: BlockId,
        /// Bytes requested.
        requested: u32,
        /// Bytes still free.
        available: u32,
    },
    /// An access used an offset at or beyond the end of its block.
    OffsetOutOfBounds {
        /// The accessed block.
        block: BlockId,
        /// The offending offset.
        offset: u32,
        /// The block's size in bytes.
        size: u32,
    },
    /// A code-block operation was applied to a data block or vice versa.
    WrongBlockKind {
        /// The offending block.
        block: BlockId,
    },
    /// `ret` was called with no active call frame.
    CallStackUnderflow,
    /// The simulated call stack outgrew the program's stack block.
    StackOverflow {
        /// Stack bytes required.
        required: u32,
        /// Stack block capacity.
        capacity: u32,
    },
    /// A placement referenced a region that the machine does not have.
    UnknownRegion(RegionId),
    /// The program declares no stack block but a stack operation ran.
    NoStackBlock,
    /// The machine's cycle budget ([`crate::MachineConfig::deadline_cycles`])
    /// was exhausted: the access that would have run at or past the
    /// deadline is refused instead of executed, so a runaway workload is
    /// cancelled at a deterministic cycle.
    DeadlineExceeded {
        /// The machine cycle at which the access was refused.
        cycle: u64,
        /// The configured budget that was exceeded.
        deadline_cycles: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RegionFull {
                region,
                block,
                requested,
                available,
            } => write!(
                f,
                "region {region:?} full: block {block:?} needs {requested} B, {available} B free"
            ),
            SimError::OffsetOutOfBounds {
                block,
                offset,
                size,
            } => write!(
                f,
                "offset {offset} out of bounds for block {block:?} of {size} B"
            ),
            SimError::WrongBlockKind { block } => {
                write!(f, "operation not valid for block {block:?} of this kind")
            }
            SimError::CallStackUnderflow => write!(f, "ret with empty call stack"),
            SimError::StackOverflow { required, capacity } => write!(
                f,
                "simulated stack overflow: need {required} B, stack block holds {capacity} B"
            ),
            SimError::UnknownRegion(r) => write!(f, "placement references unknown region {r:?}"),
            SimError::NoStackBlock => write!(f, "program has no stack block"),
            SimError::DeadlineExceeded {
                cycle,
                deadline_cycles,
            } => write!(
                f,
                "cycle budget exhausted: cycle {cycle} reached deadline of {deadline_cycles} cycles"
            ),
        }
    }
}

impl std::error::Error for SimError {}
