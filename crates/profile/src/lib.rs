//! # ftspm-profile — the FTSPM static-profiling phase
//!
//! The first phase of the paper's tool flow runs the application once and
//! collects, per program block, the statistics of its Table I:
//!
//! * number of reads and writes (instruction fetches count as reads of a
//!   code block; DMA traffic is excluded, matching the paper's note that
//!   the primary copy-in "has not been considered"),
//! * number of *references* and the average reads/writes per reference,
//! * stack calls issued and maximum stack bytes needed (code blocks), and
//! * *lifetime* in cycles.
//!
//! Definitions (DESIGN.md §5): a code block's reference is an entry into
//! the block and its lifetime accumulates PC residency (entry until
//! another block runs); a data block's reference is a maximal run of
//! consecutive accesses and its lifetime is its accumulated **ACE time**
//! — per word, the "vulnerable intervals" that end in a read (a flipped
//! bit in such an interval is consumed; an interval ending in a write is
//! overwritten and harmless). This is why the paper's Table I shows
//! arrays with lifetimes near the whole run but the stack — whose frames
//! die at each return — with a tiny one.
//!
//! The profiler also records each block's first use (its cycle and the
//! order in which blocks are first referenced), which is all the online
//! mapping phase extracts from the access sequence, and the per-block
//! write counts the MDA endurance step (Algorithm 1, lines 23–27)
//! thresholds against. Everything a profile keeps is O(blocks): nothing
//! in it grows with the length of the run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod profiler;
mod report;

pub use profiler::{BlockProfile, Profile, Profiler};
pub use report::ProfileTable;
