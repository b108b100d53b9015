//! Replay: a decoded [`Trace`] as a [`Workload`], so traces flow
//! through profile/MDA/sim — and the whole serve pipeline — unchanged.
//!
//! ## Why replay is byte-identical
//!
//! A trace stores the *public op sequence* a workload issued, the
//! program shape, and the initial-memory snapshot. The `Cpu` derives
//! every other memory event (spill/reload on call/ret, the implicit
//! fetch per data op, cache/DMA traffic) from those ops and machine
//! state alone, so re-issuing the ops against an identically
//! initialised machine reproduces the exact event stream — hence the
//! same profile, the same MDA mapping, the same cycle/energy totals,
//! and a byte-identical rendered report.
//!
//! The replay checksum closes the loop on *values*: the recorded run
//! folded every loaded value into [`Trace::expected_checksum`]; the
//! replay recomputes the fold from its own loads. `checksum_ok` in a
//! replay's report therefore asserts the replay observed the exact
//! values the original run did.

use std::sync::Arc;

use ftspm_sim::{Cpu, Dram, Program, SimError};
use ftspm_workloads::{Checksum, Workload};

use crate::format::{Trace, TraceOp};

/// A trace replaying as a workload. Cheap to clone (the trace is
/// shared) and re-runnable: the evaluation pipeline runs every workload
/// once per structure plus once for profiling.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    trace: Arc<Trace>,
}

impl TraceWorkload {
    /// Wraps a decoded trace for replay.
    #[must_use]
    pub fn new(trace: Arc<Trace>) -> Self {
        Self { trace }
    }

    /// The underlying trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        // The recorded source's name: a replayed crc32 trace reports as
        // crc32, which is what makes replay reports byte-identical to
        // in-process runs.
        &self.trace.name
    }

    fn program(&self) -> &Program {
        &self.trace.program
    }

    fn init(&mut self, dram: &mut Dram) {
        for block in &self.trace.init {
            for &(word, value) in &block.words {
                dram.poke_word(block.block, word * 4, value);
            }
        }
    }

    fn run(&mut self, cpu: &mut Cpu<'_, '_>) -> Result<u64, SimError> {
        let mut fold = Checksum::new();
        for rec in self.trace.records() {
            match rec.op {
                TraceOp::Call { block } => cpu.call(block)?,
                TraceOp::Ret => cpu.ret()?,
                TraceOp::Execute { count } => cpu.execute(count)?,
                TraceOp::Read { block, offset } => fold.push(cpu.read_u32(block, offset)?),
                TraceOp::Write {
                    block,
                    offset,
                    value,
                } => cpu.write_u32(block, offset, value)?,
                TraceOp::StackRead { offset } => fold.push(cpu.stack_read_u32(offset)?),
                TraceOp::StackWrite { offset, value } => cpu.stack_write_u32(offset, value)?,
            }
        }
        Ok(fold.value())
    }

    fn expected_checksum(&self) -> u64 {
        self.trace.expected_checksum
    }
}
