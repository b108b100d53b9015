//! Recording: run a workload once on a private ideal machine with the
//! CPU op tap armed, and capture everything a replay needs.
//!
//! The recording machine is the harness's [`profiling_structure`] —
//! two 256 KiB unprotected-SRAM regions, code in the first, data in the
//! second — because recording must not disturb the op stream, and that
//! structure never faults, never remaps, and holds every replayable
//! program whole. The op stream a workload issues through the public
//! [`Cpu`] API is *machine-independent* (kernels
//! compute over values, and all values are exact on every structure),
//! so a trace recorded here replays identically on FTSPM and both
//! baselines.

use ftspm_harness::profiling_structure;
use ftspm_sim::{
    BlockKind, Cpu, CpuOp, Machine, MachineConfig, NullObserver, PlacementMap, RegionId, SimError,
};
use ftspm_workloads::{Checksum, Workload};

use crate::format::{
    BlockInit, OpStream, Trace, TraceOp, TraceRecord, MAX_CODE_BYTES, MAX_DATA_BYTES, MAX_OPS,
};

/// Why a workload could not be recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The program's code or data footprint exceeds what a trace may
    /// declare ([`MAX_CODE_BYTES`] / [`MAX_DATA_BYTES`]): it could
    /// never replay through the profiling structure.
    TooLarge {
        /// Total code bytes declared.
        code_bytes: u64,
        /// Total data bytes declared (stack included).
        data_bytes: u64,
    },
    /// The workload issued more ops than a trace may carry.
    TooManyOps,
    /// The workload itself failed on the recording machine.
    Sim(SimError),
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooLarge {
                code_bytes,
                data_bytes,
            } => write!(
                f,
                "program too large to trace: {code_bytes} code / {data_bytes} data bytes \
                 (caps {MAX_CODE_BYTES} / {MAX_DATA_BYTES})"
            ),
            Self::TooManyOps => write!(f, "workload issued more than {MAX_OPS} ops"),
            Self::Sim(e) => write!(f, "workload failed while recording: {e}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<SimError> for RecordError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// Records one full run of `workload` into a [`Trace`].
///
/// # Errors
///
/// [`RecordError::TooLarge`] when the program cannot fit a trace's
/// replayable footprint, [`RecordError::TooManyOps`] when the run
/// overflows the op cap, [`RecordError::Sim`] when the workload itself
/// errors.
pub fn record(workload: &mut dyn Workload) -> Result<Trace, RecordError> {
    let program = workload.program().clone();
    let code_bytes: u64 = program
        .iter()
        .filter(|(_, s)| s.kind() == BlockKind::Code)
        .map(|(_, s)| u64::from(s.size_bytes()))
        .sum();
    let data_bytes: u64 = program
        .iter()
        .filter(|(_, s)| s.kind() == BlockKind::Data)
        .map(|(_, s)| u64::from(s.size_bytes()))
        .sum();
    if code_bytes > u64::from(MAX_CODE_BYTES) || data_bytes > u64::from(MAX_DATA_BYTES) {
        return Err(RecordError::TooLarge {
            code_bytes,
            data_bytes,
        });
    }
    let regions = profiling_structure().specs();
    let mut placement = PlacementMap::new(&program, &regions);
    for (id, spec) in program.iter() {
        let region = match spec.kind() {
            BlockKind::Code => RegionId::new(0),
            BlockKind::Data => RegionId::new(1),
        };
        placement
            .place(&program, id, region)
            .expect("footprint checked against the region capacity above");
    }
    let mut machine = Machine::new(
        MachineConfig::with_regions(regions),
        program.clone(),
        placement,
    )?;
    workload.init(machine.dram_mut());
    // Snapshot what init wrote: DRAM is zero-initialised, so the
    // nonzero words of each data block are the whole picture.
    let mut init = Vec::new();
    for (id, spec) in program.iter() {
        if spec.kind() != BlockKind::Data {
            continue;
        }
        let words: Vec<(u32, u32)> = (0..spec.size_bytes() / 4)
            .filter_map(|w| {
                let value = machine.dram().peek_word(id, w * 4);
                (value != 0).then_some((w, value))
            })
            .collect();
        if !words.is_empty() {
            init.push(BlockInit { block: id, words });
        }
    }
    let mut observer = NullObserver;
    let mut cpu = Cpu::new(&mut machine, &mut observer);
    cpu.start_op_tap();
    workload.run(&mut cpu)?;
    let tapped = cpu.take_op_tap();
    if tapped.len() as u64 > MAX_OPS {
        return Err(RecordError::TooManyOps);
    }
    // The replay checksum folds every value the run's loads observed,
    // in op order; a replay recomputes the same fold from its own
    // loads, so it only matches when replay reproduced the run.
    let mut fold = Checksum::new();
    let mut ops = OpStream::default();
    for t in tapped {
        let op = match t.op {
            CpuOp::Call { block } => TraceOp::Call { block },
            CpuOp::Ret => TraceOp::Ret,
            CpuOp::Execute { count } => TraceOp::Execute { count },
            CpuOp::Read {
                block,
                offset,
                value,
            } => {
                fold.push(value);
                TraceOp::Read { block, offset }
            }
            CpuOp::Write {
                block,
                offset,
                value,
            } => TraceOp::Write {
                block,
                offset,
                value,
            },
            CpuOp::StackRead { offset, value } => {
                fold.push(value);
                TraceOp::StackRead { offset }
            }
            CpuOp::StackWrite { offset, value } => TraceOp::StackWrite { offset, value },
        };
        ops.push(&TraceRecord { cycle: t.cycle, op });
    }
    ops.shrink_to_fit();
    Ok(Trace {
        name: workload.name().to_string(),
        program,
        init,
        expected_checksum: fold.value(),
        op_count: ops.len(),
        ops,
    })
}
