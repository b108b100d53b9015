//! Model extraction: fit a compact behavioural model to a trace, and
//! regenerate a synthetic workload from the model.
//!
//! [`fit`] makes a single pass over a trace's records and produces a
//! [`TraceModel`]: per-block lifetimes and read/write mixes, the
//! overall write fraction, phase segmentation (change-points in the
//! access-density curve), a log2 inter-access gap histogram, and the
//! mean sequential run length — plus a [`SyntheticConfig`] projection
//! of the whole model onto the standard synthetic workload's dials.
//!
//! [`FittedWorkload`] regenerates a runnable workload from the model:
//! it mirrors the source program block-for-block (so block count
//! matches *exactly*), draws accesses from the per-block empirical mix
//! with the per-phase write fraction applied error-diffusion style (so
//! the R/W ratio matches to within one access per phase), and paces
//! each phase with instruction padding proportional to the source
//! phase's inverse access density (so re-fitting the regenerated
//! workload finds the same phase structure).

use ftspm_sim::{BlockId, BlockKind, Cpu, Dram, Program, SimError};
use ftspm_workloads::{Checksum, SyntheticConfig, Workload};

use crate::format::{BlockInit, Trace, TraceOp};

/// Number of fixed cycle windows the change-point detector buckets
/// accesses into.
const WINDOWS: usize = 48;

/// Adjacent-window density ratio that opens a new phase.
const PHASE_RATIO: f64 = 2.0;

/// Cap on accesses a fitted workload regenerates (phases are scaled
/// proportionally past it).
const MAX_FIT_ACCESSES: u64 = 2_000_000;

/// Per-block usage statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockUse {
    /// The block.
    pub block: BlockId,
    /// Block name (from the program).
    pub name: String,
    /// Loads targeting the block (stack loads count toward the stack
    /// block).
    pub reads: u64,
    /// Stores targeting the block.
    pub writes: u64,
    /// Cycle of the block's first data access, if any.
    pub first_use: Option<u64>,
    /// Cycle of the block's last data access, if any.
    pub last_use: Option<u64>,
}

/// One detected phase: a maximal cycle span of roughly constant access
/// density.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseModel {
    /// First cycle of the phase (inclusive).
    pub start_cycle: u64,
    /// Last cycle of the phase (exclusive).
    pub end_cycle: u64,
    /// Data accesses inside the phase.
    pub accesses: u64,
    /// Stores inside the phase.
    pub writes: u64,
}

impl PhaseModel {
    /// The phase's write fraction (0 when it holds no accesses).
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses as f64
        }
    }

    /// The phase's cycle span.
    #[must_use]
    pub fn span(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle).max(1)
    }
}

/// The fitted behavioural model of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceModel {
    /// Per-block usage, in block order.
    pub blocks: Vec<BlockUse>,
    /// Total data accesses (loads + stores, stack ops included).
    pub accesses: u64,
    /// Total stores.
    pub writes: u64,
    /// Detected phases, in time order; at least one when the trace has
    /// any data access.
    pub phases: Vec<PhaseModel>,
    /// Histogram of inter-access cycle gaps, log2-bucketed: bucket `i`
    /// holds gaps of bit length `i` (bucket 0 = back-to-back).
    pub gap_histogram: [u64; 32],
    /// Mean length of consecutive same-block access runs.
    pub mean_run_length: f64,
    /// The model projected onto the standard synthetic workload's
    /// dials.
    pub synthetic: SyntheticConfig,
}

impl TraceModel {
    /// Overall write fraction.
    #[must_use]
    pub fn write_fraction(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.writes as f64 / self.accesses as f64
        }
    }
}

/// The `(block, is_write)` view of one record's data access, if it is
/// one.
fn data_access(op: &TraceOp, stack: Option<BlockId>) -> Option<(BlockId, bool)> {
    match *op {
        TraceOp::Read { block, .. } => Some((block, false)),
        TraceOp::Write { block, .. } => Some((block, true)),
        TraceOp::StackRead { .. } => stack.map(|b| (b, false)),
        TraceOp::StackWrite { .. } => stack.map(|b| (b, true)),
        TraceOp::Call { .. } | TraceOp::Ret | TraceOp::Execute { .. } => None,
    }
}

/// Fits a [`TraceModel`] to `trace` in a single pass over its records.
#[must_use]
pub fn fit(trace: &Trace) -> TraceModel {
    let program = &trace.program;
    let stack = program.stack_block();
    let mut blocks: Vec<BlockUse> = program
        .iter()
        .map(|(id, spec)| BlockUse {
            block: id,
            name: spec.name().to_string(),
            reads: 0,
            writes: 0,
            first_use: None,
            last_use: None,
        })
        .collect();
    let end_cycle = trace.records.last().map_or(1, |r| r.cycle + 1);
    let mut window_accesses = [0u64; WINDOWS];
    let mut window_writes = [0u64; WINDOWS];
    let mut gap_histogram = [0u64; 32];
    let (mut accesses, mut writes) = (0u64, 0u64);
    let mut prev_access_cycle: Option<u64> = None;
    let (mut runs, mut prev_block): (u64, Option<BlockId>) = (0, None);
    for rec in &trace.records {
        let Some((block, is_write)) = data_access(&rec.op, stack) else {
            continue;
        };
        accesses += 1;
        writes += u64::from(is_write);
        let stats = &mut blocks[block.index()];
        stats.first_use.get_or_insert(rec.cycle);
        stats.last_use = Some(rec.cycle);
        if is_write {
            stats.writes += 1;
        } else {
            stats.reads += 1;
        }
        let window = ((rec.cycle as u128 * WINDOWS as u128) / end_cycle as u128) as usize;
        let window = window.min(WINDOWS - 1);
        window_accesses[window] += 1;
        window_writes[window] += u64::from(is_write);
        if let Some(prev) = prev_access_cycle {
            let gap = rec.cycle - prev;
            let bucket = (64 - gap.leading_zeros()) as usize;
            gap_histogram[bucket.min(31)] += 1;
        }
        prev_access_cycle = Some(rec.cycle);
        if prev_block != Some(block) {
            runs += 1;
            prev_block = Some(block);
        }
    }
    let phases = segment_phases(&window_accesses, &window_writes, end_cycle);
    let mean_run_length = if runs == 0 {
        0.0
    } else {
        accesses as f64 / runs as f64
    };
    let buffer_words = program
        .iter()
        .filter(|(id, spec)| spec.kind() == BlockKind::Data && Some(*id) != stack)
        .map(|(_, spec)| spec.size_bytes() / 4)
        .max()
        .unwrap_or(1);
    let synthetic = SyntheticConfig {
        write_fraction: if accesses == 0 {
            0.0
        } else {
            writes as f64 / accesses as f64
        },
        buffer_words: buffer_words.max(1),
        accesses: u32::try_from(accesses.clamp(1, 10_000_000)).expect("clamped"),
        run_length: (mean_run_length.round() as u32).max(1),
        seed: trace.expected_checksum,
    };
    TraceModel {
        blocks,
        accesses,
        writes,
        phases,
        gap_histogram,
        mean_run_length,
        synthetic,
    }
}

/// Change-point segmentation over the access-density windows: a new
/// phase opens where adjacent window densities differ by more than
/// [`PHASE_RATIO`] (with additive smoothing so empty-vs-tiny windows do
/// not oscillate), then single-window segments — the artifact a density
/// step leaves when it lands mid-window — are merged into whichever
/// neighbour is closer in density.
fn segment_phases(
    window_accesses: &[u64; WINDOWS],
    window_writes: &[u64; WINDOWS],
    end_cycle: u64,
) -> Vec<PhaseModel> {
    let total: u64 = window_accesses.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    // Smoothing floor: fluctuations below ~a quarter of the uniform
    // level are noise, not phase structure.
    let eps = (total as f64 / WINDOWS as f64) * 0.25 + 1.0;
    // Segments as window ranges first: (start, end) half-open. A
    // boundary opens where a window's density deviates from the
    // *running mean of the current segment* by more than the ratio —
    // comparing against the segment mean (not just the previous
    // window) keeps a transition window that straddles a density step
    // from splitting the step into two sub-threshold half-steps.
    let mut segments: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut sum = window_accesses[0];
    for (i, &count) in window_accesses.iter().enumerate().skip(1) {
        let mean = sum as f64 / (i - start) as f64 + eps;
        let w = count as f64 + eps;
        if (mean / w).max(w / mean) > PHASE_RATIO {
            segments.push((start, i));
            start = i;
            sum = 0;
        }
        sum += count;
    }
    segments.push((start, WINDOWS));
    // A step landing mid-window leaves a one-window segment of
    // intermediate density with both edges over the ratio; it is a
    // transition artifact, not a phase. Merge each into the neighbour
    // whose density is nearer.
    let density = |seg: &(usize, usize)| {
        let sum: u64 = window_accesses[seg.0..seg.1].iter().sum();
        sum as f64 / (seg.1 - seg.0) as f64 + eps
    };
    while segments.len() > 1 {
        let Some(idx) = segments.iter().position(|s| s.1 - s.0 == 1) else {
            break;
        };
        let d = density(&segments[idx]);
        let ratio = |other: f64| (d / other).max(other / d);
        let left = idx.checked_sub(1).map(|i| ratio(density(&segments[i])));
        let right = (idx + 1 < segments.len()).then(|| ratio(density(&segments[idx + 1])));
        let into_left = match (left, right) {
            (Some(l), Some(r)) => l <= r,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if into_left {
            segments[idx - 1].1 = segments[idx].1;
        } else {
            segments[idx + 1].0 = segments[idx].0;
        }
        segments.remove(idx);
    }
    let window_span = |i: usize| (end_cycle * i as u64) / WINDOWS as u64;
    let phase = |(s, e): (usize, usize)| PhaseModel {
        start_cycle: window_span(s),
        end_cycle: window_span(e),
        accesses: window_accesses[s..e].iter().sum(),
        writes: window_writes[s..e].iter().sum(),
    };
    // Segments below 5% of the run's accesses are warm-up and straggler
    // noise (e.g. the quiet lead-in while the first touched blocks DMA
    // in), not phases — and crucially they are *machine* artifacts a
    // regenerated workload reproduces differently, so keeping them
    // would make phase structure unstable under refitting.
    let phases: Vec<PhaseModel> = segments
        .iter()
        .map(|&seg| phase(seg))
        .filter(|p| p.accesses * 20 >= total)
        .collect();
    if phases.is_empty() {
        // Pathologically fragmented traffic: model it as one phase.
        return vec![phase((0, WINDOWS))];
    }
    phases
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` when access `i` of a phase with write fraction `wf` is a
/// store — error-diffusion, so a phase of `n` accesses carries exactly
/// `floor(n * wf)` stores.
fn is_write(i: u64, wf: f64) -> bool {
    (((i + 1) as f64) * wf).floor() > ((i as f64) * wf).floor()
}

#[derive(Debug, Clone)]
struct FitPhase {
    accesses: u64,
    write_fraction: f64,
    /// Instruction padding per access — pacing that preserves the
    /// source phase's relative access density, so refitting finds the
    /// same change-points.
    pad: u32,
}

#[derive(Debug, Clone)]
struct FitTarget {
    block: BlockId,
    words: u32,
    cumulative_weight: u64,
}

/// A synthetic workload regenerated from a [`TraceModel`]: same program
/// shape as the source trace, empirical per-block access mix, per-phase
/// write fractions, density-matched pacing.
#[derive(Debug, Clone)]
pub struct FittedWorkload {
    name: String,
    program: Program,
    init: Vec<BlockInit>,
    code: Option<BlockId>,
    targets: Vec<FitTarget>,
    total_weight: u64,
    phases: Vec<FitPhase>,
    sample_blocks: Vec<(BlockId, u32)>,
    seed: u64,
    expected: u64,
}

impl FittedWorkload {
    /// Fits `trace` and builds the regenerated workload.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        let model = fit(trace);
        Self::from_model(trace, &model)
    }

    /// Builds the regenerated workload from an already-fitted model.
    ///
    /// # Panics
    ///
    /// Panics if `model` was fitted from a different trace (block table
    /// mismatch).
    #[must_use]
    pub fn from_model(trace: &Trace, model: &TraceModel) -> Self {
        assert_eq!(
            model.blocks.len(),
            trace.program.len(),
            "model does not match the trace"
        );
        let program = trace.program.clone();
        let stack = program.stack_block();
        let code = program.code_blocks().first().copied();
        // Weight data-block targets by their observed access counts;
        // the stack block is excluded (its traffic is frame-shaped, and
        // call-frame spills would clash with raw stores to it).
        let mut targets = Vec::new();
        let mut total_weight = 0u64;
        for (id, spec) in program.iter() {
            if spec.kind() != BlockKind::Data || Some(id) == stack {
                continue;
            }
            let used = &model.blocks[id.index()];
            let weight = used.reads + used.writes;
            if weight == 0 {
                continue;
            }
            total_weight += weight;
            targets.push(FitTarget {
                block: id,
                words: spec.size_bytes() / 4,
                cumulative_weight: total_weight,
            });
        }
        let scale = if model.accesses > MAX_FIT_ACCESSES {
            MAX_FIT_ACCESSES as f64 / model.accesses as f64
        } else {
            1.0
        };
        let max_rate = model
            .phases
            .iter()
            .map(|p| p.accesses as f64 / p.span() as f64)
            .fold(0.0f64, f64::max);
        let phases: Vec<FitPhase> = model
            .phases
            .iter()
            .filter(|p| p.accesses > 0)
            .map(|p| {
                let rate = p.accesses as f64 / p.span() as f64;
                let pad = if rate > 0.0 && max_rate > 0.0 {
                    ((2.0 * max_rate / rate).round() as u32).clamp(2, 64)
                } else {
                    2
                };
                FitPhase {
                    accesses: ((p.accesses as f64 * scale) as u64).max(1),
                    write_fraction: p.write_fraction(),
                    pad,
                }
            })
            .collect();
        let sample_blocks: Vec<(BlockId, u32)> =
            targets.iter().map(|t| (t.block, t.words)).collect();
        let mut fitted = Self {
            name: format!("fitted:{}", trace.name),
            program,
            init: trace.init.clone(),
            code,
            targets,
            total_weight,
            phases,
            sample_blocks,
            seed: model.synthetic.seed,
            expected: 0,
        };
        fitted.expected = fitted.host_reference();
        fitted
    }

    /// The phase pacing/mix this workload will regenerate (for the
    /// `repro trace` diff display).
    #[must_use]
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    fn pick(&self, global_index: u64) -> (BlockId, u32, u32) {
        let h = splitmix(self.seed ^ global_index.wrapping_mul(0xD129_0F1E_DCBA_9871));
        let r = h % self.total_weight;
        let t = self
            .targets
            .iter()
            .find(|t| r < t.cumulative_weight)
            .expect("cumulative weights cover the range");
        let word = ((h >> 32) % u64::from(t.words)) as u32;
        (t.block, word, t.words)
    }

    /// The access script, computed natively: mirrors [`Workload::run`]
    /// word for word over host arrays.
    fn host_reference(&self) -> u64 {
        let mut arrays: Vec<Vec<u32>> = self
            .program
            .iter()
            .map(|(_, spec)| vec![0u32; (spec.size_bytes() / 4) as usize])
            .collect();
        for block in &self.init {
            for &(word, value) in &block.words {
                arrays[block.block.index()][word as usize] = value;
            }
        }
        let mut acc = 0u32;
        if self.total_weight > 0 {
            let mut global = 0u64;
            for phase in &self.phases {
                for i in 0..phase.accesses {
                    let (block, word, _) = self.pick(global);
                    if is_write(i, phase.write_fraction) {
                        arrays[block.index()][word as usize] = acc.wrapping_add(global as u32);
                    } else {
                        acc = acc
                            .wrapping_add(arrays[block.index()][word as usize])
                            .rotate_left(1);
                    }
                    global += 1;
                }
            }
        }
        let mut c = Checksum::new();
        c.push(acc);
        for &(block, words) in &self.sample_blocks {
            let mut w = 0;
            while w < words {
                c.push(arrays[block.index()][w as usize]);
                w += 64;
            }
        }
        c.value()
    }
}

impl Workload for FittedWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn program(&self) -> &Program {
        &self.program
    }

    fn init(&mut self, dram: &mut Dram) {
        for block in &self.init {
            for &(word, value) in &block.words {
                dram.poke_word(block.block, word * 4, value);
            }
        }
    }

    fn run(&mut self, cpu: &mut Cpu<'_, '_>) -> Result<u64, SimError> {
        let mut acc = 0u32;
        if let Some(code) = self.code {
            cpu.call(code)?;
        }
        if self.total_weight > 0 {
            let mut global = 0u64;
            for phase in &self.phases {
                for i in 0..phase.accesses {
                    let (block, word, _) = self.pick(global);
                    if is_write(i, phase.write_fraction) {
                        cpu.write_u32(block, word * 4, acc.wrapping_add(global as u32))?;
                    } else {
                        acc = acc
                            .wrapping_add(cpu.read_u32(block, word * 4)?)
                            .rotate_left(1);
                    }
                    if self.code.is_some() {
                        cpu.execute(phase.pad)?;
                    }
                    global += 1;
                }
            }
        }
        let mut c = Checksum::new();
        c.push(acc);
        for &(block, words) in &self.sample_blocks {
            let mut w = 0;
            while w < words {
                c.push(cpu.read_u32(block, w * 4)?);
                w += 64;
            }
        }
        if self.code.is_some() {
            cpu.ret()?;
        }
        Ok(c.value())
    }

    fn expected_checksum(&self) -> u64 {
        self.expected
    }
}
