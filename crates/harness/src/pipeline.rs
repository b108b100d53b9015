//! The profile → map → re-run pipeline, with one run path.
//!
//! Every run is a [`MultiWorkload`] on a [`MultiMachine`] driven by
//! [`run_lockstep`]. A single-core [`Workload`] enters through the
//! private 1-core `SingleCore` adapter, and a 1-core `MultiMachine`
//! attaches no coherence hub, so a single-core run executes exactly the
//! plain `Machine`. [`try_profile_multi_workload`] is the profiling
//! pass and `mapped_run` the mapped run; [`crate::RunBuilder`] and
//! [`evaluate_workload`] both drive those two.

use std::fmt;

use std::ops::DerefMut;

use ftspm_core::mda::{run_baseline, run_mda_multicore, MdaOutput};
use ftspm_core::{reliability, remap, OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_profile::{Profile, Profiler};
use ftspm_sim::{
    Cpu, Dram, FaultConfig, MachineConfig, MultiMachine, NullObserver, Observer, PlacementMap,
    Program, SimError,
};
use ftspm_workloads::multicore::{run_lockstep, MultiWorkload, StepOutcome};
use ftspm_workloads::Workload;

use crate::metrics::{
    MultiRunMetrics, RegionTraffic, RunMetrics, StructureKind, WorkloadEvaluation,
};

/// The idealised structure used for the profiling pass: two 256 KiB
/// 1-cycle regions so that *every* block (even ones the real SPM cannot
/// hold) is mapped and the profile is placement-neutral. This is also the
/// "ideal situation" the paper's overhead thresholds are defined against.
pub fn profiling_structure() -> SpmStructure {
    SpmStructure::new(
        "profiling (ideal)",
        vec![
            (
                RegionRole::Instruction,
                ftspm_sim::SpmRegionSpec::new(
                    "ideal I",
                    Technology::SramUnprotected,
                    ProtectionScheme::None,
                    RegionGeometry::from_kib(256),
                ),
            ),
            (
                RegionRole::DataStt,
                ftspm_sim::SpmRegionSpec::new(
                    "ideal D",
                    Technology::SramUnprotected,
                    ProtectionScheme::None,
                    RegionGeometry::from_kib(256),
                ),
            ),
        ],
    )
}

fn map_everything(program: &Program, structure: &SpmStructure) -> PlacementMap {
    let specs = structure.specs();
    let mut map = PlacementMap::new(program, &specs);
    for (id, spec) in program.iter() {
        let role = match spec.kind() {
            ftspm_sim::BlockKind::Code => RegionRole::Instruction,
            ftspm_sim::BlockKind::Data => RegionRole::DataStt,
        };
        let region = structure.region_id(role).expect("ideal structure roles");
        map.place(program, id, region)
            .expect("ideal regions hold everything");
    }
    map
}

/// Why a harness run stopped without producing metrics. Unlike the
/// panicking paths (which guard *trusted fixtures*), these are runtime
/// conditions a caller is expected to handle — the serving layer maps
/// them to typed HTTP errors instead of losing a worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The run's cycle budget ([`crate::RunBuilder::deadline_cycles`])
    /// was exhausted; the machine refused the access that would have run
    /// at or past the deadline.
    DeadlineExceeded {
        /// The configured budget.
        deadline_cycles: u64,
        /// The deterministic machine cycle at which the run was cut.
        cycle: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded {
                deadline_cycles,
                cycle,
            } => write!(
                f,
                "run exceeded its deadline of {deadline_cycles} cycles at cycle {cycle}"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Runs the profiling pass: the paper's phase-one static profiling,
/// producing Table I statistics and each block's first use.
///
/// # Panics
///
/// Panics if the workload misbehaves (out-of-bounds access) — workloads
/// are trusted fixtures.
pub fn profile_workload(workload: &mut dyn Workload) -> Profile {
    try_profile_workload(workload, None).expect("profiling run has no deadline")
}

/// [`profile_workload`] under an optional cycle budget: the fallible
/// entry the deadline-bounded serving path uses, so a runaway workload
/// is cancelled during profiling too, not just during the mapped run.
///
/// # Errors
///
/// [`RunError::DeadlineExceeded`] when the budget runs out mid-profile.
///
/// # Panics
///
/// Panics on any other simulator error — workloads are trusted fixtures.
pub fn try_profile_workload(
    workload: &mut dyn Workload,
    deadline_cycles: Option<u64>,
) -> Result<Profile, RunError> {
    try_profile_multi_workload(&mut SingleCore::new(workload), deadline_cycles)
        .map(|(profile, _)| profile)
}

/// Options for a live fault-injected run: the runtime counterpart of the
/// offline campaign tooling in `ftspm-faults`, expressed in structure
/// roles rather than raw region ids.
#[derive(Debug, Clone)]
pub struct LiveFaultOptions {
    /// MBU cluster-size distribution of injected strikes.
    pub mbu: MbuDistribution,
    /// Mean cycles between strikes (exponential inter-arrival).
    pub mean_cycles_between_strikes: f64,
    /// RNG seed; a faulted run replays bit-for-bit per seed.
    pub seed: u64,
    /// Scrub-daemon period in cycles (`None` disables scrubbing).
    pub scrub_interval: Option<u64>,
    /// DUE recovery re-fetch attempts before quarantining the line.
    pub due_retry_limit: u32,
    /// DUE traps on one word line before it is quarantined.
    pub quarantine_due_threshold: u32,
    /// Per-line write budget for STT-RAM wear quarantine (`None` = off).
    pub line_write_budget: Option<u64>,
    /// Restrict strikes to regions filling these roles (`None` = all).
    pub restrict_to: Option<Vec<RegionRole>>,
    /// Route the run through the simulator's reference (pre-optimization)
    /// fault path instead of the event-gated fast path. The two are
    /// byte-identical — the fast-path differential suite proves it — so
    /// this exists as the equivalence oracle, at a throughput cost.
    pub reference_path: bool,
}

/// A [`LiveFaultOptions`] field rejected by
/// [`LiveFaultOptionsBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOptionsError {
    /// `mean_cycles_between_strikes` was not a finite value ≥ 1.0 —
    /// the injector draws exponential inter-arrival gaps from it and a
    /// sub-cycle or NaN mean is meaningless.
    InvalidStrikeMean,
    /// `due_retry_limit` was 0: a DUE trap with no re-fetch attempt can
    /// never recover, which is a misconfiguration, not a policy.
    ZeroRetryLimit,
    /// `quarantine_due_threshold` was 0: lines would be quarantined
    /// before their first fault.
    ZeroQuarantineThreshold,
    /// `scrub_interval` was `Some(0)`: the scrub daemon would run every
    /// cycle. Disable scrubbing with `None` instead.
    ZeroScrubInterval,
    /// `line_write_budget` was `Some(0)`: every line would wear out on
    /// its first write. Disable wear quarantine with `None` instead.
    ZeroWriteBudget,
}

impl fmt::Display for FaultOptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidStrikeMean => {
                write!(f, "mean_cycles_between_strikes must be finite and >= 1.0")
            }
            Self::ZeroRetryLimit => write!(f, "due_retry_limit must be >= 1"),
            Self::ZeroQuarantineThreshold => write!(f, "quarantine_due_threshold must be >= 1"),
            Self::ZeroScrubInterval => write!(f, "scrub_interval must be >= 1 (None disables)"),
            Self::ZeroWriteBudget => write!(f, "line_write_budget must be >= 1 (None disables)"),
        }
    }
}

impl std::error::Error for FaultOptionsError {}

/// Validating builder for [`LiveFaultOptions`].
///
/// Setters are chainable and unchecked; [`build`](Self::build) performs
/// all validation at once so a caller gets the first structural problem
/// as a typed [`FaultOptionsError`] instead of a mid-run panic from the
/// injector.
#[derive(Debug, Clone)]
pub struct LiveFaultOptionsBuilder {
    opts: LiveFaultOptions,
}

impl LiveFaultOptionsBuilder {
    /// Sets the MBU cluster-size distribution.
    #[must_use]
    pub fn mbu(mut self, mbu: MbuDistribution) -> Self {
        self.opts.mbu = mbu;
        self
    }

    /// Sets the mean strike inter-arrival time in cycles.
    #[must_use]
    pub fn mean_cycles_between_strikes(mut self, mean: f64) -> Self {
        self.opts.mean_cycles_between_strikes = mean;
        self
    }

    /// Enables the scrub daemon with the given period in cycles.
    #[must_use]
    pub fn scrub_interval(mut self, interval: u64) -> Self {
        self.opts.scrub_interval = Some(interval);
        self
    }

    /// Sets the DUE re-fetch retry bound.
    #[must_use]
    pub fn due_retry_limit(mut self, limit: u32) -> Self {
        self.opts.due_retry_limit = limit;
        self
    }

    /// Sets how many DUE traps quarantine a word line.
    #[must_use]
    pub fn quarantine_due_threshold(mut self, threshold: u32) -> Self {
        self.opts.quarantine_due_threshold = threshold;
        self
    }

    /// Enables STT-RAM wear quarantine with the given per-line budget.
    #[must_use]
    pub fn line_write_budget(mut self, budget: u64) -> Self {
        self.opts.line_write_budget = Some(budget);
        self
    }

    /// Restricts strikes to regions filling `roles`.
    #[must_use]
    pub fn restrict_to(mut self, roles: Vec<RegionRole>) -> Self {
        self.opts.restrict_to = Some(roles);
        self
    }

    /// Selects the simulator's reference fault path (the differential
    /// oracle) instead of the event-gated fast path.
    #[must_use]
    pub fn reference_path(mut self, reference: bool) -> Self {
        self.opts.reference_path = reference;
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultOptionsError`] among: a non-finite or
    /// sub-1.0 strike mean, a zero retry limit, a zero quarantine
    /// threshold, a zero scrub interval, or a zero write budget.
    pub fn build(self) -> Result<LiveFaultOptions, FaultOptionsError> {
        let o = &self.opts;
        if !o.mean_cycles_between_strikes.is_finite() || o.mean_cycles_between_strikes < 1.0 {
            return Err(FaultOptionsError::InvalidStrikeMean);
        }
        if o.due_retry_limit == 0 {
            return Err(FaultOptionsError::ZeroRetryLimit);
        }
        if o.quarantine_due_threshold == 0 {
            return Err(FaultOptionsError::ZeroQuarantineThreshold);
        }
        if o.scrub_interval == Some(0) {
            return Err(FaultOptionsError::ZeroScrubInterval);
        }
        if o.line_write_budget == Some(0) {
            return Err(FaultOptionsError::ZeroWriteBudget);
        }
        Ok(self.opts)
    }
}

impl LiveFaultOptions {
    /// Defaults matching [`FaultConfig::new`]: 40 nm MBU distribution,
    /// 3 retries, quarantine after 3 DUEs, scrubbing and wear budget off.
    pub fn new(seed: u64, mean_cycles_between_strikes: f64) -> Self {
        Self {
            mbu: MbuDistribution::default(),
            mean_cycles_between_strikes,
            seed,
            scrub_interval: None,
            due_retry_limit: 3,
            quarantine_due_threshold: 3,
            line_write_budget: None,
            restrict_to: None,
            reference_path: false,
        }
    }

    /// A validating [`LiveFaultOptionsBuilder`] seeded with
    /// [`LiveFaultOptions::new`]'s defaults.
    pub fn builder(seed: u64, mean_cycles_between_strikes: f64) -> LiveFaultOptionsBuilder {
        LiveFaultOptionsBuilder {
            opts: Self::new(seed, mean_cycles_between_strikes),
        }
    }

    /// Lowers the options onto `structure`: roles become region ids and
    /// the demotion map comes from the core remap policy.
    pub(crate) fn config(&self, structure: &SpmStructure) -> FaultConfig {
        let mut cfg = FaultConfig::new(self.seed, self.mean_cycles_between_strikes);
        cfg.mbu = self.mbu;
        cfg.scrub_interval = self.scrub_interval;
        cfg.due_retry_limit = self.due_retry_limit;
        cfg.quarantine_due_threshold = self.quarantine_due_threshold;
        cfg.line_write_budget = self.line_write_budget;
        cfg.targets = self.restrict_to.as_ref().map(|roles| {
            roles
                .iter()
                .filter_map(|r| structure.region_id(*r))
                .collect()
        });
        cfg.demotion = remap::demotion_map(structure, self.mbu);
        cfg.reference_path = self.reference_path;
        cfg
    }
}

/// A single-core [`Workload`] as a 1-core [`MultiWorkload`]: `step(0)`
/// runs the kernel to completion and reports [`StepOutcome::Done`].
/// `W` is anything that dereferences to a workload (`&mut dyn Workload`,
/// `Box<dyn Workload>`), so one run path — and one profiling pass,
/// [`try_profile_multi_workload`] — serves single- and multi-core jobs.
pub struct SingleCore<W> {
    workload: W,
    checksum: u64,
}

impl<W> SingleCore<W> {
    /// Wraps `workload` as a 1-core workload.
    pub fn new(workload: W) -> Self {
        Self {
            workload,
            checksum: 0,
        }
    }
}

impl<W> MultiWorkload for SingleCore<W>
where
    W: DerefMut + Send,
    W::Target: Workload,
{
    fn name(&self) -> &str {
        self.workload.name()
    }

    fn cores(&self) -> usize {
        1
    }

    fn program(&self) -> &Program {
        self.workload.program()
    }

    fn init(&mut self, dram: &mut Dram) {
        self.workload.init(dram);
    }

    fn step(&mut self, _core: usize, cpu: &mut Cpu<'_, '_>) -> Result<StepOutcome, SimError> {
        self.checksum = self.workload.run(cpu)?;
        Ok(StepOutcome::Done)
    }

    fn checksum(&self) -> u64 {
        self.checksum
    }

    fn expected_checksum(&self) -> u64 {
        self.workload.expected_checksum()
    }
}

/// Drives `workload` to completion on `mm` in lockstep. A deadline cut
/// becomes [`RunError::DeadlineExceeded`]; any other simulator error
/// panics, because workloads and MDA mappings are trusted fixtures.
fn drive(
    mm: &mut MultiMachine,
    workload: &mut dyn MultiWorkload,
    observer: &mut dyn Observer,
    pass: &str,
) -> Result<u64, RunError> {
    run_lockstep(mm, workload, observer).map_err(|e| match e {
        SimError::DeadlineExceeded {
            cycle,
            deadline_cycles,
        } => RunError::DeadlineExceeded {
            deadline_cycles,
            cycle,
        },
        e => panic!("{pass} failed: {e}"),
    })
}

/// Folds a finished machine's statistics into [`RunMetrics`].
fn collect_run_metrics(
    kind: StructureKind,
    workload_name: &str,
    checksum_ok: bool,
    stats: &ftspm_sim::MachineStats,
    profile: &Profile,
    mapping: MdaOutput,
    structure: &SpmStructure,
) -> RunMetrics {
    let vuln = reliability::vulnerability(profile, &mapping, structure, MbuDistribution::default());
    let spm_energy = stats.spm_energy();
    let stt_regions = || {
        stats
            .regions
            .iter()
            .zip(structure.regions())
            .filter(|(_, (_, spec))| spec.technology() == Technology::SttRam)
    };
    let stt_max_line_writes = stt_regions()
        .map(|(r, _)| r.max_line_writes)
        .max()
        .unwrap_or(0);
    let stt_total_writes = stt_regions().map(|(r, _)| r.total_writes).sum();
    let stt_lines = stt_regions()
        .map(|(_, (_, spec))| spec.geometry().words())
        .sum();
    RunMetrics {
        structure: kind,
        workload: workload_name.to_string(),
        cycles: stats.cycles,
        instructions: stats.instructions,
        spm_dynamic_pj: spm_energy.dynamic_pj(),
        spm_static_pj: spm_energy.static_pj,
        spm_leakage_mw: stats.spm_leakage_mw(),
        vulnerability: vuln.vulnerability(),
        reliability: vuln.reliability(),
        stt_max_line_writes,
        stt_total_writes,
        stt_lines,
        traffic: stats
            .regions
            .iter()
            .map(|r| RegionTraffic {
                region: r.name.clone(),
                reads: r.program_reads,
                writes: r.program_writes,
            })
            .collect(),
        checksum_ok,
        recovery: stats.faults,
        mapping,
        vulnerability_report: vuln,
    }
}

/// Per-block sharer counts (how many cores touched each block) from a
/// finished machine, in block-id order. All zero at one core, which has
/// no coherence hub to track sharers.
fn sharer_counts(mm: &MultiMachine, program: &Program) -> Vec<u32> {
    program
        .iter()
        .map(|(id, _)| mm.machine().sharer_mask(id).count_ones())
        .collect()
}

/// One profiling pass: the profile plus per-block sharer counts, in
/// block-id order (all zero for a 1-core workload). It is a function of
/// the workload and its core count alone, so every structure, target
/// and fault option run on that workload can share one —
/// [`crate::RunBuilder::profile_pass`] borrows it.
pub type ProfilePass = (Profile, Vec<u32>);

/// The profiling pass: the ideal placement-neutral
/// [`profiling_structure`], executed in deterministic lockstep on a
/// [`MultiMachine`] with the workload's core count. Returns the profile
/// plus per-block sharer counts, the extra dimension
/// [`ftspm_core::mda::run_mda_multicore`] weights by (all zero for a
/// 1-core workload).
///
/// # Errors
///
/// [`RunError::DeadlineExceeded`] when the budget runs out mid-profile.
///
/// # Panics
///
/// Panics on any other simulator error — workloads are trusted fixtures.
pub fn try_profile_multi_workload(
    workload: &mut dyn MultiWorkload,
    deadline_cycles: Option<u64>,
) -> Result<ProfilePass, RunError> {
    let program = workload.program().clone();
    let structure = profiling_structure();
    let placement = map_everything(&program, &structure);
    let mut config = MachineConfig::with_regions(structure.specs());
    config.deadline_cycles = deadline_cycles;
    let mut mm = MultiMachine::new(config, program.clone(), placement, workload.cores())
        .expect("profiling machine");
    workload.init(mm.machine_mut().dram_mut());
    let mut profiler = Profiler::new(&program);
    drive(&mut mm, workload, &mut profiler, "profiling run")?;
    let cycles = mm.machine().cycle();
    let sharers = sharer_counts(&mm, &program);
    mm.finish(&mut profiler);
    Ok((profiler.finish(&program, cycles), sharers))
}

/// The mapping a run computes when none was supplied: sharer-weighted
/// MDA for [`StructureKind::Ftspm`] (plain MDA whenever every count is
/// at most 1), the baseline mapper otherwise.
pub(crate) fn compute_mapping(
    program: &Program,
    profile: &Profile,
    sharers: &[u32],
    structure: &SpmStructure,
    kind: StructureKind,
    optimize: OptimizeFor,
) -> MdaOutput {
    match kind {
        StructureKind::Ftspm => {
            run_mda_multicore(program, profile, structure, &optimize.thresholds(), sharers)
        }
        _ => run_baseline(program, profile, structure),
    }
}

/// The mapped run: `workload` on `structure` under `mapping`, in
/// deterministic lockstep, collected into [`MultiRunMetrics`].
///
/// `profile` must be the profiling-pass output for the same workload (it
/// feeds the analytic vulnerability model).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mapped_run(
    workload: &mut dyn MultiWorkload,
    structure: &SpmStructure,
    kind: StructureKind,
    mapping: MdaOutput,
    profile: &Profile,
    faults: Option<&LiveFaultOptions>,
    deadline_cycles: Option<u64>,
    observer: &mut dyn Observer,
) -> Result<MultiRunMetrics, RunError> {
    let program = workload.program().clone();
    let placement = mapping
        .placement(&program, structure)
        .expect("MDA placements fit by construction");
    let mut config = MachineConfig::with_regions(structure.specs());
    if let Some(opts) = faults {
        config = config.with_faults(opts.config(structure));
    }
    config.deadline_cycles = deadline_cycles;
    let cores = workload.cores();
    let mut mm =
        MultiMachine::new(config, program.clone(), placement, cores).expect("structure machine");
    workload.init(mm.machine_mut().dram_mut());
    let checksum = drive(&mut mm, workload, observer, "mapped run")?;
    let sharers = sharer_counts(&mm, &program);
    let stats = mm.finish(observer);
    let base = collect_run_metrics(
        kind,
        workload.name(),
        checksum == workload.expected_checksum(),
        &stats,
        profile,
        mapping,
        structure,
    );
    Ok(MultiRunMetrics {
        base,
        cores,
        coherence: mm.coherence_stats(),
        per_core: mm.core_fault_views().to_vec(),
        sharer_counts: sharers,
    })
}

/// Profiles `workload`, maps it with MDA under `optimize`, and measures
/// it on FTSPM and both baselines.
pub fn evaluate_workload(workload: &mut dyn Workload, optimize: OptimizeFor) -> WorkloadEvaluation {
    evaluate_workload_observed(workload, optimize, &mut NullObserver)
}

/// [`evaluate_workload`] with an observer watching all three mapped
/// runs (the profiling pass reports to the profiler, not `observer`).
pub(crate) fn evaluate_workload_observed(
    workload: &mut dyn Workload,
    optimize: OptimizeFor,
    observer: &mut dyn Observer,
) -> WorkloadEvaluation {
    let mut single = SingleCore::new(workload);
    let (profile, sharers) =
        try_profile_multi_workload(&mut single, None).expect("profiling run has no deadline");
    let program = single.program().clone();
    let mut run = |kind: StructureKind| {
        let structure = kind.structure();
        let mapping = compute_mapping(&program, &profile, &sharers, &structure, kind, optimize);
        mapped_run(
            &mut single,
            &structure,
            kind,
            mapping,
            &profile,
            None,
            None,
            observer,
        )
        .expect("run without a deadline cannot be cancelled")
        .base
    };
    let ftspm = run(StructureKind::Ftspm);
    let pure_sram = run(StructureKind::PureSram);
    let pure_stt = run(StructureKind::PureStt);
    WorkloadEvaluation {
        workload: single.name().to_string(),
        profile,
        ftspm,
        pure_sram,
        pure_stt,
    }
}
