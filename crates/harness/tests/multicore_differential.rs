//! Multi-core differential battery.
//!
//! Two contracts, pinned byte-for-byte:
//!
//! 1. **1-core identity.** `RunBuilder::run()` — which runs every
//!    single-core workload as a 1-core workload on a
//!    [`ftspm_sim::MultiMachine`] in lockstep — is *observably
//!    byte-identical* to driving the plain [`Machine`] by hand
//!    (`Machine::new`, `Cpu::new`, `Workload::run`, `finish`) for every
//!    in-tree kernel × {none, parity, SEC-DED} on the struck region ×
//!    {clean, armed-idle, striking}: cycles, checksum verdict, recovery
//!    report, obs metrics CSV and chrome trace JSON all match. The CSV
//!    comparison also proves a 1-core run records no `coh.*` rows.
//! 2. **N-core replay.** A multi-core kernel with the same seed replays
//!    bit-for-bit, and the collected artifacts are identical when the
//!    battery fans out at 1 host thread and at nproc (`FTSPM_THREADS`
//!    invariance) — the lockstep schedule is a pure function of
//!    simulated cycles, never of host threads.
//!
//! `FTSPM_DIFF_KERNELS=<n>` truncates the kernel list (the
//! timeout-bounded CI smoke mode); unset runs everything.

use std::num::NonZeroUsize;

use ftspm_core::mda::{run_mda, MdaOutput};
use ftspm_core::{remap, OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::ProtectionScheme;
use ftspm_harness::{profile_workload, LiveFaultOptions, RunBuilder, StructureKind};
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_obs::{chrome_trace_json, Recorder};
use ftspm_profile::Profile;
use ftspm_sim::{Cpu, FaultConfig, Machine, MachineConfig, SpmRegionSpec};
use ftspm_testkit::par;
use ftspm_workloads::{evaluation_set, multicore_registry, Workload};

const SCHEMES: [ProtectionScheme; 3] = [
    ProtectionScheme::None,
    ProtectionScheme::Parity,
    ProtectionScheme::SecDed,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Fault machinery attached but disarmed (no eligible region).
    Clean,
    /// Armed, first strike never arrives inside the run.
    ArmedIdle,
    /// Strikes land for real, scrub daemon sweeping.
    Striking,
}

const MODES: [Mode; 3] = [Mode::Clean, Mode::ArmedIdle, Mode::Striking];

/// An FTSPM structure whose DataEcc-role region runs `scheme` (same
/// geometry as the fast-path differential suite).
fn structure_with(scheme: ProtectionScheme) -> SpmStructure {
    let (name, tech) = match scheme {
        ProtectionScheme::None => ("D-SPM bare SRAM", Technology::SramUnprotected),
        ProtectionScheme::Parity => ("D-SPM parity SRAM", Technology::SramParity),
        ProtectionScheme::SecDed => ("D-SPM SEC-DED SRAM", Technology::SramSecDed),
        ProtectionScheme::Immune => unreachable!("not a variant under test"),
    };
    SpmStructure::new(
        "FTSPM (multicore differential)",
        vec![
            (
                RegionRole::Instruction,
                SpmRegionSpec::new(
                    "I-SPM STT-RAM",
                    Technology::SttRam,
                    ProtectionScheme::Immune,
                    RegionGeometry::from_kib(16),
                ),
            ),
            (
                RegionRole::DataStt,
                SpmRegionSpec::new(
                    "D-SPM STT-RAM",
                    Technology::SttRam,
                    ProtectionScheme::Immune,
                    RegionGeometry::from_kib(12),
                ),
            ),
            (
                RegionRole::DataEcc,
                SpmRegionSpec::new(name, tech, scheme, RegionGeometry::from_kib(2)),
            ),
            (
                RegionRole::DataParity,
                SpmRegionSpec::new(
                    "D-SPM parity SRAM",
                    Technology::SramParity,
                    ProtectionScheme::Parity,
                    RegionGeometry::from_kib(2),
                ),
            ),
        ],
    )
}

fn fault_opts(mode: Mode, scheme: ProtectionScheme) -> LiveFaultOptions {
    let b = match mode {
        Mode::Clean => LiveFaultOptions::builder(0xD1FF, 1e9).restrict_to(vec![]),
        Mode::ArmedIdle => {
            LiveFaultOptions::builder(0xD1FF, 1e15).restrict_to(vec![RegionRole::DataEcc])
        }
        Mode::Striking => {
            let mean = match scheme {
                ProtectionScheme::SecDed => 2_500.0,
                ProtectionScheme::Parity => 6_000.0,
                _ => 60_000.0,
            };
            LiveFaultOptions::builder(0xD1FF, mean)
                .restrict_to(vec![RegionRole::DataEcc])
                .scrub_interval(20_000)
                .quarantine_due_threshold(2)
        }
    };
    b.build().expect("valid options")
}

/// Everything a run emits, rendered to bytes.
#[derive(Debug, PartialEq, Eq)]
struct Artifacts {
    cycles: u64,
    checksum_ok: bool,
    recovery: String,
    csv: String,
    trace: String,
}

/// `opts` lowered onto `structure`'s region ids by hand, independently
/// of the harness's own lowering.
fn lower(opts: &LiveFaultOptions, structure: &SpmStructure) -> FaultConfig {
    let mut cfg = FaultConfig::new(opts.seed, opts.mean_cycles_between_strikes);
    cfg.mbu = opts.mbu;
    cfg.scrub_interval = opts.scrub_interval;
    cfg.due_retry_limit = opts.due_retry_limit;
    cfg.quarantine_due_threshold = opts.quarantine_due_threshold;
    cfg.line_write_budget = opts.line_write_budget;
    cfg.targets = opts.restrict_to.as_ref().map(|roles| {
        roles
            .iter()
            .filter_map(|r| structure.region_id(*r))
            .collect()
    });
    cfg.demotion = remap::demotion_map(structure, opts.mbu);
    cfg
}

/// The reference side of one cell: the plain `Machine` driven by hand,
/// with the recorder fed the phase protocol `RunBuilder` follows.
fn run_reference(
    w: &mut dyn Workload,
    structure: &SpmStructure,
    profile: &Profile,
    mapping: &MdaOutput,
    opts: &LiveFaultOptions,
) -> Artifacts {
    let mut rec = Recorder::recovery_only(4096);
    let placement = mapping.placement(w.program(), structure).expect("fits");
    let config = MachineConfig::with_regions(structure.specs()).with_faults(lower(opts, structure));
    let mut machine = Machine::new(config, w.program().clone(), placement).expect("machine");
    w.init(machine.dram_mut());
    rec.phase("profile", profile.total_cycles);
    rec.phase("mda", 1);
    rec.align_to_phases();
    let checksum = w.run(&mut Cpu::new(&mut machine, &mut rec)).expect("runs");
    let stats = machine.finish(&mut rec);
    rec.phase("run", stats.cycles);
    if let Some(faults) = &stats.faults {
        rec.record_fault_stats(faults);
    }
    rec.phase("report", 1);
    let (registry, trace) = rec.into_parts();
    Artifacts {
        cycles: stats.cycles,
        checksum_ok: checksum == w.expected_checksum(),
        recovery: format!("{:?}", stats.faults),
        csv: registry.to_csv(),
        trace: chrome_trace_json(&trace, None),
    }
}

/// The harness side of one cell: `RunBuilder::run()`.
fn run_harness(
    w: &mut dyn Workload,
    structure: &SpmStructure,
    profile: &Profile,
    mapping: MdaOutput,
    opts: LiveFaultOptions,
) -> Artifacts {
    let mut rec = Recorder::recovery_only(4096);
    let metrics = RunBuilder::new()
        .workload(w)
        .structure(structure, StructureKind::Ftspm)
        .mapping(mapping)
        .profile(profile)
        .faults(opts)
        .recorder(&mut rec)
        .run();
    let (registry, trace) = rec.into_parts();
    Artifacts {
        cycles: metrics.cycles,
        checksum_ok: metrics.checksum_ok,
        recovery: format!("{:?}", metrics.recovery),
        csv: registry.to_csv(),
        trace: chrome_trace_json(&trace, None),
    }
}

/// Runs one matrix cell both ways and returns
/// `(label, reference, harness)`.
fn diff_cell(
    kernel: usize,
    scheme: ProtectionScheme,
    mode: Mode,
) -> (String, Artifacts, Artifacts) {
    let mut workloads = evaluation_set();
    let w = workloads[kernel].as_mut();
    let label = format!("{} / {scheme:?} / {mode:?}", w.name());
    let profile = profile_workload(w);
    let structure = structure_with(scheme);
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let opts = fault_opts(mode, scheme);
    let reference = run_reference(w, &structure, &profile, &mapping, &opts);
    let harness = run_harness(w, &structure, &profile, mapping, opts);
    (label, reference, harness)
}

fn kernel_count() -> usize {
    let all = evaluation_set().len();
    match std::env::var("FTSPM_DIFF_KERNELS") {
        Ok(v) => v.trim().parse::<usize>().map_or(all, |n| n.clamp(1, all)),
        Err(_) => all,
    }
}

/// The full battery: every kernel × scheme × mode, hand-driven plain
/// machine vs the harness run path, every artifact byte-identical.
#[test]
fn one_core_run_path_is_byte_identical_to_machine() {
    let mut cells = Vec::new();
    for k in 0..kernel_count() {
        for scheme in SCHEMES {
            for mode in MODES {
                cells.push((k, scheme, mode));
            }
        }
    }
    let results = par::par_map(cells, |(k, scheme, mode)| diff_cell(k, scheme, mode));
    let mut struck = 0usize;
    for (label, plain, harness) in &results {
        assert_eq!(
            plain, harness,
            "{label}: the harness run path diverged from the plain Machine"
        );
        if plain.recovery.contains("strikes: 0") || plain.recovery == "None" {
            continue;
        }
        struck += 1;
    }
    // The matrix must exercise the fault machinery for real on both
    // machines, not just idle through the comparison.
    let striking_cells = results.len() / MODES.len();
    assert_eq!(
        struck, striking_cells,
        "every striking cell should land strikes"
    );
}

/// Collected artifacts identical at 1 host thread and nproc — the
/// cross-thread-count half of the determinism contract.
#[test]
fn multicore_differential_is_thread_count_invariant() {
    let cells: Vec<(usize, ProtectionScheme, Mode)> = SCHEMES
        .iter()
        .map(|&scheme| (0, scheme, Mode::Striking))
        .collect();
    let one = NonZeroUsize::new(1).expect("non-zero");
    let seq = par::par_map_threads(one, cells.clone(), |(k, s, m)| diff_cell(k, s, m));
    let par = par::par_map_threads(par::thread_count(), cells, |(k, s, m)| diff_cell(k, s, m));
    for ((l1, p1, m1), (l2, p2, m2)) in seq.iter().zip(par.iter()) {
        assert_eq!(l1, l2);
        assert_eq!((p1, m1), (p2, m2), "{l1}: thread count changed artifacts");
    }
}

/// N-core artifacts of one multi-core run, rendered to bytes.
fn run_multicore_cell(name: &'static str, cores: usize, striking: bool) -> String {
    let entry = ftspm_workloads::find_multicore(name).expect("registered kernel");
    let mut w = entry.build(cores, Some(0xC0DE));
    let mut rec = Recorder::recovery_only(4096);
    let mut b = RunBuilder::new()
        .workload_multi(w.as_mut())
        .structure(
            &structure_with(ProtectionScheme::SecDed),
            StructureKind::Ftspm,
        )
        .recorder(&mut rec);
    if striking {
        b = b.faults(fault_opts(Mode::Striking, ProtectionScheme::SecDed));
    }
    let metrics = b.run_multi();
    let (registry, trace) = rec.into_parts();
    format!(
        "cycles={} checksum_ok={} coherence={:?} per_core={:?} sharers={:?} recovery={:?}\n{}\n{}",
        metrics.base.cycles,
        metrics.base.checksum_ok,
        metrics.coherence,
        metrics.per_core,
        metrics.sharer_counts,
        metrics.base.recovery,
        registry.to_csv(),
        chrome_trace_json(&trace, None),
    )
}

/// The same seed replays an N-core run bit-for-bit, at any host thread
/// count — every artifact, clean and striking, on every multi kernel.
#[test]
fn n_core_same_seed_replays_bit_for_bit() {
    let mut cells = Vec::new();
    for entry in multicore_registry() {
        for striking in [false, true] {
            cells.push((entry.name(), 3.max(entry.min_cores()), striking));
        }
    }
    let one = NonZeroUsize::new(1).expect("non-zero");
    let seq = par::par_map_threads(one, cells.clone(), |(n, c, s)| run_multicore_cell(n, c, s));
    let par = par::par_map_threads(par::thread_count(), cells.clone(), |(n, c, s)| {
        run_multicore_cell(n, c, s)
    });
    let replay = par::par_map(cells.clone(), |(n, c, s)| run_multicore_cell(n, c, s));
    for (i, (name, cores, striking)) in cells.iter().enumerate() {
        assert_eq!(
            seq[i], par[i],
            "{name} at {cores} cores (striking={striking}): thread count changed artifacts"
        );
        assert_eq!(
            seq[i], replay[i],
            "{name} at {cores} cores (striking={striking}): same-seed replay diverged"
        );
    }
}
