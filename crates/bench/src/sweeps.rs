//! The repro binary's parameter sweeps, factored out so the `repro`
//! binary, the micro-benches, and the determinism tests drive the exact
//! same code path.
//!
//! The recovery sweep (strike rate × scrub interval on the case study)
//! runs one cell per executor task (`ftspm_testkit::par`): each cell
//! owns its workload instance, seeded fault stream, and private
//! [`Recorder`], the shared profile and MDA mapping are computed once,
//! and results return in grid order — so the rendered CSV **and** the
//! merged metrics registry are byte-identical at every thread count,
//! including 1.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Mutex;

use ftspm_core::mda::{run_mda, MdaOutput};
use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::MbuDistribution;
use ftspm_harness::journal::{Journal, JournalError};
use ftspm_harness::{
    profile_workload, report, LiveFaultOptions, MultiRunMetrics, RunBuilder, RunMetrics,
    StructureKind,
};
use ftspm_obs::{chrome_trace_json, merge_metrics_csv, MetricsRegistry, Recorder, Trace};
use ftspm_profile::Profile;
use ftspm_testkit::par;
use ftspm_workloads::{find_multicore, multicore_registry, CaseStudy, Workload};

/// Mean cycles between strikes swept by the recovery grid.
pub const RECOVERY_MEANS: [f64; 3] = [20_000.0, 5_000.0, 1_000.0];
/// Scrub-daemon intervals swept by the recovery grid.
pub const RECOVERY_SCRUBS: [Option<u64>; 3] = [None, Some(50_000), Some(10_000)];
/// Seed of every recovery-grid cell's fault stream.
pub const RECOVERY_SEED: u64 = 0x0DD5;
/// Trace ring capacity of each recovery-grid cell's recorder.
pub const RECOVERY_TRACE_CAPACITY: usize = 65_536;

/// One cell of the recovery grid: the swept parameters plus the faulted
/// run's metrics.
pub struct RecoveryCell {
    /// Mean cycles between strikes for this cell.
    pub mean: f64,
    /// Scrub interval for this cell (`None` = scrubbing off).
    pub scrub: Option<u64>,
    /// The faulted case-study run.
    pub run: RunMetrics,
}

impl RecoveryCell {
    /// True for the grid's representative cell — the densest strike
    /// rate with the fastest scrub, the one the repro binary prints and
    /// whose trace [`ObservedRecovery`] exports.
    pub fn is_representative(&self) -> bool {
        self.mean == 1_000.0 && self.scrub == Some(10_000)
    }
}

/// A recovery sweep plus its observability output: per-cell registries
/// merged in grid order, and the representative cell's structured
/// trace (strike → decode → recovery spans nested in the harness
/// phases).
pub struct ObservedRecovery {
    /// The grid cells, in row-major order.
    pub cells: Vec<RecoveryCell>,
    /// All cells' counters/histograms, merged in grid order — identical
    /// at every thread count.
    pub metrics: MetricsRegistry,
    /// The representative cell's recovery-event trace.
    pub trace: Trace,
}

/// Runs the strike-rate × scrub-interval recovery grid with
/// observability on, on `threads` host threads (pass
/// [`par::thread_count`] for the `FTSPM_THREADS` default). Cells are
/// independent seeded simulations returned in grid (row-major) order,
/// so the result — and the CSV rendered from it — is identical at
/// every thread count.
///
/// # Panics
///
/// Panics if the grid somehow lacks its representative cell.
pub fn recovery_sweep_observed(threads: NonZeroUsize) -> ObservedRecovery {
    let (profile, structure, mapping) = recovery_inputs();
    let sharded = par::par_map_threads(threads, recovery_grid(), |(mean, scrub)| {
        run_recovery_cell(mean, scrub, &profile, &structure, &mapping)
    });
    let mut cells = Vec::with_capacity(sharded.len());
    let mut metrics = MetricsRegistry::new();
    let mut representative = None;
    for (cell, registry, trace) in sharded {
        metrics.merge(&registry);
        if cell.is_representative() {
            representative = Some(trace);
        }
        cells.push(cell);
    }
    ObservedRecovery {
        cells,
        metrics,
        trace: representative.expect("grid contains the representative cell"),
    }
}

/// The recovery grid's swept parameters, in row-major grid order.
pub fn recovery_grid() -> Vec<(f64, Option<u64>)> {
    RECOVERY_MEANS
        .iter()
        .flat_map(|&mean| RECOVERY_SCRUBS.iter().map(move |&scrub| (mean, scrub)))
        .collect()
}

/// The sweep's shared (cell-independent) inputs: the case-study
/// profiling pass, the FTSPM structure, and its MDA mapping.
fn recovery_inputs() -> (Profile, SpmStructure, MdaOutput) {
    let mut w = CaseStudy::new();
    let profile = profile_workload(&mut w);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    (profile, structure, mapping)
}

/// Runs one recovery-grid cell: an independent seeded simulation, so
/// any subset of cells can run in any process in any order and produce
/// the same bytes — the property crash-only resume leans on.
fn run_recovery_cell(
    mean: f64,
    scrub: Option<u64>,
    profile: &Profile,
    structure: &SpmStructure,
    mapping: &MdaOutput,
) -> (RecoveryCell, MetricsRegistry, Trace) {
    // Single-bit strikes isolate recovery overhead from multi-bit
    // corruption; swap in the default MBU distribution to stress
    // the SDC path instead.
    let mut builder = LiveFaultOptions::builder(RECOVERY_SEED, mean)
        .mbu(MbuDistribution::new(1.0, 0.0, 0.0, 0.0))
        .restrict_to(vec![RegionRole::DataEcc, RegionRole::DataParity]);
    if let Some(interval) = scrub {
        builder = builder.scrub_interval(interval);
    }
    let opts = builder.build().expect("valid fault options");
    let mut recorder = Recorder::recovery_only(RECOVERY_TRACE_CAPACITY);
    let mut w = CaseStudy::new();
    let run = RunBuilder::new()
        .workload(&mut w)
        .structure(structure, StructureKind::Ftspm)
        .mapping(mapping.clone())
        .profile(profile)
        .faults(opts)
        .recorder(&mut recorder)
        .run();
    let (registry, trace) = recorder.into_parts();
    (RecoveryCell { mean, scrub, run }, registry, trace)
}

/// Core counts swept by the multicore grid (kernels whose floor is
/// higher skip the smaller counts).
pub const MULTICORE_CORES: [usize; 2] = [2, 4];
/// Seed of every multicore cell's fault stream.
pub const MULTICORE_FAULT_SEED: u64 = 0x4D5E;
/// Mean cycles between strikes in the multicore sweep — dense enough
/// that strikes land in live shared blocks within each kernel's run.
pub const MULTICORE_STRIKE_MEAN: f64 = 400.0;
/// Structures the multicore grid compares: the FTSPM hybrid (shared
/// data in soft-error-immune STT-RAM — strikes on the SRAM regions hit
/// vacant words and decode to nothing) against the pure SEC-DED SRAM
/// baseline (shared data sits in the strike surface, so faults decode
/// on access and propagate to every sharer).
pub const MULTICORE_STRUCTURES: [StructureKind; 2] =
    [StructureKind::Ftspm, StructureKind::PureSram];

/// One cell of the multicore grid: a sharing-pattern kernel at a core
/// count on one structure, run under strikes.
pub struct MulticoreCell {
    /// Registered multicore kernel name.
    pub kernel: &'static str,
    /// Core count of this cell.
    pub cores: usize,
    /// The structure the cell ran on.
    pub structure: StructureKind,
    /// The faulted lockstep run.
    pub run: MultiRunMetrics,
}

/// The multicore grid: every registered sharing-pattern kernel at every
/// swept core count at or above its floor, on both compared structures,
/// in registry × core × structure order.
pub fn multicore_grid() -> Vec<(&'static str, usize, StructureKind)> {
    let mut grid = Vec::new();
    for entry in multicore_registry() {
        for &cores in &MULTICORE_CORES {
            if cores >= entry.min_cores() {
                for kind in MULTICORE_STRUCTURES {
                    grid.push((entry.name(), cores, kind));
                }
            }
        }
    }
    grid
}

/// Runs the multicore grid on `threads` host threads. Host threads only
/// shard independent cells — each cell's lockstep schedule is a pure
/// function of simulated state — so the result is byte-identical at
/// every thread count.
pub fn multicore_sweep(threads: NonZeroUsize) -> Vec<MulticoreCell> {
    par::par_map_threads(threads, multicore_grid(), |(kernel, cores, kind)| {
        run_multicore_cell(kernel, cores, kind)
    })
}

/// Runs one multicore cell: the kernel at its registry default seed,
/// MDA-mapped (sharer-weighted) onto `kind`'s structure, with strikes
/// restricted to the data regions — identical strike stream on both
/// structures, so the pure-SRAM rows isolate what FTSPM's immune STT
/// placement absorbs.
pub fn run_multicore_cell(
    kernel: &'static str,
    cores: usize,
    kind: StructureKind,
) -> MulticoreCell {
    let entry = find_multicore(kernel).expect("grid names registered kernels");
    let mut w = entry.build(cores, None);
    let structure = match kind {
        StructureKind::Ftspm => SpmStructure::ftspm(),
        StructureKind::PureSram => SpmStructure::pure_sram(),
        StructureKind::PureStt => SpmStructure::pure_stt(),
    };
    let opts = LiveFaultOptions::builder(MULTICORE_FAULT_SEED, MULTICORE_STRIKE_MEAN)
        .restrict_to(vec![
            RegionRole::DataStt,
            RegionRole::DataEcc,
            RegionRole::DataParity,
        ])
        .scrub_interval(20_000)
        .build()
        .expect("valid fault options");
    let run = RunBuilder::new()
        .workload_multi(w.as_mut())
        .cores(cores)
        .structure(&structure, kind)
        .optimize(OptimizeFor::Reliability)
        .faults(opts)
        .run_multi();
    MulticoreCell {
        kernel,
        cores,
        structure: kind,
        run,
    }
}

/// Header row of `results/multicore.csv`.
pub const MULTICORE_CSV_HEADER: &str =
    "kernel,cores,structure,cycles,checksum_ok,invalidations,dirty_flushes,downgrades,\
     shared_fills,upgrades,shared_block_faults,cross_core_observations,\
     max_sharers,strikes,masked,corrections,due_traps,sdc_escapes,recovery_cycles\n";

/// The `structure` column's token for `kind` (no spaces, CSV-friendly).
pub fn structure_column(kind: StructureKind) -> &'static str {
    match kind {
        StructureKind::Ftspm => "ftspm",
        StructureKind::PureSram => "pure_sram",
        StructureKind::PureStt => "pure_stt",
    }
}

/// Renders the multicore grid as the `results/multicore.csv` payload.
pub fn multicore_csv(cells: &[MulticoreCell]) -> String {
    let mut csv = String::from(MULTICORE_CSV_HEADER);
    for cell in cells {
        csv.push_str(&multicore_csv_row(cell));
    }
    csv
}

/// One cell's `results/multicore.csv` row (newline-terminated).
///
/// # Panics
///
/// Panics if the cell is missing its recovery stats (faulted runs
/// always carry them).
pub fn multicore_csv_row(cell: &MulticoreCell) -> String {
    let c = &cell.run.coherence;
    let r = cell
        .run
        .base
        .recovery
        .expect("faulted run has recovery stats");
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
        cell.kernel,
        cell.cores,
        structure_column(cell.structure),
        cell.run.base.cycles,
        cell.run.base.checksum_ok,
        c.invalidations,
        c.dirty_flushes,
        c.downgrades,
        c.shared_fills,
        c.upgrades,
        c.shared_block_faults,
        c.cross_core_observations,
        cell.run.sharer_counts.iter().max().copied().unwrap_or(0),
        r.strikes,
        r.masked,
        r.corrections,
        r.due_traps,
        r.sdc_escapes,
        r.recovery_cycles,
    )
}

/// One cell's human-readable stdout line — the `repro multicore`
/// format.
///
/// # Panics
///
/// Panics if the cell is missing its recovery stats.
pub fn multicore_line(cell: &MulticoreCell) -> String {
    let c = &cell.run.coherence;
    let r = cell
        .run
        .base
        .recovery
        .expect("faulted run has recovery stats");
    format!(
        "  {:<18} {} cores  {:<9} {:>9} cycles  shared faults {:>3} \
         (seen x{:<3})  masked {:>3}  DRE {:>3}  DUE {:>2}  checksum {}",
        cell.kernel,
        cell.cores,
        structure_column(cell.structure),
        cell.run.base.cycles,
        c.shared_block_faults,
        c.cross_core_observations,
        r.masked,
        r.corrections,
        r.due_traps,
        if cell.run.base.checksum_ok {
            "ok"
        } else {
            "BAD"
        },
    )
}

/// Header row of `results/recovery.csv`.
pub const RECOVERY_CSV_HEADER: &str =
    "mean_cycles_between_strikes,scrub_interval,strikes,corrections,\
     scrub_corrections,due_traps,due_retries,sdc_escapes,quarantined_lines,\
     remapped_blocks,recovery_cycles,total_cycles,overhead_pct\n";

/// Renders the recovery grid as the `results/recovery.csv` payload.
///
/// # Panics
///
/// Panics if a cell is missing its recovery stats (faulted runs always
/// carry them).
pub fn recovery_csv(cells: &[RecoveryCell]) -> String {
    let mut csv = String::from(RECOVERY_CSV_HEADER);
    for cell in cells {
        csv.push_str(&recovery_csv_row(cell));
    }
    csv
}

/// One cell's `results/recovery.csv` row (newline-terminated).
///
/// # Panics
///
/// Panics if the cell is missing its recovery stats.
pub fn recovery_csv_row(cell: &RecoveryCell) -> String {
    let r = cell.run.recovery.expect("faulted run has recovery stats");
    let overhead = 100.0 * r.recovery_cycles as f64 / cell.run.cycles as f64;
    let scrub_str = cell.scrub.map_or("off".to_string(), |s| s.to_string());
    format!(
        "{},{scrub_str},{},{},{},{},{},{},{},{},{},{},{overhead:.5}\n",
        cell.mean,
        r.strikes,
        r.corrections,
        r.scrub_corrections,
        r.due_traps,
        r.due_retries,
        r.sdc_escapes,
        r.quarantined_lines,
        r.remapped_blocks,
        r.recovery_cycles,
        cell.run.cycles,
    )
}

/// One cell's human-readable stdout line — the `repro recovery` format,
/// shared by the journaled and non-journaled paths so their output is
/// byte-identical.
///
/// # Panics
///
/// Panics if the cell is missing its recovery stats.
pub fn recovery_line(cell: &RecoveryCell) -> String {
    let r = cell.run.recovery.expect("faulted run has recovery stats");
    let overhead = 100.0 * r.recovery_cycles as f64 / cell.run.cycles as f64;
    let scrub_str = cell.scrub.map_or("off".to_string(), |s| s.to_string());
    format!(
        "  1/{:<7} strikes/cycle  scrub {scrub_str:>6}  \
         DRE {:>3}  DUE {:>3}  SDC {:>2}  overhead {overhead:.3} %",
        cell.mean,
        r.corrections + r.scrub_corrections,
        r.due_traps,
        r.sdc_escapes,
    )
}

/// One recovery-grid shard's rendered artifacts — the unit the
/// crash-only journal persists. Everything downstream of a cell's
/// simulation is stored *rendered*, so a resumed process never needs
/// the original in-memory state; `report` and `trace_json` are
/// non-empty only for the representative cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellArtifacts {
    /// Row-major index of the cell in [`recovery_grid`].
    pub index: u32,
    /// The cell's human-readable stdout line ([`recovery_line`]).
    pub line: String,
    /// The cell's CSV row ([`recovery_csv_row`]).
    pub csv_row: String,
    /// The representative cell's recovery report (empty otherwise).
    pub report: String,
    /// The cell's metrics-registry CSV snapshot.
    pub registry_csv: String,
    /// The representative cell's chrome-trace JSON (empty otherwise).
    pub trace_json: String,
}

impl CellArtifacts {
    /// Serialises the artifacts as an opaque journal payload: the cell
    /// index (u32 LE) then each string as u32 LE length + UTF-8 bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.index.to_le_bytes());
        for s in [
            &self.line,
            &self.csv_row,
            &self.report,
            &self.registry_csv,
            &self.trace_json,
        ] {
            let len = u32::try_from(s.len()).expect("artifact strings < 4 GiB");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Decodes a journal payload back into artifacts. Returns `None`
    /// when the payload is not this shape — the resumed campaign then
    /// simply recomputes the shard, which determinism makes safe.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<Self> {
        fn take_str(rest: &mut &[u8]) -> Option<String> {
            let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
            let s = std::str::from_utf8(rest.get(4..4 + len)?).ok()?.to_string();
            *rest = &rest[4 + len..];
            Some(s)
        }
        let index = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?);
        let mut rest = &payload[4..];
        let line = take_str(&mut rest)?;
        let csv_row = take_str(&mut rest)?;
        let report = take_str(&mut rest)?;
        let registry_csv = take_str(&mut rest)?;
        let trace_json = take_str(&mut rest)?;
        if !rest.is_empty() {
            return None;
        }
        Some(Self {
            index,
            line,
            csv_row,
            report,
            registry_csv,
            trace_json,
        })
    }
}

/// A journaled recovery sweep: per-cell artifacts in grid order plus
/// the assembled outputs the repro binary emits.
pub struct JournaledRecovery {
    /// Per-cell artifacts, in row-major grid order.
    pub cells: Vec<CellArtifacts>,
    /// The `results/recovery.csv` payload.
    pub csv: String,
    /// The merged metrics CSV — a textual field-wise merge of the
    /// per-cell snapshots in grid order, byte-identical to what the
    /// in-memory [`MetricsRegistry::merge`] path renders.
    pub metrics_csv: String,
    /// How many cells were skipped because the journal already held
    /// their records.
    pub resumed: usize,
}

/// Runs the recovery grid crash-only: each completed cell's rendered
/// artifacts are durably appended to the journal at `path` before the
/// sweep moves on, so a `kill -9`'d campaign resumes by skipping
/// journaled cells. Because every cell is an independent seeded
/// simulation and assembly is in grid order, the assembled outputs are
/// byte-identical to an uninterrupted run at every thread count.
///
/// # Errors
///
/// [`JournalError::Decode`] when the file at `path` is not a journal or
/// holds a corrupt (complete but CRC-failing) record — never resume
/// silently over damaged results; [`JournalError::Io`] when reading or
/// durably writing it fails. A *torn tail* is not an error: it is the
/// expected crash signature, and the torn shard is recomputed.
///
/// # Panics
///
/// Panics on poisoned internal locks (only possible if a simulation
/// panicked first).
pub fn recovery_sweep_journaled(
    threads: NonZeroUsize,
    path: &Path,
) -> Result<JournaledRecovery, JournalError> {
    let grid = recovery_grid();
    let (journal, _tail) = Journal::open(path)?;
    let mut done: Vec<Option<CellArtifacts>> = (0..grid.len()).map(|_| None).collect();
    for record in journal.records() {
        if let Some(artifacts) = CellArtifacts::decode(record) {
            if let Some(slot) = done.get_mut(artifacts.index as usize) {
                *slot = Some(artifacts);
            }
        }
    }
    let resumed = done.iter().flatten().count();
    let remaining: Vec<(usize, f64, Option<u64>)> = grid
        .iter()
        .enumerate()
        .filter(|&(i, _)| done[i].is_none())
        .map(|(i, &(mean, scrub))| (i, mean, scrub))
        .collect();
    if !remaining.is_empty() {
        let (profile, structure, mapping) = recovery_inputs();
        let program = CaseStudy::new().program().clone();
        let journal = Mutex::new(journal);
        let append_error: Mutex<Option<JournalError>> = Mutex::new(None);
        let computed = par::par_map_threads(threads, remaining, |(index, mean, scrub)| {
            let (cell, registry, trace) =
                run_recovery_cell(mean, scrub, &profile, &structure, &mapping);
            let representative = cell.is_representative();
            let artifacts = CellArtifacts {
                index: u32::try_from(index).expect("grid is small"),
                line: recovery_line(&cell),
                csv_row: recovery_csv_row(&cell),
                report: if representative {
                    report::recovery(&cell.run)
                } else {
                    String::new()
                },
                registry_csv: registry.to_csv(),
                trace_json: if representative {
                    chrome_trace_json(&trace, Some(&program))
                } else {
                    String::new()
                },
            };
            let appended = journal
                .lock()
                .expect("journal lock")
                .append(&artifacts.encode());
            if let Err(e) = appended {
                let mut slot = append_error.lock().expect("append-error lock");
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
            artifacts
        });
        if let Some(e) = append_error.into_inner().expect("append-error lock") {
            return Err(e);
        }
        for artifacts in computed {
            let slot = done
                .get_mut(artifacts.index as usize)
                .expect("computed index is in the grid");
            *slot = Some(artifacts);
        }
    }
    let cells: Vec<CellArtifacts> = done
        .into_iter()
        .map(|slot| slot.expect("every grid cell is journaled or computed"))
        .collect();
    let mut csv = String::from(RECOVERY_CSV_HEADER);
    for artifacts in &cells {
        csv.push_str(&artifacts.csv_row);
    }
    let metrics_csv = merge_metrics_csv(cells.iter().map(|a| a.registry_csv.as_str()));
    Ok(JournaledRecovery {
        cells,
        csv,
        metrics_csv,
        resumed,
    })
}
