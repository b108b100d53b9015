//! The repro binary's parameter sweeps, factored out so the `repro`
//! binary, the micro-benches, and the determinism tests drive the exact
//! same code path.
//!
//! The recovery sweep (strike rate × scrub interval on the case study)
//! runs one cell per executor task (`ftspm_testkit::par`): each cell
//! owns its workload instance, seeded fault stream, and private
//! [`Recorder`], the shared profile and MDA mapping are computed once,
//! and each cell renders its [`CellArtifacts`]. Every output — stdout
//! lines, CSV, merged metrics, the representative trace — is assembled
//! from those artifacts in grid order, so it is byte-identical at every
//! thread count, including 1, and whether or not a crash-only journal
//! persisted (or resumed) them.

use std::num::NonZeroUsize;
use std::path::Path;
use std::sync::Mutex;

use ftspm_core::mda::{run_mda, MdaOutput};
use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::MbuDistribution;
use ftspm_harness::journal::{Journal, JournalError};
use ftspm_harness::{
    profile_workload, report, LiveFaultOptions, MultiRunMetrics, RunBuilder, StructureKind,
};
use ftspm_obs::{chrome_trace_json, merge_metrics_csv, Recorder};
use ftspm_profile::Profile;
use ftspm_sim::Program;
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

/// The recovery grid's swept parameters, in row-major grid order.
pub fn recovery_grid() -> Vec<(f64, Option<u64>)> {
    RECOVERY_MEANS
        .iter()
        .flat_map(|&mean| RECOVERY_SCRUBS.iter().map(move |&scrub| (mean, scrub)))
        .collect()
}

/// The sweep's shared (cell-independent) inputs: the case-study
/// profiling pass, the FTSPM structure, its MDA mapping, and the program
/// the representative trace is rendered against.
struct RecoveryInputs {
    profile: Profile,
    structure: SpmStructure,
    mapping: MdaOutput,
    program: Program,
}

impl RecoveryInputs {
    fn new() -> Self {
        let mut w = CaseStudy::new();
        let profile = profile_workload(&mut w);
        let structure = SpmStructure::ftspm();
        let mapping = run_mda(
            w.program(),
            &profile,
            &structure,
            &OptimizeFor::Reliability.thresholds(),
        );
        Self {
            profile,
            structure,
            mapping,
            program: w.program().clone(),
        }
    }
}

/// Runs recovery-grid cell `index` and renders its artifacts: an
/// independent seeded simulation, so any subset of cells can run in any
/// process in any order and produce the same bytes — the property
/// crash-only resume leans on. The grid's representative cell (the
/// densest strike rate with the fastest scrub) also renders its
/// recovery report and chrome-trace JSON.
fn run_recovery_cell(
    index: usize,
    mean: f64,
    scrub: Option<u64>,
    inputs: &RecoveryInputs,
) -> CellArtifacts {
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
        .structure(&inputs.structure, StructureKind::Ftspm)
        .mapping(inputs.mapping.clone())
        .profile(&inputs.profile)
        .faults(opts)
        .recorder(&mut recorder)
        .run();
    let (registry, trace) = recorder.into_parts();
    let r = run.recovery.expect("faulted run has recovery stats");
    let overhead = 100.0 * r.recovery_cycles as f64 / run.cycles as f64;
    let scrub_str = scrub.map_or("off".to_string(), |s| s.to_string());
    let representative = mean == 1_000.0 && scrub == Some(10_000);
    CellArtifacts {
        index: u32::try_from(index).expect("grid is small"),
        line: format!(
            "  1/{mean:<7} strikes/cycle  scrub {scrub_str:>6}  \
             DRE {:>3}  DUE {:>3}  SDC {:>2}  overhead {overhead:.3} %",
            r.corrections + r.scrub_corrections,
            r.due_traps,
            r.sdc_escapes,
        ),
        csv_row: format!(
            "{mean},{scrub_str},{},{},{},{},{},{},{},{},{},{},{overhead:.5}\n",
            r.strikes,
            r.corrections,
            r.scrub_corrections,
            r.due_traps,
            r.due_retries,
            r.sdc_escapes,
            r.quarantined_lines,
            r.remapped_blocks,
            r.recovery_cycles,
            run.cycles,
        ),
        report: if representative {
            report::recovery(&run)
        } else {
            String::new()
        },
        registry_csv: registry.to_csv(),
        trace_json: if representative {
            chrome_trace_json(&trace, Some(&inputs.program))
        } else {
            String::new()
        },
    }
}

/// Header row of `results/recovery.csv`.
pub const RECOVERY_CSV_HEADER: &str =
    "mean_cycles_between_strikes,scrub_interval,strikes,corrections,\
     scrub_corrections,due_traps,due_retries,sdc_escapes,quarantined_lines,\
     remapped_blocks,recovery_cycles,total_cycles,overhead_pct\n";

/// One recovery-grid shard's rendered artifacts — the unit the
/// crash-only journal persists. Everything downstream of a cell's
/// simulation is stored *rendered*, so a resumed process never needs
/// the original in-memory state; `report` and `trace_json` are
/// non-empty only for the representative cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellArtifacts {
    /// Row-major index of the cell in [`recovery_grid`].
    pub index: u32,
    /// The cell's human-readable stdout line (the `repro recovery`
    /// format).
    pub line: String,
    /// The cell's `results/recovery.csv` row (newline-terminated).
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

/// A recovery sweep: per-cell artifacts in grid order plus the
/// outputs the repro binary assembles from them.
pub struct RecoverySweep {
    /// Per-cell artifacts, in row-major grid order.
    pub cells: Vec<CellArtifacts>,
    /// The `results/recovery.csv` payload.
    pub csv: String,
    /// The merged metrics CSV: the per-cell snapshots merged textually
    /// ([`merge_metrics_csv`]) in grid order.
    pub metrics_csv: String,
    /// How many cells were skipped because the journal already held
    /// their records.
    pub resumed: usize,
}

impl RecoverySweep {
    /// The representative cell's chrome-trace JSON.
    ///
    /// # Panics
    ///
    /// Panics if the grid somehow lacks its representative cell.
    #[must_use]
    pub fn trace_json(&self) -> &str {
        self.cells
            .iter()
            .map(|c| c.trace_json.as_str())
            .find(|json| !json.is_empty())
            .expect("grid contains the representative cell")
    }
}

/// Runs the strike-rate × scrub-interval recovery grid with
/// observability on, on `threads` host threads (pass
/// [`par::thread_count`] for the `FTSPM_THREADS` default). Every cell
/// renders its [`CellArtifacts`], and every output is assembled from
/// them in grid order, so the result is byte-identical at every thread
/// count.
///
/// With a `journal` path the sweep is crash-only: each completed cell's
/// artifacts are durably appended to the journal, and cells the journal
/// already holds are skipped, so a `kill -9`'d campaign resumes with
/// byte-identical output. The journal only persists and resumes; it
/// never changes what is rendered.
///
/// # Errors
///
/// Only with a journal: [`JournalError::Decode`] when the file is not a
/// journal or holds a corrupt (complete but CRC-failing) record — never
/// resume silently over damaged results; [`JournalError::Io`] when
/// reading or durably writing it fails. A *torn tail* is not an error:
/// it is the expected crash signature, and the torn shard is recomputed.
///
/// # Panics
///
/// Panics on poisoned internal locks (only possible if a simulation
/// panicked first).
pub fn recovery_sweep(
    threads: NonZeroUsize,
    journal: Option<&Path>,
) -> Result<RecoverySweep, JournalError> {
    let grid = recovery_grid();
    let mut done: Vec<Option<CellArtifacts>> = vec![None; grid.len()];
    let journal = match journal {
        Some(path) => {
            let (journal, _tail) = Journal::open(path)?;
            for artifacts in journal
                .records()
                .iter()
                .filter_map(|r| CellArtifacts::decode(r))
            {
                if let Some(slot) = done.get_mut(artifacts.index as usize) {
                    *slot = Some(artifacts);
                }
            }
            Some(Mutex::new(journal))
        }
        None => None,
    };
    let resumed = done.iter().flatten().count();
    let remaining: Vec<usize> = (0..grid.len()).filter(|&i| done[i].is_none()).collect();
    if !remaining.is_empty() {
        let inputs = RecoveryInputs::new();
        let append_error: Mutex<Option<JournalError>> = Mutex::new(None);
        let computed = par::par_map_threads(threads, remaining, |index| {
            let (mean, scrub) = grid[index];
            let artifacts = run_recovery_cell(index, mean, scrub, &inputs);
            if let Some(journal) = &journal {
                let appended = journal
                    .lock()
                    .expect("journal lock")
                    .append(&artifacts.encode());
                if let Err(e) = appended {
                    append_error
                        .lock()
                        .expect("append-error lock")
                        .get_or_insert(e);
                }
            }
            artifacts
        });
        if let Some(e) = append_error.into_inner().expect("append-error lock") {
            return Err(e);
        }
        for artifacts in computed {
            let index = artifacts.index as usize;
            done[index] = Some(artifacts);
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
    Ok(RecoverySweep {
        cells,
        csv,
        metrics_csv,
        resumed,
    })
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
