//! The repro binary's sweeps are deterministically parallel: the same
//! bytes come out whether the grid runs on one thread or many. ci.sh
//! runs this file under `FTSPM_THREADS=1` and under the core count.

use std::num::NonZeroUsize;

use ftspm_bench::sweeps;
use ftspm_core::OptimizeFor;
use ftspm_harness::{report, RunBuilder};
use ftspm_workloads::{BitCount, Crc32, QSort, Workload};

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero")
}

/// The one recovery sweep path is thread- and journal-invariant: a
/// sequential in-memory run and a parallel journaled run render the
/// same artifacts, so `repro all`'s `results/recovery.csv` comes from
/// the same bytes ci.sh's kill/resume gate journals.
#[test]
fn recovery_sweep_is_byte_identical_across_threads_and_journaling() {
    let dir = std::env::temp_dir().join(format!("ftspm-repro-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("recovery.jnl");
    let _ = std::fs::remove_file(&journal);

    let plain = sweeps::recovery_sweep(nz(1), None).expect("no journal, no I/O");
    let journaled = sweeps::recovery_sweep(nz(4), Some(&journal)).expect("journaled sweep");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(journaled.resumed, 0, "a fresh journal resumes nothing");
    assert_eq!(
        plain.cells, journaled.cells,
        "lines, rows, reports, registries, traces"
    );
    assert_eq!(plain.csv, journaled.csv);
    assert_eq!(plain.metrics_csv, journaled.metrics_csv);
    assert_eq!(plain.trace_json(), journaled.trace_json());
    // The grid really ran: header plus one row per (mean × scrub) cell.
    assert_eq!(
        plain.csv.lines().count(),
        1 + sweeps::RECOVERY_MEANS.len() * sweeps::RECOVERY_SCRUBS.len()
    );
    let counter = |name: &str| -> u64 {
        plain
            .metrics_csv
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name},counter,,")))
            .map_or(0, |v| v.parse().expect("counter value"))
    };
    assert!(
        counter("faults.strikes") > 0,
        "the sweep recorded injector activity"
    );
    assert!(
        counter("recovery.correction") > 0,
        "the sweep recorded observer-side recovery events"
    );
}

#[test]
fn suite_csv_is_byte_identical_sequential_vs_parallel() {
    // A three-kernel slice keeps the test cheap while still exercising
    // the fan-out path with more workloads than threads.
    let slice = || -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(QSort::new(0xF75F)),
            Box::new(BitCount::new(0xB17C)),
            Box::new(Crc32::new(0xC3C3)),
        ]
    };
    let sequential = RunBuilder::new()
        .threads(nz(1))
        .run_suite(slice(), OptimizeFor::Reliability);
    let parallel = RunBuilder::new()
        .threads(nz(2))
        .run_suite(slice(), OptimizeFor::Reliability);
    assert_eq!(report::suite_csv(&sequential), report::suite_csv(&parallel));
    assert!(sequential.iter().all(|e| e.ftspm.checksum_ok));
}

#[test]
fn multicore_csv_is_byte_identical_sequential_vs_parallel() {
    let sequential = sweeps::multicore_sweep(nz(1));
    let parallel = sweeps::multicore_sweep(nz(4));

    let csv = sweeps::multicore_csv(&sequential);
    assert_eq!(csv, sweeps::multicore_csv(&parallel));
    // The grid really ran: header plus one row per (kernel × cores)
    // cell, every checksum intact, and fault propagation visible in at
    // least one cell.
    assert_eq!(csv.lines().count(), 1 + sweeps::multicore_grid().len());
    assert!(sequential.iter().all(|c| c.run.base.checksum_ok));
    assert!(
        sequential
            .iter()
            .any(|c| c.run.coherence.shared_block_faults > 0),
        "the sweep must exercise cross-core fault propagation"
    );
}
