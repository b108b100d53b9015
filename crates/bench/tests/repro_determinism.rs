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

#[test]
fn recovery_csv_and_observability_are_byte_identical_sequential_vs_parallel() {
    let sequential = sweeps::recovery_sweep_observed(nz(1));
    let parallel = sweeps::recovery_sweep_observed(nz(4));

    let csv = sweeps::recovery_csv(&sequential.cells);
    assert_eq!(csv, sweeps::recovery_csv(&parallel.cells));
    // The grid really ran: header plus one row per (mean × scrub) cell.
    assert_eq!(
        csv.lines().count(),
        1 + sweeps::RECOVERY_MEANS.len() * sweeps::RECOVERY_SCRUBS.len()
    );

    // The metrics registries merge in grid order, so the rendered CSV
    // is the same bytes however the cells were sharded — and the
    // representative cell's trace replays identically too.
    assert_eq!(sequential.metrics.to_csv(), parallel.metrics.to_csv());
    assert_eq!(
        ftspm_obs::chrome_trace_json(&sequential.trace, None),
        ftspm_obs::chrome_trace_json(&parallel.trace, None),
    );
    assert!(
        sequential.metrics.counter("faults.strikes") > 0,
        "the sweep recorded injector activity"
    );
    assert!(
        sequential.metrics.counter("recovery.correction") > 0,
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
