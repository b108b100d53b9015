//! Throughput overhead of live fault injection: the same profiled
//! case-study run, clean vs. with strikes (and recovery) landing on the
//! protected data regions. The gap between the two is the price of the
//! fault-tolerance machinery itself — mark checks, decodes, DUE
//! re-fetches, and scrub sweeps.
//!
//! The clean case doubles as the observability-off regression guard:
//! `RunBuilder` without a recorder runs against `NullObserver`, so its
//! time bounds the cost of the observer indirection itself.
//! `case_study/recorder` and the `*/faulted_recorder` cases price the
//! observability-on path: the recorder a served `"metrics": true` job
//! attaches, on the served faulted design point of two suite kernels.

use ftspm_core::mda::run_mda;
use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::MbuDistribution;
use ftspm_harness::{profile_workload, LiveFaultOptions, RunBuilder, StructureKind};
use ftspm_obs::Recorder;
use ftspm_testkit::{black_box, BenchGroup};
use ftspm_workloads::{find, CaseStudy, Workload};

/// Trace capacity of the recorder a served `"metrics": true` job uses.
const SERVED_TRACE_CAPACITY: usize = 256;

/// Whole-simulation bodies: keep the fixed counts small, like
/// `end_to_end.rs` does.
const WARMUP: u32 = 2;
const ITERS: u32 = 10;

fn main() {
    let mut w = CaseStudy::new();
    let profile = profile_workload(&mut w);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );

    let mut g = BenchGroup::new("injected_run").counts(WARMUP, ITERS);

    g.bench("case_study/clean", || {
        black_box(
            RunBuilder::new()
                .workload(&mut w)
                .structure(&structure, StructureKind::Ftspm)
                .mapping(mapping.clone())
                .profile(&profile)
                .run(),
        )
    });

    g.bench("case_study/recorder", || {
        let mut rec = Recorder::recovery_only(SERVED_TRACE_CAPACITY);
        black_box(
            RunBuilder::new()
                .workload(&mut w)
                .structure(&structure, StructureKind::Ftspm)
                .mapping(mapping.clone())
                .profile(&profile)
                .recorder(&mut rec)
                .run(),
        );
        black_box(rec.into_parts())
    });

    // Fault machinery armed but no strikes ever due: measures the fixed
    // per-access cost of the mark checks alone.
    let idle = LiveFaultOptions::builder(0x1D1E, 1e15)
        .restrict_to(vec![RegionRole::DataEcc])
        .build()
        .expect("valid fault options");
    g.bench("case_study/armed_idle", || {
        black_box(
            RunBuilder::new()
                .workload(&mut w)
                .structure(&structure, StructureKind::Ftspm)
                .mapping(mapping.clone())
                .profile(&profile)
                .faults(idle.clone())
                .run(),
        )
    });

    for (label, mean) in [("sparse_10k", 10_000.0), ("dense_1k", 1_000.0)] {
        let opts = LiveFaultOptions::builder(0xBE7C, mean)
            .restrict_to(vec![RegionRole::DataEcc, RegionRole::DataParity])
            .scrub_interval(25_000)
            .build()
            .expect("valid fault options");
        g.bench(&format!("case_study/strikes_{label}"), || {
            black_box(
                RunBuilder::new()
                    .workload(&mut w)
                    .structure(&structure, StructureKind::Ftspm)
                    .mapping(mapping.clone())
                    .profile(&profile)
                    .faults(opts.clone())
                    .run(),
            )
        });
    }

    // The served faulted design point (`loadbench`'s `design_sweep`):
    // single-bit strikes every 20 000 cycles on average, with and
    // without the recorder `"metrics": true` attaches.
    for kernel in ["crc32", "susan"] {
        let entry = find(kernel).expect("suite kernel");
        let mut w = entry.build(None);
        let profile = profile_workload(w.as_mut());
        let mapping = run_mda(
            w.program(),
            &profile,
            &structure,
            &OptimizeFor::Reliability.thresholds(),
        );
        let faults = LiveFaultOptions::builder(entry.default_seed().unwrap_or(0), 20_000.0)
            .mbu(MbuDistribution::new(1.0, 0.0, 0.0, 0.0))
            .build()
            .expect("valid fault options");
        for recorded in [false, true] {
            let suffix = if recorded { "_recorder" } else { "" };
            g.bench(&format!("{kernel}/faulted{suffix}"), || {
                let b = RunBuilder::new()
                    .workload(w.as_mut())
                    .structure(&structure, StructureKind::Ftspm)
                    .mapping(mapping.clone())
                    .profile(&profile)
                    .faults(faults.clone());
                if recorded {
                    let mut rec = Recorder::recovery_only(SERVED_TRACE_CAPACITY);
                    black_box(b.recorder(&mut rec).run());
                    black_box(rec.into_parts());
                } else {
                    black_box(b.run());
                }
            });
        }
    }
    g.finish();
}
