//! End-to-end pipeline cost: profile → MDA → mapped re-run, per workload
//! (one bench per table/figure driver; the repro binary composes these).

use ftspm_core::OptimizeFor;
use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_faults::{run_campaign, RegionImage};
use ftspm_harness::{evaluate_workload, profile_workload, RunBuilder};
use ftspm_testkit::{black_box, par, BenchGroup};
use ftspm_workloads::{registry, CaseStudy, Crc32, QSort, Sha1, Susan};

/// These bodies run whole simulations; keep the fixed counts small, as
/// `criterion`'s `sample_size(10)` flat mode did.
const WARMUP: u32 = 2;
const ITERS: u32 = 10;

fn main() {
    let mut g = BenchGroup::new("end_to_end").counts(WARMUP, ITERS);

    g.bench("profile/crc32", || {
        let mut w = Crc32::new(0xC3C3);
        black_box(profile_workload(&mut w))
    });
    // The two longest profiling passes (the most block entries and data
    // runs), where a per-reference cost in the profiler shows most.
    g.bench("profile/susan", || {
        let mut w = Susan::new(0x5A5A);
        black_box(profile_workload(&mut w))
    });
    g.bench("profile/case_study", || {
        let mut w = CaseStudy::new();
        black_box(profile_workload(&mut w))
    });
    // What the served `kernels_cold` workload pays per request: one
    // default `RunBuilder` job (profiling pass, MDA, mapped run) per
    // suite kernel at its default seed.
    g.bench("job/suite", || {
        for kernel in registry().iter().filter(|k| k.in_suite()) {
            let mut w = kernel.build(None);
            black_box(RunBuilder::new().workload(w.as_mut()).run());
        }
    });
    g.bench("evaluate/qsort", || {
        let mut w = QSort::new(0xF75F);
        black_box(evaluate_workload(&mut w, OptimizeFor::Reliability))
    });
    g.bench("evaluate/sha", || {
        let mut w = Sha1::new(0x54A1);
        black_box(evaluate_workload(&mut w, OptimizeFor::Reliability))
    });

    let image = RegionImage::random(ProtectionScheme::SecDed, 1024, 42);
    g.bench("fault_campaign/secded_100k", || {
        black_box(run_campaign(
            &image,
            MbuDistribution::default(),
            100_000,
            7,
            par::thread_count(),
        ))
    });
    g.bench("fault_campaign/secded_100k_4way", || {
        black_box(ftspm_faults::run_campaign_interleaved(
            &image,
            MbuDistribution::default(),
            4,
            100_000,
            7,
            par::thread_count(),
        ))
    });

    g.bench("evaluate_dynamic/stream", || {
        use ftspm_core::mda::run_mda_dynamic;
        use ftspm_core::SpmStructure;
        use ftspm_harness::StructureKind;
        use ftspm_workloads::{StreamPipeline, Workload};
        let mut w = StreamPipeline::new(0x57E4);
        let profile = profile_workload(&mut w);
        let structure = SpmStructure::ftspm();
        let mapping = run_mda_dynamic(
            w.program(),
            &profile,
            &structure,
            &OptimizeFor::Reliability.thresholds(),
        );
        black_box(
            RunBuilder::new()
                .workload(&mut w)
                .structure(&structure, StructureKind::Ftspm)
                .mapping(mapping)
                .profile(&profile)
                .run(),
        )
    });
    g.finish();
}
