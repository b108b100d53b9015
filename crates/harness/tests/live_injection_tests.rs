//! Fault injection against *live* memory images: run the case study on
//! the FTSPM structure, then bombard each region's actual post-run
//! contents. Outcome rates must match the per-scheme model regardless of
//! what data the regions hold (the codes are data-agnostic).

use ftspm_core::mda::run_mda;
use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
use ftspm_ecc::MbuDistribution;
use ftspm_faults::{run_campaign, RegionImage};
use ftspm_harness::{profile_workload, report, LiveFaultOptions, RunBuilder, StructureKind};
use ftspm_sim::{Cpu, Machine, MachineConfig, NullObserver};
use ftspm_testkit::par;
use ftspm_workloads::{CaseStudy, Workload};

#[test]
fn live_region_images_obey_the_scheme_model() {
    let mut w = CaseStudy::new();
    let profile = profile_workload(&mut w);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let placement = mapping.placement(w.program(), &structure).expect("fits");
    let mut machine = Machine::new(
        MachineConfig::with_regions(structure.specs()),
        w.program().clone(),
        placement,
    )
    .expect("machine");
    w.init(machine.dram_mut());
    let mut obs = NullObserver;
    {
        let mut cpu = Cpu::new(&mut machine, &mut obs);
        let got = w.run(&mut cpu).expect("runs");
        assert_eq!(got, w.expected_checksum());
    }
    machine.finish(&mut obs);

    let mbu = MbuDistribution::default();
    for (region, (_, spec)) in machine.regions().iter().zip(structure.regions()) {
        // Rebuild the region's contents as data words.
        let words: Vec<u32> = region
            .storage()
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("word")))
            .collect();
        let image = RegionImage::new(spec.scheme(), words);
        let result = run_campaign(&image, mbu, 50_000, 0xFEED, par::thread_count());
        let analytic = spec.scheme().vulnerability_weight(mbu);
        assert!(
            (result.vulnerability_weight() - analytic).abs() < 0.02,
            "{}: empirical {} vs analytic {analytic}",
            spec.name(),
            result.vulnerability_weight()
        );
    }
}

/// The acceptance run: the case study on FTSPM with live single-bit
/// strikes on the SEC-DED region. SEC-DED corrects every single flip, so
/// the run must complete with the right checksum and zero SDC escapes,
/// and the harness report must carry the full recovery tally.
#[test]
fn live_single_bit_strikes_on_secded_recover_with_zero_sdc() {
    let mut w = CaseStudy::new();
    let profile = profile_workload(&mut w);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let opts = LiveFaultOptions::builder(0x5EC_DED, 2_000.0)
        .mbu(MbuDistribution::new(1.0, 0.0, 0.0, 0.0))
        .restrict_to(vec![RegionRole::DataEcc])
        .scrub_interval(10_000)
        .build()
        .expect("valid fault options");
    let run = RunBuilder::new()
        .workload(&mut w)
        .structure(&structure, StructureKind::Ftspm)
        .mapping(mapping)
        .profile(&profile)
        .faults(opts)
        .run();
    assert!(run.checksum_ok, "recovered run computes the right answer");
    let rec = run.recovery.expect("faulted run reports recovery stats");
    assert!(rec.strikes > 0, "strikes landed during the run: {rec:?}");
    assert_eq!(
        rec.sdc_escapes, 0,
        "SEC-DED + scrub stops every single-bit strike: {rec:?}"
    );
    assert!(
        rec.corrections + rec.scrub_corrections > 0,
        "flips were actively corrected: {rec:?}"
    );
    assert!(rec.scrub_passes > 0, "the scrub daemon ran: {rec:?}");
    assert!(rec.recovery_cycles > 0, "recovery charged real cycles");

    let text = report::recovery(&run);
    for needle in [
        "strikes injected",
        "corrections (DRE)",
        "DUE traps",
        "DUE recovery retries",
        "scrub passes",
        "quarantined lines",
        "remapped blocks",
        "recovery overhead",
    ] {
        assert!(text.contains(needle), "report misses `{needle}`:\n{text}");
    }
}

/// A clean run renders a recovery report too, flagged as clean.
#[test]
fn clean_runs_report_no_recovery_metrics() {
    let mut w = CaseStudy::new();
    let profile = profile_workload(&mut w);
    let structure = SpmStructure::ftspm();
    let mapping = run_mda(
        w.program(),
        &profile,
        &structure,
        &OptimizeFor::Reliability.thresholds(),
    );
    let run = RunBuilder::new()
        .workload(&mut w)
        .structure(&structure, StructureKind::Ftspm)
        .mapping(mapping)
        .profile(&profile)
        .run();
    assert!(run.recovery.is_none());
    assert!(report::recovery(&run).contains("clean run"));
}
