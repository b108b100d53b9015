//! Deterministic replay: the whole point of seeding every campaign is
//! that a reported AVF number can be regenerated bit-for-bit. Same seed
//! ⇒ identical strike sequence and identical outcome tallies; different
//! seed ⇒ a different campaign.

use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_faults::{run_campaign, run_campaign_interleaved, RegionImage, Strike, StrikeGenerator};
use ftspm_testkit::{par, Rng};

const MBU: MbuDistribution = MbuDistribution::DIXIT_WOOD_40NM;

fn strike_sequence(seed: u64, n: usize) -> Vec<Strike> {
    let gen = StrikeGenerator::new(MBU);
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| gen.sample(&mut rng, 1024, 39)).collect()
}

#[test]
fn same_seed_replays_the_exact_strike_sequence() {
    let a = strike_sequence(0xCAFE, 10_000);
    let b = strike_sequence(0xCAFE, 10_000);
    assert_eq!(a, b, "strike-by-strike replay");
}

#[test]
fn different_seeds_diverge_immediately() {
    let a = strike_sequence(0xCAFE, 64);
    let b = strike_sequence(0xCAFF, 64);
    assert_ne!(a, b);
    // Adjacent seeds must not share a prefix (SplitMix64 expansion
    // decorrelates them).
    assert_ne!(a[0], b[0], "first strikes already differ");
}

#[test]
fn same_seed_campaigns_produce_identical_tallies() {
    for scheme in [
        ProtectionScheme::Parity,
        ProtectionScheme::SecDed,
        ProtectionScheme::None,
    ] {
        let image = RegionImage::random(scheme, 512, 11);
        let a = run_campaign(&image, MBU, 50_000, 0xF00D, par::thread_count());
        let b = run_campaign(&image, MBU, 50_000, 0xF00D, par::thread_count());
        assert_eq!(a, b, "{scheme:?}: tallies must replay exactly");
        // Unprotected memory turns *every* strike into SDC, so its
        // aggregate tally can't tell seeds apart — only schemes with
        // mixed outcomes can show divergence at the tally level.
        if scheme != ProtectionScheme::None {
            let c = run_campaign(&image, MBU, 50_000, 0xF00E, par::thread_count());
            assert_ne!(a, c, "{scheme:?}: a fresh seed is a fresh campaign");
        }
    }
}

#[test]
fn interleaved_campaigns_replay_too() {
    let image = RegionImage::random(ProtectionScheme::SecDed, 512, 11);
    let a = run_campaign_interleaved(&image, MBU, 4, 50_000, 0xF00D, par::thread_count());
    let b = run_campaign_interleaved(&image, MBU, 4, 50_000, 0xF00D, par::thread_count());
    assert_eq!(a, b);
}

#[test]
fn image_generation_is_part_of_the_replay_contract() {
    let a = RegionImage::random(ProtectionScheme::SecDed, 256, 42);
    let b = RegionImage::random(ProtectionScheme::SecDed, 256, 42);
    assert_eq!(a.words(), b.words());
    let c = RegionImage::random(ProtectionScheme::SecDed, 256, 43);
    assert_ne!(a.words(), c.words());
}

mod live {
    //! Replay of *live* injection: the [`ftspm_faults::LiveInjector`]
    //! drives strikes into a running machine, so the replay contract now
    //! covers the whole run — same seed and workload ⇒ bit-identical
    //! recovery tallies and final cycle count.

    use ftspm_core::mda::run_mda;
    use ftspm_core::{OptimizeFor, RegionRole, SpmStructure};
    use ftspm_ecc::MbuDistribution;
    use ftspm_faults::LiveInjector;
    use ftspm_harness::{
        profile_workload, LiveFaultOptions, RunBuilder, RunMetrics, StructureKind,
    };
    use ftspm_workloads::{CaseStudy, Workload};

    fn injected_case_study(seed: u64) -> RunMetrics {
        let mut w = CaseStudy::new();
        let profile = profile_workload(&mut w);
        let structure = SpmStructure::ftspm();
        let mapping = run_mda(
            w.program(),
            &profile,
            &structure,
            &OptimizeFor::Reliability.thresholds(),
        );
        let opts = LiveFaultOptions::builder(seed, 3_000.0)
            .restrict_to(vec![RegionRole::DataEcc, RegionRole::DataParity])
            .scrub_interval(25_000)
            .build()
            .expect("valid fault options");
        RunBuilder::new()
            .workload(&mut w)
            .structure(&structure, StructureKind::Ftspm)
            .mapping(mapping)
            .profile(&profile)
            .faults(opts)
            .run()
    }

    #[test]
    fn live_injected_runs_replay_bit_for_bit() {
        let a = injected_case_study(0xFA57);
        let b = injected_case_study(0xFA57);
        let ra = a.recovery.expect("faulted run has recovery stats");
        let rb = b.recovery.expect("faulted run has recovery stats");
        assert_eq!(ra, rb, "same seed, identical recovery tallies");
        assert_eq!(a.cycles, b.cycles, "same seed, identical final cycle");
        assert!(ra.strikes > 0, "the runs actually saw strikes: {ra:?}");
    }

    #[test]
    fn a_fresh_seed_is_a_fresh_run() {
        let a = injected_case_study(0xFA57);
        let c = injected_case_study(0xFA58);
        let ra = a.recovery.expect("stats");
        let rc = c.recovery.expect("stats");
        assert!(
            ra != rc || a.cycles != c.cycles,
            "different seeds must diverge: {ra:?}"
        );
    }

    #[test]
    fn injector_schedule_replays_standalone() {
        // The machine-level contract rests on the injector's: identical
        // arrival sequences per seed.
        let seq = |seed| {
            let mut i = LiveInjector::new(MbuDistribution::default(), 500.0, seed);
            let mut cycles = Vec::new();
            for now in (0..50_000u64).step_by(250) {
                while i.strike_due(now) {
                    cycles.push(i.next_cycle());
                }
            }
            cycles
        };
        assert_eq!(seq(7), seq(7));
        assert_ne!(seq(7), seq(8));
    }
}
