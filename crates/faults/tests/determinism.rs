//! The sharded-campaign determinism contract, enforced as tier-1 tests
//! (ci.sh runs this file twice: once with `FTSPM_THREADS=1` and once
//! with the core count): a campaign tally is a pure function of
//! `(image, mbu, events, seed)`, never of the executing thread count.
//!
//! The golden tallies below extend PR 1's "same seed ⇒ same bits"
//! guarantee across the parallel executor: any change to the shard
//! count, the per-shard seed derivation, the RNG, or the strike
//! classification shows up here as a hard diff, not a silent drift of
//! reported AVF numbers.

use std::num::NonZeroUsize;

use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_faults::{
    run_campaign, run_campaign_interleaved, run_scrub_study, CampaignResult, RegionImage,
    ScrubResult,
};
use ftspm_testkit::par;

const MBU: MbuDistribution = MbuDistribution::DIXIT_WOOD_40NM;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero")
}

fn image() -> RegionImage {
    RegionImage::random(ProtectionScheme::SecDed, 1024, 42)
}

#[test]
fn campaign_tally_is_identical_across_thread_counts() {
    let image = image();
    let baseline = run_campaign(&image, MBU, 100_000, 7, nz(1));
    for threads in [2, 3, 8] {
        let r = run_campaign(&image, MBU, 100_000, 7, nz(threads));
        assert_eq!(r, baseline, "{threads} threads");
    }
    // The `FTSPM_THREADS` default agrees too.
    assert_eq!(
        run_campaign(&image, MBU, 100_000, 7, par::thread_count()),
        baseline
    );
}

#[test]
fn campaign_tally_matches_the_pinned_golden() {
    // Golden tally for (SecDed 1024-word image seed 42, 40 nm MBU,
    // 100 k strikes, seed 7). A diff here means the determinism
    // contract — fixed shards, derived seeds, ordered merge — changed.
    let r = run_campaign(&image(), MBU, 100_000, 7, par::thread_count());
    assert_eq!(
        r,
        CampaignResult {
            strikes: 100_000,
            sdc: 10_013,
            due: 28_337,
            dre: 61_650,
            masked: 0,
            miscorrected: 7_948,
        }
    );
}

#[test]
fn interleaved_tally_is_identical_across_thread_counts() {
    let image = image();
    let baseline = run_campaign_interleaved(&image, MBU, 4, 100_000, 7, nz(1));
    for threads in [2, 8] {
        let r = run_campaign_interleaved(&image, MBU, 4, 100_000, 7, nz(threads));
        assert_eq!(r, baseline, "{threads} threads");
    }
    assert_eq!(
        run_campaign_interleaved(&image, MBU, 4, 100_000, 7, par::thread_count()),
        baseline
    );
    // Pinned golden: 4-way interleaving leaves only the >4-bit tail.
    assert_eq!(
        baseline,
        CampaignResult {
            strikes: 100_000,
            sdc: 0,
            due: 3_479,
            dre: 96_521,
            masked: 0,
            miscorrected: 0,
        }
    );
}

#[test]
fn scrub_tally_is_identical_across_thread_counts() {
    let image = image();
    let baseline = run_scrub_study(&image, MBU, 50, 400, 9, nz(1));
    for threads in [2, 8] {
        let r = run_scrub_study(&image, MBU, 50, 400, 9, nz(threads));
        assert_eq!(r, baseline, "{threads} threads");
    }
    assert_eq!(
        run_scrub_study(&image, MBU, 50, 400, 9, par::thread_count()),
        baseline
    );
    // Pinned golden for the same arguments.
    assert_eq!(
        baseline,
        ScrubResult {
            scrubs: 400,
            strikes: 20_000,
            corrected_words: 11_739,
            due_words: 5_602,
            sdc_words: 2_172,
        }
    );
}

#[test]
fn thread_count_does_not_leak_into_empty_or_tiny_budgets() {
    // Budgets smaller than the shard count (some shards get zero
    // events) must stay thread-count-invariant too.
    let image = image();
    for strikes in [0u64, 1, 5, 15] {
        let a = run_campaign(&image, MBU, strikes, 3, nz(1));
        let b = run_campaign(&image, MBU, strikes, 3, nz(8));
        assert_eq!(a, b, "{strikes} strikes");
        assert_eq!(a.strikes, strikes);
    }
}
