//! Repro-scale sweep cost: the heavy targets of the `repro` binary as
//! standalone benches, so the wall-clock wins of the sharded campaigns
//! and the dirty-word scrub path stay pinned in `results/`.

use ftspm_bench::sweeps;
use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_faults::{run_campaign, run_campaign_interleaved, run_scrub_study, RegionImage};
use ftspm_testkit::{black_box, par, BenchGroup};

/// Every body here is a repro-target-scale simulation; single-digit
/// iteration counts keep the whole group in seconds.
const WARMUP: u32 = 1;
const ITERS: u32 = 5;

fn main() {
    let mut g = BenchGroup::new("repro").counts(WARMUP, ITERS);

    g.bench("recovery_sweep/3x3_grid", || {
        black_box(sweeps::recovery_sweep_observed(par::thread_count()).cells)
    });

    // The worst cell of the repro `scrub` target: one strike per scrub
    // across 40 k intervals (the case the dirty-word path rescued).
    let scrub_image = RegionImage::random(ProtectionScheme::SecDed, 512, 0xDEAD);
    g.bench("scrub_study/1_per_interval_40k", || {
        black_box(run_scrub_study(
            &scrub_image,
            MbuDistribution::default(),
            1,
            40_000,
            0xBEEF,
            par::thread_count(),
        ))
    });

    // The repro `validate` / `ablation-interleave` scale: 1e6 strikes.
    let image = RegionImage::random(ProtectionScheme::SecDed, 2048, 0xDEAD);
    g.bench("campaign/secded_1m", || {
        black_box(run_campaign(
            &image,
            MbuDistribution::default(),
            1_000_000,
            0xBEEF,
            par::thread_count(),
        ))
    });
    g.bench("campaign/secded_1m_4way", || {
        black_box(run_campaign_interleaved(
            &image,
            MbuDistribution::default(),
            4,
            1_000_000,
            0xBEEF,
            par::thread_count(),
        ))
    });

    g.finish();
}
