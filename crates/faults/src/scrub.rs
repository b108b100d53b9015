//! Scrubbing study: error accumulation between scrub passes.
//!
//! The per-strike model (equations (4)–(7), [`crate::run_campaign`])
//! assumes each strike is decoded in isolation. Real systems *scrub*
//! periodically; between scrubs, independent single-bit upsets can
//! accumulate in the same codeword and defeat SEC-DED even though each
//! strike alone was correctable. This module simulates that: strikes
//! accumulate on a live image for `strikes_per_interval` events, then a
//! scrub pass decodes every word, counts outcomes, and rewrites clean
//! codewords.
//!
//! The result quantifies how fast the SRAM regions' protection decays as
//! the scrub interval grows — and why the STT-RAM region needs none.

use std::num::NonZeroUsize;

use ftspm_ecc::{DecodeOutcome, MbuDistribution, ProtectionScheme, HAMMING_32};
use ftspm_testkit::{par, Rng};

use crate::campaign::{shard_plan, RegionImage};
use crate::strike::StrikeGenerator;

/// Aggregate outcome of a scrubbing simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubResult {
    /// Scrub passes performed.
    pub scrubs: u64,
    /// Total strikes injected.
    pub strikes: u64,
    /// Words found corrected (single error accumulated) at a scrub.
    pub corrected_words: u64,
    /// Words found detected-uncorrectable at a scrub.
    pub due_words: u64,
    /// Words silently wrong at a scrub (accumulated flips aliased to a
    /// valid or miscorrected decode).
    pub sdc_words: u64,
}

impl ScrubResult {
    /// Fraction of scrub findings that were unrecoverable or silent —
    /// the scrub-interval-dependent vulnerability.
    pub fn failure_fraction(&self) -> f64 {
        let found = self.corrected_words + self.due_words + self.sdc_words;
        if found == 0 {
            0.0
        } else {
            (self.due_words + self.sdc_words) as f64 / found as f64
        }
    }

    /// Accumulates another (shard) result: all fields are counts, so the
    /// merge is a field-wise sum.
    pub fn merge(&mut self, other: &ScrubResult) {
        self.scrubs += other.scrubs;
        self.strikes += other.strikes;
        self.corrected_words += other.corrected_words;
        self.due_words += other.due_words;
        self.sdc_words += other.sdc_words;
    }
}

/// Simulates SEC-DED scrubbing: inject `strikes_per_interval` strikes,
/// scrub, repeat `intervals` times.
///
/// Only [`ProtectionScheme::SecDed`] images are meaningful to scrub
/// (parity cannot correct, immune cells never need it); the image's data
/// words are the ground truth.
///
/// The interval budget shards over [`crate::CAMPAIGN_SHARDS`] derived
/// RNG streams, each an independent replica of the live image (valid
/// because every scrub pass restores the image exactly, so intervals are
/// independent given their strike stream), executed on `threads` host
/// threads. Like the campaigns, the tally is a pure function of the
/// other arguments: shard seeds and per-shard interval budgets are
/// fixed, and the ordered merge is a sum — bit-identical at every
/// thread count.
///
/// # Panics
///
/// Panics if the image is not SEC-DED protected.
pub fn run_scrub_study(
    image: &RegionImage,
    mbu: MbuDistribution,
    strikes_per_interval: u64,
    intervals: u64,
    seed: u64,
    threads: NonZeroUsize,
) -> ScrubResult {
    assert_eq!(
        image.scheme(),
        ProtectionScheme::SecDed,
        "scrubbing studies target the SEC-DED region"
    );
    // Pristine codeword array, encoded once; every shard replays from a
    // copy of it and ground truth stays the image.
    let baseline: Vec<u128> = image
        .words()
        .iter()
        .map(|&w| HAMMING_32.encode(u64::from(w)))
        .collect();
    let parts = par::par_map_threads(threads, shard_plan(intervals, seed), |(shard_seed, n)| {
        scrub_shard(image, &baseline, mbu, strikes_per_interval, n, shard_seed)
    });
    let mut result = ScrubResult::default();
    for p in &parts {
        result.merge(p);
    }
    result
}

/// One sequential run of `intervals` strike-accumulate/scrub rounds on
/// its own RNG stream.
fn scrub_shard(
    image: &RegionImage,
    baseline: &[u128],
    mbu: MbuDistribution,
    strikes_per_interval: u64,
    intervals: u64,
    seed: u64,
) -> ScrubResult {
    let gen = StrikeGenerator::new(mbu);
    let mut rng = Rng::seed_from_u64(seed);
    let words = image.words().len() as u32;
    let stored_bits = image.stored_bits();
    let mut live = baseline.to_vec();
    let mut result = ScrubResult::default();
    // Words struck since the last scrub. Every scrub pass restores each
    // non-clean word to its encoded truth, so a word untouched since the
    // previous scrub decodes clean-and-correct by construction — the
    // scrub only needs to *decode* the struck words to produce exactly
    // the tallies a full-image pass would.
    let mut dirty: Vec<u32> = Vec::new();
    for _ in 0..intervals {
        // Accumulate strikes without intermediate decodes.
        dirty.clear();
        for _ in 0..strikes_per_interval {
            let s = gen.sample(&mut rng, words, stored_bits);
            for bit in s.bits() {
                live[s.word as usize] = HAMMING_32.flip_bit(live[s.word as usize], bit);
            }
            dirty.push(s.word);
            result.strikes += 1;
        }
        dirty.sort_unstable();
        dirty.dedup();
        // Scrub pass: decode every struck word, rewrite what needs repair.
        for &i in &dirty {
            let truth = u64::from(image.words()[i as usize]);
            let w = &mut live[i as usize];
            let d = HAMMING_32.decode(*w);
            match d.outcome {
                DecodeOutcome::Clean if d.data == truth => {}
                DecodeOutcome::Corrected { .. } if d.data == truth => {
                    result.corrected_words += 1;
                    *w = HAMMING_32.encode(truth);
                }
                DecodeOutcome::DetectedUncorrectable => {
                    result.due_words += 1;
                    // A real system reloads from a safe copy; model that.
                    *w = HAMMING_32.encode(truth);
                }
                // Clean-or-corrected but wrong: silent corruption.
                _ => {
                    result.sdc_words += 1;
                    *w = HAMMING_32.encode(truth);
                }
            }
        }
        result.scrubs += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBU: MbuDistribution = MbuDistribution::DIXIT_WOOD_40NM;

    fn image() -> RegionImage {
        RegionImage::random(ProtectionScheme::SecDed, 512, 42)
    }

    #[test]
    fn frequent_scrubbing_keeps_failures_at_the_per_strike_rate() {
        // One strike per interval: no accumulation; failure fraction ==
        // the per-strike P(>=2 flips) = 0.38 (every strike is found at
        // the next scrub).
        let r = run_scrub_study(&image(), MBU, 1, 20_000, 7, par::thread_count());
        assert!(
            (r.failure_fraction() - 0.38).abs() < 0.02,
            "fraction {}",
            r.failure_fraction()
        );
    }

    #[test]
    fn lazy_scrubbing_accumulates_uncorrectable_errors() {
        // Many strikes per interval on a small image: independent single
        // flips pile into the same words and the failure fraction rises
        // clearly above the per-strike rate.
        let tight = run_scrub_study(&image(), MBU, 1, 5_000, 9, par::thread_count());
        let lazy = run_scrub_study(&image(), MBU, 400, 50, 9, par::thread_count());
        assert!(
            lazy.failure_fraction() > tight.failure_fraction() + 0.05,
            "lazy {} vs tight {}",
            lazy.failure_fraction(),
            tight.failure_fraction()
        );
    }

    #[test]
    fn failure_fraction_is_monotone_in_interval() {
        let mut last = 0.0;
        for per_interval in [1u64, 20, 100, 400] {
            let r = run_scrub_study(
                &image(),
                MBU,
                per_interval,
                12_000 / per_interval.max(1),
                11,
                par::thread_count(),
            );
            assert!(
                r.failure_fraction() + 0.03 >= last,
                "{per_interval}/interval: {} after {last}",
                r.failure_fraction()
            );
            last = r.failure_fraction();
        }
    }

    #[test]
    fn outcome_counts_are_consistent() {
        let r = run_scrub_study(&image(), MBU, 10, 500, 13, par::thread_count());
        assert_eq!(r.scrubs, 500);
        assert_eq!(r.strikes, 5_000);
        assert!(r.corrected_words > 0);
    }

    #[test]
    fn empty_study_failure_fraction_is_zero_not_nan() {
        // No intervals => no strikes, no scrub findings; the fraction must
        // degrade to 0.0, not NaN.
        let r = run_scrub_study(&image(), MBU, 5, 0, 3, par::thread_count());
        assert_eq!(r, ScrubResult::default());
        assert_eq!(r.failure_fraction(), 0.0);
        // Scrubs that find nothing (strikes per interval = 0) likewise.
        let clean = run_scrub_study(&image(), MBU, 0, 10, 3, par::thread_count());
        assert_eq!(clean.scrubs, 10);
        assert_eq!(clean.failure_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "SEC-DED")]
    fn non_secded_images_rejected() {
        let image = RegionImage::random(ProtectionScheme::Parity, 64, 1);
        let _ = run_scrub_study(&image, MBU, 1, 1, 1, par::thread_count());
    }
}
