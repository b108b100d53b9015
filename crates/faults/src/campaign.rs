//! Injection campaigns over protected memory images.
//!
//! Campaigns are **sharded**: the strike budget splits over a fixed
//! [`CAMPAIGN_SHARDS`] sub-campaigns, each with a SplitMix64-derived
//! per-shard RNG stream ([`ftspm_testkit::derive_seed`]), executed by the
//! deterministic parallel executor ([`ftspm_testkit::par`]) and merged in
//! shard order. Because the shard structure is fixed and the merge is a
//! field-wise sum, the result is a pure function of
//! `(image, mbu, strikes, seed)` — bit-identical at every thread count,
//! including 1.

use std::num::NonZeroUsize;

use ftspm_ecc::{DecodeOutcome, MbuDistribution, ParityWord, ProtectionScheme, HAMMING_32};
use ftspm_testkit::{derive_seed, par, Rng};

use crate::strike::StrikeGenerator;

/// Fixed number of RNG sub-streams a campaign splits into, independent
/// of the executing thread count. Part of the determinism contract:
/// changing this constant changes campaign tallies (it renames every
/// shard's stream), so it is fixed once per major version.
pub const CAMPAIGN_SHARDS: u32 = 16;

/// Splits `total` events into [`CAMPAIGN_SHARDS`] per-shard counts
/// (earlier shards absorb the remainder) with their derived seeds.
pub(crate) fn shard_plan(total: u64, seed: u64) -> Vec<(u64, u64)> {
    let shards = u64::from(CAMPAIGN_SHARDS);
    let (base, rem) = (total / shards, total % shards);
    (0..shards)
        .map(|i| (derive_seed(seed, i), base + u64::from(i < rem)))
        .collect()
}

/// Pre-encoded codewords of a [`RegionImage`]: encoding is a pure
/// function of the stored data, so campaigns compute it once per image
/// instead of once per strike (SEC-DED encode costs ~3× a decode).
pub(crate) struct EncodedImage {
    secded: Vec<u128>,
}

impl EncodedImage {
    pub(crate) fn new(image: &RegionImage) -> Self {
        let secded = if image.scheme() == ProtectionScheme::SecDed {
            image
                .words()
                .iter()
                .map(|&w| HAMMING_32.encode(u64::from(w)))
                .collect()
        } else {
            Vec::new()
        };
        Self { secded }
    }

    /// The cached SEC-DED codeword for `word` (SEC-DED images only).
    pub(crate) fn secded(&self, word: u32) -> u128 {
        self.secded[word as usize]
    }
}

/// A region's worth of data words to inject into.
#[derive(Debug, Clone)]
pub struct RegionImage {
    scheme: ProtectionScheme,
    words: Vec<u32>,
}

impl RegionImage {
    /// Wraps data words under a protection scheme.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn new(scheme: ProtectionScheme, words: Vec<u32>) -> Self {
        assert!(!words.is_empty(), "an image needs at least one word");
        Self { scheme, words }
    }

    /// A deterministic random image (for campaigns that do not care about
    /// specific contents).
    pub fn random(scheme: ProtectionScheme, words: u32, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Self::new(scheme, (0..words).map(|_| rng.gen()).collect())
    }

    /// The protection scheme.
    pub fn scheme(&self) -> ProtectionScheme {
        self.scheme
    }

    /// The stored data words.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Stored bits per codeword under this scheme.
    pub fn stored_bits(&self) -> u32 {
        match self.scheme {
            ProtectionScheme::None | ProtectionScheme::Immune => 32,
            ProtectionScheme::Parity => ParityWord::STORED_BITS,
            ProtectionScheme::SecDed => HAMMING_32.stored_bits(),
        }
    }
}

/// Aggregate outcome counts of a campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignResult {
    /// Strikes injected.
    pub strikes: u64,
    /// Silent data corruptions (wrong data consumed without a trap).
    pub sdc: u64,
    /// Detected-unrecoverable errors (trap raised).
    pub due: u64,
    /// Detected-and-corrected errors (data intact after decode).
    pub dre: u64,
    /// Strikes with no effect (immune cells).
    pub masked: u64,
    /// The subset of `sdc` where the decoder *claimed* a correction but
    /// produced wrong data (SEC-DED miscorrections on ≥3-bit clusters).
    pub miscorrected: u64,
}

impl CampaignResult {
    /// `count / strikes`, or 0.0 for an empty campaign (a campaign that
    /// injected nothing observed no failures — never NaN).
    fn rate(&self, count: u64) -> f64 {
        if self.strikes == 0 {
            0.0
        } else {
            count as f64 / self.strikes as f64
        }
    }

    /// Empirical P(SDC).
    pub fn sdc_rate(&self) -> f64 {
        self.rate(self.sdc)
    }

    /// Empirical P(DUE).
    pub fn due_rate(&self) -> f64 {
        self.rate(self.due)
    }

    /// Empirical P(DRE).
    pub fn dre_rate(&self) -> f64 {
        self.rate(self.dre)
    }

    /// Empirical vulnerability weight, `P(SDC) + P(DUE)` — the quantity
    /// the paper's equation (1) integrates over blocks.
    pub fn vulnerability_weight(&self) -> f64 {
        self.sdc_rate() + self.due_rate()
    }

    /// Accumulates another (shard) result into this one: every field is
    /// a count, so the merge is a field-wise sum and therefore
    /// order-independent — the sharded campaign still merges in shard
    /// order as part of the determinism contract.
    pub fn merge(&mut self, other: &CampaignResult) {
        self.strikes += other.strikes;
        self.sdc += other.sdc;
        self.due += other.due;
        self.dre += other.dre;
        self.masked += other.masked;
        self.miscorrected += other.miscorrected;
    }
}

/// Injects `strikes` particle strikes into `image`, decoding each struck
/// word with the real codec and classifying the outcome against ground
/// truth.
///
/// Each strike is independent (the word is restored afterwards),
/// modelling the paper's per-strike AVF question rather than error
/// accumulation. The campaign is sharded over [`CAMPAIGN_SHARDS`]
/// derived RNG streams and executed on `threads` host threads (pass
/// [`par::thread_count`] for the `FTSPM_THREADS` default).
///
/// The tally is a pure function of `(image, mbu, strikes, seed)`: shard
/// seeds and per-shard strike budgets are fixed by the shard plan, and
/// the ordered merge is a sum — so every `threads` value (including 1)
/// produces bit-identical results.
pub fn run_campaign(
    image: &RegionImage,
    mbu: MbuDistribution,
    strikes: u64,
    seed: u64,
    threads: NonZeroUsize,
) -> CampaignResult {
    let enc = EncodedImage::new(image);
    let parts = par::par_map_threads(threads, shard_plan(strikes, seed), |(shard_seed, n)| {
        campaign_shard(image, &enc, mbu, n, shard_seed)
    });
    let mut result = CampaignResult::default();
    for p in &parts {
        result.merge(p);
    }
    result
}

/// One sequential sub-campaign on its own RNG stream.
fn campaign_shard(
    image: &RegionImage,
    enc: &EncodedImage,
    mbu: MbuDistribution,
    strikes: u64,
    seed: u64,
) -> CampaignResult {
    let gen = StrikeGenerator::new(mbu);
    let mut rng = Rng::seed_from_u64(seed);
    let mut result = CampaignResult {
        strikes,
        ..Default::default()
    };
    let stored_bits = image.stored_bits();
    let words = image.words.len() as u32;
    for _ in 0..strikes {
        let strike = gen.sample(&mut rng, words, stored_bits);
        let data = image.words[strike.word as usize];
        match image.scheme {
            ProtectionScheme::Immune => result.masked += 1,
            ProtectionScheme::None => {
                // No code: flipped bits are consumed as-is.
                result.sdc += 1;
            }
            // Single-flip fast paths: parity detects every 1-bit error
            // and extended Hamming corrects every 1-bit error, whatever
            // the position — pinned against the real codec by the
            // `single_flip_fast_paths_match_the_codec` test below.
            ProtectionScheme::Parity if strike.size == 1 => result.due += 1,
            ProtectionScheme::SecDed if strike.size == 1 => result.dre += 1,
            ProtectionScheme::Parity => {
                let mut w = ParityWord::encode(data);
                for bit in strike.bits() {
                    w.flip_bit(bit);
                }
                let d = w.decode();
                match d.outcome {
                    DecodeOutcome::DetectedUncorrectable => result.due += 1,
                    _ if d.data == data => result.dre += 1, // cannot happen: flips change bits
                    _ => result.sdc += 1,
                }
            }
            ProtectionScheme::SecDed => {
                let mut w = enc.secded(strike.word);
                for bit in strike.bits() {
                    w = HAMMING_32.flip_bit(w, bit);
                }
                let d = HAMMING_32.decode(w);
                match d.outcome {
                    DecodeOutcome::DetectedUncorrectable => result.due += 1,
                    DecodeOutcome::Corrected { .. } | DecodeOutcome::Clean => {
                        if d.data == u64::from(data) {
                            result.dre += 1;
                        } else {
                            result.sdc += 1;
                            if matches!(d.outcome, DecodeOutcome::Corrected { .. }) {
                                result.miscorrected += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRIKES: u64 = 100_000;
    const MBU: MbuDistribution = MbuDistribution::DIXIT_WOOD_40NM;

    fn campaign(scheme: ProtectionScheme) -> CampaignResult {
        let image = RegionImage::random(scheme, 1024, 42);
        run_campaign(&image, MBU, STRIKES, 7, par::thread_count())
    }

    #[test]
    fn outcome_counts_partition_strikes() {
        for scheme in ProtectionScheme::ALL {
            let r = campaign(scheme);
            assert_eq!(
                r.sdc + r.due + r.dre + r.masked,
                r.strikes,
                "{scheme:?} outcomes must partition"
            );
        }
    }

    #[test]
    fn immune_masks_everything() {
        let r = campaign(ProtectionScheme::Immune);
        assert_eq!(r.masked, STRIKES);
        assert_eq!(r.vulnerability_weight(), 0.0);
    }

    #[test]
    fn unprotected_is_all_sdc() {
        let r = campaign(ProtectionScheme::None);
        assert_eq!(r.sdc, STRIKES);
    }

    #[test]
    fn secded_vulnerability_weight_matches_analytic() {
        // Empirical SDC+DUE must equal the analytic P(>=2) = 0.38: every
        // single flip is corrected, everything else is harmful one way or
        // the other.
        let r = campaign(ProtectionScheme::SecDed);
        let analytic = ProtectionScheme::SecDed.vulnerability_weight(MBU);
        assert!(
            (r.vulnerability_weight() - analytic).abs() < 0.01,
            "empirical {} vs analytic {analytic}",
            r.vulnerability_weight()
        );
        // DRE rate = P(1 flip) = 0.62.
        assert!((r.dre_rate() - 0.62).abs() < 0.01, "DRE {}", r.dre_rate());
    }

    #[test]
    fn secded_sdc_split_is_conservative_in_the_paper() {
        // Equation (7) charges all >=3-flip strikes (13 %) to SDC; the
        // real decoder detects many of them, so empirical SDC < 0.13
        // while DUE > 0.25 — the paper's split is pessimistic on SDC.
        let r = campaign(ProtectionScheme::SecDed);
        let analytic_sdc = ProtectionScheme::SecDed.sdc_probability(MBU);
        assert!(
            r.sdc_rate() < analytic_sdc,
            "empirical SDC {} should undershoot analytic {analytic_sdc}",
            r.sdc_rate()
        );
        assert!(r.due_rate() > ProtectionScheme::SecDed.due_probability(MBU));
        // And some triple strikes really do miscorrect silently.
        assert!(r.miscorrected > 0, "miscorrections must occur");
    }

    #[test]
    fn parity_detects_all_odd_clusters() {
        // Analytic eq. (4): DUE = P(1) = 0.62. Empirically parity also
        // detects 3-flip (6 %) and odd-size tail clusters, so DUE >= 0.68.
        let r = campaign(ProtectionScheme::Parity);
        assert!(r.due_rate() > 0.66, "parity DUE {}", r.due_rate());
        // Total weight is 1.0 either way: nothing is ever corrected.
        assert!((r.vulnerability_weight() - 1.0).abs() < 1e-12);
        assert_eq!(r.dre, 0);
    }

    #[test]
    fn empty_campaign_rates_are_zero_not_nan() {
        let image = RegionImage::random(ProtectionScheme::SecDed, 64, 5);
        let r = run_campaign(&image, MBU, 0, 1, par::thread_count());
        assert_eq!(r.strikes, 0);
        assert_eq!(r.sdc_rate(), 0.0);
        assert_eq!(r.due_rate(), 0.0);
        assert_eq!(r.dre_rate(), 0.0);
        assert_eq!(r.vulnerability_weight(), 0.0);
        // The defaulted struct (no campaign at all) behaves the same.
        let d = CampaignResult::default();
        assert_eq!(d.vulnerability_weight(), 0.0);
    }

    #[test]
    fn campaigns_are_deterministic_per_seed() {
        let image = RegionImage::random(ProtectionScheme::SecDed, 256, 1);
        let a = run_campaign(&image, MBU, 10_000, 99, par::thread_count());
        let b = run_campaign(&image, MBU, 10_000, 99, par::thread_count());
        assert_eq!(a, b);
        let c = run_campaign(&image, MBU, 10_000, 100, par::thread_count());
        assert_ne!(a, c);
    }

    #[test]
    fn single_flip_fast_paths_match_the_codec() {
        // The campaign loop classifies 1-bit strikes without decoding:
        // SEC-DED must correct and parity must detect *every* single
        // flip. Execute the real codec over every position of several
        // words to pin that claim.
        for data in [0u32, u32::MAX, 0xDEAD_BEEF, 0x0135_79BD] {
            for bit in 0..HAMMING_32.stored_bits() {
                let w = HAMMING_32.flip_bit(HAMMING_32.encode(u64::from(data)), bit);
                let d = HAMMING_32.decode(w);
                assert!(
                    matches!(d.outcome, DecodeOutcome::Corrected { .. }),
                    "secded bit {bit}"
                );
                assert_eq!(
                    d.data,
                    u64::from(data),
                    "secded bit {bit} corrects to truth"
                );
            }
            for bit in 0..ParityWord::STORED_BITS {
                let mut w = ParityWord::encode(data);
                w.flip_bit(bit);
                assert_eq!(
                    w.decode().outcome,
                    DecodeOutcome::DetectedUncorrectable,
                    "parity bit {bit}"
                );
            }
        }
    }

    #[test]
    fn shard_plan_partitions_the_strike_budget() {
        for total in [0u64, 1, 15, 16, 17, 100_000, 100_003] {
            let plan = shard_plan(total, 42);
            assert_eq!(plan.len(), CAMPAIGN_SHARDS as usize);
            assert_eq!(plan.iter().map(|&(_, n)| n).sum::<u64>(), total);
            // Budgets differ by at most one strike and seeds are unique.
            let min = plan.iter().map(|&(_, n)| n).min().expect("non-empty");
            let max = plan.iter().map(|&(_, n)| n).max().expect("non-empty");
            assert!(max - min <= 1);
            let mut seeds: Vec<u64> = plan.iter().map(|&(s, _)| s).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), CAMPAIGN_SHARDS as usize);
        }
    }

    #[test]
    fn merge_is_a_field_wise_sum() {
        let image = RegionImage::random(ProtectionScheme::SecDed, 256, 1);
        let a = run_campaign(&image, MBU, 10_000, 99, par::thread_count());
        let b = run_campaign(&image, MBU, 10_000, 100, par::thread_count());
        let mut m = a;
        m.merge(&b);
        assert_eq!(m.strikes, a.strikes + b.strikes);
        assert_eq!(m.sdc, a.sdc + b.sdc);
        assert_eq!(m.due, a.due + b.due);
        assert_eq!(m.dre, a.dre + b.dre);
        assert_eq!(m.masked, a.masked + b.masked);
        assert_eq!(m.miscorrected, a.miscorrected + b.miscorrected);
    }
}
