//! Physical bit interleaving: an ablation beyond the paper.
//!
//! The paper's premise is that SEC-DED cannot cope with multi-bit upsets
//! because an MBU cluster lands in one codeword. Real arrays often
//! *interleave* adjacent cells across N codewords, splitting a cluster of
//! `s` adjacent flips into at most `ceil(s/N)` flips per word. This
//! module re-runs the Monte-Carlo campaign under an `N`-way interleaved
//! layout, quantifying how much of FTSPM's advantage survives when the
//! SRAM baseline is allowed this (area/routing-costly) layout trick.

use std::num::NonZeroUsize;

use ftspm_ecc::{DecodeOutcome, MbuDistribution, ParityWord, ProtectionScheme, HAMMING_32};
use ftspm_testkit::{par, Rng};

use crate::campaign::{shard_plan, CampaignResult, EncodedImage, RegionImage};
use crate::strike::StrikeGenerator;

/// Runs a campaign with `ways`-way physical bit interleaving: each strike
/// cluster spreads round-robin over `ways` adjacent codewords, and the
/// strike is classified by its *worst* per-word outcome
/// (SDC ≻ DUE ≻ DRE ≻ masked).
///
/// `ways = 1` degenerates to [`crate::run_campaign`]'s single-word model.
/// Sharding and determinism follow [`crate::run_campaign`]: the tally is
/// bit-identical at every `threads` value.
///
/// # Panics
///
/// Panics if `ways` is zero.
pub fn run_campaign_interleaved(
    image: &RegionImage,
    mbu: MbuDistribution,
    ways: u32,
    strikes: u64,
    seed: u64,
    threads: NonZeroUsize,
) -> CampaignResult {
    assert!(ways >= 1, "interleaving needs at least one way");
    let enc = EncodedImage::new(image);
    let parts = par::par_map_threads(threads, shard_plan(strikes, seed), |(shard_seed, n)| {
        interleaved_shard(image, &enc, mbu, ways, n, shard_seed)
    });
    let mut result = CampaignResult::default();
    for p in &parts {
        result.merge(p);
    }
    result
}

/// One sequential interleaved sub-campaign on its own RNG stream.
fn interleaved_shard(
    image: &RegionImage,
    enc: &EncodedImage,
    mbu: MbuDistribution,
    ways: u32,
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
    let words = image.words().len() as u32;
    for _ in 0..strikes {
        let strike = gen.sample(&mut rng, words, stored_bits);
        // Round-robin distribution: word j (of `ways`) receives the bits
        // whose cluster index ≡ j (mod ways), i.e. ceil((size - j)/ways)
        // flips for j < min(ways, size) and none beyond — computed in
        // closed form rather than tallied into a per-strike buffer.
        let affected = ways.min(strike.size);
        // Worst outcome across the affected words.
        let mut worst = Outcome::Masked;
        for j in 0..affected {
            let flips = (strike.size - j).div_ceil(ways);
            let word_idx = (strike.word + j) % words;
            let outcome = classify_word(image, enc, word_idx, strike.first_bit, flips, stored_bits);
            worst = worst.max(outcome);
        }
        match worst {
            Outcome::Masked => result.masked += 1,
            Outcome::Dre => result.dre += 1,
            Outcome::Due => result.due += 1,
            Outcome::Sdc => result.sdc += 1,
            Outcome::SdcMiscorrected => {
                result.sdc += 1;
                result.miscorrected += 1;
            }
        }
    }
    result
}

/// Worst-first ordering of per-word outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Outcome {
    Masked,
    Dre,
    Due,
    Sdc,
    SdcMiscorrected,
}

fn classify_word(
    image: &RegionImage,
    enc: &EncodedImage,
    word_idx: u32,
    first_bit: u32,
    flips: u32,
    stored_bits: u32,
) -> Outcome {
    // Clamp the flip run to the codeword.
    let start = first_bit.min(stored_bits - flips.min(stored_bits));
    match image.scheme() {
        ProtectionScheme::Immune => Outcome::Masked,
        ProtectionScheme::None => Outcome::Sdc,
        // Single-flip fast paths, as in the plain campaign: parity
        // detects and extended Hamming corrects every 1-bit error
        // (pinned against the codec by the campaign tests).
        ProtectionScheme::Parity if flips == 1 => Outcome::Due,
        ProtectionScheme::SecDed if flips == 1 => Outcome::Dre,
        ProtectionScheme::Parity => {
            let mut w = ParityWord::encode(image.words()[word_idx as usize]);
            for b in start..start + flips.min(stored_bits) {
                w.flip_bit(b);
            }
            match w.decode().outcome {
                DecodeOutcome::DetectedUncorrectable => Outcome::Due,
                _ => Outcome::Sdc,
            }
        }
        ProtectionScheme::SecDed => {
            let truth = u64::from(image.words()[word_idx as usize]);
            let mut w = enc.secded(word_idx);
            for b in start..start + flips.min(stored_bits) {
                w = HAMMING_32.flip_bit(w, b);
            }
            let d = HAMMING_32.decode(w);
            match d.outcome {
                DecodeOutcome::DetectedUncorrectable => Outcome::Due,
                DecodeOutcome::Corrected { .. } if d.data == truth => Outcome::Dre,
                DecodeOutcome::Clean if d.data == truth => Outcome::Dre,
                DecodeOutcome::Corrected { .. } => Outcome::SdcMiscorrected,
                DecodeOutcome::Clean => Outcome::Sdc,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MBU: MbuDistribution = MbuDistribution::DIXIT_WOOD_40NM;
    const STRIKES: u64 = 100_000;

    #[test]
    fn one_way_matches_plain_campaign_statistically() {
        let image = RegionImage::random(ProtectionScheme::SecDed, 1024, 42);
        let a = run_campaign_interleaved(&image, MBU, 1, STRIKES, 7, par::thread_count());
        let b = crate::run_campaign(&image, MBU, STRIKES, 7, par::thread_count());
        assert!(
            (a.vulnerability_weight() - b.vulnerability_weight()).abs() < 0.01,
            "{} vs {}",
            a.vulnerability_weight(),
            b.vulnerability_weight()
        );
    }

    #[test]
    fn one_way_degenerates_to_the_plain_campaign_exactly() {
        // Same shard plan, same RNG streams, same per-strike
        // classification: with `ways = 1` the interleaved model must not
        // merely approximate the plain campaign — it must reproduce it
        // bit for bit.
        for scheme in ProtectionScheme::ALL {
            let image = RegionImage::random(scheme, 512, 42);
            let a = run_campaign_interleaved(&image, MBU, 1, 20_000, 7, par::thread_count());
            let b = crate::run_campaign(&image, MBU, 20_000, 7, par::thread_count());
            assert_eq!(a, b, "{scheme:?}");
        }
    }

    #[test]
    fn four_way_interleaving_eliminates_secded_sdc() {
        // Clusters are at most 8 bits, so each of 4 interleaved words sees
        // at most 2 flips: SEC-DED detects all of them.
        let image = RegionImage::random(ProtectionScheme::SecDed, 1024, 42);
        let r = run_campaign_interleaved(&image, MBU, 4, STRIKES, 9, par::thread_count());
        assert_eq!(r.sdc, 0, "no word ever sees 3+ flips");
        assert_eq!(r.miscorrected, 0);
        // Vulnerability collapses to the small P(cluster > 4) tail.
        assert!(
            r.vulnerability_weight() < 0.06,
            "weight {}",
            r.vulnerability_weight()
        );
    }

    #[test]
    fn interleaving_monotonically_weakens_vulnerability() {
        let image = RegionImage::random(ProtectionScheme::SecDed, 1024, 42);
        let mut last = f64::INFINITY;
        for ways in [1u32, 2, 4, 8] {
            let r = run_campaign_interleaved(&image, MBU, ways, STRIKES, 11, par::thread_count());
            assert!(
                r.vulnerability_weight() <= last + 0.01,
                "{ways}-way: {} after {last}",
                r.vulnerability_weight()
            );
            last = r.vulnerability_weight();
        }
    }

    #[test]
    fn parity_still_misses_even_splits() {
        // 2-way interleaving sends 2-bit clusters as 1+1 (both detected),
        // but 4-bit clusters as 2+2 (both silent): parity stays weak.
        let image = RegionImage::random(ProtectionScheme::Parity, 1024, 42);
        let r = run_campaign_interleaved(&image, MBU, 2, STRIKES, 13, par::thread_count());
        assert!(r.sdc > 0, "even-per-word splits escape parity");
        assert!((r.vulnerability_weight() - 1.0).abs() < 1e-12);
    }
}
