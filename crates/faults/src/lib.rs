//! # ftspm-faults — Monte-Carlo particle-strike injection
//!
//! The FTSPM paper computes its reliability numbers *analytically*
//! (equations (1)–(7)) from the published MBU size distribution. This
//! crate goes one step further and validates that model **empirically**:
//! it encodes real data words with the real codecs from `ftspm-ecc`,
//! flips real adjacent bit clusters sampled from the same distribution,
//! decodes, and classifies every outcome against ground truth.
//!
//! Two findings fall out (and are pinned by this crate's tests):
//!
//! * the **total vulnerability weight** (`P(SDC) + P(DUE)`) of every
//!   scheme matches the analytic model exactly — for SEC-DED, every
//!   multi-bit (≥2) strike is either detected or silently harmful, so
//!   the total is `P(≥2) = 0.38` either way;
//! * the paper's **SDC/DUE split is conservative**: equation (7) charges
//!   all ≥3-bit strikes to SDC, but a real extended-Hamming decoder
//!   *detects* a sizeable share of them (any ≥3-flip with an out-of-range
//!   or double-error syndrome trips the DUE trap instead of silently
//!   corrupting). Likewise parity (eq. (6)) detects all odd-weight
//!   clusters, not just single flips.
//!
//! Campaigns and scrub studies are **deterministically parallel**: the
//! event budget shards over a fixed [`CAMPAIGN_SHARDS`] SplitMix64-derived
//! RNG streams executed by `ftspm_testkit::par`, so the tallies are a
//! pure function of the arguments — bit-identical at every thread count
//! (every entry point takes its host thread count; pass
//! `ftspm_testkit::par::thread_count()` for the `FTSPM_THREADS` knob).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod interleave;
mod live;
mod scrub;
mod strike;

pub use campaign::{run_campaign, CampaignResult, RegionImage, CAMPAIGN_SHARDS};
pub use interleave::run_campaign_interleaved;
pub use live::LiveInjector;
pub use scrub::{run_scrub_study, ScrubResult};
pub use strike::{Strike, StrikeGenerator};
