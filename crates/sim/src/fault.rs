//! Runtime fault model: configuration and state of the live
//! fault-and-recovery subsystem threaded through [`crate::Machine`].
//!
//! The model separates the *physical* event (a particle strike latches a
//! cluster of flipped bits into an SPM word) from its *architectural*
//! outcome (what the region's protection scheme makes of those flips at
//! the next decode). Strikes are recorded as pending flip masks; every
//! program read or fetch of a marked word decodes it through the region's
//! [`ProtectionScheme`]:
//!
//! * **DRE** — the code corrects; the controller rewrites the word in
//!   place (a real write: latency, energy, wear) and execution continues;
//! * **DUE** — the code detects but cannot correct; the machine traps and
//!   re-fetches the clean copy from DRAM with bounded retries, charging
//!   the full recovery latency/energy;
//! * **SDC** — the flips alias to a valid codeword; the stored data is
//!   really corrupted and the error propagates into program results.
//!
//! A configurable scrub daemon periodically sweeps the protected SRAM
//! regions, rewriting correctable words before flips accumulate past the
//! code's strength. A graceful-degradation layer quarantines word lines
//! that trap repeatedly (or exceed an STT-RAM endurance budget) and
//! remaps the victim block to the next-safer region (the demotion map,
//! typically computed by the `ftspm-core` remap policy).
//!
//! ## The hot path
//!
//! Merely *arming* the injector must not tax a clean access stream: the
//! pending marks per region live in a [`MarkTable`] whose per-word dirty
//! bitmap answers "is anything marked here?" in O(1), and the subsystem
//! is event-driven — [`FaultState::next_event`] caches the cycle of the
//! next scheduled strike or scrub tick, so an access on a machine with no
//! event due pays exactly one comparison instead of re-deriving the
//! schedule. The pre-optimization per-access path is kept selectable
//! (`FaultConfig::reference_path`) as the oracle the fast-path
//! differential test battery diffs against, byte for byte.

use std::collections::{BTreeMap, BTreeSet};

use ftspm_ecc::{MbuDistribution, ParityWord, ProtectionScheme, HAMMING_32};
use ftspm_faults::LiveInjector;

use crate::RegionId;

/// Configuration of the live fault-and-recovery subsystem.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// MBU cluster-size distribution of injected strikes.
    pub mbu: MbuDistribution,
    /// Mean cycles between strikes (exponential inter-arrival).
    pub mean_cycles_between_strikes: f64,
    /// RNG seed; the whole injected run replays bit-for-bit per seed.
    pub seed: u64,
    /// Scrub-daemon period in cycles (`None` disables scrubbing).
    pub scrub_interval: Option<u64>,
    /// DUE recovery re-fetch attempts before the line is given up on and
    /// quarantined.
    pub due_retry_limit: u32,
    /// DUE traps on one word line before it is quarantined.
    pub quarantine_due_threshold: u32,
    /// Per-line write budget for STT-RAM regions; a line written more
    /// often is wear-quarantined (`None` disables the budget).
    pub line_write_budget: Option<u64>,
    /// Restrict strikes to these regions (`None` = every region).
    pub targets: Option<Vec<RegionId>>,
    /// Per-region demotion target for quarantined victims, indexed by
    /// region id; a missing or `None` entry demotes straight to off-chip.
    pub demotion: Vec<Option<RegionId>>,
    /// Route every access through the reference (pre-optimization)
    /// per-access tick-and-probe path instead of the event-gated fast
    /// path. The two paths are observably byte-identical — the
    /// fast-path differential suite enforces it — so this knob exists
    /// purely as the equivalence oracle and costs throughput.
    pub reference_path: bool,
}

impl FaultConfig {
    /// A configuration with the 40 nm MBU distribution, recovery enabled
    /// (3 retries, quarantine after 3 DUEs on a line), the fast path,
    /// and scrubbing, endurance budget and region restriction off.
    pub fn new(seed: u64, mean_cycles_between_strikes: f64) -> Self {
        Self {
            mbu: MbuDistribution::default(),
            mean_cycles_between_strikes,
            seed,
            scrub_interval: None,
            due_retry_limit: 3,
            quarantine_due_threshold: 3,
            line_write_budget: None,
            targets: None,
            demotion: Vec::new(),
            reference_path: false,
        }
    }
}

/// Counters of the live fault subsystem (returned in
/// [`crate::MachineStats::faults`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Strikes injected (including those masked by immune cells).
    pub strikes: u64,
    /// Strikes absorbed by soft-error-immune (STT-RAM) regions.
    pub masked: u64,
    /// Words corrected in place on access (DRE).
    pub corrections: u64,
    /// Detected-unrecoverable traps taken (DUE).
    pub due_traps: u64,
    /// Extra recovery re-fetch attempts beyond the first.
    pub due_retries: u64,
    /// Silent corruptions that escaped into stored data (SDC).
    pub sdc_escapes: u64,
    /// Scrub-daemon passes completed.
    pub scrub_passes: u64,
    /// Words the scrub daemon corrected before an access consumed them.
    pub scrub_corrections: u64,
    /// Word lines quarantined (repeated DUEs or endurance budget).
    pub quarantined_lines: u64,
    /// Blocks demoted to a safer region (or off-chip) after quarantine.
    pub remapped_blocks: u64,
    /// Cycles charged to correction rewrites, DUE re-fetches and scrub
    /// sweeps — the run's recovery overhead.
    pub recovery_cycles: u64,
}

/// Stored bits per codeword under `scheme` (the strike surface).
pub(crate) fn stored_bits(scheme: ProtectionScheme) -> u32 {
    match scheme {
        ProtectionScheme::None | ProtectionScheme::Immune => 32,
        ProtectionScheme::Parity => ParityWord::STORED_BITS,
        ProtectionScheme::SecDed => HAMMING_32.stored_bits(),
    }
}

/// Folds a codeword flip mask onto the 32 data-bit positions: check-bit
/// flip `32 + k` lands on data bit `k`. This is how an SDC-class strike
/// corrupts stored data, on a program access's decode and on a DMA
/// writeback's flush alike.
pub(crate) fn fold_data_mask(mask: u64) -> u32 {
    (mask & 0xFFFF_FFFF) as u32 | (mask >> 32) as u32
}

/// Pending flip masks of one region, indexed by word: a sorted map of
/// accumulated codeword masks shadowed by a per-word dirty bitmap and a
/// wrapping epoch counter.
///
/// The bitmap makes the hot-path question — *does this word (or this
/// region at all) carry a pending strike?* — a single load-and-test,
/// so a clean access through an armed fault subsystem costs one branch
/// instead of a map probe. The map keeps the masks themselves in
/// ascending word order, which is what makes scrub sweeps (and hence
/// replays) deterministic.
///
/// The epoch increments on every mutating operation that changes the
/// table (an insert/merge, a hit by [`remove`](Self::remove) or
/// [`clear_range`](Self::clear_range)); probes and no-op clears leave it
/// untouched. It wraps: compare epochs with `!=`, which only aliases if
/// exactly 2³² mutations land between two observations.
#[derive(Debug, Clone)]
pub struct MarkTable {
    words: u32,
    /// One bit per word; bit set ⇔ the word has an entry in `masks`.
    bitmap: Vec<u64>,
    /// Word index → accumulated flip mask over the stored codeword bits.
    masks: BTreeMap<u32, u64>,
    epoch: u32,
}

impl MarkTable {
    /// An empty table covering `words` codewords.
    pub fn new(words: u32) -> Self {
        Self {
            words,
            bitmap: vec![0; words.div_ceil(64) as usize],
            masks: BTreeMap::new(),
            epoch: 0,
        }
    }

    /// Number of codewords the table covers.
    pub fn words(&self) -> u32 {
        self.words
    }

    /// Number of marked words.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether no word is marked — the O(1) fast-path check.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// The wrapping mutation counter; a changed (`!=`) epoch means the
    /// marked-word set or some mask changed since it was read.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Whether `word` carries a pending mask (O(1) via the bitmap).
    #[inline]
    pub fn is_marked(&self, word: u32) -> bool {
        let i = (word >> 6) as usize;
        self.bitmap
            .get(i)
            .is_some_and(|&b| b & (1 << (word & 63)) != 0)
    }

    /// The pending mask on `word`, if any, without consuming it.
    pub fn get(&self, word: u32) -> Option<u64> {
        if !self.is_marked(word) {
            return None;
        }
        self.masks.get(&word).copied()
    }

    /// ORs `mask` into `word`'s pending mask (a strike landing on a word
    /// that already carries flips accumulates).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn or_insert(&mut self, word: u32, mask: u64) {
        assert!(word < self.words, "mark {word} beyond {} words", self.words);
        self.bitmap[(word >> 6) as usize] |= 1 << (word & 63);
        *self.masks.entry(word).or_insert(0) |= mask;
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Removes and returns `word`'s pending mask. A miss costs one
    /// bitmap test and does not bump the epoch.
    #[inline]
    pub fn remove(&mut self, word: u32) -> Option<u64> {
        if !self.is_marked(word) {
            return None;
        }
        let mask = self.masks.remove(&word);
        debug_assert!(mask.is_some(), "bitmap bit set without a mask entry");
        self.bitmap[(word >> 6) as usize] &= !(1 << (word & 63));
        self.epoch = self.epoch.wrapping_add(1);
        mask
    }

    /// Clears every mark in `[first, first + count)` — what a DMA fill
    /// rewriting a whole slot does. O(1) when the table is clean;
    /// otherwise zero bitmap chunks are skipped wholesale.
    pub fn clear_range(&mut self, first: u32, count: u32) {
        if self.masks.is_empty() || count == 0 {
            return;
        }
        let end = first.saturating_add(count).min(self.words);
        let mut w = first.min(self.words);
        while w < end {
            if self.bitmap[(w >> 6) as usize] == 0 {
                // Nothing marked in this 64-word chunk: skip it whole.
                w = (w & !63) + 64;
                continue;
            }
            let chunk_end = end.min((w & !63) + 64);
            for b in w..chunk_end {
                self.remove(b);
            }
            w = chunk_end;
        }
    }

    /// Collects every marked word in ascending order into `out`
    /// (cleared first) — the batch-decode entry the scrub daemon uses
    /// instead of re-walking the map. Zero bitmap chunks cost one test.
    pub fn collect_into(&self, out: &mut Vec<u32>) {
        out.clear();
        for (i, &chunk) in self.bitmap.iter().enumerate() {
            let mut c = chunk;
            while c != 0 {
                out.push((i as u32) * 64 + c.trailing_zeros());
                c &= c - 1;
            }
        }
    }

    /// Test hook: pins the epoch so wraparound behaviour can be pinned
    /// without 2³² mutations.
    #[doc(hidden)]
    pub fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Live state of the fault subsystem inside a running machine.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub(crate) config: FaultConfig,
    pub(crate) injector: LiveInjector,
    /// Regions eligible for strikes, with their word counts as weights.
    pub(crate) eligible: Vec<usize>,
    pub(crate) weights: Vec<u64>,
    /// Whether any strike can ever land (some eligible region has a
    /// positive weight). Precomputed: the weights never change.
    pub(crate) armed: bool,
    /// Route accesses through the reference per-access path (the
    /// differential oracle) instead of the event-gated fast path.
    pub(crate) reference: bool,
    /// Pending flip masks per region.
    pub(crate) marks: Vec<MarkTable>,
    /// DUE traps observed per region word line.
    pub(crate) due_counts: Vec<BTreeMap<u32, u32>>,
    /// Quarantined word lines per region.
    pub(crate) quarantined: Vec<BTreeSet<u32>>,
    /// Cycle of the next scrub pass.
    pub(crate) next_scrub: u64,
    /// Cycle of the next scheduled event (strike arrival or scrub tick):
    /// the fast path's single-comparison gate. Recomputed whenever the
    /// injector advances or a scrub pass is (re)scheduled.
    pub(crate) next_event: u64,
    /// Reused batch-decode buffer for scrub sweeps (avoids a per-pass
    /// allocation on the critical path).
    pub(crate) scrub_scratch: Vec<u32>,
    pub(crate) stats: FaultStats,
}

impl FaultState {
    /// Builds the runtime state for `config` over `region_words` (the
    /// machine's regions in id order, as word counts). Assumes region ids
    /// in the config were validated by the caller.
    pub(crate) fn new(config: FaultConfig, region_words: &[u32]) -> Self {
        let n = region_words.len();
        let eligible: Vec<usize> = match &config.targets {
            Some(t) => t.iter().map(|r| r.index()).collect(),
            None => (0..n).collect(),
        };
        let weights: Vec<u64> = eligible
            .iter()
            .map(|&i| u64::from(region_words[i]))
            .collect();
        let armed = weights.iter().any(|&w| w > 0);
        let injector =
            LiveInjector::new(config.mbu, config.mean_cycles_between_strikes, config.seed);
        let next_scrub = config.scrub_interval.unwrap_or(u64::MAX);
        let reference = config.reference_path;
        let mut state = Self {
            config,
            injector,
            eligible,
            weights,
            armed,
            reference,
            marks: region_words.iter().map(|&w| MarkTable::new(w)).collect(),
            due_counts: vec![BTreeMap::new(); n],
            quarantined: vec![BTreeSet::new(); n],
            next_scrub,
            next_event: 0,
            scrub_scratch: Vec::new(),
            stats: FaultStats::default(),
        };
        state.recompute_next_event();
        state
    }

    /// Re-derives [`next_event`](Self::next_event) from the injector's
    /// next arrival and the scrub schedule.
    pub(crate) fn recompute_next_event(&mut self) {
        let strike = if self.armed {
            self.injector.next_cycle()
        } else {
            u64::MAX
        };
        self.next_event = strike.min(self.next_scrub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_bits_match_the_codecs() {
        assert_eq!(stored_bits(ProtectionScheme::None), 32);
        assert_eq!(stored_bits(ProtectionScheme::Immune), 32);
        assert_eq!(stored_bits(ProtectionScheme::Parity), 33);
        assert_eq!(stored_bits(ProtectionScheme::SecDed), 39);
    }

    #[test]
    fn data_mask_folds_check_bit_positions_into_the_word() {
        assert_eq!(fold_data_mask(0b1), 0b1);
        assert_eq!(fold_data_mask(1 << 35), 1 << 3);
        assert_eq!(fold_data_mask((1 << 38) | (1 << 4)), (1 << 6) | (1 << 4));
        // Every non-empty mask stays non-empty after folding.
        assert_ne!(fold_data_mask(1 << 32), 0);
    }

    #[test]
    fn state_restricts_eligibility_to_targets() {
        let mut cfg = FaultConfig::new(1, 100.0);
        cfg.targets = Some(vec![RegionId::new(2)]);
        let s = FaultState::new(cfg, &[4096, 3072, 512, 512]);
        assert_eq!(s.eligible, vec![2]);
        assert_eq!(s.weights, vec![512]);
        assert!(s.armed);
    }

    #[test]
    fn disabled_scrub_never_schedules() {
        let s = FaultState::new(FaultConfig::new(1, 100.0), &[512]);
        assert_eq!(s.next_scrub, u64::MAX);
        // But strikes do: the event gate is the injector's first arrival.
        assert_eq!(s.next_event, s.injector.next_cycle());
    }

    #[test]
    fn zero_weight_state_is_disarmed_and_eventless_until_scrub() {
        let mut cfg = FaultConfig::new(1, 100.0);
        cfg.targets = Some(vec![]);
        let s = FaultState::new(cfg, &[512]);
        assert!(!s.armed);
        assert_eq!(s.next_event, u64::MAX);

        let mut cfg = FaultConfig::new(1, 100.0);
        cfg.targets = Some(vec![]);
        cfg.scrub_interval = Some(5_000);
        let s = FaultState::new(cfg, &[512]);
        assert!(!s.armed);
        assert_eq!(s.next_event, 5_000);
    }

    #[test]
    fn mark_table_roundtrips_and_accumulates() {
        let mut t = MarkTable::new(130);
        assert!(t.is_empty());
        assert_eq!(t.get(129), None);
        t.or_insert(129, 0b01);
        t.or_insert(129, 0b10);
        t.or_insert(0, 1 << 38);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
        assert!(t.is_marked(129) && t.is_marked(0) && !t.is_marked(64));
        assert_eq!(t.get(129), Some(0b11));
        let mut out = Vec::new();
        t.collect_into(&mut out);
        assert_eq!(out, vec![0, 129]);
        assert_eq!(t.remove(129), Some(0b11));
        assert_eq!(t.remove(129), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn mark_table_clear_range_skips_clean_chunks() {
        let mut t = MarkTable::new(256);
        t.or_insert(3, 1);
        t.or_insert(130, 2);
        t.or_insert(255, 4);
        t.clear_range(0, 131);
        let mut out = Vec::new();
        t.collect_into(&mut out);
        assert_eq!(out, vec![255]);
        // Clearing a clean table (or an empty span) is a no-op.
        let e = t.epoch();
        t.clear_range(0, 0);
        t.clear_range(0, 255);
        assert_eq!(t.get(255), Some(4));
        assert_eq!(t.epoch(), e);
        t.clear_range(255, 1_000_000);
        assert!(t.is_empty());
    }

    #[test]
    fn mark_table_epoch_bumps_only_on_mutation() {
        let mut t = MarkTable::new(64);
        let e0 = t.epoch();
        assert_eq!(t.remove(7), None);
        assert_eq!(t.get(7), None);
        t.clear_range(0, 64);
        assert_eq!(t.epoch(), e0, "misses and no-ops leave the epoch");
        t.or_insert(7, 1);
        assert_ne!(t.epoch(), e0);
        let e1 = t.epoch();
        t.remove(7);
        assert_ne!(t.epoch(), e1);
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn mark_table_rejects_out_of_range_marks() {
        MarkTable::new(8).or_insert(8, 1);
    }
}
