//! Set-associative write-back L1 cache model.
//!
//! The caches serve blocks the mapping left off-chip (the paper's Table IV
//! gives both baselines and FTSPM an 8 KiB unprotected-SRAM L1 I-cache and
//! D-cache). The model tracks real tags with LRU replacement and
//! write-back/write-allocate semantics; data values are kept coherent in
//! the DRAM home copy, so the cache only accounts timing and hit/miss
//! counts.
//!
//! Every line additionally carries a MESI [`CoherenceState`]. A
//! single-core machine never issues snoops, and the state machine
//! degenerates exactly to the old `valid`/`dirty` pair (Modified ⇔
//! valid + dirty, Exclusive ⇔ valid + clean), so single-core runs are
//! byte-identical to the pre-MESI model. A multi-core
//! [`crate::MultiMachine`] keeps the private L1s coherent by calling the
//! snoop entry points ([`Cache::snoop_read`], [`Cache::snoop_invalidate`])
//! on every other core's cache before an off-chip access is served.

use crate::stats::DeviceStats;

/// Cache geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Hit latency in cycles.
    pub hit_cycles: u32,
}

impl Default for CacheConfig {
    /// The paper's L1 configuration: 8 KiB, and typical embedded
    /// parameters for the rest (32-byte lines, 4-way, 1-cycle hits).
    fn default() -> Self {
        Self {
            capacity_bytes: 8 * 1024,
            line_bytes: 32,
            ways: 4,
            hit_cycles: 1,
        }
    }
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.capacity_bytes / (self.line_bytes * self.ways)
    }

    /// Words per line.
    pub fn line_words(&self) -> u32 {
        self.line_bytes / 4
    }
}

/// MESI coherence state of one cache line.
///
/// `Invalid` doubles as "not present"; `Modified` doubles as the old
/// `dirty` flag (it is the only state that writes back on eviction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoherenceState {
    /// The only copy, locally written; must write back on eviction.
    Modified,
    /// The only copy, clean.
    Exclusive,
    /// A clean copy that other caches may also hold.
    Shared,
    /// No copy.
    #[default]
    Invalid,
}

/// What a snoop did to a remote cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct SnoopResult {
    /// The remote cache held a valid copy of the line.
    pub had_copy: bool,
    /// Words the remote cache flushed to DRAM (its copy was Modified).
    pub writeback_words: u32,
    /// The snoop invalidated the remote copy.
    pub invalidated: bool,
    /// The snoop downgraded a Modified/Exclusive copy to Shared.
    pub downgraded: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    state: CoherenceState,
    tag: u32,
    lru: u64,
}

impl Line {
    fn valid(&self) -> bool {
        self.state != CoherenceState::Invalid
    }

    fn dirty(&self) -> bool {
        self.state == CoherenceState::Modified
    }
}

/// What one cache access did, as reported to the machine for timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheAccess {
    /// Whether the access hit.
    pub hit: bool,
    /// Words to fetch from DRAM on a miss (one line), 0 on a hit.
    pub fill_words: u32,
    /// Words to write back to DRAM first (dirty eviction), 0 otherwise.
    pub writeback_words: u32,
}

/// A set-associative, write-back, write-allocate cache (tags only).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>, // sets * ways
    tick: u64,
    stats: DeviceStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways, non-power-of-
    /// two sets or line size).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "cache must have sets and ways");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size power of two"
        );
        Self {
            config,
            lines: vec![Line::default(); (sets * config.ways) as usize],
            tick: 0,
            stats: DeviceStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Splits a byte address into `(set base index, tag)`.
    fn locate(&self, addr: u32) -> (usize, u32) {
        let line_addr = addr / self.config.line_bytes;
        let set = line_addr & (self.config.sets() - 1);
        let tag = line_addr / self.config.sets();
        ((set * self.config.ways) as usize, tag)
    }

    /// Performs one access at byte address `addr` (single-core entry: a
    /// miss fills Exclusive, exactly the old valid+clean encoding).
    #[cfg(test)]
    pub(crate) fn access(&mut self, addr: u32, is_write: bool) -> CacheAccess {
        self.access_with_hint(addr, is_write, false)
    }

    /// Performs one access; `shared_hint` marks whether another core's
    /// cache still holds a copy of the line (a read miss then fills
    /// Shared instead of Exclusive). Timing and counts are identical for
    /// either hint value.
    pub(crate) fn access_with_hint(
        &mut self,
        addr: u32,
        is_write: bool,
        shared_hint: bool,
    ) -> CacheAccess {
        self.tick += 1;
        let (base, tag) = self.locate(addr);
        let ways = &mut self.lines[base..base + self.config.ways as usize];

        // Hit?
        if let Some(line) = ways.iter_mut().find(|l| l.valid() && l.tag == tag) {
            line.lru = self.tick;
            if is_write {
                // S/E → M upgrade; the machine has already invalidated
                // remote sharers before delegating the write here.
                line.state = CoherenceState::Modified;
            }
            self.stats.hits += 1;
            return CacheAccess {
                hit: true,
                fill_words: 0,
                writeback_words: 0,
            };
        }

        // Miss: evict LRU way.
        self.stats.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru } else { 0 })
            .expect("at least one way");
        let writeback_words = if victim.dirty() {
            self.stats.writebacks += 1;
            self.config.line_words()
        } else {
            0
        };
        let state = if is_write {
            CoherenceState::Modified
        } else if shared_hint {
            CoherenceState::Shared
        } else {
            CoherenceState::Exclusive
        };
        *victim = Line {
            state,
            tag,
            lru: self.tick,
        };
        CacheAccess {
            hit: false,
            fill_words: self.config.line_words(),
            writeback_words,
        }
    }

    /// Bus-side probe: the coherence state of the line holding `addr`.
    /// Does not touch LRU or stats.
    pub fn probe_state(&self, addr: u32) -> CoherenceState {
        let (base, tag) = self.locate(addr);
        self.lines[base..base + self.config.ways as usize]
            .iter()
            .find(|l| l.valid() && l.tag == tag)
            .map_or(CoherenceState::Invalid, |l| l.state)
    }

    /// Remote read snoop: another core wants a clean copy of the line
    /// holding `addr`. A Modified copy flushes (caller charges the DRAM
    /// write) and every valid copy downgrades to Shared. Bus-side: no
    /// LRU/stat perturbation.
    pub(crate) fn snoop_read(&mut self, addr: u32) -> SnoopResult {
        let (base, tag) = self.locate(addr);
        let Some(line) = self.lines[base..base + self.config.ways as usize]
            .iter_mut()
            .find(|l| l.valid() && l.tag == tag)
        else {
            return SnoopResult::default();
        };
        let mut r = SnoopResult {
            had_copy: true,
            ..SnoopResult::default()
        };
        if line.dirty() {
            r.writeback_words = self.config.line_words();
        }
        if matches!(
            line.state,
            CoherenceState::Modified | CoherenceState::Exclusive
        ) {
            r.downgraded = true;
        }
        line.state = CoherenceState::Shared;
        r
    }

    /// Remote write snoop: another core wants exclusive ownership of the
    /// line holding `addr`. A Modified copy flushes (caller charges the
    /// DRAM write); every valid copy invalidates. Bus-side: no
    /// LRU/stat perturbation.
    pub(crate) fn snoop_invalidate(&mut self, addr: u32) -> SnoopResult {
        let (base, tag) = self.locate(addr);
        let Some(line) = self.lines[base..base + self.config.ways as usize]
            .iter_mut()
            .find(|l| l.valid() && l.tag == tag)
        else {
            return SnoopResult::default();
        };
        let mut r = SnoopResult {
            had_copy: true,
            invalidated: true,
            ..SnoopResult::default()
        };
        if line.dirty() {
            r.writeback_words = self.config.line_words();
        }
        line.state = CoherenceState::Invalid;
        r
    }

    /// Every valid line as `(line byte address, state)`, ascending by
    /// address — the litmus suite sweeps this for the SWMR invariant.
    pub fn valid_lines(&self) -> Vec<(u32, CoherenceState)> {
        let sets = self.config.sets();
        let mut out: Vec<(u32, CoherenceState)> = self
            .lines
            .chunks(self.config.ways as usize)
            .enumerate()
            .flat_map(|(set, ways)| {
                ways.iter().filter(|l| l.valid()).map(move |l| {
                    let line_addr = l.tag * sets + set as u32;
                    (line_addr * self.config.line_bytes, l.state)
                })
            })
            .collect();
        out.sort_unstable_by_key(|&(a, _)| a);
        out
    }

    /// Hit latency in cycles.
    pub fn hit_cycles(&self) -> u32 {
        self.config.hit_cycles
    }

    /// Hit, miss and writeback counts.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_misses_then_hits() {
        let mut c = Cache::new(CacheConfig::default());
        let a = c.access(0x1000, false);
        assert!(!a.hit);
        assert_eq!(a.fill_words, 8);
        let b = c.access(0x1004, false);
        assert!(b.hit, "same line must hit");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = CacheConfig {
            capacity_bytes: 128,
            line_bytes: 32,
            ways: 1,
            hit_cycles: 1,
        }; // 4 sets, direct-mapped: addresses 128 apart collide
        let mut c = Cache::new(cfg);
        c.access(0, true); // miss, dirty
        let ev = c.access(128, false); // same set, evicts dirty line
        assert!(!ev.hit);
        assert_eq!(ev.writeback_words, 8);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn lru_keeps_recently_used() {
        let cfg = CacheConfig {
            capacity_bytes: 64,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
        }; // 1 set, 2 ways
        let mut c = Cache::new(cfg);
        c.access(0, false); // A
        c.access(32, false); // B
        c.access(0, false); // touch A -> B is LRU
        c.access(64, false); // C evicts B
        assert!(c.access(0, false).hit, "A must still be cached");
        assert!(!c.access(32, false).hit, "B must have been evicted");
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let cfg = CacheConfig {
            capacity_bytes: 32,
            line_bytes: 32,
            ways: 1,
            hit_cycles: 1,
        };
        let mut c = Cache::new(cfg);
        c.access(0, false);
        let ev = c.access(64, false);
        assert_eq!(ev.writeback_words, 0);
    }

    #[test]
    fn mesi_states_track_the_old_valid_dirty_pair() {
        let mut c = Cache::new(CacheConfig::default());
        c.access(0x100, false);
        assert_eq!(c.probe_state(0x100), CoherenceState::Exclusive);
        c.access(0x100, true);
        assert_eq!(c.probe_state(0x100), CoherenceState::Modified);
        c.access(0x200, true);
        assert_eq!(c.probe_state(0x200), CoherenceState::Modified);
        assert_eq!(c.probe_state(0x300), CoherenceState::Invalid);
    }

    #[test]
    fn shared_hint_fills_shared() {
        let mut c = Cache::new(CacheConfig::default());
        c.access_with_hint(0x40, false, true);
        assert_eq!(c.probe_state(0x40), CoherenceState::Shared);
        // A write upgrades the shared copy to Modified.
        c.access_with_hint(0x40, true, true);
        assert_eq!(c.probe_state(0x40), CoherenceState::Modified);
    }

    #[test]
    fn snoop_read_downgrades_and_flushes_modified() {
        let mut c = Cache::new(CacheConfig::default());
        c.access(0x80, true); // Modified
        let r = c.snoop_read(0x80);
        assert!(r.had_copy && r.downgraded);
        assert_eq!(r.writeback_words, 8);
        assert_eq!(c.probe_state(0x80), CoherenceState::Shared);
        // A shared line then evicts clean.
        let stats_before = c.stats().writebacks;
        let mut c2 = c.clone();
        let _ = c2.snoop_invalidate(0x80);
        assert_eq!(c2.probe_state(0x80), CoherenceState::Invalid);
        assert_eq!(c.stats().writebacks, stats_before, "snoops do not count");
    }

    #[test]
    fn snoop_invalidate_removes_every_copy() {
        let mut c = Cache::new(CacheConfig::default());
        c.access(0x80, false); // Exclusive
        let r = c.snoop_invalidate(0x80);
        assert!(r.had_copy && r.invalidated);
        assert_eq!(r.writeback_words, 0, "clean copies flush nothing");
        assert_eq!(c.probe_state(0x80), CoherenceState::Invalid);
        assert!(!c.snoop_invalidate(0x80).had_copy);
    }

    #[test]
    fn valid_lines_reconstructs_addresses() {
        let mut c = Cache::new(CacheConfig::default());
        c.access(0x1000, false);
        c.access(0x2020, true);
        let lines = c.valid_lines();
        assert_eq!(
            lines,
            vec![
                (0x1000, CoherenceState::Exclusive),
                (0x2020, CoherenceState::Modified),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn degenerate_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 96,
            line_bytes: 32,
            ways: 1,
            hit_cycles: 1,
        });
    }
}
