//! Scratchpad regions: specification and runtime state.

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{EnergyAccount, RegionGeometry, TechParams, Technology, WORD_BYTES};

/// Static description of one scratchpad region (a row of the paper's
/// Table IV): its technology, protection code, and capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmRegionSpec {
    name: String,
    technology: Technology,
    scheme: ProtectionScheme,
    geometry: RegionGeometry,
}

impl SpmRegionSpec {
    /// Creates a region spec.
    pub fn new(
        name: impl Into<String>,
        technology: Technology,
        scheme: ProtectionScheme,
        geometry: RegionGeometry,
    ) -> Self {
        Self {
            name: name.into(),
            technology,
            scheme,
            geometry,
        }
    }

    /// Region name (e.g. `"D-SPM STT-RAM"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell technology.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Protection code applied to the region.
    pub fn scheme(&self) -> ProtectionScheme {
        self.scheme
    }

    /// Capacity.
    pub fn geometry(&self) -> RegionGeometry {
        self.geometry
    }

    /// The 40 nm electrical/timing parameters of the region's technology.
    pub fn params(&self) -> TechParams {
        self.technology.params_40nm()
    }
}

/// Runtime state of one scratchpad region: backing storage, per-line
/// write counters (endurance) and energy account.
#[derive(Debug, Clone)]
pub struct SpmRegion {
    spec: SpmRegionSpec,
    params: TechParams,
    /// Per-access dynamic energy, pJ: a pure function of the spec, so it
    /// is computed once here instead of on every access (each access
    /// still adds the same `f64`, in the same order).
    read_pj: f64,
    write_pj: f64,
    storage: Vec<u8>,
    line_writes: Vec<u64>,
    /// The largest entry of `line_writes`, kept as writes land so that a
    /// statistics snapshot does not scan every line.
    max_line_writes: u64,
    /// Every write the region absorbed, DMA fills included (the sum of
    /// `line_writes`).
    writes: u64,
    energy: EnergyAccount,
}

impl SpmRegion {
    /// Instantiates the runtime state for a spec.
    pub fn new(spec: SpmRegionSpec) -> Self {
        let bytes = spec.geometry().bytes() as usize;
        let params = spec.params();
        Self {
            read_pj: params.read_energy_pj(spec.geometry()),
            write_pj: params.write_energy_pj(spec.geometry()),
            spec,
            params,
            storage: vec![0; bytes],
            line_writes: vec![0; bytes / WORD_BYTES as usize],
            max_line_writes: 0,
            writes: 0,
            energy: EnergyAccount::new(),
        }
    }

    /// The region's static description.
    pub fn spec(&self) -> &SpmRegionSpec {
        &self.spec
    }

    /// Reads one word; returns the cycle cost.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of range (the machine
    /// validates block bounds before calling).
    pub fn read_word(&mut self, offset: u32) -> (u32, u32) {
        let i = offset as usize;
        let value = u32::from_le_bytes(self.storage[i..i + 4].try_into().expect("aligned word"));
        self.energy.add_read(self.read_pj);
        (value, self.params.read_latency)
    }

    /// Charges `count` reads at `offset` without returning values (used
    /// for instruction fetches, which only need timing and energy);
    /// returns the cycle cost.
    pub fn read_batch(&mut self, offset: u32, count: u32) -> u32 {
        debug_assert!((offset as usize) < self.storage.len());
        self.energy.add_reads(u64::from(count), self.read_pj);
        self.params.read_latency * count
    }

    /// Writes one word; returns the cycle cost and bumps the line's wear
    /// counter.
    #[inline]
    pub fn write_word(&mut self, offset: u32, value: u32) -> u32 {
        let i = offset as usize;
        self.storage[i..i + 4].copy_from_slice(&value.to_le_bytes());
        let line = &mut self.line_writes[i / WORD_BYTES as usize];
        *line += 1;
        self.max_line_writes = self.max_line_writes.max(*line);
        self.writes += 1;
        self.energy.add_write(self.write_pj);
        self.params.write_latency
    }

    /// XORs `mask` into the stored word at `offset` without touching
    /// timing, energy, or wear counters — the physical effect of a
    /// silent-data-corruption strike.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of range.
    pub fn corrupt_word(&mut self, offset: u32, mask: u32) {
        assert_eq!(offset % 4, 0, "strikes hit word lines");
        let i = offset as usize;
        let v = u32::from_le_bytes(self.storage[i..i + 4].try_into().expect("word"));
        self.storage[i..i + 4].copy_from_slice(&(v ^ mask).to_le_bytes());
    }

    /// Energy account (mutable access is reserved for the machine, which
    /// charges leakage at the end of a run).
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    pub(crate) fn energy_mut(&mut self) -> &mut EnergyAccount {
        &mut self.energy
    }

    /// Leakage power of this region in milliwatts.
    pub fn leakage_mw(&self) -> f64 {
        self.params.leakage_mw(self.spec.geometry())
    }

    /// The most writes any single word line has absorbed (the endurance-
    /// critical quantity: Table III / Fig. 8 derive lifetime from it).
    pub fn max_line_writes(&self) -> u64 {
        self.max_line_writes
    }

    /// Total writes across all lines: every write lands on exactly one
    /// line, so this is the region's write count.
    pub fn total_writes(&self) -> u64 {
        self.writes
    }

    /// Per-line write counters (one per 32-bit word).
    pub fn line_writes(&self) -> &[u64] {
        &self.line_writes
    }

    /// Raw storage snapshot (used by fault injection to build memory
    /// images).
    pub fn storage(&self) -> &[u8] {
        &self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(kib: u64, tech: Technology, scheme: ProtectionScheme) -> SpmRegion {
        SpmRegion::new(SpmRegionSpec::new(
            "r",
            tech,
            scheme,
            RegionGeometry::from_kib(kib),
        ))
    }

    #[test]
    fn storage_roundtrip() {
        let mut r = region(2, Technology::SramParity, ProtectionScheme::Parity);
        assert_eq!(r.write_word(8, 0xDEAD_BEEF), 1);
        let (v, cycles) = r.read_word(8);
        assert_eq!(v, 0xDEAD_BEEF);
        assert_eq!(cycles, 1);
    }

    #[test]
    fn stt_write_latency_is_ten_cycles() {
        let mut r = region(2, Technology::SttRam, ProtectionScheme::Immune);
        assert_eq!(r.write_word(0, 1), 10);
        assert_eq!(r.read_word(0).1, 1);
    }

    #[test]
    fn secded_access_is_two_cycles() {
        let mut r = region(2, Technology::SramSecDed, ProtectionScheme::SecDed);
        assert_eq!(r.write_word(0, 1), 2);
        assert_eq!(r.read_word(0).1, 2);
    }

    #[test]
    fn line_wear_tracks_hot_words() {
        let mut r = region(2, Technology::SttRam, ProtectionScheme::Immune);
        for _ in 0..5 {
            r.write_word(4, 0);
        }
        r.write_word(8, 0);
        assert_eq!(r.max_line_writes(), 5);
        assert_eq!(r.total_writes(), 6);
        assert_eq!(r.line_writes()[1], 5);
    }

    #[test]
    fn wear_summaries_agree_with_the_line_counters() {
        let mut r = region(2, Technology::SttRam, ProtectionScheme::Immune);
        assert_eq!((r.max_line_writes(), r.total_writes()), (0, 0));
        let mut x = 7u32;
        for _ in 0..500 {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            r.write_word((x >> 8) % 64 * 4, x);
            let lines = r.line_writes();
            assert_eq!(r.max_line_writes(), lines.iter().copied().max().unwrap());
            assert_eq!(r.total_writes(), lines.iter().sum::<u64>());
        }
    }

    #[test]
    fn stats_and_energy_accumulate() {
        let mut r = region(2, Technology::SramSecDed, ProtectionScheme::SecDed);
        r.write_word(0, 7);
        r.read_word(0);
        assert_eq!(r.read_batch(0, 2), 4);
        assert_eq!(r.total_writes(), 1);
        let (read_pj, write_pj) = (r.read_pj, r.write_pj);
        assert!(read_pj > 0.0 && write_pj > 0.0);
        let e = r.energy();
        assert_eq!((e.read_pj, e.write_pj), (read_pj + 2.0 * read_pj, write_pj));
        assert_eq!(e.dynamic_pj(), e.read_pj + write_pj);
    }
}
