//! Off-chip DRAM model.

use crate::stats::DeviceStats;
use crate::{BlockId, Program};

/// Timing parameters of the off-chip memory.
///
/// A simple burst model: the first word of a transfer pays the full
/// access latency, each further sequential word one bus cycle. Values are
/// typical for a 400 MHz embedded SoC with LP-SDRAM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Latency of the first word of a transfer, in cycles.
    pub first_word_cycles: u32,
    /// Latency of each subsequent word of a burst, in cycles.
    pub per_word_cycles: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            first_word_cycles: 25,
            per_word_cycles: 2,
        }
    }
}

/// Off-chip memory: home storage for every program block.
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    storage: Vec<Vec<u8>>,
    stats: DeviceStats,
}

impl Dram {
    /// Allocates home storage (zero-initialised) for every block of
    /// `program`.
    pub fn new(config: DramConfig, program: &Program) -> Self {
        Self {
            config,
            storage: program
                .blocks()
                .iter()
                .map(|b| vec![0; b.size_bytes() as usize])
                .collect(),
            stats: DeviceStats::default(),
        }
    }

    /// The configured timing parameters.
    pub fn config(&self) -> DramConfig {
        self.config
    }

    /// Cycle cost of an aligned burst of `words` words.
    pub fn burst_cycles(&self, words: u32) -> u32 {
        if words == 0 {
            return 0;
        }
        self.config.first_word_cycles + (words - 1) * self.config.per_word_cycles
    }

    /// Reads a burst of `words` words starting at `offset`, charging burst
    /// timing; the values are appended to `out`.
    pub fn read_burst(
        &mut self,
        block: BlockId,
        offset: u32,
        words: u32,
        out: &mut Vec<u32>,
    ) -> u32 {
        for i in 0..words {
            out.push(self.peek_word(block, offset + i * 4));
        }
        self.charge_burst_read(words)
    }

    /// Writes a burst of words starting at `offset`.
    pub fn write_burst(&mut self, block: BlockId, offset: u32, values: &[u32]) -> u32 {
        for (i, v) in values.iter().enumerate() {
            self.poke_word(block, offset + (i as u32) * 4, *v);
        }
        self.charge_burst_write(values.len() as u32)
    }

    /// Charges the timing and read count of a burst read of `words` words
    /// without moving data (cache line fills keep values coherent in the
    /// home copy, so only the cost matters); returns the cycle cost.
    pub fn charge_burst_read(&mut self, words: u32) -> u32 {
        self.stats.reads += u64::from(words);
        self.burst_cycles(words)
    }

    /// Charges a burst write of `words` words without moving data; returns
    /// the cycle cost.
    pub fn charge_burst_write(&mut self, words: u32) -> u32 {
        self.stats.writes += u64::from(words);
        self.burst_cycles(words)
    }

    /// Value access without timing or counts (used by the machine to keep
    /// cacheable data coherent and by tests to inspect memory).
    pub fn peek_word(&self, block: BlockId, offset: u32) -> u32 {
        let s = &self.storage[block.index()];
        let i = offset as usize;
        u32::from_le_bytes(s[i..i + 4].try_into().expect("aligned word"))
    }

    /// Value mutation without timing or counts (initialising input data).
    pub fn poke_word(&mut self, block: BlockId, offset: u32, value: u32) {
        let s = &mut self.storage[block.index()];
        let i = offset as usize;
        s[i..i + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Word read and write counts.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program() -> Program {
        let mut b = Program::builder("p");
        b.data("A", 64);
        b.data("B", 64);
        b.build()
    }

    #[test]
    fn words_roundtrip_per_block() {
        let p = program();
        let mut d = Dram::new(DramConfig::default(), &p);
        d.poke_word(BlockId(0), 0, 11);
        d.poke_word(BlockId(1), 0, 22);
        assert_eq!(d.peek_word(BlockId(0), 0), 11);
        assert_eq!(d.peek_word(BlockId(1), 0), 22);
    }

    #[test]
    fn burst_timing() {
        let p = program();
        let d = Dram::new(DramConfig::default(), &p);
        assert_eq!(d.burst_cycles(0), 0);
        assert_eq!(d.burst_cycles(1), 25);
        assert_eq!(d.burst_cycles(8), 25 + 7 * 2);
    }

    #[test]
    fn bursts_move_data_and_count_words() {
        let p = program();
        let mut d = Dram::new(DramConfig::default(), &p);
        d.write_burst(BlockId(0), 0, &[1, 2, 3, 4]);
        let mut out = Vec::new();
        let cycles = d.read_burst(BlockId(0), 0, 4, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(cycles, 25 + 3 * 2);
        assert_eq!(d.charge_burst_read(8), 25 + 7 * 2);
        let s = d.stats();
        assert_eq!((s.reads, s.writes), (4 + 8, 4));
    }

    #[test]
    fn peek_poke_do_not_touch_stats() {
        let p = program();
        let mut d = Dram::new(DramConfig::default(), &p);
        d.poke_word(BlockId(0), 8, 99);
        assert_eq!(d.peek_word(BlockId(0), 8), 99);
        assert_eq!(d.stats().reads, 0);
        assert_eq!(d.stats().writes, 0);
    }
}
