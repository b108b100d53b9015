//! Dynamic/static energy bookkeeping for a simulated memory device.

use crate::Clock;

/// Accumulates the dynamic energy of individual accesses and, at the end of
/// a run, the static (leakage) energy of the device.
///
/// All energies are in picojoules. The simulator owns one account per SPM
/// region; a statistics snapshot is a copy of it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyAccount {
    /// Total dynamic read energy, pJ.
    pub read_pj: f64,
    /// Total dynamic write energy, pJ.
    pub write_pj: f64,
    /// Total static (leakage) energy, pJ.
    pub static_pj: f64,
}

impl EnergyAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one read costing `pj` picojoules.
    pub fn add_read(&mut self, pj: f64) {
        self.read_pj += pj;
    }

    /// Records `n` reads costing `pj` picojoules each.
    pub fn add_reads(&mut self, n: u64, pj: f64) {
        self.read_pj += pj * n as f64;
    }

    /// Records one write costing `pj` picojoules.
    pub fn add_write(&mut self, pj: f64) {
        self.write_pj += pj;
    }

    /// Charges leakage for a run of `cycles` cycles at `leak_mw` milliwatts.
    pub fn charge_static(&mut self, clock: Clock, leak_mw: f64, cycles: u64) {
        self.static_pj += clock.static_energy_pj(leak_mw, cycles);
    }

    /// Total dynamic energy (reads + writes), pJ.
    pub fn dynamic_pj(&self) -> f64 {
        self.read_pj + self.write_pj
    }

    /// Element-wise sum of two accounts.
    pub fn merged(&self, other: &EnergyAccount) -> EnergyAccount {
        EnergyAccount {
            read_pj: self.read_pj + other.read_pj,
            write_pj: self.write_pj + other.write_pj,
            static_pj: self.static_pj + other.static_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_reads_and_writes() {
        let mut a = EnergyAccount::new();
        a.add_read(10.0);
        a.add_reads(2, 10.0);
        a.add_write(50.0);
        assert_eq!(a.read_pj, 30.0);
        assert_eq!(a.write_pj, 50.0);
        assert_eq!(a.dynamic_pj(), 80.0);
        assert_eq!(a.merged(&a).dynamic_pj(), 160.0);
    }

    #[test]
    fn static_energy_is_separate_from_dynamic() {
        let mut a = EnergyAccount::new();
        a.add_read(1.0);
        a.charge_static(Clock::new(1.0e6), 1.0, 1_000_000);
        assert_eq!(a.dynamic_pj(), 1.0);
        assert!((a.static_pj - 1.0e9).abs() < 1.0);
    }
}
