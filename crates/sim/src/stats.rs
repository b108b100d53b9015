//! Statistics snapshots.

use ftspm_mem::EnergyAccount;

use crate::fault::FaultStats;

/// Raw access counters of one off-chip device: an L1 cache counts hits,
/// misses and writebacks, the DRAM counts the words it reads and writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Word reads served (DRAM only).
    pub reads: u64,
    /// Word writes served (DRAM only).
    pub writes: u64,
    /// Cache hits (caches only).
    pub hits: u64,
    /// Cache misses (caches only).
    pub misses: u64,
    /// Dirty-line writebacks (caches only).
    pub writebacks: u64,
}

/// Per-SPM-region statistics as exposed in [`MachineStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegionStats {
    /// Region name (from its spec).
    pub name: String,
    /// Program (non-DMA) reads.
    pub program_reads: u64,
    /// Program (non-DMA) writes.
    pub program_writes: u64,
    /// Peak per-line write count (endurance-critical).
    pub max_line_writes: u64,
    /// Dynamic-placement evictions served by this region.
    pub dyn_evictions: u64,
    /// Total writes across lines, DMA fills included.
    pub total_writes: u64,
    /// Region energy.
    pub energy: EnergyAccount,
    /// Region leakage power, mW.
    pub leakage_mw: f64,
}

/// Full statistics snapshot of a finished (or running) machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineStats {
    /// Total elapsed cycles.
    pub cycles: u64,
    /// Instructions executed (fetches issued).
    pub instructions: u64,
    /// Per-region statistics, in region-id order.
    pub regions: Vec<RegionStats>,
    /// L1 instruction cache counters. On a multi-core machine this is the
    /// active core's cache; [`crate::MultiMachine::core_caches`] gives
    /// each core's.
    pub icache: DeviceStats,
    /// L1 data cache counters. On a multi-core machine this is the active
    /// core's cache; [`crate::MultiMachine::core_caches`] gives each
    /// core's.
    pub dcache: DeviceStats,
    /// Off-chip DRAM counters.
    pub dram: DeviceStats,
    /// Live fault-injection and recovery counters (`None` when the run
    /// had no fault configuration).
    pub faults: Option<FaultStats>,
}

impl MachineStats {
    /// Summed energy of all SPM regions (the quantity Figs. 6–7 compare).
    pub fn spm_energy(&self) -> EnergyAccount {
        self.regions
            .iter()
            .fold(EnergyAccount::default(), |acc, r| acc.merged(&r.energy))
    }

    /// Summed SPM leakage power, mW.
    pub fn spm_leakage_mw(&self) -> f64 {
        self.regions.iter().map(|r| r.leakage_mw).sum()
    }

    /// Program (non-DMA) reads+writes served by SPM regions.
    pub fn spm_program_accesses(&self) -> u64 {
        self.regions
            .iter()
            .map(|r| r.program_reads + r.program_writes)
            .sum()
    }
}
