//! Closed-form scenario cost estimators used by the MDA threshold loops.
//!
//! Algorithm 1 "calculates the performance overhead of the current
//! mapping scenario" inside its eviction loops (lines 13–22). A compiler-
//! side tool cannot re-simulate the application on every iteration, so —
//! like the paper's tool — it estimates a scenario from the profile
//! counts and the Table IV access parameters:
//!
//! * the *ideal* mapping puts every data block in 1-cycle parity SRAM
//!   (the paper: "from the performance and dynamic energy points of view,
//!   all the program blocks are better to be mapped to the
//!   parity-protected SRAM region");
//! * a block kept in STT-RAM costs `reads·1 + writes·10` cycles and the
//!   STT per-access energies;
//! * a block evicted from STT-RAM is estimated at parity-SRAM cost (its
//!   eventual home, ECC or parity SRAM, is decided later in step 6).
//!
//! The simulator then validates the estimate end-to-end.

use ftspm_profile::BlockProfile;
use ftspm_sim::SpmRegionSpec;

/// Estimated cycles and dynamic energy of one block under one region.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockCost {
    /// Estimated access cycles.
    pub cycles: f64,
    /// Estimated dynamic energy, pJ.
    pub energy_pj: f64,
}

impl BlockCost {
    /// Element-wise sum.
    pub fn plus(self, other: BlockCost) -> BlockCost {
        BlockCost {
            cycles: self.cycles + other.cycles,
            energy_pj: self.energy_pj + other.energy_pj,
        }
    }
}

/// Cost of serving `row`'s profiled accesses from a region with `spec`'s
/// technology.
pub fn block_cost(row: &BlockProfile, spec: &SpmRegionSpec) -> BlockCost {
    let p = spec.params();
    let g = spec.geometry();
    BlockCost {
        cycles: row.reads as f64 * f64::from(p.read_latency)
            + row.writes as f64 * f64::from(p.write_latency),
        energy_pj: row.reads as f64 * p.read_energy_pj(g)
            + row.writes as f64 * p.write_energy_pj(g),
    }
}

/// The idealised cost of `row`: every access at 1 cycle and parity-SRAM
/// energy.
pub fn ideal_cost(row: &BlockProfile, parity_like: &SpmRegionSpec) -> BlockCost {
    let p = parity_like.params();
    let g = parity_like.geometry();
    BlockCost {
        cycles: (row.reads + row.writes) as f64,
        energy_pj: row.reads as f64 * p.read_energy_pj(g)
            + row.writes as f64 * p.write_energy_pj(g),
    }
}

/// A whole-scenario estimate over a set of data blocks split into
/// STT-resident and evicted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScenarioEstimate {
    /// Estimated scenario cost.
    pub scenario: BlockCost,
    /// Ideal cost of the same blocks.
    pub ideal: BlockCost,
}

impl ScenarioEstimate {
    /// Fractional performance overhead over ideal (0 if no accesses).
    pub fn perf_overhead(&self) -> f64 {
        if self.ideal.cycles == 0.0 {
            0.0
        } else {
            (self.scenario.cycles - self.ideal.cycles) / self.ideal.cycles
        }
    }

    /// Fractional dynamic-energy overhead over ideal (0 if no accesses).
    pub fn energy_overhead(&self) -> f64 {
        if self.ideal.energy_pj == 0.0 {
            0.0
        } else {
            (self.scenario.energy_pj - self.ideal.energy_pj) / self.ideal.energy_pj
        }
    }
}

/// Estimates a scenario: `stt_rows` stay in `stt_spec`, `evicted_rows`
/// are costed at `parity_spec` (their optimistic SRAM home).
pub fn estimate_scenario<'a>(
    stt_rows: impl IntoIterator<Item = &'a BlockProfile>,
    evicted_rows: impl IntoIterator<Item = &'a BlockProfile>,
    stt_spec: &SpmRegionSpec,
    parity_spec: &SpmRegionSpec,
) -> ScenarioEstimate {
    let mut est = ScenarioEstimate::default();
    for row in stt_rows {
        est.scenario = est.scenario.plus(block_cost(row, stt_spec));
        est.ideal = est.ideal.plus(ideal_cost(row, parity_spec));
    }
    for row in evicted_rows {
        est.scenario = est.scenario.plus(block_cost(row, parity_spec));
        est.ideal = est.ideal.plus(ideal_cost(row, parity_spec));
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_ecc::ProtectionScheme;
    use ftspm_mem::{RegionGeometry, Technology};
    use ftspm_sim::{BlockId, BlockKind};

    fn row(reads: u64, writes: u64) -> BlockProfile {
        BlockProfile {
            block: BlockId::new(0),
            name: "b".into(),
            kind: BlockKind::Data,
            size_bytes: 64,
            reads,
            writes,
            references: 1,
            stack_calls: 0,
            max_stack_bytes: 0,
            lifetime_cycles: 100,
            first_access: 0,
        }
    }

    fn stt() -> SpmRegionSpec {
        SpmRegionSpec::new(
            "stt",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(12),
        )
    }

    fn parity() -> SpmRegionSpec {
        SpmRegionSpec::new(
            "par",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_kib(2),
        )
    }

    #[test]
    fn stt_writes_dominate_cycles() {
        let r = row(100, 100);
        let c = block_cost(&r, &stt());
        assert_eq!(c.cycles, 100.0 + 1000.0);
        let i = ideal_cost(&r, &parity());
        assert_eq!(i.cycles, 200.0);
    }

    #[test]
    fn read_only_block_in_stt_has_no_perf_overhead() {
        let r = row(1000, 0);
        let rows = [r];
        let est = estimate_scenario(rows.iter(), [].iter(), &stt(), &parity());
        assert_eq!(est.perf_overhead(), 0.0);
        // …and *saves* energy (STT reads are cheaper than parity reads).
        assert!(est.energy_overhead() < 0.0);
    }

    #[test]
    fn evicting_write_heavy_block_removes_overhead() {
        let hot = row(0, 1000);
        let kept = [hot.clone()];
        let with_hot = estimate_scenario(kept.iter(), [].iter(), &stt(), &parity());
        let evicted = [hot];
        let without = estimate_scenario([].iter(), evicted.iter(), &stt(), &parity());
        assert!(with_hot.perf_overhead() > 5.0, "10x write latency");
        assert_eq!(without.perf_overhead(), 0.0);
        assert!(with_hot.energy_overhead() > without.energy_overhead());
    }

    #[test]
    fn empty_scenario_is_zero_overhead() {
        let est = estimate_scenario([].iter(), [].iter(), &stt(), &parity());
        assert_eq!(est.perf_overhead(), 0.0);
        assert_eq!(est.energy_overhead(), 0.0);
    }
}
