//! The Mapping Determiner Algorithm (the paper's Algorithm 1).
//!
//! MDA is the off-line phase of FTSPM: given the profiling information it
//! decides, for every program block, which region of the hybrid SPM the
//! block will live in. Its six steps (paper §III):
//!
//! 1. map code blocks to the instruction SPM and data blocks to the
//!    STT-RAM region of the data SPM, capacity permitting;
//! 2. sort the STT-resident data blocks by *susceptibility*
//!    (references × lifetime);
//! 3. while the estimated performance overhead exceeds its threshold,
//!    evict the least susceptible block from STT-RAM;
//! 4. likewise for the dynamic-energy overhead;
//! 5. evict every block whose write count exceeds the STT-RAM write
//!    threshold, regardless of susceptibility;
//! 6. place the evicted blocks into SEC-DED SRAM (susceptibility at or
//!    above the evicted average) or parity SRAM (below average), capacity
//!    permitting; anything that does not fit stays off-chip behind the
//!    L1 caches.
//!
//! Every decision carries its provenance ([`DecisionReason`]), which is
//! what the paper's Table II reports.

use ftspm_profile::Profile;
use ftspm_sim::{BlockId, PlacementMap, Program, SimError};

use crate::estimate::estimate_scenario;
use crate::{MdaThresholds, RegionRole, SpmStructure};

/// Where MDA decided a block should live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapDecision {
    /// The instruction SPM.
    Instruction,
    /// The STT-RAM region of the data SPM.
    DataStt,
    /// The SEC-DED SRAM region of the data SPM.
    DataEcc,
    /// The parity SRAM region of the data SPM.
    DataParity,
    /// Time-multiplexes the STT-RAM region's spare space with other
    /// dynamic blocks (the paper's §II *dynamic approach*, applied to
    /// blocks the static mapping had to spill off-chip).
    DataSttDynamic,
    /// Not mapped: served through the L1 caches from off-chip memory.
    OffChip,
}

impl MapDecision {
    /// The region role this decision maps to, if any.
    pub fn role(self) -> Option<RegionRole> {
        match self {
            MapDecision::Instruction => Some(RegionRole::Instruction),
            MapDecision::DataStt => Some(RegionRole::DataStt),
            MapDecision::DataEcc => Some(RegionRole::DataEcc),
            MapDecision::DataParity => Some(RegionRole::DataParity),
            MapDecision::DataSttDynamic => Some(RegionRole::DataStt),
            MapDecision::OffChip => None,
        }
    }

    /// Short label matching the paper's Table II nomenclature.
    pub fn label(self) -> &'static str {
        match self {
            MapDecision::Instruction => "STT-RAM (I-SPM)",
            MapDecision::DataStt => "STT-RAM",
            MapDecision::DataEcc => "SRAM (ECC)",
            MapDecision::DataParity => "SRAM (Parity)",
            MapDecision::DataSttDynamic => "STT-RAM (dynamic)",
            MapDecision::OffChip => "No",
        }
    }
}

/// Why a block ended up where it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionReason {
    /// Placed in step 1 and never evicted.
    MappedInitially,
    /// Did not fit the target region's remaining capacity in step 1.
    TooLarge,
    /// Evicted from STT-RAM by the performance loop (step 3).
    EvictedPerformance,
    /// Evicted from STT-RAM by the energy loop (step 4).
    EvictedEnergy,
    /// Evicted from STT-RAM by the write-endurance check (step 5).
    EvictedEndurance,
    /// Step 6: susceptibility at or above the evicted average → ECC SRAM.
    HighSusceptibility,
    /// Step 6: susceptibility below the evicted average → parity SRAM.
    LowSusceptibility,
    /// Step 6: no SRAM region had space left.
    NoSpaceLeft,
    /// Promoted from off-chip to dynamic STT-RAM multiplexing.
    PromotedDynamic,
}

/// MDA's verdict for one block (a row of the paper's Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDecision {
    /// The block.
    pub block: BlockId,
    /// Block name.
    pub name: String,
    /// Final destination.
    pub decision: MapDecision,
    /// Why the block landed there.
    pub reason: DecisionReason,
    /// If the block was evicted from STT-RAM, the step that evicted it.
    pub evicted_by: Option<DecisionReason>,
    /// The block's susceptibility (references × lifetime).
    pub susceptibility: f64,
}

/// The complete MDA output.
#[derive(Debug, Clone, PartialEq)]
pub struct MdaOutput {
    /// Per-block decisions, in block-id order.
    pub decisions: Vec<BlockDecision>,
    /// Final estimated performance overhead over the ideal mapping.
    pub perf_overhead: f64,
    /// Final estimated dynamic-energy overhead over the ideal mapping.
    pub energy_overhead: f64,
    /// Average susceptibility over the evicted blocks (step 6 pivot),
    /// 0 if nothing was evicted.
    pub avg_evicted_susceptibility: f64,
    /// Name of the structure the mapping targets.
    pub structure: String,
}

impl MdaOutput {
    /// The decision for `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn decision(&self, block: BlockId) -> &BlockDecision {
        &self.decisions[block.index()]
    }

    /// Looks a decision up by block name.
    pub fn find(&self, name: &str) -> Option<&BlockDecision> {
        self.decisions.iter().find(|d| d.name == name)
    }

    /// Materialises the decisions as a [`PlacementMap`] over `structure`.
    ///
    /// Blocks are allocated within each region in descending
    /// susceptibility order.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::RegionFull`] if the decisions overflow a
    /// region (cannot happen for outputs of [`run_mda`], which tracks
    /// capacities).
    pub fn placement(
        &self,
        program: &Program,
        structure: &SpmStructure,
    ) -> Result<PlacementMap, SimError> {
        let specs = structure.specs();
        let mut map = PlacementMap::new(program, &specs);
        let mut order: Vec<&BlockDecision> = self.decisions.iter().collect();
        order.sort_by(|a, b| {
            b.susceptibility
                .partial_cmp(&a.susceptibility)
                .expect("susceptibility is finite")
        });
        // Static placements reserve space first; dynamic blocks then
        // multiplex whatever is left of their region.
        for d in &order {
            if d.decision == MapDecision::DataSttDynamic {
                continue;
            }
            if let Some(role) = d.decision.role() {
                let region = structure
                    .region_id(role)
                    .expect("decision role exists in structure");
                map.place(program, d.block, region)?;
            }
        }
        for d in &order {
            if d.decision == MapDecision::DataSttDynamic {
                let region = structure
                    .region_id(RegionRole::DataStt)
                    .expect("dynamic decisions target the STT region");
                map.place_dynamic(program, d.block, region)?;
            }
        }
        Ok(map)
    }

    /// Blocks mapped to a given decision.
    pub fn blocks_with(&self, decision: MapDecision) -> Vec<BlockId> {
        self.decisions
            .iter()
            .filter(|d| d.decision == decision)
            .map(|d| d.block)
            .collect()
    }
}

/// Runs Algorithm 1.
///
/// `structure` must provide all four [`RegionRole`]s (use
/// [`run_baseline`] for the two-region baselines).
///
/// # Panics
///
/// Panics if `structure` lacks the ECC or parity region, or if `profile`
/// does not cover `program`.
pub fn run_mda(
    program: &Program,
    profile: &Profile,
    structure: &SpmStructure,
    thresholds: &MdaThresholds,
) -> MdaOutput {
    assert_eq!(
        profile.blocks.len(),
        program.len(),
        "profile/program mismatch"
    );
    let stt_spec = structure
        .spec(RegionRole::DataStt)
        .expect("FTSPM structure has an STT data region");
    let ecc_spec = structure
        .spec(RegionRole::DataEcc)
        .expect("FTSPM structure has an ECC region");
    let parity_spec = structure
        .spec(RegionRole::DataParity)
        .expect("FTSPM structure has a parity region");
    let ispm_spec = structure
        .spec(RegionRole::Instruction)
        .expect("structure has an instruction SPM");

    let mut decisions: Vec<BlockDecision> = program
        .iter()
        .map(|(id, spec)| BlockDecision {
            block: id,
            name: spec.name().to_string(),
            decision: MapDecision::OffChip,
            reason: DecisionReason::TooLarge,
            evicted_by: None,
            susceptibility: profile.block(id).susceptibility(),
        })
        .collect();

    // ---- Step 1: code → I-SPM, data → STT-RAM, capacity permitting. ----
    let mut ispm_free = ispm_spec.geometry().bytes();
    let mut code: Vec<BlockId> = program.code_blocks();
    code.sort_by_key(|&b| std::cmp::Reverse(profile.block(b).reads));
    for b in code {
        let size = program.block(b).size_bytes();
        if size <= ispm_free {
            ispm_free -= size;
            decisions[b.index()].decision = MapDecision::Instruction;
            decisions[b.index()].reason = DecisionReason::MappedInitially;
        }
    }

    let mut stt_free = stt_spec.geometry().bytes();
    let mut data: Vec<BlockId> = program.data_blocks();
    data.sort_by(|&a, &b| {
        profile
            .block(b)
            .susceptibility()
            .partial_cmp(&profile.block(a).susceptibility())
            .expect("susceptibility is finite")
    });
    let mut in_stt: Vec<BlockId> = Vec::new();
    let mut evicted: Vec<(BlockId, DecisionReason)> = Vec::new();
    for &b in &data {
        let size = program.block(b).size_bytes();
        if size <= stt_free {
            stt_free -= size;
            in_stt.push(b);
        } else {
            evicted.push((b, DecisionReason::TooLarge));
        }
    }

    // ---- Steps 2–4: eviction loops under the overhead thresholds. ----
    // `in_stt` is kept sorted by descending susceptibility (step 2); the
    // loops pop from the back (least susceptible first).
    let estimate = |in_stt: &[BlockId], evicted: &[(BlockId, DecisionReason)]| {
        estimate_scenario(
            in_stt.iter().map(|&b| profile.block(b)),
            evicted.iter().map(|&(b, _)| profile.block(b)),
            stt_spec,
            parity_spec,
        )
    };
    while estimate(&in_stt, &evicted).perf_overhead() > thresholds.perf_overhead_frac {
        let Some(b) = in_stt.pop() else { break };
        evicted.push((b, DecisionReason::EvictedPerformance));
    }
    while estimate(&in_stt, &evicted).energy_overhead() > thresholds.energy_overhead_frac {
        let Some(b) = in_stt.pop() else { break };
        evicted.push((b, DecisionReason::EvictedEnergy));
    }

    // ---- Step 5: endurance check — unconditional on susceptibility. ----
    in_stt.retain(|&b| {
        if profile.block(b).writes > thresholds.write_cycles_threshold {
            evicted.push((b, DecisionReason::EvictedEndurance));
            false
        } else {
            true
        }
    });

    for &b in &in_stt {
        decisions[b.index()].decision = MapDecision::DataStt;
        decisions[b.index()].reason = DecisionReason::MappedInitially;
    }

    // ---- Step 6: place evicted blocks into ECC / parity SRAM. ----
    let avg_sus = if evicted.is_empty() {
        0.0
    } else {
        evicted
            .iter()
            .map(|&(b, _)| profile.block(b).susceptibility())
            .sum::<f64>()
            / evicted.len() as f64
    };
    evicted.sort_by(|&(a, _), &(b, _)| {
        profile
            .block(b)
            .susceptibility()
            .partial_cmp(&profile.block(a).susceptibility())
            .expect("susceptibility is finite")
    });
    let mut ecc_free = ecc_spec.geometry().bytes();
    let mut parity_free = parity_spec.geometry().bytes();
    for (b, why) in evicted {
        let size = program.block(b).size_bytes();
        let sus = profile.block(b).susceptibility();
        let d = &mut decisions[b.index()];
        d.evicted_by = Some(why);
        if sus >= avg_sus && size <= ecc_free {
            ecc_free -= size;
            d.decision = MapDecision::DataEcc;
            d.reason = DecisionReason::HighSusceptibility;
        } else if sus < avg_sus && size <= parity_free {
            parity_free -= size;
            d.decision = MapDecision::DataParity;
            d.reason = DecisionReason::LowSusceptibility;
        } else if size <= parity_free {
            // Fallbacks beyond the paper's pseudo-code: use whichever SRAM
            // region still has room rather than spilling off-chip.
            parity_free -= size;
            d.decision = MapDecision::DataParity;
            d.reason = DecisionReason::HighSusceptibility;
        } else if size <= ecc_free {
            ecc_free -= size;
            d.decision = MapDecision::DataEcc;
            d.reason = DecisionReason::LowSusceptibility;
        } else {
            d.decision = MapDecision::OffChip;
            d.reason = DecisionReason::NoSpaceLeft;
        }
    }

    let final_est = {
        let stt_rows: Vec<BlockId> = in_stt.clone();
        let other: Vec<(BlockId, DecisionReason)> = decisions
            .iter()
            .filter(|d| matches!(d.decision, MapDecision::DataEcc | MapDecision::DataParity))
            .map(|d| (d.block, DecisionReason::MappedInitially))
            .collect();
        estimate(&stt_rows, &other)
    };

    MdaOutput {
        decisions,
        perf_overhead: final_est.perf_overhead(),
        energy_overhead: final_est.energy_overhead(),
        avg_evicted_susceptibility: avg_sus,
        structure: structure.name().to_string(),
    }
}

/// Runs Algorithm 1, then promotes data blocks the static mapping had to
/// leave off-chip into *dynamic* STT-RAM residents: they time-multiplex
/// the STT region's spare capacity under the machine's LRU policy (the
/// paper's §II dynamic approach, as an extension to its static MDA).
///
/// A block is promoted only if it fits the STT region's spare pool on its
/// own; since STT-RAM is immune, promotion never hurts the vulnerability
/// model — it trades DMA traffic for cache misses.
///
/// # Panics
///
/// As [`run_mda`].
pub fn run_mda_dynamic(
    program: &Program,
    profile: &Profile,
    structure: &SpmStructure,
    thresholds: &MdaThresholds,
) -> MdaOutput {
    let mut out = run_mda(program, profile, structure, thresholds);
    let stt_capacity = structure
        .spec(RegionRole::DataStt)
        .expect("FTSPM structure has an STT data region")
        .geometry()
        .bytes();
    // Any spilled data block that would fit the region on its own?
    let spilled = out.decisions.iter().any(|d| {
        d.decision == MapDecision::OffChip
            && program.block(d.block).kind() == ftspm_sim::BlockKind::Data
            && program.block(d.block).size_bytes() <= stt_capacity
    });
    if !spilled {
        return out; // static mapping already holds everything it can
    }
    // Switch the STT region to pool mode: its static residents and every
    // fitting spilled block time-multiplex the full capacity.
    for d in &mut out.decisions {
        let size = program.block(d.block).size_bytes();
        let is_data = program.block(d.block).kind() == ftspm_sim::BlockKind::Data;
        match d.decision {
            MapDecision::DataStt => {
                d.decision = MapDecision::DataSttDynamic;
            }
            MapDecision::OffChip if is_data && size <= stt_capacity => {
                d.decision = MapDecision::DataSttDynamic;
                d.reason = DecisionReason::PromotedDynamic;
            }
            _ => {}
        }
    }
    out
}

/// Runs Algorithm 1 with a **per-core/shared-block dimension**: each
/// block's susceptibility is weighted by how many cores touch it.
///
/// On an N-core machine a strike in a shared block is observed by every
/// sharer (the coherence fabric propagates the DUE re-fetch or the
/// corrupted value to all of them), so a block shared by `s` cores is
/// effectively `s` times as exposed as the single-core model assumes.
/// `sharer_counts[block.index()]` gives that `s` (0 and 1 both mean
/// private; values are clamped to ≥ 1). The weighted profile biases the
/// eviction loops and the step-6 ECC/parity split toward keeping shared
/// blocks in immune STT-RAM or SEC-DED SRAM.
///
/// With every count ≤ 1 this is exactly [`run_mda`].
///
/// # Panics
///
/// As [`run_mda`]; additionally if `sharer_counts` does not cover
/// `program`.
pub fn run_mda_multicore(
    program: &Program,
    profile: &Profile,
    structure: &SpmStructure,
    thresholds: &MdaThresholds,
    sharer_counts: &[u32],
) -> MdaOutput {
    assert_eq!(
        sharer_counts.len(),
        program.len(),
        "sharer_counts/program mismatch"
    );
    if sharer_counts.iter().all(|&s| s <= 1) {
        return run_mda(program, profile, structure, thresholds);
    }
    // Susceptibility is references × lifetime; scaling `references` by
    // the sharer count scales susceptibility by it while leaving the
    // read/write volumes (which drive the perf/energy estimates) alone.
    let mut weighted = profile.clone();
    for (row, &sharers) in weighted.blocks.iter_mut().zip(sharer_counts) {
        row.references = row.references.saturating_mul(u64::from(sharers.max(1)));
    }
    run_mda(program, &weighted, structure, thresholds)
}

/// The mapping used for the paper's baselines (pure SRAM / pure STT-RAM):
/// code blocks into the instruction SPM, data blocks into the bulk data
/// region, both by descending access count / susceptibility, no eviction
/// loops.
///
/// # Panics
///
/// Panics if `structure` lacks an instruction or data region, or if
/// `profile` does not cover `program`.
pub fn run_baseline(program: &Program, profile: &Profile, structure: &SpmStructure) -> MdaOutput {
    assert_eq!(
        profile.blocks.len(),
        program.len(),
        "profile/program mismatch"
    );
    let ispm = structure
        .spec(RegionRole::Instruction)
        .expect("baseline has an instruction SPM");
    let dspm = structure
        .spec(RegionRole::DataStt)
        .expect("baseline has a data SPM");
    let mut decisions: Vec<BlockDecision> = program
        .iter()
        .map(|(id, spec)| BlockDecision {
            block: id,
            name: spec.name().to_string(),
            decision: MapDecision::OffChip,
            reason: DecisionReason::TooLarge,
            evicted_by: None,
            susceptibility: profile.block(id).susceptibility(),
        })
        .collect();
    let mut ispm_free = ispm.geometry().bytes();
    let mut code = program.code_blocks();
    code.sort_by_key(|&b| std::cmp::Reverse(profile.block(b).reads));
    for b in code {
        let size = program.block(b).size_bytes();
        if size <= ispm_free {
            ispm_free -= size;
            decisions[b.index()].decision = MapDecision::Instruction;
            decisions[b.index()].reason = DecisionReason::MappedInitially;
        }
    }
    let mut dspm_free = dspm.geometry().bytes();
    let mut data = program.data_blocks();
    data.sort_by(|&a, &b| {
        profile
            .block(b)
            .susceptibility()
            .partial_cmp(&profile.block(a).susceptibility())
            .expect("susceptibility is finite")
    });
    for b in data {
        let size = program.block(b).size_bytes();
        if size <= dspm_free {
            dspm_free -= size;
            decisions[b.index()].decision = MapDecision::DataStt;
            decisions[b.index()].reason = DecisionReason::MappedInitially;
        }
    }
    MdaOutput {
        decisions,
        perf_overhead: 0.0,
        energy_overhead: 0.0,
        avg_evicted_susceptibility: 0.0,
        structure: structure.name().to_string(),
    }
}
