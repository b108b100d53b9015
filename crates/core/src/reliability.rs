//! The paper's reliability model: equations (1)–(7).
//!
//! `Vulnerability = SDC_AVF + DUE_AVF` (eq. 1), where each AVF term sums,
//! over the blocks resident in a vulnerable (SRAM) region, the block's
//! *ACE time* — the fraction of execution during which the block is
//! architecturally correct-execution critical — times the probability
//! that a particle strike in that region escapes as SDC (eqs. 6–7) or
//! trips as a detected-unrecoverable error (eqs. 4–5) under the MBU size
//! distribution.
//!
//! ACE time is the block's live span over the run (`lifetime / total
//! cycles`, the profiler's lifetime definition), and vulnerabilities are
//! normalised by the total ACE mass of all SPM-resident blocks so that a
//! structure-level *reliability* (`1 − vulnerability`) can be quoted, as
//! the paper does in §IV: the all-SEC-DED baseline lands at
//! `1 − P(≥2 flips) = 62 %` for every workload — exactly the paper's
//! baseline reliability — and FTSPM's comes out around 86 %.

use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_profile::Profile;
use ftspm_sim::BlockId;

use crate::mda::{MapDecision, MdaOutput};
use crate::{RegionRole, SpmStructure};

/// Per-block contribution to the structure vulnerability.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockVulnerability {
    /// The block.
    pub block: BlockId,
    /// Block name.
    pub name: String,
    /// The protection scheme of the region the block lives in.
    pub scheme: ProtectionScheme,
    /// ACE time fraction (lifetime / total cycles, clamped to 1).
    pub ace_fraction: f64,
    /// ACE × P(SDC) — the block's SDC_AVF term (eq. 2).
    pub sdc_avf: f64,
    /// ACE × P(DUE) — the block's DUE_AVF term (eq. 3).
    pub due_avf: f64,
}

/// The vulnerability of one mapping of one program on one structure.
#[derive(Debug, Clone, PartialEq)]
pub struct VulnerabilityReport {
    /// Per-block terms (SPM-resident blocks only).
    pub blocks: Vec<BlockVulnerability>,
    /// Σ SDC_AVF (eq. 2), normalised by total ACE mass.
    pub sdc_avf: f64,
    /// Σ DUE_AVF (eq. 3), normalised by total ACE mass.
    pub due_avf: f64,
    /// The MBU distribution used.
    pub mbu: MbuDistribution,
}

impl VulnerabilityReport {
    /// `Vulnerability = SDC_AVF + DUE_AVF` (eq. 1).
    pub fn vulnerability(&self) -> f64 {
        self.sdc_avf + self.due_avf
    }

    /// `Reliability = 1 − vulnerability`, the §IV headline number.
    pub fn reliability(&self) -> f64 {
        1.0 - self.vulnerability()
    }
}

/// Evaluates the vulnerability of `mapping` (an MDA or baseline output)
/// under `mbu`.
///
/// Off-chip blocks are not part of the SPM and are excluded, as in the
/// paper (which evaluates *SPM* vulnerability).
pub fn vulnerability(
    profile: &Profile,
    mapping: &MdaOutput,
    structure: &SpmStructure,
    mbu: MbuDistribution,
) -> VulnerabilityReport {
    let total = profile.total_cycles.max(1) as f64;
    let mut blocks = Vec::new();
    let mut sdc = 0.0;
    let mut due = 0.0;
    let mut ace_mass = 0.0;
    for d in &mapping.decisions {
        let Some(role) = d.decision.role() else {
            continue;
        };
        let scheme = scheme_of(structure, role, d.decision);
        let row = profile.block(d.block);
        // Standard AVF normalisation: a data block's ACE time accumulates
        // per word, so the fraction divides by the block's *bit-time*
        // (words × run length). Code lifetime is PC residency, a plain
        // time fraction.
        let denom = match row.kind {
            ftspm_sim::BlockKind::Data => total * f64::from((row.size_bytes / 4).max(1)),
            ftspm_sim::BlockKind::Code => total,
        };
        let ace = (row.lifetime_cycles as f64 / denom).min(1.0);
        let b = BlockVulnerability {
            block: d.block,
            name: d.name.clone(),
            scheme,
            ace_fraction: ace,
            sdc_avf: ace * scheme.sdc_probability(mbu),
            due_avf: ace * scheme.due_probability(mbu),
        };
        ace_mass += ace;
        sdc += b.sdc_avf;
        due += b.due_avf;
        blocks.push(b);
    }
    if ace_mass > 0.0 {
        sdc /= ace_mass;
        due /= ace_mass;
    }
    VulnerabilityReport {
        blocks,
        sdc_avf: sdc,
        due_avf: due,
        mbu,
    }
}

fn scheme_of(
    structure: &SpmStructure,
    role: RegionRole,
    decision: MapDecision,
) -> ProtectionScheme {
    structure
        .spec(role)
        .map(|s| s.scheme())
        .unwrap_or_else(|| panic!("structure lacks region for decision {decision:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mda::run_baseline;
    use ftspm_profile::{BlockProfile, Profile};
    use ftspm_sim::{BlockKind, Program};

    fn program() -> Program {
        let mut b = Program::builder("p");
        b.code("F", 1024, 0);
        b.data("A", 1024);
        b.data("B", 1024);
        b.build()
    }

    fn profile(p: &Program, lifetimes: &[u64]) -> Profile {
        Profile {
            program: p.name().into(),
            blocks: p
                .iter()
                .map(|(id, s)| BlockProfile {
                    block: id,
                    name: s.name().into(),
                    kind: s.kind(),
                    size_bytes: s.size_bytes(),
                    reads: 100,
                    writes: if s.kind() == BlockKind::Data { 10 } else { 0 },
                    references: 10,
                    stack_calls: 0,
                    max_stack_bytes: 0,
                    lifetime_cycles: lifetimes[id.index()],
                    first_access: 0,
                })
                .collect(),
            first_use_order: Vec::new(),
            total_cycles: 1000,
        }
    }

    #[test]
    fn pure_sram_baseline_lands_at_38_percent_vulnerability() {
        // Every block SEC-DED: vulnerability = P(2) + P(>=3) = 0.38,
        // reliability = 62 % — the paper's §IV baseline number.
        let p = program();
        let prof = profile(&p, &[500, 700, 300]);
        let structure = SpmStructure::pure_sram();
        let mapping = run_baseline(&p, &prof, &structure);
        let r = vulnerability(&prof, &mapping, &structure, MbuDistribution::default());
        assert!(
            (r.vulnerability() - 0.38).abs() < 1e-9,
            "{}",
            r.vulnerability()
        );
        assert!((r.reliability() - 0.62).abs() < 1e-9);
    }

    #[test]
    fn pure_stt_is_invulnerable() {
        let p = program();
        let prof = profile(&p, &[500, 700, 300]);
        let structure = SpmStructure::pure_stt();
        let mapping = run_baseline(&p, &prof, &structure);
        let r = vulnerability(&prof, &mapping, &structure, MbuDistribution::default());
        assert_eq!(r.vulnerability(), 0.0);
        assert_eq!(r.reliability(), 1.0);
    }

    #[test]
    fn baseline_vulnerability_is_workload_independent() {
        // Fig. 5's observation: the uniform SEC-DED baseline is flat across
        // workloads because every strike sees the same protection.
        let p = program();
        let structure = SpmStructure::pure_sram();
        let r1 = {
            let prof = profile(&p, &[10, 20, 30]);
            let mapping = run_baseline(&p, &prof, &structure);
            vulnerability(&prof, &mapping, &structure, MbuDistribution::default()).vulnerability()
        };
        let r2 = {
            let prof = profile(&p, &[999, 1, 500]);
            let mapping = run_baseline(&p, &prof, &structure);
            vulnerability(&prof, &mapping, &structure, MbuDistribution::default()).vulnerability()
        };
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn ace_mass_weighting_mixes_schemes() {
        // Hand-build a FTSPM-style mapping: A in STT (immune), B in parity.
        let p = program();
        let prof = profile(&p, &[0, 600, 200]);
        let structure = SpmStructure::ftspm();
        let mut mapping = run_baseline(&p, &prof, &SpmStructure::pure_stt());
        mapping.structure = structure.name().into();
        // Move B to parity.
        let b = p.find("B").unwrap();
        mapping.decisions[b.index()].decision = MapDecision::DataParity;
        let r = vulnerability(&prof, &mapping, &structure, MbuDistribution::default());
        // ACE mass: F=0, A=0.6 (immune), B=0.2 (parity: weight 1.0).
        // vulnerability = 0.2·1.0 / 0.8 = 0.25.
        assert!(
            (r.vulnerability() - 0.25).abs() < 1e-9,
            "{}",
            r.vulnerability()
        );
        // Parity splits 0.62 DUE / 0.38 SDC.
        assert!((r.due_avf - 0.25 * 0.62).abs() < 1e-9);
        assert!((r.sdc_avf - 0.25 * 0.38).abs() < 1e-9);
    }
}
