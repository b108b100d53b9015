//! The online phase: block transfer scheduling.
//!
//! After MDA fixes each block's region, the paper's tool extracts the
//! block access sequence from the profile and inserts SPM-mapping
//! instructions "in proper lines of the code to transfer the blocks at
//! run-time". This module generates that command list: one map-in at each
//! block's first use, and one write-back at the end of the run for every
//! dirty (written) data block. Of the sequence it needs only each block's
//! first use, which the profile keeps as [`Profile::first_use_order`] and
//! [`BlockProfile::first_access`](ftspm_profile::BlockProfile::first_access).
//!
//! The simulator executes map-ins lazily on first access — the same
//! semantics — so the schedule is also a *prediction* that tests validate
//! against observed DMA traffic.

use ftspm_profile::Profile;
use ftspm_sim::BlockId;

use crate::mda::{MapDecision, MdaOutput};

/// One SPM transfer command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferCommand {
    /// Copy the block from off-chip memory into its SPM slot before the
    /// given cycle (its first profiled use).
    MapIn {
        /// Block to map.
        block: BlockId,
        /// Profiled cycle of first use.
        before_cycle: u64,
    },
    /// Copy the (written) block back to off-chip memory at run end.
    WriteBack {
        /// Block to write back.
        block: BlockId,
    },
}

impl TransferCommand {
    /// The block the command moves.
    pub fn block(&self) -> BlockId {
        match *self {
            TransferCommand::MapIn { block, .. } | TransferCommand::WriteBack { block } => block,
        }
    }
}

/// The transfer schedule for one mapping of one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    commands: Vec<TransferCommand>,
}

impl Schedule {
    /// The commands: map-ins in first-use order, then write-backs.
    pub fn commands(&self) -> &[TransferCommand] {
        &self.commands
    }

    /// Number of map-in commands.
    pub fn map_ins(&self) -> usize {
        self.commands
            .iter()
            .filter(|c| matches!(c, TransferCommand::MapIn { .. }))
            .count()
    }

    /// Number of write-back commands.
    pub fn write_backs(&self) -> usize {
        self.commands.len() - self.map_ins()
    }
}

/// Builds the transfer schedule for `mapping` from the profiled
/// first-use order.
///
/// Only SPM-mapped blocks get commands; a write-back is generated for
/// data blocks with a non-zero profiled write count (the others are
/// clean copies).
pub fn build_schedule(profile: &Profile, mapping: &MdaOutput) -> Schedule {
    let mut commands: Vec<_> = profile
        .first_use_order
        .iter()
        .filter(|&&block| mapping.decision(block).decision.role().is_some())
        .map(|&block| TransferCommand::MapIn {
            block,
            before_cycle: profile.block(block).first_access,
        })
        .collect();
    // Blocks never referenced (possible for data blocks only touched via
    // DMA) get no map-in; write-backs follow.
    for d in &mapping.decisions {
        let mapped_data = matches!(
            d.decision,
            MapDecision::DataStt | MapDecision::DataEcc | MapDecision::DataParity
        );
        if mapped_data && profile.block(d.block).writes > 0 {
            commands.push(TransferCommand::WriteBack { block: d.block });
        }
    }
    Schedule { commands }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mda::run_baseline;
    use crate::SpmStructure;
    use ftspm_profile::{BlockProfile, Profile};
    use ftspm_sim::Program;

    fn fixture() -> (Program, Profile) {
        let mut b = Program::builder("p");
        b.code("F", 512, 0);
        b.data("A", 512);
        b.data("B", 512);
        let p = b.build();
        let blocks: Vec<BlockProfile> = p
            .iter()
            .map(|(id, s)| BlockProfile {
                block: id,
                name: s.name().into(),
                kind: s.kind(),
                size_bytes: s.size_bytes(),
                reads: 50,
                writes: if s.name() == "A" { 5 } else { 0 },
                references: 2,
                stack_calls: 0,
                max_stack_bytes: 0,
                lifetime_cycles: 100,
                first_access: match s.name() {
                    "B" => 5,
                    "A" => 9,
                    _ => 0,
                },
            })
            .collect();
        let prof = Profile {
            program: "p".into(),
            blocks,
            first_use_order: ["F", "B", "A"].map(|n| p.find(n).unwrap()).to_vec(),
            total_cycles: 200,
        };
        (p, prof)
    }

    #[test]
    fn map_ins_follow_first_use_order() {
        let (p, prof) = fixture();
        let structure = SpmStructure::pure_stt();
        let mapping = run_baseline(&p, &prof, &structure);
        let s = build_schedule(&prof, &mapping);
        let map_ins: Vec<_> = s
            .commands()
            .iter()
            .filter_map(|c| match c {
                TransferCommand::MapIn { block, .. } => Some(*block),
                _ => None,
            })
            .collect();
        assert_eq!(
            map_ins,
            vec![
                p.find("F").unwrap(),
                p.find("B").unwrap(),
                p.find("A").unwrap()
            ]
        );
        assert_eq!(s.map_ins(), 3);
    }

    #[test]
    fn only_written_data_blocks_get_write_backs() {
        let (p, prof) = fixture();
        let structure = SpmStructure::pure_stt();
        let mapping = run_baseline(&p, &prof, &structure);
        let s = build_schedule(&prof, &mapping);
        let wb: Vec<_> = s
            .commands()
            .iter()
            .filter_map(|c| match c {
                TransferCommand::WriteBack { block } => Some(*block),
                _ => None,
            })
            .collect();
        assert_eq!(wb, vec![p.find("A").unwrap()]);
        assert_eq!(s.write_backs(), 1);
    }

    #[test]
    fn off_chip_blocks_get_no_commands() {
        let (p, prof) = fixture();
        let structure = SpmStructure::pure_stt();
        let mut mapping = run_baseline(&p, &prof, &structure);
        let a = p.find("A").unwrap();
        mapping.decisions[a.index()].decision = MapDecision::OffChip;
        let s = build_schedule(&prof, &mapping);
        assert!(s.commands().iter().all(|c| c.block() != a));
    }
}
