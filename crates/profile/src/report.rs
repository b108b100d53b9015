//! Rendering a [`Profile`] as the paper's Table I.

use std::fmt;

use crate::Profile;

/// Displays a [`Profile`] in the layout of the paper's Table I
/// ("Results of profiling case study program").
#[derive(Debug, Clone)]
pub struct ProfileTable<'a> {
    profile: &'a Profile,
}

impl<'a> ProfileTable<'a> {
    /// Wraps a profile for display.
    pub fn new(profile: &'a Profile) -> Self {
        Self { profile }
    }

    /// Renders the table as CSV (one header row, one row per block).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "block,reads,writes,avg_reads_per_ref,avg_writes_per_ref,\
             stack_calls,max_stack_bytes,lifetime_cycles\n",
        );
        for b in &self.profile.blocks {
            out.push_str(&format!(
                "{},{},{},{:.1},{:.1},{},{},{}\n",
                b.name,
                b.reads,
                b.writes,
                b.avg_reads_per_reference(),
                b.avg_writes_per_reference(),
                b.stack_calls,
                b.max_stack_bytes,
                b.lifetime_cycles,
            ));
        }
        out
    }
}

impl fmt::Display for ProfileTable<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>10} {:>10} {:>12} {:>10} {:>14}",
            "Block", "Reads", "Writes", "R/ref", "W/ref", "StackCalls", "MaxStack", "Lifetime"
        )?;
        for b in &self.profile.blocks {
            writeln!(
                f,
                "{:<12} {:>12} {:>12} {:>10.1} {:>10.1} {:>12} {:>10} {:>14}",
                b.name,
                b.reads,
                b.writes,
                b.avg_reads_per_reference(),
                b.avg_writes_per_reference(),
                b.stack_calls,
                b.max_stack_bytes,
                b.lifetime_cycles,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BlockProfile;
    use ftspm_sim::{BlockId, BlockKind};

    fn profile() -> Profile {
        Profile {
            program: "t".into(),
            blocks: vec![BlockProfile {
                block: BlockId::new(0),
                name: "Main".into(),
                kind: BlockKind::Code,
                size_bytes: 1024,
                reads: 100,
                writes: 0,
                references: 4,
                stack_calls: 7,
                max_stack_bytes: 348,
                lifetime_cycles: 999,
                first_access: 0,
            }],
            first_use_order: Vec::new(),
            total_cycles: 1000,
        }
    }

    #[test]
    fn display_contains_all_columns() {
        let p = profile();
        let s = ProfileTable::new(&p).to_string();
        assert!(s.contains("Main"));
        assert!(s.contains("348"));
        assert!(s.contains("25.0"), "avg reads per ref: {s}");
        assert!(s.contains("999"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let p = profile();
        let csv = ProfileTable::new(&p).to_csv();
        let lines: Vec<_> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("block,reads"));
        assert!(lines[1].starts_with("Main,100,0,25.0"));
    }
}
