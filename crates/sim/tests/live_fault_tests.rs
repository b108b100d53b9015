//! Live fault injection in the running machine: strikes land mid-run,
//! decodes correct/trap/escape per scheme, DUE recovery re-fetches from
//! DRAM, the scrub daemon sweeps, and graceful degradation quarantines
//! and remaps victims.

use ftspm_ecc::{MbuDistribution, ProtectionScheme};
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    Cpu, CpuConfig, FaultConfig, Machine, MachineConfig, NullObserver, Placement, PlacementMap,
    Program, RegionId, SpmRegionSpec,
};

/// Strikes that flip exactly one bit (the distribution's singles bucket).
fn single_bit() -> MbuDistribution {
    MbuDistribution::new(1.0, 0.0, 0.0, 0.0)
}

fn regions() -> Vec<SpmRegionSpec> {
    vec![
        SpmRegionSpec::new(
            "stt",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(2),
        ),
        SpmRegionSpec::new(
            "ecc",
            Technology::SramSecDed,
            ProtectionScheme::SecDed,
            RegionGeometry::from_kib(2),
        ),
        SpmRegionSpec::new(
            "parity",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_kib(2),
        ),
    ]
}

/// A machine with data block `D` statically resident in `region`,
/// running under `faults`.
fn setup(region: usize, faults: FaultConfig) -> (Machine, ftspm_sim::BlockId, ftspm_sim::BlockId) {
    let mut b = Program::builder("live");
    let f = b.code("F", 256, 0);
    let d = b.data("D", 256);
    b.stack(256);
    let p = b.build();
    let specs = regions();
    let mut map = PlacementMap::new(&p, &specs);
    map.place(&p, d, RegionId::new(region)).unwrap();
    let m = Machine::new(
        MachineConfig::with_regions(specs).with_faults(faults),
        p,
        map,
    )
    .unwrap();
    (m, f, d)
}

/// Writes then repeatedly reads back `words` words of `d`, checking every
/// value; returns the machine's final fault stats.
fn hammer(
    m: &mut Machine,
    f: ftspm_sim::BlockId,
    d: ftspm_sim::BlockId,
    words: u32,
    rounds: u32,
) -> ftspm_sim::FaultStats {
    let mut o = NullObserver;
    {
        let mut cpu = Cpu::with_config(
            m,
            &mut o,
            CpuConfig {
                fetch_per_data_op: false,
            },
        );
        cpu.call(f).unwrap();
        for w in 0..words {
            cpu.write_u32(d, w * 4, 0xA000_0000 | w).unwrap();
        }
        for _ in 0..rounds {
            for w in 0..words {
                assert_eq!(
                    cpu.read_u32(d, w * 4).unwrap(),
                    0xA000_0000 | w,
                    "word {w} must read back clean"
                );
            }
        }
        cpu.ret().unwrap();
    }
    m.fault_stats().expect("faulted machine has stats")
}

#[test]
fn clean_machine_reports_no_fault_stats() {
    let mut b = Program::builder("clean");
    b.code("F", 256, 0);
    b.data("D", 256);
    b.stack(256);
    let p = b.build();
    let specs = regions();
    let map = PlacementMap::new(&p, &specs);
    let m = Machine::new(MachineConfig::with_regions(specs), p, map).unwrap();
    assert!(m.fault_stats().is_none());
    assert!(m.stats().faults.is_none());
}

#[test]
fn fault_config_validates_region_ids() {
    let mut b = Program::builder("bad");
    b.code("F", 256, 0);
    b.stack(256);
    let p = b.build();
    let specs = regions();
    let map = PlacementMap::new(&p, &specs);
    let mut cfg = FaultConfig::new(1, 100.0);
    cfg.targets = Some(vec![RegionId::new(7)]);
    let err = match Machine::new(MachineConfig::with_regions(specs).with_faults(cfg), p, map) {
        Err(e) => e,
        Ok(_) => panic!("out-of-range target must be rejected"),
    };
    assert!(
        matches!(err, ftspm_sim::SimError::UnknownRegion(_)),
        "{err}"
    );
}

#[test]
fn single_bit_strikes_on_secded_are_corrected_with_zero_sdc() {
    let mut cfg = FaultConfig::new(0xDEC0DE, 40.0);
    cfg.mbu = single_bit();
    cfg.targets = Some(vec![RegionId::new(1)]);
    let (mut m, f, d) = setup(1, cfg);
    let stats = hammer(&mut m, f, d, 64, 60);
    assert!(stats.strikes > 50, "strikes landed: {}", stats.strikes);
    assert!(
        stats.corrections > 0,
        "some flips decoded as DRE: {stats:?}"
    );
    assert_eq!(stats.sdc_escapes, 0, "SEC-DED never leaks singles");
    assert_eq!(stats.masked, 0, "no immune region targeted");
    assert!(stats.recovery_cycles > 0, "corrections charge cycles");
}

#[test]
fn immune_stt_masks_every_strike() {
    let mut cfg = FaultConfig::new(0x57A7, 40.0);
    cfg.mbu = single_bit();
    cfg.targets = Some(vec![RegionId::new(0)]);
    let (mut m, f, d) = setup(0, cfg);
    let stats = hammer(&mut m, f, d, 64, 60);
    assert!(stats.strikes > 50);
    assert_eq!(stats.masked, stats.strikes, "STT-RAM absorbs everything");
    assert_eq!(stats.corrections, 0);
    assert_eq!(stats.due_traps, 0);
    assert_eq!(stats.sdc_escapes, 0);
}

#[test]
fn parity_single_flips_trap_and_recover_from_dram() {
    let mut cfg = FaultConfig::new(0x0DD, 60.0);
    cfg.mbu = single_bit();
    cfg.targets = Some(vec![RegionId::new(2)]);
    // Quarantine off: recovery alone must keep the data clean.
    cfg.quarantine_due_threshold = u32::MAX;
    let (mut m, f, d) = setup(2, cfg);
    let stats = hammer(&mut m, f, d, 64, 60);
    assert!(
        stats.due_traps > 0,
        "parity turns singles into DUEs: {stats:?}"
    );
    assert_eq!(stats.corrections, 0, "parity corrects nothing");
    assert!(
        stats.recovery_cycles >= 25 * stats.due_traps,
        "each trap re-fetches a DRAM burst"
    );
}

#[test]
fn repeated_due_traps_quarantine_and_remap_the_block() {
    let mut cfg = FaultConfig::new(0xBEEF, 25.0);
    cfg.mbu = single_bit();
    cfg.targets = Some(vec![RegionId::new(2)]);
    cfg.quarantine_due_threshold = 1; // first trap evicts the line
    cfg.demotion = vec![None, None, Some(RegionId::new(0))];
    let (mut m, f, d) = setup(2, cfg);
    let stats = hammer(&mut m, f, d, 64, 80);
    assert!(stats.due_traps > 0);
    assert!(stats.quarantined_lines > 0, "{stats:?}");
    assert!(stats.remapped_blocks > 0, "{stats:?}");
    assert_eq!(
        m.placement().placement(d),
        Placement::Dynamic {
            region: RegionId::new(0)
        },
        "victim demoted to the immune STT region"
    );
    // Demoted and immune: later reads stay clean (hammer asserted them).
    let final_stats = m.fault_stats().unwrap();
    assert_eq!(final_stats.sdc_escapes, 0);
}

#[test]
fn wear_budget_quarantines_hot_stt_lines() {
    let mut cfg = FaultConfig::new(1, 1e15);
    cfg.targets = Some(vec![]); // no strikes: wear only
    cfg.line_write_budget = Some(8);
    cfg.demotion = vec![Some(RegionId::new(1)), None, None];
    let (mut m, f, d) = setup(0, cfg);
    let mut o = NullObserver;
    {
        let mut cpu = Cpu::with_config(
            &mut m,
            &mut o,
            CpuConfig {
                fetch_per_data_op: false,
            },
        );
        cpu.call(f).unwrap();
        // Hammer one word past the 8-write budget (plus the DMA fill's
        // writes); the line wear-quarantines and D demotes to SEC-DED.
        for i in 0..32 {
            cpu.write_u32(d, 0, i).unwrap();
        }
        assert_eq!(cpu.read_u32(d, 0).unwrap(), 31);
        cpu.ret().unwrap();
    }
    let stats = m.fault_stats().unwrap();
    assert_eq!(stats.strikes, 0, "no strikes configured");
    assert!(stats.quarantined_lines >= 1, "{stats:?}");
    assert!(stats.remapped_blocks >= 1, "{stats:?}");
    assert_eq!(
        m.placement().placement(d),
        Placement::Dynamic {
            region: RegionId::new(1)
        },
        "worn STT victim moves to SRAM"
    );
}

#[test]
fn scrub_daemon_sweeps_protected_regions() {
    let mut cfg = FaultConfig::new(0x5C3B, 120.0);
    cfg.mbu = single_bit();
    cfg.targets = Some(vec![RegionId::new(1)]);
    cfg.scrub_interval = Some(1_000);
    let (mut m, f, d) = setup(1, cfg);
    let stats = hammer(&mut m, f, d, 64, 60);
    assert!(stats.scrub_passes > 0, "{stats:?}");
    assert!(
        stats.corrections + stats.scrub_corrections > 0,
        "flips get corrected on access or by the daemon: {stats:?}"
    );
    assert_eq!(stats.sdc_escapes, 0);
}

#[test]
fn faulted_runs_replay_bit_for_bit_per_seed() {
    let run = |seed: u64| {
        let mut cfg = FaultConfig::new(seed, 40.0);
        cfg.mbu = single_bit();
        cfg.targets = Some(vec![RegionId::new(1), RegionId::new(2)]);
        cfg.scrub_interval = Some(3_000);
        cfg.quarantine_due_threshold = 2;
        cfg.demotion = vec![None, Some(RegionId::new(0)), Some(RegionId::new(0))];
        let (mut m, f, d) = setup(1, cfg);
        let stats = hammer(&mut m, f, d, 64, 40);
        (stats, m.cycle())
    };
    let (s1, c1) = run(0xFEED);
    let (s2, c2) = run(0xFEED);
    assert_eq!(s1, s2, "same seed, same fault history");
    assert_eq!(c1, c2, "same seed, same final cycle count");
    let (s3, c3) = run(0xFEEE);
    assert!(
        s3 != s1 || c3 != c1,
        "a fresh seed is a fresh fault history"
    );
}

/// Writes `words` words of `d`, then reads them back `rounds` times
/// without checking; returns each word's last value read.
fn hammer_unchecked(
    m: &mut Machine,
    f: ftspm_sim::BlockId,
    d: ftspm_sim::BlockId,
    words: u32,
    rounds: u32,
) -> Vec<u32> {
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(
        m,
        &mut o,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(f).unwrap();
    for w in 0..words {
        cpu.write_u32(d, w * 4, 0xA000_0000 | w).unwrap();
    }
    let mut last = vec![0; words as usize];
    for _ in 0..rounds {
        for w in 0..words {
            last[w as usize] = cpu.read_u32(d, w * 4).unwrap();
        }
    }
    cpu.ret().unwrap();
    last
}

/// Runs strikes sized by `mbu` aimed only at `region` (where `D` lives)
/// and checks that the escapes the counters report really reach program
/// reads: some word reads back different from what was written.
fn sdc_reaches_program_reads(
    region: usize,
    mbu: MbuDistribution,
    seed: u64,
) -> (Machine, Vec<u32>) {
    let mut cfg = FaultConfig::new(seed, 40.0);
    cfg.mbu = mbu;
    cfg.targets = Some(vec![RegionId::new(region)]);
    let (mut m, f, d) = setup(region, cfg);
    let last = hammer_unchecked(&mut m, f, d, 64, 60);
    let stats = m.fault_stats().unwrap();
    assert!(stats.sdc_escapes > 0, "strikes escape: {stats:?}");
    let corrupted = (0..64u32)
        .filter(|&w| last[w as usize] != 0xA000_0000 | w)
        .count();
    assert!(
        corrupted > 0,
        "an escape corrupts the stored data a program read returns"
    );
    (m, last)
}

#[test]
fn triple_flips_on_secded_corrupt_program_reads() {
    sdc_reaches_program_reads(1, MbuDistribution::new(0.0, 0.0, 1.0, 0.0), 0x7A1);
}

#[test]
fn double_flips_on_parity_corrupt_program_reads() {
    sdc_reaches_program_reads(2, MbuDistribution::new(0.0, 1.0, 0.0, 0.0), 0x0B1);
}

#[test]
fn sdc_in_a_dirty_block_reaches_its_dram_home_at_finish() {
    // The classic silent-corruption chain: an escape decoded by a program
    // read poisons the SPM copy, and the dirty block's writeback carries
    // it home.
    let (mut m, last) =
        sdc_reaches_program_reads(2, MbuDistribution::new(0.0, 1.0, 0.0, 0.0), 0x0B1);
    let d = m.program().find("D").unwrap();
    // Words struck after their last read still carry a pending mark; the
    // writeback flushes those through the decoder instead.
    let pending = m.pending_marks(RegionId::new(2));
    m.finish(&mut NullObserver);
    let mut carried = 0;
    for w in (0..64u32).filter(|w| !pending.contains(w)) {
        let home = m.dram().peek_word(d, w * 4);
        assert_eq!(home, last[w as usize], "word {w}: home copy = last read");
        if home != 0xA000_0000 | w {
            carried += 1;
        }
    }
    assert!(carried > 0, "a corrupted word was written back home");
}
