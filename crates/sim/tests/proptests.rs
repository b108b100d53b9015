//! Property tests: the simulator against a reference memory model.
//!
//! Whatever the placement — static SPM slots, dynamic multiplexing with
//! LRU eviction, or off-chip through the caches — the *values* a program
//! reads must match a plain array model, the cycle counter must be
//! strictly monotone over accesses, and `finish` must land every dirty
//! word in the DRAM home copy. The machine's counters must equal what
//! its access events report.

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    AccessEvent, AccessKind, BlockId, Cpu, CpuConfig, Machine, MachineConfig, NullObserver,
    Observer, PlacementMap, Program, RegionId, SpmRegionSpec, Target,
};
use ftspm_testkit::prop::{
    any_int, check, int_range, vec_exact, vec_of, Config, Strategy, StrategyExt,
};

const N_BLOCKS: usize = 4;
const BLOCK_WORDS: u32 = 64;

fn cfg() -> Config {
    Config::with_cases(64).persisting(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/proptests.regressions"
    ))
}

#[derive(Debug, Clone)]
enum Op {
    Write { block: usize, word: u32, value: u32 },
    Read { block: usize, word: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (
        int_range(0u8..2),
        int_range(0usize..N_BLOCKS),
        int_range(0u32..BLOCK_WORDS),
        any_int::<u32>(),
    )
        .map(|(kind, block, word, value)| {
            if kind == 0 {
                Op::Write { block, word, value }
            } else {
                Op::Read { block, word }
            }
        })
}

/// 0 = off-chip, 1 = static region slot, 2 = dynamic region pool.
fn placement_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec_exact(int_range(0u8..3), N_BLOCKS)
}

fn build(placements: &[u8]) -> (Machine, Vec<BlockId>) {
    let mut b = Program::builder("prop");
    let code = b.code("F", 256, 16);
    let blocks: Vec<BlockId> = (0..N_BLOCKS)
        .map(|i| b.data(format!("D{i}"), BLOCK_WORDS * 4))
        .collect();
    b.stack(256);
    let p = b.build();
    // One region that can hold two of the four blocks: static slots claim
    // space first, dynamic blocks multiplex the rest.
    let specs = vec![
        SpmRegionSpec::new(
            "I",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(1),
        ),
        SpmRegionSpec::new(
            "D",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_bytes(2 * BLOCK_WORDS * 4),
        ),
    ];
    let mut map = PlacementMap::new(&p, &specs);
    map.place(&p, code, RegionId::new(0)).expect("code fits");
    // Statics reserve space first (best effort; a full region leaves the
    // block off-chip, a legal outcome to test too), then dynamics share
    // what remains.
    for (i, &kind) in placements.iter().enumerate() {
        if kind == 1 {
            let _ = map.place(&p, blocks[i], RegionId::new(1));
        }
    }
    for (i, &kind) in placements.iter().enumerate() {
        if kind == 2 {
            let _ = map.place_dynamic(&p, blocks[i], RegionId::new(1));
        }
    }
    let m = Machine::new(MachineConfig::with_regions(specs), p, map).expect("machine");
    (m, blocks)
}

/// The body of `values_match_reference_model`, shared with the named
/// regression tests so a persisted counterexample stays covered forever.
fn check_values_match_reference(placements: &[u8], ops: &[Op]) {
    let (mut m, blocks) = build(placements);
    let code = m.program().find("F").unwrap();
    let mut model = vec![vec![0u32; BLOCK_WORDS as usize]; N_BLOCKS];
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(
        &mut m,
        &mut o,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(code).unwrap();
    let mut last_cycle = cpu.cycle();
    for op in ops {
        match *op {
            Op::Write { block, word, value } => {
                cpu.write_u32(blocks[block], word * 4, value).unwrap();
                model[block][word as usize] = value;
            }
            Op::Read { block, word } => {
                let got = cpu.read_u32(blocks[block], word * 4).unwrap();
                assert_eq!(got, model[block][word as usize]);
            }
        }
        assert!(cpu.cycle() > last_cycle, "every access costs cycles");
        last_cycle = cpu.cycle();
    }
    cpu.ret().unwrap();
    drop(cpu);
    m.finish(&mut o);
    // After finish, the DRAM home copies hold the model state.
    for (i, content) in model.iter().enumerate() {
        for (w, &expected) in content.iter().enumerate() {
            assert_eq!(
                m.dram().peek_word(blocks[i], (w as u32) * 4),
                expected,
                "home copy of block {i} word {w}"
            );
        }
    }
}

#[test]
fn values_match_reference_model() {
    check(
        &cfg(),
        &(placement_strategy(), vec_of(op_strategy(), 1..200)),
        |(placements, ops)| check_values_match_reference(placements, ops),
    );
}

/// Ported `proptest` regression (formerly persisted as
/// `cc c5f4537c…` in `proptests.proptest-regressions`, shrunk to
/// `placements = [1, 2, 0, 1], ops = [Read { block: 1, word: 0 }]`):
/// reading an untouched word of a *dynamically pooled* block, while two
/// static slots fill the region, must still see the zero-initialised
/// home copy rather than stale region contents.
#[test]
fn regression_dynamic_block_read_sees_home_copy() {
    check_values_match_reference(&[1, 2, 0, 1], &[Op::Read { block: 1, word: 0 }]);
}

/// Sums the word counts of the access events, per region as
/// `[program reads and fetches, program writes, DMA-fill words]`, and the
/// dcache events.
#[derive(Default)]
struct Tally {
    regions: [[u64; 3]; 2],
    dcache: u64,
}

impl Observer for Tally {
    fn on_access(&mut self, e: &AccessEvent) {
        let n = u64::from(e.count);
        match (e.target, e.kind, e.dma) {
            (Target::Region(r), AccessKind::Read | AccessKind::Fetch, false) => {
                self.regions[r.index()][0] += n
            }
            (Target::Region(r), AccessKind::Write, false) => self.regions[r.index()][1] += n,
            (Target::Region(r), AccessKind::Write, true) => self.regions[r.index()][2] += n,
            (Target::DCache { .. }, _, _) => self.dcache += 1,
            _ => {}
        }
    }
}

#[test]
fn energy_and_stats_accumulate_monotonically() {
    check(&cfg(), &vec_of(op_strategy(), 1..100), |ops| {
        let (mut m, blocks) = build(&[2, 2, 2, 2]);
        let code = m.program().find("F").unwrap();
        let mut o = Tally::default();
        let mut cpu = Cpu::with_config(
            &mut m,
            &mut o,
            CpuConfig {
                fetch_per_data_op: false,
            },
        );
        cpu.call(code).unwrap();
        cpu.execute(8).unwrap();
        for op in ops {
            match *op {
                Op::Write { block, word, value } => {
                    cpu.write_u32(blocks[block], word * 4, value).unwrap()
                }
                Op::Read { block, word } => {
                    cpu.read_u32(blocks[block], word * 4).unwrap();
                }
            }
        }
        cpu.ret().unwrap();
        drop(cpu);
        let stats = m.finish(&mut o);
        let total_served: u64 = stats
            .regions
            .iter()
            .map(|r| r.program_reads + r.program_writes)
            .sum::<u64>()
            + stats.dcache.hits
            + stats.dcache.misses;
        // Every data op is served once, besides the 8 fetches and the
        // off-chip stack's spill and reload.
        assert_eq!(total_served, ops.len() as u64 + 8 + 2);
        for (r, [reads, writes, fills]) in stats.regions.iter().zip(o.regions) {
            assert_eq!(r.program_reads, reads, "{}", r.name);
            assert_eq!(r.program_writes, writes, "{}", r.name);
            assert_eq!(r.total_writes, writes + fills, "{}", r.name);
        }
        assert_eq!(stats.dcache.hits + stats.dcache.misses, o.dcache);
        let spm = stats.spm_energy();
        assert!(spm.dynamic_pj() > 0.0);
        assert!(spm.static_pj > 0.0, "finish charges leakage");
    });
}
