//! Cross-module tests of the simulator: machine + CPU + placement.

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    AccessEvent, AccessKind, BlockId, Cpu, CpuConfig, Machine, MachineConfig, NullObserver,
    Observer, PlacementMap, Program, RegionId, SimError, SpmRegionSpec, Target,
};

fn regions() -> Vec<SpmRegionSpec> {
    vec![
        SpmRegionSpec::new(
            "I-SPM STT",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(16),
        ),
        SpmRegionSpec::new(
            "D-SPM STT",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(12),
        ),
        SpmRegionSpec::new(
            "D-SPM ECC",
            Technology::SramSecDed,
            ProtectionScheme::SecDed,
            RegionGeometry::from_kib(2),
        ),
        SpmRegionSpec::new(
            "D-SPM parity",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_kib(2),
        ),
    ]
}

fn program() -> Program {
    let mut b = Program::builder("t");
    b.code("Main", 1024, 16);
    b.data("A", 256);
    b.stack(512);
    b.build()
}

struct Recorder {
    events: Vec<AccessEvent>,
    enters: Vec<BlockId>,
    exits: Vec<BlockId>,
}

impl Observer for Recorder {
    fn on_access(&mut self, e: &AccessEvent) {
        self.events.push(*e);
    }
    fn on_block_enter(&mut self, b: BlockId, _c: u64) {
        self.enters.push(b);
    }
    fn on_block_exit(&mut self, b: BlockId, _c: u64) {
        self.exits.push(b);
    }
}

#[test]
fn values_roundtrip_through_spm() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, main, RegionId::new(0)).unwrap();
    map.place(&p, a, RegionId::new(1)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.write_u32(a, 0, 0xAABB_CCDD).unwrap();
    cpu.write_u32(a, 4, 17).unwrap();
    assert_eq!(cpu.read_u32(a, 0).unwrap(), 0xAABB_CCDD);
    assert_eq!(cpu.read_u32(a, 4).unwrap(), 17);
    cpu.ret().unwrap();
}

#[test]
fn values_roundtrip_off_chip_through_cache() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let map = PlacementMap::new(&p, &regions()); // everything off-chip
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.write_u32(a, 8, 123).unwrap();
    assert_eq!(cpu.read_u32(a, 8).unwrap(), 123);
    cpu.ret().unwrap();
    let stats = m.finish(&mut o);
    // Four data accesses reach the dcache: the call's register spill and
    // the write of `A` miss (cold stack and `A` lines); the read of `A`
    // and the return's reload hit those lines.
    assert_eq!((stats.dcache.hits, stats.dcache.misses), (2, 2));
    assert_eq!(stats.spm_program_accesses(), 0);
}

#[test]
fn byte_access_merges_into_words() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, a, RegionId::new(2)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.write_u32(a, 0, 0x1122_3344).unwrap();
    cpu.write_u8(a, 1, 0xEE).unwrap();
    assert_eq!(cpu.read_u32(a, 0).unwrap(), 0x1122_EE44);
    assert_eq!(cpu.read_u8(a, 1).unwrap(), 0xEE);
    assert_eq!(cpu.read_u8(a, 3).unwrap(), 0x11);
}

#[test]
fn lazy_dma_charges_once_and_loads_home_copy() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, a, RegionId::new(1)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    // Initialise the home copy before execution.
    m.dram_mut().poke_word(a, 12, 777);
    let mut rec = Recorder {
        events: vec![],
        enters: vec![],
        exits: vec![],
    };
    let mut cpu = Cpu::with_config(
        &mut m,
        &mut rec,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(main).unwrap();
    assert_eq!(cpu.read_u32(a, 12).unwrap(), 777, "DMA must load home copy");
    cpu.read_u32(a, 16).unwrap();
    cpu.ret().unwrap();
    let dma_events: Vec<_> = rec.events.iter().filter(|e| e.dma).collect();
    // Stack spill maps the stack? Stack is off-chip here; only A is mapped.
    assert_eq!(
        dma_events
            .iter()
            .filter(|e| e.block == a && e.kind == AccessKind::Write)
            .count(),
        1,
        "exactly one map-in DMA for A"
    );
    // Non-DMA reads of A hit the STT region.
    let reads: Vec<_> = rec
        .events
        .iter()
        .filter(|e| !e.dma && e.block == a && e.kind == AccessKind::Read)
        .collect();
    assert_eq!(reads.len(), 2);
    assert_eq!(reads[0].target, Target::Region(RegionId::new(1)));
}

#[test]
fn dirty_blocks_write_back_on_finish() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, a, RegionId::new(1)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.write_u32(a, 20, 4242).unwrap();
    cpu.ret().unwrap();
    assert_eq!(
        m.dram().peek_word(a, 20),
        0,
        "home copy stale before finish"
    );
    m.finish(&mut o);
    assert_eq!(
        m.dram().peek_word(a, 20),
        4242,
        "writeback must update home"
    );
}

#[test]
fn stt_writes_cost_ten_cycles_each() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    // Place in STT vs parity and compare write costs.
    let run = |region: RegionId| {
        let p = program();
        let mut map = PlacementMap::new(&p, &regions());
        map.place(&p, p.find("A").unwrap(), region).unwrap();
        map.place(&p, p.find("Main").unwrap(), RegionId::new(0))
            .unwrap();
        let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
        let mut o = NullObserver;
        let mut cpu = Cpu::with_config(
            &mut m,
            &mut o,
            CpuConfig {
                fetch_per_data_op: false,
            },
        );
        let (a, main) = (m_find(cpu.machine(), "A"), m_find(cpu.machine(), "Main"));
        let _ = main;
        let _ = a;
        cpu.call(m_find(cpu.machine(), "Main")).unwrap();
        let blk = m_find(cpu.machine(), "A");
        cpu.read_u32(blk, 0).unwrap(); // trigger DMA outside measurement
        let before = cpu.cycle();
        for i in 0..10 {
            cpu.write_u32(blk, i * 4, i).unwrap();
        }
        cpu.cycle() - before
    };
    let _ = (a, main);
    let stt = run(RegionId::new(1));
    let par = run(RegionId::new(3));
    assert_eq!(stt, 100, "10 STT writes at 10 cycles");
    assert_eq!(par, 10, "10 parity-SRAM writes at 1 cycle");
}

fn m_find(m: &Machine, name: &str) -> BlockId {
    m.program().find(name).unwrap()
}

#[test]
fn spm_fetch_is_one_cycle_per_instruction() {
    let p = program();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, main, RegionId::new(0)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.execute(1).unwrap(); // first fetch triggers the lazy map-in DMA
    let before = cpu.cycle();
    cpu.execute(100).unwrap();
    assert_eq!(cpu.cycle() - before, 100);
    cpu.ret().unwrap();
    let stats = m.finish(&mut o);
    assert_eq!(stats.instructions, 101);
}

#[test]
fn off_chip_fetch_misses_then_hits_lines() {
    let p = program();
    let main = p.find("Main").unwrap();
    let map = PlacementMap::new(&p, &regions());
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    cpu.execute(8).unwrap(); // exactly one 32-byte line
    cpu.ret().unwrap();
    let s = m.finish(&mut o);
    assert_eq!(s.icache.misses, 1);
    assert_eq!(s.icache.hits, 7);
}

#[test]
fn stack_overflow_detected() {
    let mut b = Program::builder("deep");
    let f = b.code("F", 64, 128);
    b.stack(256);
    let p = b.build();
    let map = PlacementMap::new(&p, &regions());
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(f).unwrap();
    cpu.call(f).unwrap();
    let err = cpu.call(f).unwrap_err();
    assert!(matches!(err, SimError::StackOverflow { .. }), "{err}");
}

#[test]
fn call_ret_events_balance() {
    let p = program();
    let main = p.find("Main").unwrap();
    let map = PlacementMap::new(&p, &regions());
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut rec = Recorder {
        events: vec![],
        enters: vec![],
        exits: vec![],
    };
    let mut cpu = Cpu::new(&mut m, &mut rec);
    for _ in 0..3 {
        cpu.call(main).unwrap();
        cpu.execute(2).unwrap();
        cpu.ret().unwrap();
    }
    assert!(matches!(cpu.ret(), Err(SimError::CallStackUnderflow)));
    drop(cpu);
    assert_eq!(rec.enters.len(), 3);
    assert_eq!(rec.exits.len(), 3);
}

#[test]
fn out_of_bounds_offset_rejected() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let map = PlacementMap::new(&p, &regions());
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(main).unwrap();
    assert!(matches!(
        cpu.read_u32(a, 256),
        Err(SimError::OffsetOutOfBounds { .. })
    ));
    assert!(matches!(
        cpu.read_u32(a, 254),
        Err(SimError::OffsetOutOfBounds { .. })
    ));
}

#[test]
fn wear_counters_reflect_program_writes() {
    let p = program();
    let a = p.find("A").unwrap();
    let main = p.find("Main").unwrap();
    let mut map = PlacementMap::new(&p, &regions());
    map.place(&p, a, RegionId::new(1)).unwrap();
    map.place(&p, main, RegionId::new(0)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(regions()), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(
        &mut m,
        &mut o,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(main).unwrap();
    for _ in 0..50 {
        cpu.write_u32(a, 0, 1).unwrap();
    }
    cpu.write_u32(a, 4, 1).unwrap();
    cpu.ret().unwrap();
    let s = m.finish(&mut o);
    let stt = &s.regions[1];
    // 50 program writes to line 0 + 1 DMA fill write.
    assert_eq!(stt.max_line_writes, 51);
    assert_eq!(stt.program_writes, 51);
}
