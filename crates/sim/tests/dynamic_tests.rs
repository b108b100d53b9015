//! Dynamic (time-multiplexed) SPM placement: allocation, LRU eviction,
//! writeback correctness, and accounting.

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    Cpu, CpuConfig, Machine, MachineConfig, NullObserver, PlacementMap, Program, RegionId,
    SimError, SpmRegionSpec,
};

fn small_regions() -> Vec<SpmRegionSpec> {
    vec![
        SpmRegionSpec::new(
            "I",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(4),
        ),
        // A 2 KiB data region that three 1 KiB blocks must share.
        SpmRegionSpec::new(
            "D",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_kib(2),
        ),
    ]
}

fn program() -> Program {
    let mut b = Program::builder("dyn");
    b.code("F", 512, 16);
    b.data("A", 1024);
    b.data("B", 1024);
    b.data("C", 1024);
    b.stack(256);
    b.build()
}

fn machine_with_dynamic() -> Machine {
    let p = program();
    let specs = small_regions();
    let mut map = PlacementMap::new(&p, &specs);
    map.place(&p, p.find("F").unwrap(), RegionId::new(0))
        .unwrap();
    for name in ["A", "B", "C"] {
        map.place_dynamic(&p, p.find(name).unwrap(), RegionId::new(1))
            .unwrap();
    }
    Machine::new(MachineConfig::with_regions(specs), p, map).unwrap()
}

fn no_fetch() -> CpuConfig {
    CpuConfig {
        fetch_per_data_op: false,
    }
}

#[test]
fn oversubscribed_region_evicts_lru_and_preserves_values() {
    let mut m = machine_with_dynamic();
    let (f, a, b_, c) = (
        m.program().find("F").unwrap(),
        m.program().find("A").unwrap(),
        m.program().find("B").unwrap(),
        m.program().find("C").unwrap(),
    );
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(&mut m, &mut o, no_fetch());
    cpu.call(f).unwrap();
    // Fill A and B (2 KiB pool exactly), write distinct values.
    cpu.write_u32(a, 0, 0xAAAA).unwrap();
    cpu.write_u32(b_, 0, 0xBBBB).unwrap();
    // Touch A so B is the LRU, then demand C: B must be evicted.
    cpu.read_u32(a, 0).unwrap();
    cpu.write_u32(c, 0, 0xCCCC).unwrap();
    // All three keep their values, wherever they live now.
    assert_eq!(cpu.read_u32(a, 0).unwrap(), 0xAAAA);
    assert_eq!(cpu.read_u32(c, 0).unwrap(), 0xCCCC);
    // Re-demanding B forces more eviction and a DMA re-fill; its dirty
    // value must have survived the round trip through DRAM.
    assert_eq!(cpu.read_u32(b_, 0).unwrap(), 0xBBBB);
    cpu.ret().unwrap();
    let stats = m.finish(&mut o);
    assert!(
        stats.regions[1].dyn_evictions >= 2,
        "evictions: {}",
        stats.regions[1].dyn_evictions
    );
}

#[test]
fn dirty_victims_write_back_before_eviction() {
    let mut m = machine_with_dynamic();
    let (f, a, b_, c) = (
        m.program().find("F").unwrap(),
        m.program().find("A").unwrap(),
        m.program().find("B").unwrap(),
        m.program().find("C").unwrap(),
    );
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(&mut m, &mut o, no_fetch());
    cpu.call(f).unwrap();
    cpu.write_u32(a, 40, 777).unwrap();
    cpu.read_u32(b_, 0).unwrap(); // B resident, clean
    cpu.read_u32(a, 0).unwrap(); // B is LRU
    cpu.read_u32(c, 0).unwrap(); // evicts B (clean: no writeback needed)
    cpu.read_u32(c, 4).unwrap();
    // Now evict A (dirty) by touching B again (A became LRU).
    cpu.read_u32(b_, 0).unwrap();
    cpu.ret().unwrap();
    drop(cpu);
    // A's dirty word must be in its DRAM home copy already (it was
    // evicted, not just unmapped at finish).
    assert_eq!(m.dram().peek_word(a, 40), 777);
}

#[test]
fn byte_stores_merge_into_the_dynamic_slot_across_a_refill() {
    let mut m = machine_with_dynamic();
    let (f, a, b_, c) = (
        m.program().find("F").unwrap(),
        m.program().find("A").unwrap(),
        m.program().find("B").unwrap(),
        m.program().find("C").unwrap(),
    );
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(&mut m, &mut o, no_fetch());
    cpu.call(f).unwrap();
    // A byte store merges with the word in A's dynamic slot, not with
    // its (still zero) DRAM home copy.
    cpu.write_u32(a, 8, 0x1122_3344).unwrap();
    cpu.write_u8(a, 9, 0xAB).unwrap();
    assert_eq!(cpu.read_u32(a, 8).unwrap(), 0x1122_AB44);
    // Make A the LRU and demand C: dirty A goes home and leaves the pool.
    cpu.read_u32(b_, 0).unwrap();
    cpu.read_u32(c, 0).unwrap();
    // Refill A with a new word; its home copy is stale from here on.
    cpu.write_u32(a, 8, 0x5566_7788).unwrap();
    cpu.write_u8(a, 8, 0xCD).unwrap();
    assert_eq!(cpu.read_u32(a, 8).unwrap(), 0x5566_77CD);
    cpu.ret().unwrap();
    let stats = m.finish(&mut o);
    assert_eq!(
        stats.regions[1].dyn_evictions, 2,
        "A, then B for A's refill"
    );
    assert_eq!(m.dram().peek_word(a, 8), 0x5566_77CD);
}

#[test]
fn dynamic_block_larger_than_pool_is_rejected() {
    let specs = small_regions();
    // Statically occupy 1.5 KiB of the 2 KiB region, leaving a 0.5 KiB
    // pool; a 1 KiB dynamic block can then never fit.
    let mut b = Program::builder("dyn2");
    b.code("F", 512, 16);
    let big = b.data("Big", 1536);
    let a = b.data("A", 1024);
    b.stack(256);
    let p2 = b.build();
    let mut map2 = PlacementMap::new(&p2, &specs);
    map2.place(&p2, big, RegionId::new(1)).unwrap();
    let err = map2.place_dynamic(&p2, a, RegionId::new(1)).unwrap_err();
    assert!(matches!(err, SimError::RegionFull { .. }));
}

#[test]
fn dynamic_and_static_share_a_region() {
    let p = program();
    let specs = small_regions();
    let mut map = PlacementMap::new(&p, &specs);
    let a = p.find("A").unwrap();
    let b_ = p.find("B").unwrap();
    let c = p.find("C").unwrap();
    // A gets a static slot; B and C multiplex the remaining 1 KiB.
    map.place(&p, a, RegionId::new(1)).unwrap();
    map.place_dynamic(&p, b_, RegionId::new(1)).unwrap();
    map.place_dynamic(&p, c, RegionId::new(1)).unwrap();
    assert!(map.placement(b_).is_dynamic());
    assert_eq!(map.placement(a).region(), Some(RegionId::new(1)));
    let mut m = Machine::new(MachineConfig::with_regions(specs), p, map).unwrap();
    let f = m.program().find("F").unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(&mut m, &mut o, no_fetch());
    cpu.call(f).unwrap();
    cpu.write_u32(a, 0, 1).unwrap();
    cpu.write_u32(b_, 0, 2).unwrap();
    cpu.write_u32(c, 0, 3).unwrap(); // evicts B
    assert_eq!(cpu.read_u32(a, 0).unwrap(), 1, "static resident untouched");
    assert_eq!(cpu.read_u32(b_, 0).unwrap(), 2);
    assert_eq!(cpu.read_u32(c, 0).unwrap(), 3);
    cpu.ret().unwrap();
    let stats = m.finish(&mut o);
    assert!(stats.regions[1].dyn_evictions >= 1);
    // Everything dirty lands home at finish.
    assert_eq!(m.dram().peek_word(a, 0), 1);
    assert_eq!(m.dram().peek_word(b_, 0), 2);
    assert_eq!(m.dram().peek_word(c, 0), 3);
}

#[test]
fn thrashing_costs_dma_cycles() {
    // Ping-pong between two 1 KiB blocks sharing a 1 KiB pool: every
    // switch pays a full block DMA, visible in the cycle count.
    let specs = vec![
        SpmRegionSpec::new(
            "I",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(4),
        ),
        SpmRegionSpec::new(
            "D",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_bytes(1024),
        ),
    ];
    let mut b = Program::builder("thrash");
    let f = b.code("F", 512, 16);
    let x = b.data("X", 1024);
    let y = b.data("Y", 1024);
    b.stack(256);
    let p = b.build();
    let mut map = PlacementMap::new(&p, &specs);
    map.place_dynamic(&p, x, RegionId::new(1)).unwrap();
    map.place_dynamic(&p, y, RegionId::new(1)).unwrap();
    let mut m = Machine::new(MachineConfig::with_regions(specs), p, map).unwrap();
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(&mut m, &mut o, no_fetch());
    cpu.call(f).unwrap();
    cpu.read_u32(x, 0).unwrap();
    let warm = cpu.cycle();
    cpu.read_u32(x, 4).unwrap();
    let hit_cost = cpu.cycle() - warm;
    let before = cpu.cycle();
    cpu.read_u32(y, 0).unwrap(); // evict X, fill Y
    let switch_cost = cpu.cycle() - before;
    assert_eq!(hit_cost, 1, "resident parity read is 1 cycle");
    assert!(
        switch_cost > 200,
        "a 256-word DMA fill must dominate ({switch_cost} cycles)"
    );
    cpu.ret().unwrap();
}
