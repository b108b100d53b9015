//! Raw simulator throughput: accesses per second through the SPM path,
//! the cache path and the dynamic (LRU-evicting) SPM path (the
//! reproduction's equivalent of FaCSim's simulation speed numbers).

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    BlockId, Cpu, CpuConfig, FaultConfig, Machine, MachineConfig, NullObserver, PlacementMap,
    Program, RegionId, SpmRegionSpec,
};
use ftspm_testkit::{black_box, BenchGroup};

const ACCESSES: u32 = 4096;

fn regions(d_kib: u64) -> Vec<SpmRegionSpec> {
    vec![
        SpmRegionSpec::new(
            "I",
            Technology::SttRam,
            ProtectionScheme::Immune,
            RegionGeometry::from_kib(16),
        ),
        SpmRegionSpec::new(
            "D",
            Technology::SramParity,
            ProtectionScheme::Parity,
            RegionGeometry::from_kib(d_kib),
        ),
    ]
}

fn program() -> Program {
    let mut b = Program::builder("bench");
    b.code("Loop", 1024, 16);
    b.data("Buf", 8192);
    b.stack(512);
    b.build()
}

fn run(mapped: bool, armed: bool) -> u64 {
    let p = program();
    let loop_b = p.find("Loop").expect("block");
    let buf = p.find("Buf").expect("block");
    let specs = regions(16);
    let mut map = PlacementMap::new(&p, &specs);
    if mapped {
        map.place(&p, loop_b, RegionId::new(0)).expect("fits");
        map.place(&p, buf, RegionId::new(1)).expect("fits");
    }
    let mut cfg = MachineConfig::with_regions(specs);
    if armed {
        // Injector live, first strike never due: what the raw access loop
        // pays for the event gate alone.
        let mut f = FaultConfig::new(0x51B3, 1e15);
        f.targets = Some(vec![RegionId::new(1)]);
        cfg = cfg.with_faults(f);
    }
    let mut m = Machine::new(cfg, p, map).expect("machine");
    drive(&mut m, loop_b, &[buf]);
    m.cycle()
}

/// Four 2 KiB buffers time-multiplexing a 4 KiB dynamic pool: the
/// stream moves to the next buffer every 512 accesses, and once the pool
/// is full each move evicts the least-recently-used (dirty) buffer and
/// DMA-fills the next.
fn run_dynamic() -> u64 {
    let mut b = Program::builder("bench_dyn");
    let loop_b = b.code("Loop", 1024, 16);
    let bufs: Vec<BlockId> = (0..4).map(|i| b.data(format!("Buf{i}"), 2048)).collect();
    b.stack(512);
    let p = b.build();
    let specs = regions(4);
    let mut map = PlacementMap::new(&p, &specs);
    map.place(&p, loop_b, RegionId::new(0)).expect("fits");
    for &buf in &bufs {
        map.place_dynamic(&p, buf, RegionId::new(1)).expect("fits");
    }
    let mut m = Machine::new(MachineConfig::with_regions(specs), p, map).expect("machine");
    drive(&mut m, loop_b, &bufs);
    // 4096 accesses stream 16 KiB, entering a buffer eight times; every
    // entry after the two that fill the pool evicts one.
    assert_eq!(m.stats().regions[1].dyn_evictions, 6, "the pool thrashes");
    m.cycle()
}

/// The access loop every case times: `ACCESSES` read+write+fetch
/// triples streaming word by word through the equal-sized `bufs` in
/// order (wrapping).
fn drive(m: &mut Machine, loop_b: BlockId, bufs: &[BlockId]) {
    let size = m.program().block(bufs[0]).size_bytes();
    let mut o = NullObserver;
    let mut cpu = Cpu::with_config(
        m,
        &mut o,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(loop_b).expect("call");
    for i in 0..ACCESSES {
        let (buf, off) = (bufs[(i * 4 / size) as usize % bufs.len()], i * 4 % size);
        let v = cpu.read_u32(buf, off).expect("read");
        cpu.write_u32(buf, off, v.wrapping_add(1)).expect("write");
        cpu.execute(2).expect("fetch");
    }
    cpu.ret().expect("ret");
}

fn main() {
    // Each iteration performs `ACCESSES` read+write+fetch triples.
    let mut g = BenchGroup::new("sim");
    g.bench("spm_path", || black_box(run(true, false)));
    g.bench("spm_path_armed_idle", || black_box(run(true, true)));
    g.bench("cache_path", || black_box(run(false, false)));
    g.bench("dynamic_path", || black_box(run_dynamic()));
    g.finish();
}
