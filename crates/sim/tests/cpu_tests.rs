//! CPU execution-context edge cases and error paths.

use ftspm_ecc::ProtectionScheme;
use ftspm_mem::{RegionGeometry, Technology};
use ftspm_sim::{
    AccessEvent, AccessKind, Cpu, CpuConfig, Machine, MachineConfig, NullObserver, Observer,
    PlacementMap, Program, RegionId, SimError, SpmRegionSpec, Target,
};

fn regions() -> Vec<SpmRegionSpec> {
    vec![SpmRegionSpec::new(
        "D",
        Technology::SramParity,
        ProtectionScheme::Parity,
        RegionGeometry::from_kib(8),
    )]
}

fn machine(program: Program) -> Machine {
    let map = PlacementMap::new(&program, &regions());
    Machine::new(MachineConfig::with_regions(regions()), program, map).expect("machine")
}

#[test]
fn calling_a_data_block_is_an_error() {
    let mut b = Program::builder("p");
    b.code("F", 64, 0);
    let d = b.data("D", 64);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    assert!(matches!(cpu.call(d), Err(SimError::WrongBlockKind { .. })));
}

#[test]
fn executing_without_an_active_block_is_an_error() {
    let mut b = Program::builder("p");
    b.code("F", 64, 0);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    assert!(matches!(cpu.execute(1), Err(SimError::CallStackUnderflow)));
    assert!(matches!(
        cpu.stack_read_u32(0),
        Err(SimError::CallStackUnderflow)
    ));
    assert!(matches!(
        cpu.stack_write_u32(0, 1),
        Err(SimError::CallStackUnderflow)
    ));
}

#[test]
fn frames_without_a_stack_block_are_an_error() {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 16); // non-zero frame, but no stack declared
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    assert!(matches!(cpu.call(f), Err(SimError::NoStackBlock)));
}

#[test]
fn zero_frame_functions_work_without_a_stack() {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 0);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    // Zero frame and zero spills: no stack traffic at all… except the
    // default spill_words=1 — so this must error without a stack.
    // The builder default spills one register per call.
    let r = cpu.call(f);
    assert!(matches!(r, Err(SimError::NoStackBlock)));
}

#[test]
fn execute_zero_is_free() {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 0);
    b.stack(64);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(f).unwrap();
    let c = cpu.cycle();
    cpu.execute(0).unwrap();
    assert_eq!(cpu.cycle(), c);
}

#[test]
fn nested_calls_track_current_block_and_max_stack() {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 32);
    let g = b.code("G", 64, 64);
    b.stack(256);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    assert_eq!(cpu.current_block(), None);
    cpu.call(f).unwrap();
    assert_eq!(cpu.current_block(), Some(f));
    cpu.call(g).unwrap();
    assert_eq!(cpu.current_block(), Some(g));
    cpu.ret().unwrap();
    assert_eq!(cpu.current_block(), Some(f));
    cpu.ret().unwrap();
    assert_eq!(cpu.current_block(), None);
    assert_eq!(cpu.max_stack_bytes(), 96, "32 + 64 at the deepest point");
}

/// Records every instruction-fetch event: its offset, count and whether
/// the SPM (rather than the L1 instruction cache) served it.
#[derive(Default)]
struct FetchLog(Vec<(u32, u32, bool)>);

impl Observer for FetchLog {
    fn on_access(&mut self, e: &AccessEvent) {
        if e.kind == AccessKind::Fetch {
            self.0
                .push((e.offset, e.count, matches!(e.target, Target::Region(_))));
        }
    }
}

/// `execute` counts over a 64-byte (16-instruction) block: from PC 0,
/// landing exactly on the block end, crossing it once, crossing it
/// twice in one call, stopping short of it, landing on it again from
/// mid-block, and crossing it three times from mid-block.
const WRAP_EXECUTES: [u32; 6] = [16, 20, 40, 3, 1, 50];

/// Runs [`WRAP_EXECUTES`] on a 64-byte code block, resident in the SPM
/// or left off-chip, and returns the fetch events.
fn wrap_fetches(in_spm: bool) -> Vec<(u32, u32, bool)> {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 0); // 16 instructions
    b.stack(64);
    let program = b.build();
    let mut map = PlacementMap::new(&program, &regions());
    if in_spm {
        map.place(&program, f, RegionId::new(0)).unwrap();
    }
    let mut m = Machine::new(MachineConfig::with_regions(regions()), program, map).unwrap();
    let mut log = FetchLog::default();
    let mut cpu = Cpu::with_config(
        &mut m,
        &mut log,
        CpuConfig {
            fetch_per_data_op: false,
        },
    );
    cpu.call(f).unwrap();
    for n in WRAP_EXECUTES {
        cpu.execute(n).unwrap();
    }
    cpu.ret().unwrap();
    drop(cpu);
    assert_eq!(
        m.instructions(),
        u64::from(WRAP_EXECUTES.iter().sum::<u32>())
    );
    log.0
}

#[test]
fn pc_wraps_within_the_code_block() {
    // SPM-resident code: one batched event per `execute`, whose offset
    // is the PC the next fetch starts from.
    let mut pc = 0;
    let expected: Vec<_> = WRAP_EXECUTES
        .iter()
        .map(|&n| {
            pc = (pc + 4 * n) % 64;
            (pc, n, true)
        })
        .collect();
    assert_eq!(
        expected.iter().map(|e| e.0).collect::<Vec<_>>(),
        [0, 16, 48, 60, 0, 8],
        "the schedule lands on, crosses once and crosses twice the end"
    );
    assert_eq!(wrap_fetches(true), expected);

    // Off-chip code: one icache event per fetch, at that fetch's own
    // offset, so each `execute` starts where the previous one stopped.
    let total: u32 = WRAP_EXECUTES.iter().sum();
    let expected: Vec<_> = (0..total).map(|i| ((4 * i) % 64, 1, false)).collect();
    assert_eq!(wrap_fetches(false), expected);
}

#[test]
fn stack_frame_isolation_between_calls() {
    let mut b = Program::builder("p");
    let f = b.code("F", 64, 32);
    let g = b.code("G", 64, 32);
    b.stack(256);
    let mut m = machine(b.build());
    let mut o = NullObserver;
    let mut cpu = Cpu::new(&mut m, &mut o);
    cpu.call(f).unwrap();
    cpu.stack_write_u32(8, 111).unwrap();
    cpu.call(g).unwrap();
    cpu.stack_write_u32(8, 222).unwrap(); // G's frame, different slot
    assert_eq!(cpu.stack_read_u32(8).unwrap(), 222);
    cpu.ret().unwrap();
    assert_eq!(cpu.stack_read_u32(8).unwrap(), 111, "F's slot untouched");
    cpu.ret().unwrap();
}
