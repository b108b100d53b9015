//! Profiler equivalence: the [`Profiler`] keeps every data word's
//! last-access cycle in one flat table, indexed through a per-block
//! span, with a sentinel for words never accessed. This file keeps the
//! per-block nested tables (a cycle and a touched flag per word) as a
//! reference model, drives both with seeded event streams, and requires
//! the same [`Profile`] at the end.

use ftspm_profile::{BlockProfile, Profile, Profiler};
use ftspm_sim::{AccessEvent, AccessKind, BlockId, BlockKind, Observer, Program, RegionId, Target};
use ftspm_testkit::prop::{self, any_bool, int_range, vec_of, Config};

#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    reads: u64,
    writes: u64,
    references: u64,
    stack_calls: u64,
    max_stack: u32,
    lifetime: u64,
    first: Option<u64>,
}

/// The reference: the profiler with one `Vec<u64>` of last-access
/// cycles and one `Vec<bool>` of touched flags per data block.
struct Reference {
    counters: Vec<Counters>,
    call_stack: Vec<(BlockId, u32)>,
    active_since: u64,
    last_data_block: Option<BlockId>,
    cur_depth: u32,
    first_use_order: Vec<BlockId>,
    last_word_access: Vec<Vec<u64>>,
    word_touched: Vec<Vec<bool>>,
}

impl Reference {
    fn new(program: &Program) -> Self {
        let (last_word_access, word_touched) = program
            .iter()
            .map(|(_, spec)| {
                if spec.kind() == BlockKind::Data {
                    let words = (spec.size_bytes() / 4) as usize;
                    (vec![0u64; words], vec![false; words])
                } else {
                    (Vec::new(), Vec::new())
                }
            })
            .unzip();
        Self {
            counters: vec![Counters::default(); program.len()],
            call_stack: Vec::new(),
            active_since: 0,
            last_data_block: None,
            cur_depth: 0,
            first_use_order: Vec::new(),
            last_word_access,
            word_touched,
        }
    }

    fn reference(&mut self, block: BlockId) {
        let c = &mut self.counters[block.index()];
        if c.references == 0 {
            self.first_use_order.push(block);
        }
        c.references += 1;
    }

    fn settle_residency(&mut self, cycle: u64) {
        if let Some(&(block, _)) = self.call_stack.last() {
            self.counters[block.index()].lifetime += cycle.saturating_sub(self.active_since);
        }
        self.active_since = cycle;
    }

    fn finish(mut self, program: &Program, total_cycles: u64) -> Profile {
        self.settle_residency(total_cycles);
        let blocks = program
            .iter()
            .map(|(id, spec)| {
                let c = self.counters[id.index()];
                BlockProfile {
                    block: id,
                    name: spec.name().to_string(),
                    kind: spec.kind(),
                    size_bytes: spec.size_bytes(),
                    reads: c.reads,
                    writes: c.writes,
                    references: c.references,
                    stack_calls: c.stack_calls,
                    max_stack_bytes: c.max_stack,
                    lifetime_cycles: c.lifetime,
                    first_access: c.first.unwrap_or(0),
                }
            })
            .collect();
        Profile {
            program: program.name().to_string(),
            blocks,
            first_use_order: self.first_use_order,
            total_cycles,
        }
    }
}

impl Observer for Reference {
    fn on_access(&mut self, e: &AccessEvent) {
        if e.dma {
            return;
        }
        let c = &mut self.counters[e.block.index()];
        match e.kind {
            AccessKind::Fetch | AccessKind::Read => c.reads += u64::from(e.count),
            AccessKind::Write => c.writes += u64::from(e.count),
            _ => return,
        }
        c.first.get_or_insert(e.cycle);
        if e.kind != AccessKind::Fetch {
            if self.last_data_block != Some(e.block) {
                self.reference(e.block);
                self.last_data_block = Some(e.block);
            }
            let idx = e.block.index();
            if !self.last_word_access[idx].is_empty() {
                let w = (e.offset / 4) as usize % self.last_word_access[idx].len();
                if e.kind == AccessKind::Read && self.word_touched[idx][w] {
                    self.counters[idx].lifetime +=
                        e.cycle.saturating_sub(self.last_word_access[idx][w]);
                }
                self.last_word_access[idx][w] = e.cycle;
                self.word_touched[idx][w] = true;
            }
        }
    }

    fn on_block_enter(&mut self, block: BlockId, cycle: u64) {
        self.settle_residency(cycle);
        if let Some(&(top, _)) = self.call_stack.last() {
            self.counters[top.index()].stack_calls += 1;
        }
        self.reference(block);
        self.counters[block.index()].first.get_or_insert(cycle);
        self.call_stack.push((block, self.cur_depth));
    }

    fn on_block_exit(&mut self, _block: BlockId, cycle: u64) {
        self.settle_residency(cycle);
        if let Some((_, depth_before)) = self.call_stack.pop() {
            self.cur_depth = depth_before;
        }
    }

    fn on_stack_depth(&mut self, _block: BlockId, depth_bytes: u32) {
        self.cur_depth = depth_bytes;
        for &(block, depth_before) in &self.call_stack {
            let c = &mut self.counters[block.index()];
            c.max_stack = c.max_stack.max(depth_bytes.saturating_sub(depth_before));
        }
    }
}

/// Code and data blocks of several sizes: a one-word block, a block
/// whose word count is not a power of two, and a stack.
fn program() -> Program {
    let mut b = Program::builder("equivalence");
    b.code("F", 64, 16);
    b.data("A", 64);
    b.code("G", 128, 32);
    b.data("B", 12);
    b.data("C", 4);
    b.stack(256);
    b.data("D", 100);
    b.build()
}

const KINDS: [AccessKind; 7] = [
    AccessKind::Fetch,
    AccessKind::Read,
    AccessKind::Write,
    AccessKind::Correction,
    AccessKind::DueTrap,
    AccessKind::SdcEscape,
    AccessKind::Scrub,
];

/// One stream step: `(op, block, kind, offset, cycle step, count)`.
/// `op` picks the hook; offsets reach past every block's end, so word
/// indexes fall out of range and fold.
type Step = (u8, usize, usize, u32, u64, u32);

/// Feeds `steps` to both profilers and returns both profiles.
fn drive(steps: &[Step], backwards: bool) -> (Profile, Profile) {
    let p = program();
    let blocks: Vec<BlockId> = p.iter().map(|(id, _)| id).collect();
    let mut got = Profiler::new(&p);
    let mut want = Reference::new(&p);
    let mut cycle = 0u64;
    for &(op, block, kind, offset, step, count) in steps {
        // Cycles mostly advance; with `backwards`, a step may also move
        // them back (the saturating intervals must agree too).
        if backwards && step % 5 == 0 {
            cycle = cycle.saturating_sub(step * 3);
        } else {
            cycle += step;
        }
        let block = blocks[block % blocks.len()];
        match op {
            0..=69 => {
                let e = AccessEvent {
                    cycle,
                    block,
                    kind: KINDS[kind % KINDS.len()],
                    target: Target::Region(RegionId::new(0)),
                    offset,
                    dma: op >= 62,
                    count,
                };
                got.on_access(&e);
                want.on_access(&e);
            }
            70..=81 => {
                got.on_block_enter(block, cycle);
                want.on_block_enter(block, cycle);
            }
            82..=93 => {
                got.on_block_exit(block, cycle);
                want.on_block_exit(block, cycle);
            }
            _ => {
                got.on_stack_depth(block, offset);
                want.on_stack_depth(block, offset);
            }
        }
    }
    let end = cycle + 1;
    (got.finish(&p, end), want.finish(&p, end))
}

fn steps() -> impl prop::Strategy<Value = Vec<Step>> {
    vec_of(
        (
            int_range(0u8..100),
            int_range(0usize..7),
            int_range(0usize..KINDS.len()),
            int_range(0u32..260),
            int_range(0u64..40),
            int_range(0u32..20),
        ),
        0..300,
    )
}

#[test]
fn seeded_streams_match_the_nested_table_reference() {
    prop::check(&Config::with_cases(256), &steps(), |s| {
        let (got, want) = drive(s, false);
        assert_eq!(got, want);
    });
}

#[test]
fn streams_whose_cycles_move_back_match_the_reference() {
    let strategy = (steps(), any_bool());
    prop::check(&Config::with_cases(128), &strategy, |(s, backwards)| {
        let (got, want) = drive(s, *backwards);
        assert_eq!(got, want);
    });
}

/// Interleaved reads and writes of every data block, each word of each
/// block at its own offset: the per-block spans must keep every word's
/// last-access cycle apart.
#[test]
fn words_of_different_blocks_never_share_a_slot() {
    let p = program();
    let data: Vec<BlockId> = p
        .iter()
        .filter(|(_, spec)| spec.kind() == BlockKind::Data)
        .map(|(id, _)| id)
        .collect();
    let mut got = Profiler::new(&p);
    let mut want = Reference::new(&p);
    let mut cycle = 0;
    for round in 0..4u32 {
        for (i, &block) in data.iter().enumerate() {
            for word in 0..4 {
                cycle += 1 + i as u64;
                let e = AccessEvent {
                    cycle,
                    block,
                    kind: if (round + word) % 3 == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    target: Target::Region(RegionId::new(0)),
                    offset: 4 * word,
                    dma: false,
                    count: 1,
                };
                got.on_access(&e);
                want.on_access(&e);
            }
        }
    }
    let (got, want) = (got.finish(&p, cycle), want.finish(&p, cycle));
    assert!(got.blocks.iter().any(|b| b.lifetime_cycles > 0));
    assert_eq!(got, want);
}
