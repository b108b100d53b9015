//! The profiling observer and its results.

use ftspm_sim::{AccessEvent, AccessKind, BlockId, BlockKind, Observer, Program};

/// Per-block profiling results — one row of the paper's Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    /// The profiled block.
    pub block: BlockId,
    /// Block name.
    pub name: String,
    /// Code or data.
    pub kind: BlockKind,
    /// Block size in bytes.
    pub size_bytes: u32,
    /// Reads (for code blocks: instruction fetches).
    pub reads: u64,
    /// Writes (always 0 for code blocks).
    pub writes: u64,
    /// References: entries for code blocks, access episodes for data.
    pub references: u64,
    /// Calls issued while this block was executing (code blocks).
    pub stack_calls: u64,
    /// Peak stack bytes consumed by an activation of this block and its
    /// callees (code blocks).
    pub max_stack_bytes: u32,
    /// Lifetime in cycles (see crate docs for the per-kind definition).
    pub lifetime_cycles: u64,
    /// Cycle of the first access to the block.
    pub first_access: u64,
}

impl BlockProfile {
    /// Average reads per reference (Table I column 4); 0 if never
    /// referenced.
    pub fn avg_reads_per_reference(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.reads as f64 / self.references as f64
        }
    }

    /// Average writes per reference (Table I column 5).
    pub fn avg_writes_per_reference(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.writes as f64 / self.references as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// The block's *susceptibility* (Algorithm 1 line 10):
    /// references × lifetime.
    pub fn susceptibility(&self) -> f64 {
        self.references as f64 * self.lifetime_cycles as f64
    }
}

/// A complete profile of one run: all block rows plus the blocks'
/// first-use order.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Program name.
    pub program: String,
    /// Per-block rows, in block-id order.
    pub blocks: Vec<BlockProfile>,
    /// Every referenced block once, in the order of its first reference
    /// (block entry or start of a data run). The online phase places its
    /// map-ins in this order; it is recorded rather than derived from
    /// [`BlockProfile::first_access`] because blocks first used in the
    /// same cycle tie there.
    pub first_use_order: Vec<BlockId>,
    /// Total cycles of the profiled run.
    pub total_cycles: u64,
}

impl Profile {
    /// The row for `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub fn block(&self, block: BlockId) -> &BlockProfile {
        &self.blocks[block.index()]
    }

    /// Looks a row up by name.
    pub fn find(&self, name: &str) -> Option<&BlockProfile> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

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

#[derive(Debug, Clone, Copy)]
struct ActiveFrame {
    block: BlockId,
    depth_before: u32,
}

/// The profiling [`Observer`]: attach to a run, then call
/// [`Profiler::finish`].
#[derive(Debug)]
pub struct Profiler {
    counters: Vec<Counters>,
    // PC-residency tracking.
    call_stack: Vec<ActiveFrame>,
    active_since: u64,
    // Data-episode tracking: last data block accessed.
    last_data_block: Option<BlockId>,
    cur_depth: u32,
    first_use_order: Vec<BlockId>,
    /// For every data word of the program, one flat table (ACE
    /// tracking): one past the cycle of the word's last access, or 0 if
    /// it was never accessed. The `+ 1` cannot overflow: the machine
    /// would have to simulate 2⁶⁴ − 1 cycles first, each costing
    /// nanoseconds of host time (about 58 centuries at 10 ns a cycle).
    /// Zero as the sentinel lets the table start as zeroed memory, which
    /// the OS maps in only where a word is touched.
    word_last: Vec<u64>,
    /// Per block: the `(start, words)` span of its words in `word_last`
    /// (`words` is 0 for code blocks).
    word_span: Vec<(usize, usize)>,
}

impl Profiler {
    /// Creates a profiler for `program`.
    pub fn new(program: &Program) -> Self {
        let mut words_total = 0;
        let word_span = program
            .iter()
            .map(|(_, spec)| {
                let words = match spec.kind() {
                    BlockKind::Data => (spec.size_bytes() / 4) as usize,
                    BlockKind::Code => 0,
                };
                words_total += words;
                (words_total - words, words)
            })
            .collect();
        Self {
            counters: vec![Counters::default(); program.len()],
            call_stack: Vec::new(),
            active_since: 0,
            last_data_block: None,
            cur_depth: 0,
            first_use_order: Vec::new(),
            word_last: vec![0; words_total],
            word_span,
        }
    }

    fn touch(&mut self, block: BlockId, cycle: u64) {
        self.counters[block.index()].first.get_or_insert(cycle);
    }

    /// Counts one reference (a block entry or a data run) to `block`.
    fn reference(&mut self, block: BlockId) {
        let c = &mut self.counters[block.index()];
        if c.references == 0 {
            self.first_use_order.push(block);
        }
        c.references += 1;
    }

    /// Accumulates PC residency of the currently active code block up to
    /// `cycle`.
    fn settle_residency(&mut self, cycle: u64) {
        if let Some(top) = self.call_stack.last() {
            let block = top.block;
            let c = &mut self.counters[block.index()];
            c.lifetime += cycle.saturating_sub(self.active_since);
        }
        self.active_since = cycle;
    }

    /// Consumes the profiler and produces the [`Profile`].
    ///
    /// `total_cycles` is the machine cycle at the end of the run; any
    /// still-active code block accumulates residency up to it.
    pub fn finish(mut self, program: &Program, total_cycles: u64) -> Profile {
        self.settle_residency(total_cycles);
        let blocks = program
            .iter()
            .map(|(id, spec)| {
                let c = self.counters[id.index()];
                // Code lifetime is PC residency; data lifetime is the ACE
                // time accumulated per word (intervals ending in a read),
                // both in the `lifetime` counter.
                let lifetime = c.lifetime;
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
                    lifetime_cycles: lifetime,
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

impl Observer for Profiler {
    fn on_access(&mut self, e: &AccessEvent) {
        if e.dma {
            // The paper's profiling excludes the primary copy-in/out.
            return;
        }
        let c = &mut self.counters[e.block.index()];
        match e.kind {
            AccessKind::Fetch | AccessKind::Read => c.reads += u64::from(e.count),
            AccessKind::Write => c.writes += u64::from(e.count),
            // Fault-recovery traffic is not program behaviour; profiling
            // (and the placement decisions derived from it) ignores it.
            _ => return,
        }
        self.touch(e.block, e.cycle);
        // Data-block episodes: a maximal run of accesses to one data block.
        if e.kind != AccessKind::Fetch {
            if self.last_data_block != Some(e.block) {
                self.reference(e.block);
                self.last_data_block = Some(e.block);
            }
            // ACE ("vulnerable interval") accounting per word: the span
            // from the previous access of a word to a *read* of it is time
            // during which a flipped bit would have been consumed; a span
            // ending in a write is dead time (the value is overwritten).
            let idx = e.block.index();
            let (start, words) = self.word_span[idx];
            if words != 0 {
                let mut w = (e.offset / 4) as usize;
                if w >= words {
                    w %= words;
                }
                let last = std::mem::replace(&mut self.word_last[start + w], e.cycle + 1);
                if e.kind == AccessKind::Read && last != 0 {
                    self.counters[idx].lifetime += e.cycle.saturating_sub(last - 1);
                }
            }
        }
    }

    fn on_block_enter(&mut self, block: BlockId, cycle: u64) {
        self.settle_residency(cycle);
        // Attribute the call to the block that issued it.
        if let Some(top) = self.call_stack.last() {
            self.counters[top.block.index()].stack_calls += 1;
        }
        self.reference(block);
        self.touch(block, cycle);
        self.call_stack.push(ActiveFrame {
            block,
            depth_before: self.cur_depth,
        });
    }

    fn on_block_exit(&mut self, _block: BlockId, cycle: u64) {
        self.settle_residency(cycle);
        if let Some(frame) = self.call_stack.pop() {
            self.cur_depth = frame.depth_before;
        }
    }

    fn on_stack_depth(&mut self, _block: BlockId, depth_bytes: u32) {
        self.cur_depth = depth_bytes;
        for frame in &self.call_stack {
            let need = depth_bytes.saturating_sub(frame.depth_before);
            let c = &mut self.counters[frame.block.index()];
            c.max_stack = c.max_stack.max(need);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_sim::{RegionId, Target};

    fn program() -> Program {
        let mut b = Program::builder("p");
        b.code("F", 64, 16);
        b.code("G", 64, 32);
        b.data("A", 64);
        b.build()
    }

    fn access(block: BlockId, kind: AccessKind, cycle: u64, count: u32) -> AccessEvent {
        AccessEvent {
            cycle,
            block,
            kind,
            target: Target::Region(RegionId::new(0)),
            offset: 0,
            dma: false,
            count,
        }
    }

    #[test]
    fn episodes_define_data_references() {
        let p = program();
        let a = p.find("A").unwrap();
        let f = p.find("F").unwrap();
        let mut prof = Profiler::new(&p);
        prof.on_block_enter(f, 0);
        // Run of 3 accesses to A = 1 reference; then a second episode.
        prof.on_access(&access(a, AccessKind::Read, 1, 1));
        prof.on_access(&access(a, AccessKind::Read, 2, 1));
        prof.on_access(&access(a, AccessKind::Write, 3, 1));
        prof.on_access(&access(f, AccessKind::Fetch, 4, 1)); // fetch doesn't break runs
        prof.on_access(&access(a, AccessKind::Read, 9, 1));
        prof.on_block_exit(f, 10);
        let out = prof.finish(&p, 10);
        let ra = out.find("A").unwrap();
        assert_eq!(ra.reads, 3);
        assert_eq!(ra.writes, 1);
        assert_eq!(
            ra.references, 1,
            "A run interrupted only by fetches stays one episode"
        );
        // ACE intervals: R@1 (first touch, +0), R@2 (+1), W@3 (dead-end
        // interval), R@9 (+6) = 7 vulnerable cycles.
        assert_eq!(ra.lifetime_cycles, 7);
        assert_eq!(ra.avg_reads_per_reference(), 3.0);
    }

    #[test]
    fn data_episode_breaks_on_other_data_block() {
        let mut builder = Program::builder("p2");
        builder.code("F", 64, 16);
        let a2 = builder.data("A", 64);
        let b2 = builder.data("B", 64);
        let p2 = builder.build();
        let mut prof = Profiler::new(&p2);
        prof.on_block_enter(p2.find("F").unwrap(), 0);
        prof.on_access(&access(a2, AccessKind::Read, 1, 1));
        prof.on_access(&access(b2, AccessKind::Read, 2, 1));
        prof.on_access(&access(a2, AccessKind::Read, 3, 1));
        let out = prof.finish(&p2, 4);
        assert_eq!(out.find("A").unwrap().references, 2);
        assert_eq!(out.find("B").unwrap().references, 1);
    }

    #[test]
    fn first_use_order_follows_first_reference_within_a_cycle() {
        let p = program();
        let f = p.find("F").unwrap();
        let a = p.find("A").unwrap();
        let mut prof = Profiler::new(&p);
        // A's run starts in the same cycle as F's entry, but first.
        prof.on_access(&access(a, AccessKind::Write, 5, 1));
        prof.on_block_enter(f, 5);
        prof.on_access(&access(a, AccessKind::Read, 6, 1));
        prof.on_block_exit(f, 7);
        prof.on_block_enter(f, 7);
        prof.on_access(&access(f, AccessKind::Read, 8, 1));
        let out = prof.finish(&p, 9);
        assert_eq!(out.first_use_order, vec![a, f], "each once; G never ran");
        assert_eq!(out.block(a).first_access, 5);
        assert_eq!(out.block(f).first_access, 5);
        assert_eq!(out.block(f).references, 3, "two entries + one data run");
    }

    #[test]
    fn code_lifetime_is_pc_residency() {
        let p = program();
        let f = p.find("F").unwrap();
        let g = p.find("G").unwrap();
        let mut prof = Profiler::new(&p);
        prof.on_block_enter(f, 0); // F active 0..10
        prof.on_block_enter(g, 10); // G active 10..25
        prof.on_block_exit(g, 25); // F resumes 25..30
        prof.on_block_exit(f, 30);
        let out = prof.finish(&p, 30);
        assert_eq!(out.find("F").unwrap().lifetime_cycles, 15, "0..10 + 25..30");
        assert_eq!(out.find("G").unwrap().lifetime_cycles, 15);
        assert_eq!(out.find("F").unwrap().references, 1);
        assert_eq!(out.find("G").unwrap().references, 1);
        assert_eq!(out.find("F").unwrap().stack_calls, 1, "F called G once");
        assert_eq!(out.find("G").unwrap().stack_calls, 0);
    }

    #[test]
    fn stack_need_spans_callees() {
        let p = program();
        let f = p.find("F").unwrap();
        let g = p.find("G").unwrap();
        let mut prof = Profiler::new(&p);
        prof.on_block_enter(f, 0);
        prof.on_stack_depth(f, 16);
        prof.on_block_enter(g, 1);
        prof.on_stack_depth(g, 48);
        prof.on_block_exit(g, 2);
        prof.on_block_exit(f, 3);
        let out = prof.finish(&p, 3);
        assert_eq!(
            out.find("F").unwrap().max_stack_bytes,
            48,
            "F + its callee G"
        );
        assert_eq!(out.find("G").unwrap().max_stack_bytes, 32, "G's own frame");
    }

    #[test]
    fn dma_excluded_from_profile() {
        let p = program();
        let a = p.find("A").unwrap();
        let mut prof = Profiler::new(&p);
        let mut e = access(a, AccessKind::Write, 0, 16);
        e.dma = true;
        prof.on_access(&e);
        let out = prof.finish(&p, 1);
        assert_eq!(out.find("A").unwrap().writes, 0);
        assert_eq!(out.find("A").unwrap().references, 0);
    }

    #[test]
    fn susceptibility_multiplies_refs_and_lifetime() {
        let bp = BlockProfile {
            block: BlockId::new(0),
            name: "x".into(),
            kind: BlockKind::Data,
            size_bytes: 4,
            reads: 10,
            writes: 0,
            references: 5,
            stack_calls: 0,
            max_stack_bytes: 0,
            lifetime_cycles: 100,
            first_access: 0,
        };
        assert_eq!(bp.susceptibility(), 500.0);
        assert_eq!(bp.avg_reads_per_reference(), 2.0);
    }
}
