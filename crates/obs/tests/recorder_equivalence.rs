//! Recorder equivalence: the [`Recorder`] keeps its per-access counters
//! in plain slots and folds them into the registry only when the
//! registry is read. This file keeps the per-event registry updates as
//! a reference model, drives both with seeded event streams, and
//! requires the same registry — every key, every value, the same CSV —
//! at every read in the middle of a stream and at the end.

use ftspm_obs::{MetricsRegistry, Recorder, DMA_BURST_BOUNDS, DUE_ATTEMPT_BOUNDS};
use ftspm_sim::{
    AccessEvent, AccessKind, BlockId, CoherenceStats, CoreFaultView, FaultStats, Observer,
    QuarantineCause, QuarantineEvent, RegionId, RemapEvent, Target, MAX_CORES,
};

/// The reference: every event goes straight to the registry.
#[derive(Default)]
struct Reference {
    registry: MetricsRegistry,
}

impl Reference {
    fn target_name(target: Target) -> &'static str {
        match target {
            Target::Region(_) => "target.spm",
            Target::ICache { hit: true } => "target.icache_hit",
            Target::ICache { hit: false } => "target.icache_miss",
            Target::DCache { hit: true } => "target.dcache_hit",
            Target::DCache { hit: false } => "target.dcache_miss",
        }
    }

    fn on_access(&mut self, e: &AccessEvent) {
        let r = &mut self.registry;
        let count = u64::from(e.count);
        if e.dma {
            r.incr("dma.bursts");
            r.add("dma.words", count);
            r.observe("dma.burst_words", DMA_BURST_BOUNDS, count);
            return;
        }
        match e.kind {
            AccessKind::Fetch => r.add("access.fetch", count),
            AccessKind::Read => r.add("access.read", count),
            AccessKind::Write => r.add("access.write", count),
            AccessKind::Correction => return r.incr("recovery.correction"),
            AccessKind::DueTrap => {
                r.incr("recovery.due_trap");
                return r.observe("recovery.due_attempts", DUE_ATTEMPT_BOUNDS, count);
            }
            AccessKind::SdcEscape => return r.incr("recovery.sdc_escape"),
            AccessKind::Scrub => return r.incr("recovery.scrub"),
        }
        r.incr(Self::target_name(e.target));
    }

    fn on_quarantine(&mut self, e: &QuarantineEvent) {
        self.registry.incr("recovery.quarantined_lines");
        self.registry.incr(match e.cause {
            QuarantineCause::DueThreshold => "quarantine.due_threshold",
            QuarantineCause::RetryExhausted => "quarantine.retry_exhausted",
            QuarantineCause::Wear => "quarantine.wear",
        });
    }

    fn on_remap(&mut self, e: &RemapEvent) {
        self.registry.incr("recovery.remapped_blocks");
        if e.to.is_none() {
            self.registry.incr("remap.offchip");
        }
    }

    fn record_fault_stats(&mut self, s: &FaultStats) {
        for (name, v) in [
            ("faults.strikes", s.strikes),
            ("faults.masked", s.masked),
            ("faults.corrections", s.corrections),
            ("faults.due_traps", s.due_traps),
            ("faults.due_retries", s.due_retries),
            ("faults.sdc_escapes", s.sdc_escapes),
            ("faults.scrub_passes", s.scrub_passes),
            ("faults.scrub_corrections", s.scrub_corrections),
            ("faults.quarantined_lines", s.quarantined_lines),
            ("faults.remapped_blocks", s.remapped_blocks),
            ("faults.recovery_cycles", s.recovery_cycles),
        ] {
            self.registry.add(name, v);
        }
    }

    fn record_coherence(&mut self, s: &CoherenceStats, per_core: &[CoreFaultView]) {
        for (name, v) in [
            ("coh.invalidations", s.invalidations),
            ("coh.dirty_flushes", s.dirty_flushes),
            ("coh.downgrades", s.downgrades),
            ("coh.shared_fills", s.shared_fills),
            ("coh.upgrades", s.upgrades),
            ("coh.remap_invalidations", s.remap_invalidations),
            ("coh.shared_block_faults", s.shared_block_faults),
            ("coh.cross_core_observations", s.cross_core_observations),
        ] {
            self.registry.add(name, v);
        }
        for (core, view) in per_core.iter().enumerate() {
            for (field, v) in [
                ("corrections", view.corrections),
                ("due_traps", view.due_traps),
                ("sdc_escapes", view.sdc_escapes),
                ("shared_exposures", view.shared_exposures),
            ] {
                // Registry keys are `&'static str`; a test can afford to
                // leak its few dozen per-core names.
                let name: &'static str = format!("core{core}.{field}").leak();
                self.registry.add(name, v);
            }
        }
    }
}

/// SplitMix64: a small seeded generator, so the crate needs no
/// dependency for its streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
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

fn target(rng: &mut Rng) -> Target {
    let hit = rng.below(2) == 0;
    match rng.below(3) {
        0 => Target::Region(RegionId::new(rng.below(4) as usize)),
        1 => Target::ICache { hit },
        _ => Target::DCache { hit },
    }
}

fn access(rng: &mut Rng) -> AccessEvent {
    AccessEvent {
        cycle: rng.below(1 << 20),
        block: BlockId::new(rng.below(8) as usize),
        kind: KINDS[rng.below(KINDS.len() as u64) as usize],
        target: target(rng),
        offset: rng.below(256) as u32,
        dma: rng.below(8) == 0,
        // One event in four carries `count: 0`: it must still create
        // the keys it touches.
        count: match rng.below(4) {
            0 => 0,
            1 => 1,
            _ => rng.below(300) as u32,
        },
    }
}

/// Asserts the recorder's registry equals the reference's, by CSV and
/// by key set.
fn assert_same(got: &MetricsRegistry, want: &MetricsRegistry, at: &str) {
    assert_eq!(got.to_csv(), want.to_csv(), "{at}: CSV differs");
    let keys = |r: &MetricsRegistry| r.counters().map(|(k, _)| k).collect::<Vec<_>>();
    assert_eq!(keys(got), keys(want), "{at}: counter keys differ");
    let hist = |r: &MetricsRegistry| r.histograms().map(|(k, _)| k).collect::<Vec<_>>();
    assert_eq!(hist(got), hist(want), "{at}: histogram keys differ");
}

/// Drives `steps` seeded operations through both models, comparing at
/// every registry read.
fn drive(seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut rec = Recorder::recovery_only(64);
    let mut reference = Reference::default();
    for step in 0..steps {
        let at = format!("seed {seed:#x} step {step}");
        match rng.below(100) {
            0..=84 => {
                let e = access(&mut rng);
                rec.on_access(&e);
                reference.on_access(&e);
            }
            85..=87 => {
                let e = QuarantineEvent {
                    cycle: rng.below(1 << 20),
                    region: RegionId::new(rng.below(4) as usize),
                    line: rng.below(64) as u32,
                    cause: [
                        QuarantineCause::DueThreshold,
                        QuarantineCause::RetryExhausted,
                        QuarantineCause::Wear,
                    ][rng.below(3) as usize],
                };
                rec.on_quarantine(&e);
                reference.on_quarantine(&e);
            }
            88..=90 => {
                let e = RemapEvent {
                    cycle: rng.below(1 << 20),
                    block: BlockId::new(rng.below(8) as usize),
                    from: RegionId::new(rng.below(4) as usize),
                    to: (rng.below(2) == 0).then(|| RegionId::new(rng.below(4) as usize)),
                };
                rec.on_remap(&e);
                reference.on_remap(&e);
            }
            91 => {
                let stats = FaultStats {
                    strikes: rng.below(100),
                    masked: rng.below(10),
                    corrections: rng.below(10),
                    due_traps: rng.below(3),
                    sdc_escapes: rng.below(2),
                    recovery_cycles: rng.below(1000),
                    ..FaultStats::default()
                };
                rec.record_fault_stats(&stats);
                reference.record_fault_stats(&stats);
            }
            92 => {
                let stats = CoherenceStats {
                    invalidations: rng.below(50),
                    shared_fills: rng.below(50),
                    cross_core_observations: rng.below(5),
                    ..CoherenceStats::default()
                };
                let cores = 1 + rng.below(MAX_CORES as u64) as usize;
                let per_core: Vec<CoreFaultView> = (0..cores)
                    .map(|_| CoreFaultView {
                        corrections: rng.below(4),
                        due_traps: rng.below(2),
                        ..CoreFaultView::default()
                    })
                    .collect();
                rec.record_coherence(&stats, &per_core);
                reference.record_coherence(&stats, &per_core);
            }
            93..=95 => {
                // Caller-side adds, including onto a slot-backed name.
                let name = ["caller.extra", "access.read", "dma.words"][rng.below(3) as usize];
                let delta = rng.below(5);
                rec.registry_mut().add(name, delta);
                reference.registry.add(name, delta);
                assert_same(rec.registry_mut(), &reference.registry, &at);
            }
            _ => assert_same(&rec.registry(), &reference.registry, &at),
        }
    }
    let (registry, _trace) = rec.into_parts();
    assert_same(
        &registry,
        &reference.registry,
        &format!("seed {seed:#x} end"),
    );
}

#[test]
fn seeded_streams_match_the_per_event_reference() {
    for seed in 0..64 {
        drive(0xF75B_0000 + seed, 400);
    }
}

#[test]
fn long_stream_matches_the_per_event_reference() {
    drive(0x5EED, 20_000);
}

/// Every kind × target × `dma`, each alone and each with `count: 0`:
/// a slot touched only by zero-count events must still create its key.
#[test]
fn every_kind_target_and_dma_combination_creates_the_same_keys() {
    let targets = [
        Target::Region(RegionId::new(1)),
        Target::ICache { hit: true },
        Target::ICache { hit: false },
        Target::DCache { hit: true },
        Target::DCache { hit: false },
    ];
    for kind in KINDS {
        for target in targets {
            for dma in [false, true] {
                for count in [0, 1, 7] {
                    let e = AccessEvent {
                        cycle: 3,
                        block: BlockId::new(0),
                        kind,
                        target,
                        offset: 0,
                        dma,
                        count,
                    };
                    let mut rec = Recorder::default();
                    let mut reference = Reference::default();
                    rec.on_access(&e);
                    reference.on_access(&e);
                    let at = format!("{kind:?} {target:?} dma={dma} count={count}");
                    assert_same(&rec.registry(), &reference.registry, &at);
                    assert_same(&rec.into_parts().0, &reference.registry, &at);
                }
            }
        }
    }
}

/// A read folds the slots once: reading twice, or reading and then
/// consuming, never double-counts.
#[test]
fn repeated_reads_do_not_double_count() {
    let mut rec = Recorder::default();
    let e = AccessEvent {
        cycle: 0,
        block: BlockId::new(0),
        kind: AccessKind::Read,
        target: Target::DCache { hit: false },
        offset: 0,
        dma: false,
        count: 5,
    };
    rec.on_access(&e);
    assert_eq!(rec.registry().counter("access.read"), 5);
    assert_eq!(rec.registry().counter("access.read"), 5);
    assert_eq!(rec.registry_mut().counter("access.read"), 5);
    assert_eq!(rec.registry_mut().counter("access.read"), 5);
    rec.on_access(&e);
    assert_eq!(rec.registry().counter("target.dcache_miss"), 2);
    let (registry, _) = rec.into_parts();
    assert_eq!(registry.counter("access.read"), 10);
    assert_eq!(registry.counter("target.dcache_miss"), 2);
}
