//! The [`Recorder`]: an [`Observer`] that feeds the metrics registry
//! and the structured trace from a running machine.

use ftspm_sim::{
    AccessEvent, AccessKind, CoherenceStats, CoreFaultView, FaultStats, Observer, QuarantineEvent,
    RemapEvent, Target,
};

use crate::registry::MetricsRegistry;
use crate::trace::{Trace, TraceEvent};

/// Bucket bounds for the DUE recovery-attempt histogram.
pub const DUE_ATTEMPT_BOUNDS: &[u64] = &[1, 2, 3, 4, 8];

// Per-core counter names. The registry keys counters by `&'static str`,
// so each core index up to `ftspm_sim::MAX_CORES` gets a pre-baked name.
const CORE_CORRECTIONS: [&str; 8] = [
    "core0.corrections",
    "core1.corrections",
    "core2.corrections",
    "core3.corrections",
    "core4.corrections",
    "core5.corrections",
    "core6.corrections",
    "core7.corrections",
];
const CORE_DUE_TRAPS: [&str; 8] = [
    "core0.due_traps",
    "core1.due_traps",
    "core2.due_traps",
    "core3.due_traps",
    "core4.due_traps",
    "core5.due_traps",
    "core6.due_traps",
    "core7.due_traps",
];
const CORE_SDC_ESCAPES: [&str; 8] = [
    "core0.sdc_escapes",
    "core1.sdc_escapes",
    "core2.sdc_escapes",
    "core3.sdc_escapes",
    "core4.sdc_escapes",
    "core5.sdc_escapes",
    "core6.sdc_escapes",
    "core7.sdc_escapes",
];
const CORE_SHARED_EXPOSURES: [&str; 8] = [
    "core0.shared_exposures",
    "core1.shared_exposures",
    "core2.shared_exposures",
    "core3.shared_exposures",
    "core4.shared_exposures",
    "core5.shared_exposures",
    "core6.shared_exposures",
    "core7.shared_exposures",
];
/// Bucket bounds for the DMA burst-size histogram (words per burst).
pub const DMA_BURST_BOUNDS: &[u64] = &[1, 8, 16, 32, 64, 128, 256];

/// The counters [`Recorder::on_access`] bumps for ordinary and DMA
/// traffic. They live in plain fields, not in the registry, because a
/// `BTreeMap` update per program access would dominate a counted run.
/// Each slot's registry name is [`SLOT_NAMES`]`[slot]`.
#[derive(Debug, Clone, Copy)]
enum Slot {
    AccessFetch,
    AccessRead,
    AccessWrite,
    TargetSpm,
    TargetICacheHit,
    TargetICacheMiss,
    TargetDCacheHit,
    TargetDCacheMiss,
    DmaBursts,
    DmaWords,
}

const SLOT_NAMES: [&str; 10] = [
    "access.fetch",
    "access.read",
    "access.write",
    "target.spm",
    "target.icache_hit",
    "target.icache_miss",
    "target.dcache_hit",
    "target.dcache_miss",
    "dma.bursts",
    "dma.words",
];

impl Slot {
    fn of_target(target: Target) -> Self {
        match target {
            Target::Region(_) => Self::TargetSpm,
            Target::ICache { hit: true } => Self::TargetICacheHit,
            Target::ICache { hit: false } => Self::TargetICacheMiss,
            Target::DCache { hit: true } => Self::TargetDCacheHit,
            Target::DCache { hit: false } => Self::TargetDCacheMiss,
        }
    }
}

/// The per-access counter slots, plus a bitmask of the slots bumped
/// since the last fold — a slot bumped only by `count: 0` events must
/// still create its registry key, so "a key exists once touched" holds
/// exactly as if every event had gone to the registry.
#[derive(Debug, Clone, Default)]
struct AccessCounters {
    slots: [u64; SLOT_NAMES.len()],
    touched: u16,
}

impl AccessCounters {
    fn bump(&mut self, slot: Slot, delta: u64) {
        self.slots[slot as usize] += delta;
        self.touched |= 1 << slot as usize;
    }

    /// Adds every touched slot into `registry`.
    fn fold_into(&self, registry: &mut MetricsRegistry) {
        for (i, (&name, &value)) in SLOT_NAMES.iter().zip(&self.slots).enumerate() {
            if self.touched & (1 << i) != 0 {
                registry.add(name, value);
            }
        }
    }
}

/// What the recorder keeps in its trace ring. Counters always count
/// everything; the filter only bounds trace volume — plain accesses on
/// a hot loop would otherwise evict the rare recovery events the trace
/// exists to show.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Ring capacity in events.
    pub trace_capacity: usize,
    /// Trace plain program accesses (fetch/read/write).
    pub trace_accesses: bool,
    /// Trace DMA bursts (map-ins and writebacks).
    pub trace_dma: bool,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 65_536,
            trace_accesses: true,
            trace_dma: true,
        }
    }
}

/// Records observer events into a [`MetricsRegistry`] and a bounded
/// [`Trace`].
///
/// Deterministic by construction: every stored value derives from the
/// event stream (simulated cycles, counts), never from wall clocks.
/// Give each parallel shard its own recorder and merge the registries
/// in input order; see DESIGN.md §10.
///
/// Per-access counters (`access.*`, `target.*`, `dma.bursts`,
/// `dma.words`) are kept in plain fields and folded into the registry
/// whenever it is read, so the per-access path does no map lookup.
#[derive(Debug, Clone)]
pub struct Recorder {
    config: RecorderConfig,
    registry: MetricsRegistry,
    counters: AccessCounters,
    trace: Trace,
    /// Added to every event cycle, aligning run-relative machine cycles
    /// onto the trace's logical phase timeline.
    cycle_offset: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(RecorderConfig::default())
    }
}

impl Recorder {
    /// A recorder with the given trace filter/capacity.
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            config,
            registry: MetricsRegistry::new(),
            counters: AccessCounters::default(),
            trace: Trace::new(config.trace_capacity),
            cycle_offset: 0,
        }
    }

    /// A recorder that traces only recovery events (corrections, DUE
    /// traps, SDC escapes, scrubs, quarantines, remaps) — the right
    /// setting for long runs where plain accesses would flood the ring.
    pub fn recovery_only(trace_capacity: usize) -> Self {
        Self::new(RecorderConfig {
            trace_capacity,
            trace_accesses: false,
            trace_dma: false,
        })
    }

    /// The trace filter/capacity this recorder was built with.
    pub fn config(&self) -> RecorderConfig {
        self.config
    }

    /// A snapshot of the metrics collected so far, per-access counters
    /// included.
    pub fn registry(&self) -> MetricsRegistry {
        let mut registry = self.registry.clone();
        self.counters.fold_into(&mut registry);
        registry
    }

    /// Mutable registry access (for caller-side counters), with the
    /// per-access counters folded in.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        self.fold();
        &mut self.registry
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the recorder, yielding its registry and trace.
    pub fn into_parts(mut self) -> (MetricsRegistry, Trace) {
        self.fold();
        (self.registry, self.trace)
    }

    /// Moves the per-access counters into the registry.
    fn fold(&mut self) {
        std::mem::take(&mut self.counters).fold_into(&mut self.registry);
    }

    /// Counts one program access; returns whether to trace it.
    fn count_access(&mut self, kind: Slot, event: &AccessEvent) -> bool {
        self.counters.bump(kind, u64::from(event.count));
        self.counters.bump(Slot::of_target(event.target), 1);
        self.config.trace_accesses
    }

    /// Records a harness phase span of `duration` logical cycles and
    /// re-aligns the event cycle offset to the start of that span, so
    /// events observed next render inside it.
    pub fn phase(&mut self, name: &'static str, duration: u64) {
        let span = self.trace.phase(name, duration);
        self.cycle_offset = span.start;
    }

    /// The offset currently added to event cycles.
    pub fn cycle_offset(&self) -> u64 {
        self.cycle_offset
    }

    /// Sets the event cycle offset to the current end of the phase
    /// timeline **without** recording a span. Call this right before a
    /// run whose duration is only known afterwards: events recorded
    /// during the run then nest inside the phase span appended (with
    /// the actual cycle count) once the run finishes.
    pub fn align_to_phases(&mut self) {
        self.cycle_offset = self.trace.logical_end();
    }

    /// Folds a run's final [`FaultStats`] into `faults.*` counters —
    /// the injector-side view (strikes thrown, masked absorptions) that
    /// never surfaces as observer events.
    pub fn record_fault_stats(&mut self, stats: &FaultStats) {
        let r = &mut self.registry;
        r.add("faults.strikes", stats.strikes);
        r.add("faults.masked", stats.masked);
        r.add("faults.corrections", stats.corrections);
        r.add("faults.due_traps", stats.due_traps);
        r.add("faults.due_retries", stats.due_retries);
        r.add("faults.sdc_escapes", stats.sdc_escapes);
        r.add("faults.scrub_passes", stats.scrub_passes);
        r.add("faults.scrub_corrections", stats.scrub_corrections);
        r.add("faults.quarantined_lines", stats.quarantined_lines);
        r.add("faults.remapped_blocks", stats.remapped_blocks);
        r.add("faults.recovery_cycles", stats.recovery_cycles);
    }

    /// Folds a multi-core run's bus-level [`CoherenceStats`] and
    /// per-core [`CoreFaultView`]s into `coh.*` / `coreN.*` counters.
    /// The registry keys are `&'static str`, so per-core names come from
    /// static tables sized for `ftspm_sim::MAX_CORES`; cores beyond that
    /// cannot exist (the machine asserts the same bound).
    pub fn record_coherence(&mut self, stats: &CoherenceStats, per_core: &[CoreFaultView]) {
        let r = &mut self.registry;
        r.add("coh.invalidations", stats.invalidations);
        r.add("coh.dirty_flushes", stats.dirty_flushes);
        r.add("coh.downgrades", stats.downgrades);
        r.add("coh.shared_fills", stats.shared_fills);
        r.add("coh.upgrades", stats.upgrades);
        r.add("coh.remap_invalidations", stats.remap_invalidations);
        r.add("coh.shared_block_faults", stats.shared_block_faults);
        r.add("coh.cross_core_observations", stats.cross_core_observations);
        for (core, view) in per_core.iter().enumerate().take(CORE_CORRECTIONS.len()) {
            r.add(CORE_CORRECTIONS[core], view.corrections);
            r.add(CORE_DUE_TRAPS[core], view.due_traps);
            r.add(CORE_SDC_ESCAPES[core], view.sdc_escapes);
            r.add(CORE_SHARED_EXPOSURES[core], view.shared_exposures);
        }
    }
}

impl Observer for Recorder {
    fn on_access(&mut self, event: &AccessEvent) {
        let traced = if event.dma {
            self.counters.bump(Slot::DmaBursts, 1);
            self.counters.bump(Slot::DmaWords, u64::from(event.count));
            self.registry
                .observe("dma.burst_words", DMA_BURST_BOUNDS, u64::from(event.count));
            self.config.trace_dma
        } else {
            match event.kind {
                AccessKind::Fetch => self.count_access(Slot::AccessFetch, event),
                AccessKind::Read => self.count_access(Slot::AccessRead, event),
                AccessKind::Write => self.count_access(Slot::AccessWrite, event),
                AccessKind::Correction => {
                    self.registry.incr("recovery.correction");
                    true
                }
                AccessKind::DueTrap => {
                    self.registry.incr("recovery.due_trap");
                    self.registry.observe(
                        "recovery.due_attempts",
                        DUE_ATTEMPT_BOUNDS,
                        u64::from(event.count),
                    );
                    true
                }
                AccessKind::SdcEscape => {
                    self.registry.incr("recovery.sdc_escape");
                    true
                }
                AccessKind::Scrub => {
                    self.registry.incr("recovery.scrub");
                    true
                }
            }
        };
        if traced {
            let mut e = *event;
            e.cycle += self.cycle_offset;
            self.trace.push(TraceEvent::Access(e));
        }
    }

    fn on_quarantine(&mut self, event: &QuarantineEvent) {
        self.registry.incr("recovery.quarantined_lines");
        match event.cause {
            ftspm_sim::QuarantineCause::DueThreshold => {
                self.registry.incr("quarantine.due_threshold")
            }
            ftspm_sim::QuarantineCause::RetryExhausted => {
                self.registry.incr("quarantine.retry_exhausted")
            }
            ftspm_sim::QuarantineCause::Wear => self.registry.incr("quarantine.wear"),
        }
        let mut e = *event;
        e.cycle += self.cycle_offset;
        self.trace.push(TraceEvent::Quarantine(e));
    }

    fn on_remap(&mut self, event: &RemapEvent) {
        self.registry.incr("recovery.remapped_blocks");
        if event.to.is_none() {
            self.registry.incr("remap.offchip");
        }
        let mut e = *event;
        e.cycle += self.cycle_offset;
        self.trace.push(TraceEvent::Remap(e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_sim::{BlockId, QuarantineCause, RegionId};

    fn event(kind: AccessKind, count: u32, dma: bool) -> AccessEvent {
        AccessEvent {
            cycle: 10,
            block: BlockId::new(0),
            kind,
            target: Target::Region(RegionId::new(0)),
            offset: 0,
            dma,
            count,
        }
    }

    #[test]
    fn counters_follow_event_kinds() {
        let mut rec = Recorder::default();
        rec.on_access(&event(AccessKind::Fetch, 4, false));
        rec.on_access(&event(AccessKind::Read, 1, false));
        rec.on_access(&event(AccessKind::Write, 1, false));
        rec.on_access(&event(AccessKind::Write, 32, true)); // DMA fill
        rec.on_access(&event(AccessKind::DueTrap, 2, false));
        let r = rec.registry();
        assert_eq!(r.counter("access.fetch"), 4);
        assert_eq!(r.counter("access.read"), 1);
        assert_eq!(r.counter("access.write"), 1);
        assert_eq!(r.counter("dma.bursts"), 1);
        assert_eq!(r.counter("dma.words"), 32);
        assert_eq!(r.counter("recovery.due_trap"), 1);
        assert_eq!(r.counter("target.spm"), 3);
        let h = r.histogram("recovery.due_attempts").expect("recorded");
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn recovery_only_still_counts_but_traces_selectively() {
        let mut rec = Recorder::recovery_only(16);
        rec.on_access(&event(AccessKind::Read, 1, false));
        rec.on_access(&event(AccessKind::Write, 8, true));
        rec.on_access(&event(AccessKind::Correction, 1, false));
        assert_eq!(rec.registry().counter("access.read"), 1);
        assert_eq!(rec.registry().counter("dma.bursts"), 1);
        // Only the correction made it into the trace.
        assert_eq!(rec.trace().len(), 1);
    }

    #[test]
    fn phase_offsets_subsequent_event_cycles() {
        let mut rec = Recorder::default();
        rec.phase("profile", 100);
        rec.phase("run", 50);
        assert_eq!(rec.cycle_offset(), 100);
        rec.on_access(&event(AccessKind::Read, 1, false));
        let cycles: Vec<u64> = rec.trace().events().map(|e| e.cycle()).collect();
        assert_eq!(cycles, [110], "event cycle 10 lands inside the run span");
    }

    #[test]
    fn quarantine_and_remap_reach_registry_and_trace() {
        let mut rec = Recorder::default();
        rec.on_quarantine(&QuarantineEvent {
            cycle: 1,
            region: RegionId::new(2),
            line: 9,
            cause: QuarantineCause::Wear,
        });
        rec.on_remap(&RemapEvent {
            cycle: 2,
            block: BlockId::new(0),
            from: RegionId::new(2),
            to: None,
        });
        assert_eq!(rec.registry().counter("recovery.quarantined_lines"), 1);
        assert_eq!(rec.registry().counter("quarantine.wear"), 1);
        assert_eq!(rec.registry().counter("recovery.remapped_blocks"), 1);
        assert_eq!(rec.registry().counter("remap.offchip"), 1);
        assert_eq!(rec.trace().len(), 2);
    }

    #[test]
    fn fault_stats_fold_into_counters() {
        let mut rec = Recorder::default();
        let stats = FaultStats {
            strikes: 10,
            masked: 3,
            ..Default::default()
        };
        rec.record_fault_stats(&stats);
        assert_eq!(rec.registry().counter("faults.strikes"), 10);
        assert_eq!(rec.registry().counter("faults.masked"), 3);
        assert_eq!(rec.registry().counter("faults.sdc_escapes"), 0);
    }
}
