//! The bounded structured trace: a ring buffer of typed events plus
//! harness phase spans.
//!
//! The ring keeps the **most recent** `capacity` events — a runaway run
//! cannot exhaust memory, and the tail of the timeline (where recovery
//! decisions accumulate) survives. Overwritten events are counted in
//! [`Trace::dropped`], so exports can say how much history was lost.
//!
//! Phase spans live outside the ring (there are only a handful per
//! run) on a logical timeline in simulated cycles: each span starts
//! where the previous one ended, so the `profile → MDA → run → report`
//! pipeline renders as a contiguous lane in `about://tracing`.

use ftspm_sim::{AccessEvent, QuarantineEvent, RemapEvent};

/// One structured trace entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A memory access or recovery action delivered via
    /// [`ftspm_sim::Observer::on_access`] (fetch/read/write plus
    /// Correction, DueTrap, SdcEscape and Scrub events).
    Access(AccessEvent),
    /// A word line was quarantined.
    Quarantine(QuarantineEvent),
    /// A block was demoted out of a degraded region.
    Remap(RemapEvent),
}

impl TraceEvent {
    /// The event's timestamp in (offset-adjusted) machine cycles.
    pub fn cycle(&self) -> u64 {
        match self {
            TraceEvent::Access(e) => e.cycle,
            TraceEvent::Quarantine(e) => e.cycle,
            TraceEvent::Remap(e) => e.cycle,
        }
    }
}

/// One harness phase on the logical timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (`"profile"`, `"mda"`, `"run"`, `"report"`).
    pub name: &'static str,
    /// Start, in logical cycles.
    pub start: u64,
    /// End (exclusive), in logical cycles; always `> start`.
    pub end: u64,
}

/// A bounded, deterministic event trace.
#[derive(Debug, Clone)]
pub struct Trace {
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    phases: Vec<PhaseSpan>,
    logical_end: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 — a trace that can hold nothing is a
    /// configuration error, not a request for silence (use
    /// [`ftspm_sim::NullObserver`] to record nothing).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            capacity,
            events: Vec::new(),
            head: 0,
            dropped: 0,
            phases: Vec::new(),
            logical_end: 0,
        }
    }

    /// Appends an event, overwriting the oldest once full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events in arrival order (oldest surviving first).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events[self.head..]
            .iter()
            .chain(&self.events[..self.head])
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten after the ring filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends a phase of `duration` logical cycles (clamped to ≥ 1 so
    /// zero-cost phases still render), starting where the previous
    /// phase ended. Returns the span.
    pub fn phase(&mut self, name: &'static str, duration: u64) -> PhaseSpan {
        let start = self.logical_end;
        let end = start + duration.max(1);
        self.logical_end = end;
        let span = PhaseSpan { name, start, end };
        self.phases.push(span);
        span
    }

    /// The recorded phase spans, in order.
    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases
    }

    /// Where the logical phase timeline currently ends — the offset a
    /// recorder applies to event cycles so events recorded next nest
    /// inside the phase about to run.
    pub fn logical_end(&self) -> u64 {
        self.logical_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_sim::{AccessKind, BlockId, RegionId, Target};

    fn access(cycle: u64) -> TraceEvent {
        TraceEvent::Access(AccessEvent {
            cycle,
            block: BlockId::new(0),
            kind: AccessKind::Read,
            target: Target::Region(RegionId::new(0)),
            offset: 0,
            dma: false,
            count: 1,
        })
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let mut t = Trace::new(3);
        for c in 0..7 {
            t.push(access(c));
        }
        let cycles: Vec<u64> = t.events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, [4, 5, 6]);
        assert_eq!(t.dropped(), 4);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn under_capacity_nothing_drops() {
        let mut t = Trace::new(8);
        t.push(access(1));
        t.push(access(2));
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.events().count(), 2);
    }

    #[test]
    fn phases_tile_the_logical_timeline() {
        let mut t = Trace::new(1);
        t.phase("profile", 100);
        t.phase("mda", 0); // clamps to 1
        let run = t.phase("run", 40);
        assert_eq!(run.start, 101);
        assert_eq!(run.end, 141);
        assert_eq!(t.logical_end(), 141);
        assert_eq!(t.phases().len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = Trace::new(0);
    }
}
