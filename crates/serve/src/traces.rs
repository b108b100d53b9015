//! The uploaded-trace store: bounded, in-memory, content-addressed.
//!
//! `POST /v1/traces` decodes a binary `FTSPMTRC` body, derives its
//! content address ([`TraceId::of`] over the raw bytes), and stores the
//! decoded trace here; jobs then reference it as
//! `{"workload": {"trace": "<id>"}}` (replay) or `{"fit": "<id>"}`
//! (model-fitted regeneration). Because the id is content-addressed,
//! re-uploading the same bytes is idempotent — the table dedupes
//! instead of storing a second copy.
//!
//! The table holds at most `capacity` traces in insertion order. Every
//! entry is always evictable (a stored trace has no lifecycle — it is
//! data at rest), so an upload never answers 503; when full, the oldest
//! trace is dropped. A job that references an evicted trace gets the
//! typed 422 (`unknown trace`), and re-uploading restores it under the
//! same id.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use ftspm_trace::{Trace, TraceId, TraceResolver};

/// What [`TraceTable::insert`] did with an upload.
#[derive(Debug, PartialEq, Eq)]
pub enum Stored {
    /// Newly stored; `evicted` reports whether the oldest trace was
    /// dropped to make room (the `trace.evicted` counter).
    Added {
        /// An old trace was evicted to make room.
        evicted: bool,
    },
    /// The id is already in the table (idempotent re-upload).
    Existing,
}

/// The bounded trace store; one per server, behind a mutex.
///
/// Each entry holds a decoded [`Trace`]: the program, the sparse init
/// snapshot and the ops as one canonical varint stream
/// ([`Trace::op_stream_bytes`] is at most the upload's op-chunk
/// payload, about 5 bytes per op). An entry therefore occupies about
/// its upload's size: the op streams of loadbench's `trace_ingest`
/// pool average 0.66 MiB (about 5 bytes per op), so a full 64-entry
/// table holds about 42 MiB of them.
pub struct TraceTable {
    entries: HashMap<TraceId, Arc<Trace>>,
    /// Insertion order — the eviction queue.
    order: VecDeque<TraceId>,
    capacity: usize,
}

impl TraceTable {
    /// An empty store holding at most `capacity` traces (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Stores a decoded trace under its content address. Idempotent on
    /// re-upload; evicts the oldest stored trace when full.
    pub fn insert(&mut self, id: TraceId, trace: Arc<Trace>) -> Stored {
        if self.entries.contains_key(&id) {
            return Stored::Existing;
        }
        let mut evicted = false;
        while self.entries.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            evicted = true;
        }
        self.entries.insert(id, trace);
        self.order.push_back(id);
        Stored::Added { evicted }
    }

    /// The trace stored under `id`, if any.
    #[must_use]
    pub fn get(&self, id: TraceId) -> Option<Arc<Trace>> {
        self.entries.get(&id).cloned()
    }

    /// Stored trace count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl TraceResolver for TraceTable {
    fn resolve(&self, id: TraceId) -> Option<Arc<Trace>> {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspm_trace::record;
    use ftspm_workloads::{Synthetic, SyntheticConfig};

    fn sample(seed: u64) -> (TraceId, Arc<Trace>) {
        let trace = record(&mut Synthetic::new(SyntheticConfig {
            accesses: 50,
            buffer_words: 16,
            seed,
            ..SyntheticConfig::default()
        }))
        .expect("records");
        let id = TraceId::of(&trace.encode());
        (id, Arc::new(trace))
    }

    #[test]
    fn stores_dedupes_and_resolves() {
        let mut table = TraceTable::new(4);
        let (id, trace) = sample(1);
        assert_eq!(
            table.insert(id, Arc::clone(&trace)),
            Stored::Added { evicted: false }
        );
        assert_eq!(table.insert(id, Arc::clone(&trace)), Stored::Existing);
        assert_eq!(table.len(), 1);
        assert_eq!(table.resolve(id).as_deref(), Some(&*trace));
        assert!(table.resolve(TraceId::of(b"other")).is_none());
    }

    #[test]
    fn full_table_evicts_oldest() {
        let mut table = TraceTable::new(2);
        let (id1, t1) = sample(1);
        let (id2, t2) = sample(2);
        let (id3, t3) = sample(3);
        assert_eq!(table.insert(id1, t1), Stored::Added { evicted: false });
        assert_eq!(table.insert(id2, t2), Stored::Added { evicted: false });
        assert_eq!(table.insert(id3, t3), Stored::Added { evicted: true });
        assert_eq!(table.len(), 2);
        assert!(table.get(id1).is_none(), "oldest evicted");
        assert!(table.get(id2).is_some());
        assert!(table.get(id3).is_some());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut table = TraceTable::new(0);
        let (id, trace) = sample(9);
        assert_eq!(table.insert(id, trace), Stored::Added { evicted: false });
        assert!(table.get(id).is_some());
    }
}
