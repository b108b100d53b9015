//! Content-addressed result cache.
//!
//! The determinism contract (DESIGN.md §11) says the same decoded job
//! and seed produce byte-identical response bytes — which makes a
//! result cache *provably* correct: a hit returns exactly the bytes a
//! fresh run would have produced, so callers cannot distinguish a hit
//! from a miss by anything but latency and the `serve.cache.*`
//! counters. The key is a 128-bit FNV-1a pair over the **canonical
//! rendering of the decoded spec** ([`crate::JobSpec::canonical`]),
//! not the raw body — whitespace, field order, and defaulted fields
//! (an omitted workload seed vs. the suite default written out) all
//! collapse to one cache line.
//!
//! The cache is a bounded LRU. Capacities are small (default 128
//! entries) because one entry is one full report, so lookup is a
//! linear scan over the recency list — microseconds against the
//! milliseconds a simulation costs, and trivially deterministic.

use ftspm_obs::MetricsRegistry;

/// 128-bit content key: two independent 64-bit FNV-1a streams over the
/// same canonical bytes. FNV is tiny, in-tree, and — with 128 bits
/// against a cache of a few hundred entries — collision-safe for this
/// use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64, u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8], offset: u64) -> u64 {
    let mut hash = offset;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

impl CacheKey {
    /// Hashes a canonical spec rendering into a key.
    #[must_use]
    pub fn of(canonical: &str) -> Self {
        let bytes = canonical.as_bytes();
        // Second stream: different offset basis (the first stream's
        // offset re-hashed) so the two halves are independent.
        Self(
            fnv1a64(bytes, FNV_OFFSET),
            fnv1a64(bytes, FNV_OFFSET.wrapping_mul(FNV_PRIME) ^ 0x5bd1_e995),
        )
    }

    /// The 32-hex-character rendering.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// What a finished cacheable job leaves behind: enough to replay both
/// the response *and* its metrics accounting, so a hit is
/// indistinguishable from a fresh run everywhere — response bytes,
/// `/metrics` totals, `serve.jobs` — except the `serve.cache.*`
/// counters.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The HTTP status the original run answered (200 report or 504
    /// deadline; panics are never cached).
    pub status: u16,
    /// The exact response body bytes of the original run.
    pub body: String,
    /// The job's metrics registry when the spec asked for one — folded
    /// into the server totals on every replay, exactly as a fresh run
    /// would fold it.
    pub registry: Option<MetricsRegistry>,
}

/// A bounded LRU of job results keyed by content.
#[derive(Debug)]
pub struct ResultCache {
    /// Recency order: least-recently-used at the front. Capacity is
    /// small, so Vec beats a linked structure in both simplicity and
    /// constants.
    entries: Vec<(CacheKey, CachedResult)>,
    capacity: usize,
}

impl ResultCache {
    /// An empty cache holding at most `capacity` results; 0 disables
    /// caching entirely (every probe misses, nothing is stored).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Number of cached results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<CachedResult> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let entry = self.entries.remove(pos);
        let result = entry.1.clone();
        self.entries.push(entry);
        Some(result)
    }

    /// Stores `result` under `key`, evicting the least-recently-used
    /// entry if the cache is full. Returns `true` when an eviction
    /// happened (the `serve.cache.evict` counter).
    pub fn insert(&mut self, key: CacheKey, result: CachedResult) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            // Re-inserting an existing key (two concurrent misses on
            // the same job): the bytes are identical by the determinism
            // contract, so just refresh recency.
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
            return false;
        }
        let evict = self.entries.len() >= self.capacity;
        if evict {
            self.entries.remove(0);
        }
        self.entries.push((key, result));
        evict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: &str) -> CachedResult {
        CachedResult {
            status: 200,
            body: tag.to_string(),
            registry: None,
        }
    }

    #[test]
    fn keys_are_content_addressed_and_stable() {
        let a = CacheKey::of("w=named:crc32:49859;s=ftspm");
        let b = CacheKey::of("w=named:crc32:49859;s=ftspm");
        let c = CacheKey::of("w=named:crc32:49860;s=ftspm");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.hex().len(), 32);
        assert!(a.hex().bytes().all(|b| b.is_ascii_hexdigit()));
        assert_ne!(a.hex(), c.hex());
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cache = ResultCache::new(2);
        assert!(!cache.insert(CacheKey::of("a"), result("a")));
        assert!(!cache.insert(CacheKey::of("b"), result("b")));
        // Touch `a` so `b` becomes the LRU victim.
        assert_eq!(cache.get(CacheKey::of("a")).expect("hit").body, "a");
        assert!(cache.insert(CacheKey::of("c"), result("c")), "evicts b");
        assert!(cache.get(CacheKey::of("b")).is_none());
        assert!(cache.get(CacheKey::of("a")).is_some());
        assert!(cache.get(CacheKey::of("c")).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_evicting() {
        let mut cache = ResultCache::new(2);
        cache.insert(CacheKey::of("a"), result("a"));
        cache.insert(CacheKey::of("b"), result("b"));
        assert!(!cache.insert(CacheKey::of("a"), result("a")), "no evict");
        assert_eq!(cache.len(), 2);
        // `b` is now the LRU entry.
        assert!(cache.insert(CacheKey::of("c"), result("c")));
        assert!(cache.get(CacheKey::of("b")).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        assert!(!cache.insert(CacheKey::of("a"), result("a")));
        assert!(cache.get(CacheKey::of("a")).is_none());
        assert!(cache.is_empty());
    }
}
