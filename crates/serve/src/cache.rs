//! The cross-request verdict cache: serialized verdicts keyed by the
//! canonical structural hash of the request.
//!
//! This lifts the session's per-set `SignatureCache` one level: where
//! that cache memoizes path enumeration *within* one task set, this one
//! memoizes the entire analysis *across* requests — a duplicate or hot
//! submission short-circuits before any analysis runs.
//!
//! The cache stores the **serialized response body** (`Arc<str>`), not
//! the verdict struct, so a hit is byte-identical to the cold response
//! by construction — the determinism discipline on the wire. Hit/miss
//! provenance travels in the `X-Verdict-Cache` response header, never
//! in the body (a body difference would break byte-identity).
//!
//! Eviction is least-recently-used via a monotonic touch stamp: hits
//! refresh the stamp in O(1); a full insert evicts the minimum-stamp
//! entry with one O(capacity) scan, which is noise next to the cold
//! analysis that preceded it.
//!
//! Two lookup tiers, because the structural key requires *parsing* the
//! request and parsing dominates a hot submission's cost:
//!
//! 1. **raw tier** — a keyed hash of the request bytes ([`raw_key`])
//!    indexes an alias map onto the structural entry, so a
//!    byte-identical duplicate short-circuits before JSON parsing;
//! 2. **structural tier** — the canonical key computed after parse,
//!    which also catches duplicates that permute task order or relabel
//!    vertices.
//!
//! Evicting a structural entry drops its aliases, so the raw tier can
//! never resurrect an evicted verdict.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use serde::Serialize;

/// Cache counters, as exposed on `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run the analysis.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    body: Arc<str>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Index {
    /// Structural key → resident verdict.
    entries: HashMap<u64, Entry>,
    /// Raw body hash → structural key (the parse-free fast path).
    aliases: HashMap<u64, u64>,
}

/// The parse-free cache tier's key: std's SipHash-1-3 of the raw request
/// bytes under one random key per process (raw keys never leave it).
///
/// Keyed, so that no client can craft a body whose key collides with
/// another client's submission and be served that client's verdict.
pub fn raw_key(bytes: &[u8]) -> u64 {
    static KEY: OnceLock<RandomState> = OnceLock::new();
    KEY.get_or_init(RandomState::new).hash_one(bytes)
}

/// A bounded, thread-safe verdict cache.
#[derive(Debug)]
pub struct VerdictCache {
    index: Mutex<Index>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictCache {
    /// Creates a cache holding at most `capacity` verdicts (minimum 1).
    pub fn new(capacity: usize) -> Self {
        VerdictCache {
            index: Mutex::new(Index::default()),
            capacity: capacity.max(1),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The parse-free fast path: looks a verdict up by the raw body
    /// hash. Counts a hit when resident; counts **nothing** on absence
    /// — the caller falls through to parse and [`get`](Self::get),
    /// which owns the miss accounting.
    pub fn get_raw(&self, raw: u64) -> Option<Arc<str>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut index = self.index.lock();
        let key = *index.aliases.get(&raw)?;
        let entry = index.entries.get_mut(&key)?;
        entry.touched = stamp;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.body))
    }

    /// Looks a verdict body up by structural key, counting a hit or a
    /// miss, and learns the `raw → key` alias either way so the next
    /// byte-identical duplicate skips the parse.
    pub fn get(&self, key: u64, raw: u64) -> Option<Arc<str>> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut index = self.index.lock();
        Self::learn_alias(&mut index, raw, key, self.capacity);
        match index.entries.get_mut(&key) {
            Some(entry) => {
                entry.touched = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.body))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a verdict body, evicting the least-recently-used entry
    /// (and its aliases) when full. Returns the resident body — under a
    /// concurrent race the first writer wins, so every caller serves
    /// the same bytes.
    pub fn insert(&self, key: u64, raw: u64, body: Arc<str>) -> Arc<str> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut index = self.index.lock();
        Self::learn_alias(&mut index, raw, key, self.capacity);
        if let Some(existing) = index.entries.get_mut(&key) {
            existing.touched = stamp;
            return Arc::clone(&existing.body);
        }
        if index.entries.len() >= self.capacity {
            if let Some(&oldest) = index
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k)
            {
                index.entries.remove(&oldest);
                index.aliases.retain(|_, &mut k| k != oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        index.entries.insert(
            key,
            Entry {
                body: Arc::clone(&body),
                touched: stamp,
            },
        );
        body
    }

    /// Records `raw → key`, bounding the alias map at 8× the entry
    /// capacity (distinct permutations of one submission each get an
    /// alias; a flush on overflow only costs re-parses, never
    /// correctness).
    fn learn_alias(index: &mut Index, raw: u64, key: u64, capacity: usize) {
        if index.aliases.len() >= capacity.saturating_mul(8) && !index.aliases.contains_key(&raw) {
            index.aliases.clear();
        }
        index.aliases.insert(raw, key);
    }

    /// A consistent snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let index = self.index.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: index.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(text: &str) -> Arc<str> {
        Arc::from(text)
    }

    /// A distinct raw hash per structural key, as if each submission
    /// had exactly one byte encoding.
    fn raw(key: u64) -> u64 {
        key.wrapping_mul(1000)
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let cache = VerdictCache::new(4);
        assert!(cache.get(1, raw(1)).is_none());
        cache.insert(1, raw(1), body("verdict-1"));
        assert_eq!(cache.get(1, raw(1)).as_deref(), Some("verdict-1"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn raw_tier_short_circuits_and_dies_with_its_entry() {
        let cache = VerdictCache::new(1);
        assert!(cache.get_raw(raw(1)).is_none(), "unknown raw hash");
        cache.insert(1, raw(1), body("a"));
        assert_eq!(cache.get_raw(raw(1)).as_deref(), Some("a"));
        // A permuted encoding of the same submission learns a second
        // alias onto the same entry.
        cache.insert(1, raw(91), body("a"));
        assert_eq!(cache.get_raw(raw(91)).as_deref(), Some("a"));
        // Evicting the entry must drop both aliases.
        cache.insert(2, raw(2), body("b"));
        assert!(cache.get_raw(raw(1)).is_none(), "alias of evicted entry");
        assert!(cache.get_raw(raw(91)).is_none(), "alias of evicted entry");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.evictions), (2, 1));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let cache = VerdictCache::new(2);
        cache.insert(1, raw(1), body("a"));
        cache.insert(2, raw(2), body("b"));
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.get(1, raw(1)).is_some());
        cache.insert(3, raw(3), body("c"));
        assert!(cache.get(2, raw(2)).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1, raw(1)).is_some());
        assert!(cache.get(3, raw(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn racing_inserts_keep_the_first_body() {
        let cache = VerdictCache::new(4);
        let first = cache.insert(7, raw(7), body("first"));
        let second = cache.insert(7, raw(7), body("second"));
        assert_eq!(&*first, "first");
        assert_eq!(&*second, "first", "first writer wins");
    }

    #[test]
    fn raw_key_is_stable_and_content_sensitive() {
        assert_eq!(raw_key(b"abc"), raw_key(b"abc"));
        assert_ne!(raw_key(b"abc"), raw_key(b"abd"));
        assert_ne!(raw_key(b""), raw_key(b"\0"));
    }
}
