//! The per-shard LRU cache for regenerated tables and diffs.
//!
//! Site lookups never touch this cache — their bodies are precomputed
//! at index-build time and served by refcount bump. What *is* worth
//! caching is the render work behind `/q/table/…` and `/q/diff/…`:
//! regenerating a table walks every row, and a diff joins two whole
//! campaigns. The key is the canonical query path, which encodes
//! (campaign, query kind, params) by construction (see [`crate::query`]).
//!
//! Each worker shard owns its cache outright (shared-nothing), so
//! eviction order is a pure function of the shard's own query
//! subsequence — deterministic at any worker count. And because a hit
//! returns the exact [`Bytes`] a miss stored (which the handler
//! regenerates as a pure function of the loaded records), caching can
//! never change a single response byte: cache-on and cache-off runs are
//! byte-identical by construction, which the determinism suite asserts.

use std::collections::VecDeque;

use bytes::Bytes;

/// A small deterministic LRU keyed by canonical query path.
#[derive(Debug)]
pub struct QueryCache {
    capacity: usize,
    enabled: bool,
    #[expect(
        clippy::disallowed_types,
        reason = "lookup-only, probed per table/diff query on the serve path; \
                  eviction follows `order`, never the map's iteration"
    )]
    map: std::collections::HashMap<String, Bytes>,
    /// Recency order, least-recent first. Small (≤ capacity), so the
    /// O(len) bump-on-hit scan stays cheaper than any linked structure.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

impl QueryCache {
    /// A cache holding at most `capacity` rendered bodies. A disabled
    /// cache counts every probe as a miss and stores nothing — the
    /// configuration the determinism suite compares against.
    pub fn new(capacity: usize, enabled: bool) -> QueryCache {
        QueryCache {
            capacity: capacity.max(1),
            enabled,
            map: Default::default(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `key`, counting a hit (and refreshing recency) or a miss.
    pub fn get(&mut self, key: &str) -> Option<Bytes> {
        if !self.enabled {
            self.misses += 1;
            return None;
        }
        match self.map.get(key) {
            Some(body) => {
                self.hits += 1;
                let body = body.clone();
                if let Some(pos) = self.order.iter().position(|k| k == key) {
                    if let Some(k) = self.order.remove(pos) {
                        self.order.push_back(k);
                    }
                }
                Some(body)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores the body just rendered for `key`, evicting the
    /// least-recently-used entry when full. No-op when disabled.
    pub fn put(&mut self, key: String, body: Bytes) {
        if !self.enabled {
            return;
        }
        if self.map.insert(key.clone(), body).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.map.remove(&evicted);
                }
            }
        }
    }

    /// Hits counted so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses counted so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Bytes {
        Bytes::from(s.as_bytes().to_vec())
    }

    #[test]
    fn hit_returns_stored_bytes_and_counts() {
        let mut cache = QueryCache::new(4, true);
        assert!(cache.get("/q/table/0").is_none());
        cache.put("/q/table/0".to_string(), body("TABLE"));
        assert_eq!(cache.get("/q/table/0").as_deref(), Some(&b"TABLE"[..]));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = QueryCache::new(2, true);
        cache.put("a".to_string(), body("A"));
        cache.put("b".to_string(), body("B"));
        // Touch "a" so "b" becomes least recent.
        assert!(cache.get("a").is_some());
        cache.put("c".to_string(), body("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn disabled_cache_stores_nothing_and_misses_everything() {
        let mut cache = QueryCache::new(4, false);
        cache.put("a".to_string(), body("A"));
        assert!(cache.is_empty());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
    }
}
