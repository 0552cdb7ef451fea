//! LRU response cache keyed on quantized inputs.
//!
//! Surrogate inference is deterministic, so repeated queries are pure
//! waste; and in design-space exploration, queries cluster. Inputs are
//! quantized onto a uniform grid before hashing, so requests within half
//! a quantum of each other share an entry — the served value is whichever
//! exact input populated the entry first. Set `quantum` small (or use
//! [`CacheKey::exact`]) when approximate sharing is unacceptable.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Cache key: request kind tag + quantized input coordinates, and
/// optionally the version of the model whose response it names (see
/// [`CacheKey::with_version`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheKey {
    kind: u8,
    cells: Vec<i64>,
    version: Option<u64>,
}

// An unversioned key hashes over kind and cells only, so the fleet
// router, which hashes unversioned keys to pick a shard, places every key
// where it would without the version field.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.cells.hash(state);
        if let Some(v) = self.version {
            v.hash(state);
        }
    }
}

impl CacheKey {
    /// Quantize `input` onto a grid of the given `quantum`.
    pub fn quantized(kind: u8, input: &[f32], quantum: f32) -> Self {
        assert!(quantum > 0.0, "quantum must be positive");
        let inv = 1.0 / quantum;
        CacheKey {
            kind,
            cells: input
                .iter()
                .map(|&v| (v as f64 * inv as f64).round() as i64)
                .collect(),
            version: None,
        }
    }

    /// Bit-exact key (no sharing between nearby inputs).
    pub fn exact(kind: u8, input: &[f32]) -> Self {
        CacheKey {
            kind,
            cells: input.iter().map(|&v| v.to_bits() as i64).collect(),
            version: None,
        }
    }

    /// The same key scoped to one model version: after a hot-swap, the
    /// new version's lookups miss every entry the old version filled.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = Some(version);
        self
    }
}

struct Node {
    key: CacheKey,
    value: Vec<f32>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// Fixed-capacity least-recently-used map from [`CacheKey`] to a response
/// vector. Intrusive doubly-linked list over a slab: O(1) get/put.
pub struct LruCache {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Node>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl LruCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "use Option<LruCache> to disable caching");
        LruCache {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up a response, promoting the entry to most-recently-used.
    pub fn get(&mut self, key: &CacheKey) -> Option<Vec<f32>> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.hits += 1;
                self.unlink(idx);
                self.push_front(idx);
                Some(self.slab[idx].value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a response, evicting the least-recently-used entry at
    /// capacity. Inserting an existing key refreshes its value/recency.
    pub fn put(&mut self, key: CacheKey, value: Vec<f32>) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let idx = if self.map.len() >= self.capacity {
            // Reuse the LRU node in place.
            let idx = self.tail;
            self.unlink(idx);
            let old_key = std::mem::replace(&mut self.slab[idx].key, key.clone());
            self.map.remove(&old_key);
            self.slab[idx].value = value;
            idx
        } else {
            self.slab.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: f32) -> CacheKey {
        CacheKey::quantized(0, &[v], 0.1)
    }

    #[test]
    fn hit_returns_cached_value() {
        let mut c = LruCache::new(4);
        c.put(k(1.0), vec![42.0]);
        assert_eq!(c.get(&k(1.0)), Some(vec![42.0]));
        assert_eq!((c.hits(), c.misses()), (1, 0));
    }

    #[test]
    fn versions_never_share_entries() {
        let mut c = LruCache::new(4);
        c.put(k(1.0).with_version(1), vec![1.0]);
        assert_eq!(c.get(&k(1.0).with_version(2)), None);
        assert_eq!(c.get(&k(1.0)), None);
        assert_eq!(c.get(&k(1.0).with_version(1)), Some(vec![1.0]));
    }

    #[test]
    fn quantization_shares_nearby_inputs() {
        let mut c = LruCache::new(4);
        c.put(CacheKey::quantized(0, &[1.00], 0.1), vec![7.0]);
        // 1.04 rounds to the same 0.1-cell as 1.00.
        assert_eq!(
            c.get(&CacheKey::quantized(0, &[1.04], 0.1)),
            Some(vec![7.0])
        );
        // 1.06 rounds to the next cell.
        assert_eq!(c.get(&CacheKey::quantized(0, &[1.06], 0.1)), None);
        // Different kind tag never collides.
        assert_eq!(c.get(&CacheKey::quantized(1, &[1.00], 0.1)), None);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = LruCache::new(2);
        c.put(k(1.0), vec![1.0]);
        c.put(k(2.0), vec![2.0]);
        assert!(c.get(&k(1.0)).is_some()); // 1 is now MRU
        c.put(k(3.0), vec![3.0]); // evicts 2
        assert!(c.get(&k(2.0)).is_none());
        assert!(c.get(&k(1.0)).is_some());
        assert!(c.get(&k(3.0)).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn put_existing_refreshes() {
        let mut c = LruCache::new(2);
        c.put(k(1.0), vec![1.0]);
        c.put(k(2.0), vec![2.0]);
        c.put(k(1.0), vec![10.0]); // refresh: 2 becomes LRU
        c.put(k(3.0), vec![3.0]); // evicts 2
        assert_eq!(c.get(&k(1.0)), Some(vec![10.0]));
        assert!(c.get(&k(2.0)).is_none());
    }

    #[test]
    fn heavy_churn_stays_bounded() {
        let mut c = LruCache::new(16);
        for i in 0..1000 {
            c.put(k(i as f32), vec![i as f32]);
            if i % 3 == 0 {
                let _ = c.get(&k((i / 2) as f32));
            }
            assert!(c.len() <= 16);
        }
    }
}
