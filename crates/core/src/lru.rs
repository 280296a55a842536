//! [`ByteLru`]: the one byte-budgeted least-recently-used map behind both
//! in-memory cache tiers (the [`OptCache`](crate::cache::OptCache) shards
//! and the server's textual front cache).
//!
//! The map owns the whole policy: the byte budget is a hard invariant, an
//! entry larger than the budget is refused, an insert under a resident key
//! replaces it (so a fingerprint collision can never starve a program of
//! caching), an accepted lookup refreshes its entry, and an insert evicts
//! least-recent entries until the newcomer fits. Callers hold it behind
//! their own lock; it is not thread-safe by itself.
//!
//! Recency is a per-map counter stamped on every hit and insert; eviction
//! scans for the minimal stamp. The scan is linear in the map's length,
//! which the byte budget keeps small per shard.

use std::collections::HashMap;
use std::hash::Hash;

struct Slot<V> {
    value: V,
    /// Charge against the budget, fixed at insert.
    bytes: usize,
    /// Clock value at the last hit or insert.
    stamp: u64,
}

/// A map whose entries are charged in bytes against a fixed budget, with
/// least-recently-used eviction. See the module docs for the policy.
pub struct ByteLru<K, V> {
    /// The default (randomly keyed) hasher: keys derive from submitted
    /// programs, so a fixed hash function would let a client pile its
    /// entries into one probe sequence.
    map: HashMap<K, Slot<V>>,
    budget: usize,
    /// Sum of `bytes` over resident entries; never exceeds `budget`.
    bytes: usize,
    /// Monotonic recency clock.
    clock: u64,
}

impl<K: Copy + Eq + Hash, V> ByteLru<K, V> {
    /// An empty map holding at most `budget` bytes of entries.
    pub fn new(budget: usize) -> Self {
        ByteLru {
            map: HashMap::new(),
            budget,
            bytes: 0,
            clock: 0,
        }
    }

    /// The value under `key`, if `accept` approves it. Keys are hashes
    /// that can collide, so callers verify the resident value against the
    /// request; only an accepted entry counts as a hit and is refreshed.
    pub fn get(&mut self, key: &K, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let stamp = self.clock + 1;
        let slot = self.map.get_mut(key).filter(|s| accept(&s.value))?;
        slot.stamp = stamp;
        self.clock = stamp;
        Some(&slot.value)
    }

    /// Insert `value` charged at `bytes`, replacing any entry under `key`
    /// and evicting least-recent entries until it fits. An entry larger
    /// than the whole budget is not stored (the replaced one is still
    /// dropped). Returns the number of evictions.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> u64 {
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
        }
        if bytes > self.budget {
            return 0;
        }
        let mut evicted = 0;
        while self.bytes + bytes > self.budget {
            let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(gone) = self.map.remove(&oldest) {
                self.bytes -= gone.bytes;
                evicted += 1;
            }
        }
        self.clock += 1;
        self.bytes += bytes;
        self.map.insert(
            key,
            Slot {
                value,
                bytes,
                stamp: self.clock,
            },
        );
        evicted
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(lru: &mut ByteLru<u32, u32>, key: u32) -> bool {
        lru.get(&key, |_| true).is_some()
    }

    #[test]
    fn budget_is_never_exceeded_under_churn() {
        let mut lru = ByteLru::new(250);
        let mut evicted = 0;
        for i in 0..100 {
            evicted += lru.insert(i, i, 40 + (i as usize * 7) % 60);
            assert!(lru.bytes() <= lru.budget(), "after insert {i}");
        }
        assert!(evicted >= 90, "churn must evict: {evicted}");
        assert!(!lru.is_empty());
    }

    #[test]
    fn hot_key_survives_cold_churn() {
        let mut lru = ByteLru::new(250);
        lru.insert(0, 0, 100);
        for i in 1..50 {
            lru.insert(i, i, 100);
            assert!(hit(&mut lru, 0), "round {i}: the hot entry was evicted");
        }
        // The hot entry plus the newest cold one fill the budget.
        assert_eq!((lru.len(), lru.bytes()), (2, 200));
        assert!(hit(&mut lru, 49) && !hit(&mut lru, 48));
    }

    #[test]
    fn oversize_entries_are_refused() {
        let mut lru = ByteLru::new(100);
        lru.insert(1, 1, 60);
        assert_eq!(lru.insert(2, 2, 101), 0, "a refusal evicts nothing");
        assert!(!hit(&mut lru, 2));
        assert_eq!((lru.len(), lru.bytes()), (1, 60));
        // Exactly the budget still fits (evicting the rest).
        assert_eq!(lru.insert(3, 3, 100), 1);
        assert_eq!((lru.len(), lru.bytes()), (1, 100));
    }

    #[test]
    fn same_key_replace_reaccounts_bytes() {
        let mut lru = ByteLru::new(100);
        lru.insert(7, 1, 30);
        lru.insert(8, 2, 30);
        assert_eq!(lru.insert(7, 3, 50), 0, "replacing makes its own room");
        assert_eq!((lru.len(), lru.bytes()), (2, 80));
        assert_eq!(lru.get(&7, |_| true), Some(&3));
        lru.insert(7, 4, 10);
        assert_eq!((lru.len(), lru.bytes()), (2, 40));
    }

    #[test]
    fn rejected_lookups_do_not_refresh() {
        let mut lru = ByteLru::new(100);
        lru.insert(1, 10, 50);
        lru.insert(2, 20, 50);
        // A verified mismatch on key 1 is a miss and leaves it least recent.
        assert!(lru.get(&1, |v| *v == 99).is_none());
        assert_eq!(lru.insert(3, 30, 50), 1);
        assert!(!hit(&mut lru, 1) && hit(&mut lru, 2));
    }

    #[test]
    fn clear_zeroes_bytes() {
        let mut lru = ByteLru::new(100);
        lru.insert(1, 1, 40);
        lru.insert(2, 2, 40);
        lru.clear();
        assert_eq!((lru.len(), lru.bytes()), (0, 0));
        assert!(!hit(&mut lru, 1));
        lru.insert(3, 3, 100);
        assert_eq!(lru.bytes(), 100, "a cleared map has its whole budget");
    }
}
