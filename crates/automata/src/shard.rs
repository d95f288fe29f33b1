//! N-way sharded concurrent hash maps for the cache layer.
//!
//! The memo tables behind [`crate::AutomataCache`] (and the session-level
//! caches in `ssd_core`) are read-mostly but *grow-only*: entries are pure
//! functions of immutable keys and are never invalidated. A single
//! `RwLock<HashMap>` serves warm reads well (shared lock), but cold misses
//! on *different* keys serialize on the one exclusive lock. [`ShardedMap`]
//! splits the key space into [`SHARDS`] independently locked shards
//! selected by key hash, so concurrent misses contend only when they land
//! on the same shard — and warm reads on distinct shards never touch the
//! same lock word at all.
//!
//! Two properties keep sharding semantically invisible:
//!
//! * **grow-only + immutable keys** — a key's value, once inserted, never
//!   changes, so double-checked insertion per shard preserves the
//!   "concurrent missers agree on one entry" guarantee of the unsharded
//!   design;
//! * **poison recovery** — every acquisition goes through [`read`] /
//!   [`write`], which recover a poisoned lock: a panicked writer cannot
//!   leave a map semantically inconsistent (at worst an entry is absent),
//!   so one panicking caller thread must not poison the cache for every
//!   later caller.
//!
//! Contention is observable: acquisitions that would block first bump a
//! relaxed per-shard counter ([`ShardedMap::contention_by_shard`], summed
//! by [`ShardedMap::contended`]), which the concurrency bench reports per
//! cache table.

use ssd_base::sync::{
    AtomicU64, Ordering, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Number of independently locked shards per map. A small power of two:
/// enough to make same-shard collisions rare at typical core counts, small
/// enough that per-map overhead stays negligible.
pub const SHARDS: usize = 16;

/// Read a lock, recovering from poisoning: every cached value is a pure
/// function of its key, so a panicked writer cannot leave a map
/// semantically inconsistent (at worst an entry is absent).
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|e| e.into_inner())
}

/// Write counterpart of [`read`], with the same poison-recovery rationale.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

/// A hash map split into [`SHARDS`] independently locked shards.
///
/// The API is deliberately narrow — lookup, double-checked insertion,
/// whole-map folds, and bulk eviction ([`ShardedMap::retain`] /
/// [`ShardedMap::clear`], used only by the session eviction policy).
/// There is no per-key removal and no in-place invalidation: between
/// eviction passes the maps are grow-only.
pub struct ShardedMap<K, V> {
    shards: [RwLock<HashMap<K, V>>; SHARDS],
    // All accesses are Relaxed: these are diagnostic tallies read by
    // stats snapshots — no data is published through them (the shard
    // locks order every map access), only the counts themselves have to
    // be atomic so concurrent bumps are never lost.
    contended: [AtomicU64; SHARDS],
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            contended: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl<K: Hash + Eq, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shard index a key lives in. Uses a fixed-seed `DefaultHasher`
    /// (not the map's own `RandomState`) so shard selection is
    /// deterministic within a process and independent of per-map seeding.
    fn shard_index(&self, key: &K) -> usize {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// The shard lock a key lives in (test-only: the poison-recovery test
    /// needs the raw lock to poison it).
    #[cfg(test)]
    fn shard_of(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        &self.shards[self.shard_index(key)]
    }

    /// Shared-locks a shard, counting an acquisition that would block.
    fn read_shard(&self, idx: usize) -> RwLockReadGuard<'_, HashMap<K, V>> {
        match self.shards[idx].try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended[idx].fetch_add(1, Ordering::Relaxed);
                read(&self.shards[idx])
            }
        }
    }

    /// Exclusive counterpart of [`Self::read_shard`].
    fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, HashMap<K, V>> {
        match self.shards[idx].try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.contended[idx].fetch_add(1, Ordering::Relaxed);
                write(&self.shards[idx])
            }
        }
    }

    /// Looks `key` up, cloning the stored value (the cache layer stores
    /// `Arc`s and `Copy` verdicts, so clones are cheap).
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.read_shard(self.shard_index(key)).get(key).cloned()
    }

    /// Runs `f` on the entry under the shared shard lock (for values that
    /// would be expensive to clone, e.g. hash-cons buckets).
    pub fn read_with<R>(&self, key: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.read_shard(self.shard_index(key)).get(key))
    }

    /// Inserts `value` for `key` unless another thread beat us to it,
    /// returning the canonical stored value either way. This is the
    /// publish half of double-checked insertion: compute the value
    /// *outside* any lock, then race to store it.
    pub fn insert_if_absent(&self, key: K, value: V) -> V
    where
        V: Clone,
    {
        let idx = self.shard_index(&key);
        self.write_shard(idx).entry(key).or_insert(value).clone()
    }

    /// Double-checked get-or-compute: a shared-lock probe first, then the
    /// exclusive shard lock with a re-check, computing `f` at most once
    /// per key *under the lock* (so concurrent missers on one key never
    /// duplicate an expensive construction — only same-shard keys wait).
    pub fn get_or_insert_with(&self, key: K, f: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        let idx = self.shard_index(&key);
        if let Some(v) = self.read_shard(idx).get(&key) {
            return v.clone();
        }
        self.write_shard(idx).entry(key).or_insert_with(f).clone()
    }

    /// Runs `f` on the (default-initialized) entry under the exclusive
    /// shard lock. Used for in-place bucket mutation (hash-consing), where
    /// `f` must re-check for a racing insertion itself.
    pub fn write_with<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let idx = self.shard_index(&key);
        f(self.write_shard(idx).entry(key).or_default())
    }

    /// Total entry count across all shards (point-in-time).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read(s).len()).sum()
    }

    /// The entry count of each individual shard, in shard order — the
    /// occupancy gauges behind the metrics registry's per-shard export
    /// (a skewed distribution here means the key hash is clumping and
    /// misses are serializing on few locks).
    pub fn len_by_shard(&self) -> [usize; SHARDS] {
        std::array::from_fn(|i| read(&self.shards[i]).len())
    }

    /// Whether the map holds no entries (point-in-time).
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| read(s).is_empty())
    }

    /// Folds `f` over every stored value (shard by shard, shared locks).
    pub fn fold_values<A>(&self, init: A, mut f: impl FnMut(A, &V) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            for v in read(shard).values() {
                acc = f(acc, v);
            }
        }
        acc
    }

    /// Folds `f` over every `(key, value)` entry (shard by shard, shared
    /// locks). Used by the snapshot exporter, which must serialize both
    /// the interned keys and the cached artifacts.
    pub fn fold<A>(&self, init: A, mut f: impl FnMut(A, &K, &V) -> A) -> A {
        let mut acc = init;
        for shard in &self.shards {
            for (k, v) in read(shard).iter() {
                acc = f(acc, k, v);
            }
        }
        acc
    }

    /// Removes every entry `f` returns `false` for, returning how many
    /// were evicted. Shards are swept one at a time under their
    /// exclusive lock, so readers of other shards are never blocked.
    ///
    /// This is the one departure from the grow-only contract, reserved
    /// for the session eviction policy: it is sound because every
    /// cached value is a pure function of its immutable key, so a
    /// future miss recomputes an identical value (evict-then-recompute
    /// ≡ never-evicted, up to allocation identity).
    pub fn retain(&self, mut f: impl FnMut(&K, &V) -> bool) -> u64 {
        let mut evicted = 0u64;
        for idx in 0..SHARDS {
            let mut shard = self.write_shard(idx);
            let before = shard.len();
            shard.retain(|k, v| f(k, v));
            evicted += (before - shard.len()) as u64;
        }
        evicted
    }

    /// Removes every entry, returning how many there were. Same
    /// soundness argument as [`Self::retain`] — an epoch flush only
    /// costs recomputation, never correctness.
    pub fn clear(&self) -> u64 {
        let mut evicted = 0u64;
        for idx in 0..SHARDS {
            let mut shard = self.write_shard(idx);
            evicted += shard.len() as u64;
            shard.clear();
        }
        evicted
    }

    /// Lock acquisitions (read or write) that found the shard lock held
    /// and had to block, summed over all shards.
    pub fn contended(&self) -> u64 {
        self.contended
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// The blocked-acquisition count of each individual shard, in shard
    /// order (the concurrency bench's per-shard contention report).
    pub fn contention_by_shard(&self) -> [u64; SHARDS] {
        std::array::from_fn(|i| self.contended[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_after_insert_round_trips() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(&7), None);
        assert_eq!(m.insert_if_absent(7, 49), 49);
        assert_eq!(m.get(&7), Some(49));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn insert_if_absent_keeps_the_first_value() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        assert_eq!(m.insert_if_absent(1, 10), 10);
        assert_eq!(m.insert_if_absent(1, 20), 10);
        assert_eq!(m.get(&1), Some(10));
    }

    #[test]
    fn keys_spread_across_shards() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..256u64 {
            m.insert_if_absent(k, k);
        }
        assert_eq!(m.len(), 256);
        let non_empty = m.shards.iter().filter(|s| !read(s).is_empty()).count();
        assert!(non_empty > SHARDS / 2, "only {non_empty} shards populated");
        assert_eq!(m.fold_values(0u64, |a, &v| a + v), (0..256).sum::<u64>());
    }

    #[test]
    fn concurrent_insertions_agree_per_key() {
        let m: Arc<ShardedMap<u64, Arc<u64>>> = Arc::new(ShardedMap::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    (0..64u64)
                        .map(|k| Arc::clone(&m.insert_if_absent(k, Arc::new(k * 100 + i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<Arc<u64>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for per_key in 0..64 {
            for r in &results[1..] {
                assert!(Arc::ptr_eq(&r[per_key], &results[0][per_key]));
            }
        }
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn retain_and_clear_count_evictions() {
        let m: ShardedMap<u64, u64> = ShardedMap::new();
        for k in 0..100u64 {
            m.insert_if_absent(k, k);
        }
        let evicted = m.retain(|&k, _| k % 2 == 0);
        assert_eq!(evicted, 50);
        assert_eq!(m.len(), 50);
        assert_eq!(m.get(&2), Some(2));
        assert_eq!(m.get(&3), None);
        assert_eq!(m.clear(), 50);
        assert!(m.is_empty());
    }

    #[test]
    fn poisoned_shards_recover() {
        let m: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new());
        m.insert_if_absent(3, 9);
        let m2 = Arc::clone(&m);
        // Poison the shard of key 3 by panicking while holding its write
        // lock; later callers must still read the entry.
        let _ = std::thread::spawn(move || {
            let _guard = m2.shard_of(&3).write().unwrap();
            panic!("poison");
        })
        .join();
        assert_eq!(m.get(&3), Some(9));
        assert_eq!(m.insert_if_absent(3, 10), 9);
    }
}
