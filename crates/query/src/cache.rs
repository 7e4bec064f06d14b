//! The engine's one bounded cache type: a fingerprint-sharded,
//! LRU-evicted map behind read/write locks.
//!
//! Score matrices and maintained BMO results both live in a
//! [`ShardedLru`]; there is exactly one insert and one eviction routine
//! ([`ShardedLru::insert`]) for the two of them.
//!
//! Concurrency: a cache is split into fingerprint-selected
//! read/write-locked shards (see `CACHE_SHARDS`), so a whole multi-tier
//! lookup takes exactly one shard's *read* lock ([`ShardedLru::read`]).
//! LRU stamps and the resident count are atomics; only inserts,
//! evictions and `clear` take a write lock, and never more than one
//! shard lock at a time.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{RwLock, RwLockReadGuard};

/// Number of lock shards a cache is split over (power of two).
///
/// Every cache key a single lookup can probe — exact generation, derived
/// lineage, window base, delta base — embeds the same *term fingerprint*,
/// so sharding by fingerprint keeps a whole lookup inside one shard: one
/// read-lock acquisition resolves every tier, and lookups for *different*
/// terms never contend on the same lock. Concurrent sessions executing
/// distinct prepared queries therefore scale with cores instead of
/// convoying on a global mutex; same-term readers still proceed in
/// parallel because the shard lock is a read/write lock and warm hits
/// only ever take the read side.
const CACHE_SHARDS: usize = 16;

/// The shard a fingerprint's cache entries live in. Fingerprints are
/// already well-mixed 64-bit hashes; fold the high half in so the shard
/// index uses all of them.
pub(crate) fn cache_shard_of(fp: u64) -> usize {
    ((fp ^ (fp >> 32)) as usize) & (CACHE_SHARDS - 1)
}

/// `lock_diag` group name of the cache shard locks.
///
/// Only the cache shards are tagged — not every lock in the process —
/// because the concurrency contract is specifically "builds run outside
/// the *engine's cache* locks": a server session legitimately holds the
/// catalog's read lock across a whole statement execution, matrix
/// builds included.
const MATRIX_CACHE_GROUP: &str = "pref-query/matrix-cache";

/// Marker for the start of a matrix materialization: under
/// `--cfg lock_diag` builds, panics if the calling thread still holds
/// any cache shard lock — the cheapest possible proof that the
/// expensive build really runs outside the engine's cache locks
/// (concurrent warm hits on other terms are never blocked by a build).
/// Compiled to nothing otherwise.
#[inline]
pub(crate) fn build_scope() {
    parking_lot::lock_diag::assert_group_free(MATRIX_CACHE_GROUP);
}

struct Entry<V> {
    value: V,
    /// LRU stamp, atomic so the read-locked hit path can refresh it
    /// without upgrading to a write lock.
    last_used: AtomicU64,
}

type Shard<K, V> = HashMap<K, Entry<V>>;

/// A bounded map split into [`CACHE_SHARDS`] read/write-locked shards,
/// evicting the globally least-recently-used entry once more than
/// `capacity` are resident. Capacity `0` stores nothing.
pub(crate) struct ShardedLru<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    /// The bound; re-set only at builder time, before anything is stored.
    pub(crate) capacity: usize,
    /// LRU clock (monotone; ties are harmless).
    tick: AtomicU64,
    /// Entries currently resident across all shards — maintained on
    /// insert/evict/clear so [`ShardedLru::len`] never takes a lock.
    resident: AtomicUsize,
}

impl<K: Copy + Eq + Hash, V> ShardedLru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        ShardedLru {
            shards: (0..CACHE_SHARDS)
                .map(|_| {
                    let shard: RwLock<Shard<K, V>> = RwLock::default();
                    // Tag for lock_diag builds: `build_scope` asserts
                    // this group free before any materialization.
                    shard.diag_set_group(MATRIX_CACHE_GROUP);
                    shard
                })
                .collect(),
            capacity,
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
        }
    }

    /// Entries currently resident. Lock-free.
    pub(crate) fn len(&self) -> usize {
        // Relaxed: a monitoring read of an advisory count.
        self.resident.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> u64 {
        // Relaxed: the LRU clock only needs to be monotone, not ordered
        // against any other memory — ties just mis-rank.
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Read-lock the shard of `shard_fp` for one lookup. Every
    /// [`ShardRead::get`] through the returned guard probes under that
    /// single lock acquisition and stamps what it finds with one fresh
    /// LRU tick.
    pub(crate) fn read(&self, shard_fp: u64) -> ShardRead<'_, K, V> {
        ShardRead {
            tick: self.next_tick(),
            map: self.shards[cache_shard_of(shard_fp)].read(),
        }
    }

    /// Insert `value` under `key` in the shard of `shard_fp`, then
    /// LRU-evict until the *global* capacity holds. The insert
    /// write-locks exactly one shard; the eviction scan acquires one
    /// shard lock at a time (so concurrent inserters can never deadlock
    /// on each other), which means the resident count can transiently
    /// overshoot `capacity` under contention — bounded by the number of
    /// concurrent inserters, and repaired before each of them returns.
    pub(crate) fn insert(&self, shard_fp: u64, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            value,
            last_used: AtomicU64::new(self.next_tick()),
        };
        let fresh = self.shards[cache_shard_of(shard_fp)]
            .write()
            .insert(key, entry)
            .is_none();
        if fresh {
            // Relaxed: `resident` is an advisory count driving the
            // eviction loop; the shard write lock orders the map itself,
            // and the loop re-checks under that lock.
            self.resident.fetch_add(1, Ordering::Relaxed);
        }
        // Relaxed: transient over/undershoot only delays or repeats an
        // eviction pass; every structural decision re-checks under the
        // victim shard's write lock below.
        while self.resident.load(Ordering::Relaxed) > self.capacity {
            // Find the globally least-recently-used entry, one shard at
            // a time, then re-check under that shard's write lock: if
            // the entry was touched (or evicted) in between, retry
            // rather than evict a freshly used value.
            let mut victim: Option<(usize, K, u64)> = None;
            for (i, shard) in self.shards.iter().enumerate() {
                for (k, e) in shard.read().iter() {
                    // Relaxed: a stale LRU stamp can only mis-rank the
                    // victim; the write-locked re-check below catches it.
                    let lu = e.last_used.load(Ordering::Relaxed);
                    if victim.is_none_or(|(_, _, best)| lu < best) {
                        victim = Some((i, *k, lu));
                    }
                }
            }
            let Some((i, k, lu)) = victim else { break };
            let mut shard = self.shards[i].write();
            // Relaxed: this re-read runs under the shard write lock,
            // which orders it against every touch of the entry.
            let untouched = |e: &Entry<V>| e.last_used.load(Ordering::Relaxed) == lu;
            if shard.get(&k).is_some_and(untouched) {
                shard.remove(&k);
                // Relaxed: advisory count, see the insert above.
                self.resident.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every entry. Clears one shard at a time; entries inserted
    /// concurrently into already-cleared shards survive, which is the
    /// same guarantee a single global lock gave a caller racing a
    /// concurrent insert.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let removed = {
                let mut shard = shard.write();
                let n = shard.len();
                shard.clear();
                n
            };
            // Relaxed: advisory count; the shard write lock above
            // ordered the actual map mutation.
            self.resident.fetch_sub(removed, Ordering::Relaxed);
        }
    }
}

/// One shard of a [`ShardedLru`], read-locked for the duration of a
/// lookup.
pub(crate) struct ShardRead<'a, K, V> {
    map: RwLockReadGuard<'a, Shard<K, V>>,
    tick: u64,
}

impl<K: Eq + Hash, V> ShardRead<'_, K, V> {
    /// The value under `key`, refreshing its LRU stamp.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let entry = self.map.get(key)?;
        // Relaxed: the LRU stamp is advisory; the value itself is
        // ordered by the shard lock.
        entry.last_used.store(self.tick, Ordering::Relaxed);
        Some(&entry.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys shard by themselves in these tests.
    fn put(c: &ShardedLru<u64, u64>, k: u64) {
        c.insert(k, k, k * 10);
    }

    fn has(c: &ShardedLru<u64, u64>, k: u64) -> bool {
        c.read(k).get(&k).is_some()
    }

    #[test]
    fn never_above_capacity_once_insert_returns() {
        let c = ShardedLru::new(5);
        for k in 0..200u64 {
            put(&c, k);
            assert!(c.len() <= 5, "{} resident after inserting {k}", c.len());
        }
        assert_eq!(c.len(), 5);
        // Re-inserting a resident key replaces, it does not grow.
        put(&c, 199);
        assert_eq!(c.len(), 5);
        assert_eq!(c.read(199).get(&199), Some(&1990));
    }

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let c = ShardedLru::new(3);
        for k in [1, 2, 3] {
            put(&c, k);
        }
        // Touch 1 and 2 (in different shards): 3 is now the oldest.
        assert!(has(&c, 1) && has(&c, 2));
        put(&c, 4);
        assert!(!has(&c, 3), "the untouched entry is the victim");
        assert!(has(&c, 1) && has(&c, 2) && has(&c, 4));
        // Keys of one shard evict among themselves and others alike.
        let same_shard = 4 + CACHE_SHARDS as u64;
        assert_eq!(cache_shard_of(4), cache_shard_of(same_shard));
        put(&c, same_shard);
        assert_eq!(c.len(), 3);
        assert!(!has(&c, 1), "1 carried the oldest stamp");
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let c = ShardedLru::new(0);
        put(&c, 7);
        assert_eq!(c.len(), 0);
        assert!(!has(&c, 7));
    }

    #[test]
    fn clear_zeroes_the_resident_count() {
        let c = ShardedLru::new(8);
        for k in 0..8u64 {
            put(&c, k);
        }
        assert_eq!(c.len(), 8);
        c.clear();
        assert_eq!(c.len(), 0);
        assert!((0..8).all(|k| !has(&c, k)));
        // Still usable, still bounded.
        for k in 0..20u64 {
            put(&c, k);
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn every_lock_of_the_type_is_in_the_build_scope_group() {
        // Only observable under `--cfg lock_diag` (the CI lock-diag job):
        // whatever a cache stores — matrices or results — holding one
        // of its locks makes `build_scope` panic.
        if !parking_lot::lock_diag::enabled() {
            return;
        }
        let c: ShardedLru<u64, u64> = ShardedLru::new(2);
        build_scope();
        let guard = c.read(1);
        assert!(std::panic::catch_unwind(build_scope).is_err());
        drop(guard);
        build_scope();
    }

    #[test]
    fn one_read_guard_probes_several_keys_of_a_fingerprint() {
        // Keys (generation, fp) shard by fp, like matrices and results.
        let c: ShardedLru<(u64, u64), &str> = ShardedLru::new(4);
        c.insert(9, (1, 9), "old");
        c.insert(9, (2, 9), "new");
        let shard = c.read(9);
        assert_eq!(shard.get(&(2, 9)), Some(&"new"));
        assert_eq!(shard.get(&(1, 9)), Some(&"old"));
        assert_eq!(shard.get(&(3, 9)), None);
    }
}
