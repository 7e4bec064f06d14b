//! The engine's one bounded cache type: an LRU-evicted map behind one
//! read/write lock.
//!
//! Score matrices and maintained BMO results both live in an [`Lru`];
//! there is exactly one insert and one eviction routine
//! ([`Lru::insert`]) for the two of them.
//!
//! Concurrency: a whole multi-tier lookup takes the read lock once
//! ([`Lru::read`]). LRU stamps and the resident count are atomics, so
//! hits never take the write lock and [`Lru::len`] never takes a lock at
//! all. An insert and its eviction run under one write guard; the values
//! they displace are dropped after it is released.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::{RwLock, RwLockReadGuard};

/// `lock_diag` group name of the cache locks.
///
/// Only the caches' locks are tagged — not every lock in the process —
/// because the concurrency contract is specifically "builds run outside
/// the *engine's cache* locks": a server session legitimately holds the
/// catalog's read lock across a whole statement execution, matrix
/// builds included.
const MATRIX_CACHE_GROUP: &str = "pref-query/matrix-cache";

/// Marker for the start of a matrix materialization: under
/// `--cfg lock_diag` builds, panics if the calling thread still holds
/// any cache lock — the cheapest possible proof that the expensive build
/// really runs outside the engine's cache locks (concurrent warm hits
/// are never blocked by a build). Compiled to nothing otherwise.
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

/// A bounded map behind one read/write lock, evicting the
/// least-recently-used entry once more than `capacity` are resident.
/// Capacity `0` stores nothing.
pub(crate) struct Lru<K, V> {
    map: RwLock<HashMap<K, Entry<V>>>,
    /// The bound; re-set only at builder time, before anything is stored.
    pub(crate) capacity: usize,
    /// LRU clock (monotone; ties are harmless).
    tick: AtomicU64,
    /// Entries currently resident — stored under the write lock on every
    /// insert so [`Lru::len`] never takes a lock.
    resident: AtomicUsize,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        let map = RwLock::default();
        // Tag for lock_diag builds: `build_scope` asserts this group
        // free before any materialization.
        map.diag_set_group(MATRIX_CACHE_GROUP);
        Lru {
            map,
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

    /// Read-lock the map for one lookup. Every [`LruRead::get`] through
    /// the returned guard probes under that single lock acquisition and
    /// stamps what it finds with one fresh LRU tick.
    pub(crate) fn read(&self) -> LruRead<'_, K, V> {
        LruRead {
            tick: self.next_tick(),
            map: self.map.read(),
        }
    }

    /// Insert `value` under `key`, evicting the least-recently-used entry
    /// if that puts the map over capacity. Both happen under one write
    /// guard, so `len() <= capacity` holds at every instant; the replaced
    /// and evicted values are dropped only after the guard is released,
    /// because freeing a score matrix is the one slow step and no reader
    /// should wait on it.
    pub(crate) fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let entry = Entry {
            value,
            last_used: AtomicU64::new(self.next_tick()),
        };
        let displaced = {
            let mut map = self.map.write();
            let replaced = map.insert(key, entry);
            // Relaxed: the stamps are read under the write lock, which
            // orders them against every read-locked refresh.
            let stamp = |e: &Entry<V>| e.last_used.load(Ordering::Relaxed);
            let evicted = if map.len() > self.capacity {
                let oldest = map.iter().min_by_key(|(_, e)| stamp(e)).map(|(k, _)| *k);
                oldest.and_then(|k| map.remove(&k))
            } else {
                None
            };
            // Relaxed: advisory count; the write lock orders the map.
            self.resident.store(map.len(), Ordering::Relaxed);
            (replaced, evicted)
        };
        drop(displaced);
    }
}

/// An [`Lru`], read-locked for the duration of a lookup.
pub(crate) struct LruRead<'a, K, V> {
    map: RwLockReadGuard<'a, HashMap<K, Entry<V>>>,
    tick: u64,
}

impl<K: Eq + Hash, V> LruRead<'_, K, V> {
    /// The value under `key`, refreshing its LRU stamp.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        let entry = self.map.get(key)?;
        // Relaxed: the LRU stamp is advisory; the value itself is
        // ordered by the lock.
        entry.last_used.store(self.tick, Ordering::Relaxed);
        Some(&entry.value)
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::Barrier;

    use super::*;

    fn put(c: &Lru<u64, u64>, k: u64) {
        c.insert(k, k * 10);
    }

    fn has(c: &Lru<u64, u64>, k: u64) -> bool {
        c.read().get(&k).is_some()
    }

    #[test]
    fn never_above_capacity_once_insert_returns() {
        let c = Lru::new(5);
        for k in 0..200u64 {
            put(&c, k);
            assert!(c.len() <= 5, "{} resident after inserting {k}", c.len());
        }
        assert_eq!(c.len(), 5);
        // Re-inserting a resident key replaces, it does not grow.
        put(&c, 199);
        assert_eq!(c.len(), 5);
        assert_eq!(c.read().get(&199), Some(&1990));
    }

    #[test]
    fn never_above_capacity_under_concurrent_inserts() {
        let c: Lru<u64, u64> = Lru::new(8);
        let inserting = AtomicUsize::new(4);
        // All five threads start together, so sampling overlaps inserts.
        let start = Barrier::new(5);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (c, inserting, start) = (&c, &inserting, &start);
                s.spawn(move || {
                    start.wait();
                    for k in 0..2_000 {
                        put(c, t * 2_000 + k);
                    }
                    // Relaxed: only the sampler's stop flag; the scope
                    // join orders everything the asserts below read.
                    inserting.fetch_sub(1, Ordering::Relaxed);
                });
            }
            s.spawn(|| {
                start.wait();
                // Relaxed: see the inserters' decrement.
                while inserting.load(Ordering::Relaxed) > 0 {
                    let n = c.len();
                    assert!(n <= 8, "{n} resident with capacity 8");
                    has(&c, 3);
                }
            });
        });
        assert_eq!(c.len(), 8);
        assert_eq!(c.map.read().len(), 8);
    }

    #[test]
    fn evicts_the_least_recently_used_entry() {
        let c = Lru::new(3);
        for k in [1, 2, 3] {
            put(&c, k);
        }
        // Touch 1 and 2: 3 is now the oldest.
        assert!(has(&c, 1) && has(&c, 2));
        put(&c, 4);
        assert!(!has(&c, 3), "the untouched entry is the victim");
        assert!(has(&c, 1) && has(&c, 2) && has(&c, 4));
        // A second eviction takes the next-oldest stamp.
        put(&c, 5);
        assert_eq!(c.len(), 3);
        assert!(!has(&c, 1), "1 carried the oldest stamp");
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let c = Lru::new(0);
        put(&c, 7);
        assert_eq!(c.len(), 0);
        assert!(!has(&c, 7));
    }

    #[test]
    fn every_lock_of_the_type_is_in_the_build_scope_group() {
        // Only observable under `--cfg lock_diag` (the CI lock-diag job):
        // whatever a cache stores — matrices or results — holding its
        // lock makes `build_scope` panic.
        if !parking_lot::lock_diag::enabled() {
            return;
        }
        let c: Lru<u64, u64> = Lru::new(2);
        build_scope();
        let guard = c.read();
        assert!(std::panic::catch_unwind(build_scope).is_err());
        drop(guard);
        build_scope();
    }

    /// A cached value that counts its drops and, under `--cfg
    /// lock_diag`, panics when dropped while its cache's lock is held.
    struct DropProbe(Rc<Cell<usize>>);

    impl Drop for DropProbe {
        fn drop(&mut self) {
            parking_lot::lock_diag::assert_group_free(MATRIX_CACHE_GROUP);
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn displaced_values_drop_outside_the_lock() {
        if !parking_lot::lock_diag::enabled() {
            return;
        }
        let drops = Rc::new(Cell::new(0));
        let c = Lru::new(2);
        for k in [1u64, 2, 3] {
            c.insert(k, DropProbe(Rc::clone(&drops)));
        }
        assert_eq!(drops.get(), 1, "inserting 3 evicted 1");
        c.insert(3, DropProbe(Rc::clone(&drops)));
        assert_eq!(drops.get(), 2, "re-inserting 3 replaced it");
    }

    #[test]
    fn one_read_guard_probes_several_keys_of_a_fingerprint() {
        // Keys (generation, fp), like matrices and results.
        let c: Lru<(u64, u64), &str> = Lru::new(4);
        c.insert((1, 9), "old");
        c.insert((2, 9), "new");
        let map = c.read();
        assert_eq!(map.get(&(2, 9)), Some(&"new"));
        assert_eq!(map.get(&(1, 9)), Some(&"old"));
        assert_eq!(map.get(&(3, 9)), None);
    }
}
