//! A sharded, bounded session cache for multi-threaded serving.
//!
//! The default [`SimpleSessionCache`](sslperf_ssl::SimpleSessionCache)
//! funnels every connection through one mutex; across shard threads that
//! lock is the first thing to contend. [`ShardedSessionCache`] stripes the
//! id space over N independently locked shards (FNV-1a of the session id
//! picks the shard), bounds each shard with least-recently-used eviction,
//! optionally expires sessions by age ([`ShardedSessionCache::with_ttl`] —
//! an expired entry is removed on lookup and counts as a miss, forcing the
//! client back through a full handshake), and counts hits and misses so
//! load generators can report resumption rates.

use sslperf_ssl::{CachedSession, SessionCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-shard state: the id map plus a logical clock for LRU stamps.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Vec<u8>, Entry>,
    clock: u64,
}

#[derive(Debug)]
struct Entry {
    session: CachedSession,
    stamp: u64,
    /// When the session was stored; compared against the cache TTL on
    /// lookup (refreshing a hit does *not* reset it — session lifetime is
    /// measured from key establishment, not last use).
    created: Instant,
}

/// Mutex-striped LRU session cache; see the module docs.
#[derive(Debug)]
pub struct ShardedSessionCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    /// Session lifetime: entries older than this are removed on lookup and
    /// count as misses. `None` (the default) never expires by age.
    ttl: Option<Duration>,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
}

impl ShardedSessionCache {
    /// A cache with `shards` stripes holding at most `capacity_per_shard`
    /// sessions each and no age-based expiry.
    ///
    /// # Panics
    ///
    /// Panics when either parameter is zero.
    #[must_use]
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        Self::with_ttl(shards, capacity_per_shard, None)
    }

    /// A cache whose sessions additionally expire `ttl` after being
    /// stored. An expired entry behaves exactly like an absent one — the
    /// lookup counts as a miss, the entry is removed, and the client falls
    /// back to a full handshake — which is SSL's defense against
    /// indefinitely resumable master secrets.
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `capacity_per_shard` is zero.
    #[must_use]
    pub fn with_ttl(shards: usize, capacity_per_shard: usize, ttl: Option<Duration>) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(capacity_per_shard > 0, "shards must hold at least one session");
        ShardedSessionCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            capacity_per_shard,
            ttl,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Which shard a session id maps to (FNV-1a over the id bytes,
    /// xor-folded — the hash's low bits alone cluster on structured ids).
    #[must_use]
    pub fn shard_index(&self, id: &[u8]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in id {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 32;
        (h % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Sessions currently held by shard `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    #[must_use]
    pub fn shard_len(&self, index: usize) -> usize {
        self.shards[index].lock().expect("shard lock").entries.len()
    }

    /// Lookups that found a cached session.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Non-empty-id lookups that found nothing (evicted, expired,
    /// tampered, or never stored).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups that found an entry past the session TTL (a subset of
    /// [`ShardedSessionCache::misses`]).
    #[must_use]
    pub fn expired(&self) -> u64 {
        self.expired.load(Ordering::Relaxed)
    }

    /// Resets the hit/miss/expired counters (entries are untouched).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.expired.store(0, Ordering::Relaxed);
    }
}

impl SessionCache for ShardedSessionCache {
    fn lookup(&self, id: &[u8]) -> Option<CachedSession> {
        if id.is_empty() {
            // No id offered: not a resumption attempt, not a miss.
            return None;
        }
        let mut shard = self.shards[self.shard_index(id)].lock().expect("shard lock");
        shard.clock += 1;
        let stamp = shard.clock;
        let expired = shard
            .entries
            .get(id)
            .is_some_and(|e| self.ttl.is_some_and(|ttl| e.created.elapsed() >= ttl));
        if expired {
            shard.entries.remove(id);
            self.expired.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match shard.entries.get_mut(id) {
            Some(entry) => {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.session.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, id: Vec<u8>, session: CachedSession) {
        let mut shard = self.shards[self.shard_index(&id)].lock().expect("shard lock");
        shard.clock += 1;
        let stamp = shard.clock;
        shard.entries.insert(id, Entry { session, stamp, created: Instant::now() });
        if shard.entries.len() > self.capacity_per_shard {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(id, _)| id.clone())
                .expect("non-empty over capacity");
            shard.entries.remove(&oldest);
        }
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock").entries.len()).sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard lock").entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sslperf_ssl::CipherSuite;

    fn session(n: u8) -> CachedSession {
        CachedSession { master: vec![n; 48], suite: CipherSuite::RsaDesCbc3Sha }
    }

    #[test]
    fn ids_spread_over_shards() {
        let cache = ShardedSessionCache::new(8, 64);
        for i in 0..64u8 {
            cache.store(vec![i; 32], session(i));
        }
        assert_eq!(cache.len(), 64);
        let populated = (0..8).filter(|&s| cache.shard_len(s) > 0).count();
        assert!(populated >= 4, "FNV should touch most shards, got {populated}");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ShardedSessionCache::new(1, 2);
        cache.store(vec![1], session(1));
        cache.store(vec![2], session(2));
        // Touch id 1 so id 2 becomes the LRU entry, then overflow.
        assert!(cache.lookup(&[1]).is_some());
        cache.store(vec![3], session(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&[1]).is_some(), "recently used survives");
        assert!(cache.lookup(&[2]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&[3]).is_some(), "new entry present");
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = ShardedSessionCache::new(4, 8);
        cache.store(vec![7; 32], session(7));
        assert!(cache.lookup(&[7; 32]).is_some());
        assert!(cache.lookup(&[8; 32]).is_none());
        assert!(cache.lookup(&[]).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1), "empty id is not a miss");
        cache.reset_stats();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn ttl_expires_entries_on_lookup() {
        let cache = ShardedSessionCache::with_ttl(2, 8, Some(Duration::ZERO));
        cache.store(vec![1; 16], session(1));
        assert_eq!(cache.len(), 1);
        // Zero TTL: already expired by lookup time — removed, counted as a
        // miss, and flagged in the expired counter.
        assert!(cache.lookup(&[1; 16]).is_none());
        assert_eq!(cache.len(), 0, "expired entry is removed");
        assert_eq!((cache.hits(), cache.misses(), cache.expired()), (0, 1, 1));
        // A second lookup is a plain miss, not another expiry.
        assert!(cache.lookup(&[1; 16]).is_none());
        assert_eq!((cache.misses(), cache.expired()), (2, 1));
    }

    #[test]
    fn ttl_keeps_fresh_entries() {
        let cache = ShardedSessionCache::with_ttl(2, 8, Some(Duration::from_secs(3600)));
        cache.store(vec![2; 16], session(2));
        assert!(cache.lookup(&[2; 16]).is_some(), "fresh entry survives");
        assert_eq!((cache.hits(), cache.misses(), cache.expired()), (1, 0, 0));
    }

    #[test]
    fn no_ttl_never_expires() {
        let cache = ShardedSessionCache::new(1, 4);
        cache.store(vec![3; 16], session(3));
        assert!(cache.lookup(&[3; 16]).is_some());
        assert_eq!(cache.expired(), 0);
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache = ShardedSessionCache::new(4, 8);
        for i in 0..16u8 {
            cache.store(vec![i; 16], session(i));
        }
        cache.clear();
        assert_eq!(cache.len(), 0);
        assert!(cache.is_empty());
    }
}
