//! The server's id-keyed session cache.
//!
//! Session re-negotiation is the optimization §4.1 of the paper
//! highlights: a cache hit replaces the RSA private-key operation with a
//! master-secret lookup. [`ServerConfig`](crate::ServerConfig) holds one
//! [`SessionCache`] and looks the client hello's session id up in it;
//! a configuration built with a ticket keyring
//! ([`ServerConfig::with_store`](crate::ServerConfig::with_store)) keeps
//! the cache for peers that never negotiated the ticket extension and
//! serves the rest from [`crate::ticket`].
//!
//! [`ShardedSessionCache`] is the one [`SessionCache`]: what
//! [`ServerConfig::new`](crate::ServerConfig::new) installs and what the
//! event-loop server shares across its shard threads. It stripes the id
//! space over N independently locked shards (FNV-1a of the session id
//! picks the shard). Each shard is one slab of fixed-size slots, each
//! holding a session inline: the id (up to 32 bytes), the 48-byte master
//! secret, the suite, the creation time, and the two `u32` links of an
//! intrusive least-recently-used list. An open-addressed table of `u32`
//! slot numbers (load at most ½, linear probing, backward-shift deletion)
//! indexes the slab. Lookup, store and eviction are therefore O(1), and
//! the slab is reserved when the cache is built, so no store allocates. At
//! the default 8 × 1024 geometry a session costs 112 bytes. Sessions
//! optionally expire by age ([`ShardedSessionCache::with_ttl`]: an expired
//! entry is removed on lookup and counts as a miss, forcing the client
//! back through a full handshake), and the cache counts hits and misses so
//! load generators can report resumption rates.

use crate::CipherSuite;
use std::fmt::{self, Debug};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The resumable state stored per session id: the master secret and the
/// suite it was negotiated under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedSession {
    /// The 48-byte SSLv3 master secret.
    pub master: Vec<u8>,
    /// The negotiated cipher suite.
    pub suite: CipherSuite,
}

/// A thread-safe map from session id to resumable session state.
///
/// Implementations use interior mutability: the server configuration is
/// shared immutably across connections.
pub trait SessionCache: Send + Sync + Debug {
    /// The session stored under `id`, if any. An empty id never matches.
    fn lookup(&self, id: &[u8]) -> Option<CachedSession>;

    /// Stores (or replaces) the session under `id`. An id longer than 32
    /// bytes ([`SessionId`](crate::SessionId)'s bound) or a master secret
    /// that is not 48 bytes is refused: nothing is cached.
    fn store(&self, id: Vec<u8>, session: CachedSession);

    /// Number of resumable sessions currently cached.
    fn len(&self) -> usize;

    /// True when no sessions are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached session (forces full handshakes).
    fn clear(&self);
}

/// Shared cache handles delegate, so an `Arc<C>` can be installed into a
/// [`ServerConfig`](crate::ServerConfig) while the owner keeps a handle
/// for statistics.
impl<C: SessionCache> SessionCache for Arc<C> {
    fn lookup(&self, id: &[u8]) -> Option<CachedSession> {
        (**self).lookup(id)
    }

    fn store(&self, id: Vec<u8>, session: CachedSession) {
        (**self).store(id, session);
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn clear(&self) {
        (**self).clear();
    }
}

/// Longest session id a slot holds: [`SessionId`](crate::SessionId)'s bound.
const MAX_ID_LEN: usize = 32;

/// The SSLv3 master secret's length, the only one a slot holds.
const MASTER_LEN: usize = 48;

/// No slot: an empty index bucket, or the end of a list.
const NIL: u32 = u32::MAX;

/// One cached session, inline.
#[derive(Clone, Copy)]
struct Slot {
    master: [u8; MASTER_LEN],
    id: [u8; MAX_ID_LEN],
    /// When the session was stored, in nanoseconds from the cache's epoch;
    /// compared against the TTL on lookup (a hit does *not* reset it —
    /// session lifetime is measured from key establishment, not last use).
    created_ns: u64,
    /// The neighbour toward the most recently used end of the LRU list.
    prev: u32,
    /// The neighbour toward the least recently used end; on a free slot,
    /// the next free slot.
    next: u32,
    /// The id's in-shard hash: probes compare ids only on a hash match,
    /// and deletion finds an entry's home bucket without rehashing.
    hash: u32,
    suite: CipherSuite,
    id_len: u8,
}

impl Slot {
    fn id(&self) -> &[u8] {
        &self.id[..usize::from(self.id_len)]
    }
}

/// One lock's worth of sessions: the slab, its index, and the LRU list.
struct Shard {
    /// Reserved at the shard's capacity, so it never reallocates: the
    /// pages become resident as sessions fill them, and a full shard
    /// recycles its LRU slot.
    slots: Vec<Slot>,
    /// Open-addressed bucket → slot table, [`NIL`] when empty; a power of
    /// two at least twice the capacity, so the load stays at most ½.
    index: Box<[u32]>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next eviction.
    tail: u32,
    /// Slots freed by expiry, chained through `next`.
    free: u32,
    len: usize,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            slots: Vec::with_capacity(capacity),
            index: vec![NIL; (2 * capacity).next_power_of_two()].into_boxed_slice(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        }
    }

    fn mask(&self) -> usize {
        self.index.len() - 1
    }

    /// The bucket holding `id` and the slot it points at.
    fn find(&self, id: &[u8], hash: u32) -> Option<(usize, u32)> {
        let mut b = hash as usize & self.mask();
        loop {
            let s = self.index[b];
            if s == NIL {
                return None;
            }
            let slot = &self.slots[s as usize];
            if slot.hash == hash && slot.id() == id {
                return Some((b, s));
            }
            b = (b + 1) & self.mask();
        }
    }

    fn unlink(&mut self, s: u32) {
        let Slot { prev, next, .. } = self.slots[s as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, s: u32) {
        let slot = &mut self.slots[s as usize];
        slot.prev = NIL;
        slot.next = self.head;
        match self.head {
            NIL => self.tail = s,
            h => self.slots[h as usize].prev = s,
        }
        self.head = s;
    }

    /// Empties bucket `hole`, shifting later entries of its probe run back
    /// so every entry stays reachable from its home bucket.
    fn delete_bucket(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let s = self.index[b];
            if s == NIL {
                break;
            }
            let home = self.slots[s as usize].hash as usize & mask;
            // The entry may fill the hole unless its home lies cyclically
            // after the hole, in (hole, b].
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = s;
                hole = b;
            }
        }
        self.index[hole] = NIL;
    }

    /// Drops the session in slot `s` (found in bucket `b`) and frees the slot.
    fn remove(&mut self, b: usize, s: u32) {
        self.delete_bucket(b);
        self.unlink(s);
        self.slots[s as usize].next = self.free;
        self.free = s;
        self.len -= 1;
    }

    /// Stores `slot`, replacing a live session under the same id, evicting
    /// the LRU session when the shard already holds `capacity`.
    fn store(&mut self, slot: Slot, capacity: usize) {
        if let Some((_, s)) = self.find(slot.id(), slot.hash) {
            self.unlink(s);
            self.slots[s as usize] = slot;
            self.push_front(s);
            return;
        }
        if self.len == capacity {
            let lru = self.tail;
            let victim = self.slots[lru as usize];
            let (b, _) = self.find(victim.id(), victim.hash).expect("a listed slot is indexed");
            self.remove(b, lru);
        }
        let s = if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let s = self.free;
            self.free = self.slots[s as usize].next;
            self.slots[s as usize] = slot;
            s
        };
        let mut b = slot.hash as usize & self.mask();
        while self.index[b] != NIL {
            b = (b + 1) & self.mask();
        }
        self.index[b] = s;
        self.push_front(s);
        self.len += 1;
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.index.fill(NIL);
        (self.head, self.tail, self.free, self.len) = (NIL, NIL, NIL, 0);
    }
}

/// FNV-1a over the id bytes: the shard and the in-shard hash both derive
/// from it.
fn fnv(id: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in id {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The in-shard hash: a multiplicative remix, because every id of one
/// shard shares the low bits that picked it.
fn in_shard_hash(h: u64) -> u32 {
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as u32
}

/// Mutex-striped LRU session cache of fixed-size slots; see the module
/// docs.
pub struct ShardedSessionCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    /// Session lifetime in nanoseconds: entries older than this are
    /// removed on lookup and count as misses. `None` (the default) never
    /// expires by age.
    ttl_ns: Option<u64>,
    /// Time zero for the slots' creation stamps.
    epoch: Instant,
    hits: AtomicU64,
    misses: AtomicU64,
    expired: AtomicU64,
}

impl ShardedSessionCache {
    /// Shards of the default geometry: what
    /// [`ServerConfig::new`](crate::ServerConfig::new) installs and what
    /// the event-loop server's options default to.
    pub const DEFAULT_SHARDS: usize = 8;

    /// Sessions per shard of the default geometry.
    pub const DEFAULT_CAPACITY_PER_SHARD: usize = 1024;

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
    /// Panics when `shards` or `capacity_per_shard` is zero, or when
    /// `capacity_per_shard` exceeds 2³⁰ (slot numbers are `u32`). Each
    /// shard's index (8 bytes per session of capacity) and slab (104) are
    /// allocated here; the slab's pages become resident as sessions fill
    /// them.
    #[must_use]
    pub fn with_ttl(shards: usize, capacity_per_shard: usize, ttl: Option<Duration>) -> Self {
        assert!(shards > 0, "at least one shard");
        assert!(capacity_per_shard > 0, "shards must hold at least one session");
        assert!(capacity_per_shard <= 1 << 30, "slot numbers must fit in u32");
        ShardedSessionCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(capacity_per_shard))).collect(),
            capacity_per_shard,
            ttl_ns: ttl.map(|t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX)),
            epoch: Instant::now(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            expired: AtomicU64::new(0),
        }
    }

    /// Which shard a session id maps to (FNV-1a over the id bytes,
    /// xor-folded — the hash's low bits alone cluster on structured ids).
    #[must_use]
    pub fn shard_index(&self, id: &[u8]) -> usize {
        self.shard_of(fnv(id))
    }

    fn shard_of(&self, h: u64) -> usize {
        ((h ^ (h >> 32)) % self.shards.len() as u64) as usize
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
        self.shards[index].lock().expect("shard lock").len
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

/// The default geometry, [`ShardedSessionCache::DEFAULT_SHARDS`] ×
/// [`ShardedSessionCache::DEFAULT_CAPACITY_PER_SHARD`], with no TTL.
impl Default for ShardedSessionCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_SHARDS, Self::DEFAULT_CAPACITY_PER_SHARD)
    }
}

/// Geometry and counters only: the slots hold master secrets.
impl Debug for ShardedSessionCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSessionCache")
            .field("shards", &self.shards.len())
            .field("capacity_per_shard", &self.capacity_per_shard)
            .field("ttl_ns", &self.ttl_ns)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("expired", &self.expired())
            .finish_non_exhaustive()
    }
}

impl SessionCache for ShardedSessionCache {
    fn lookup(&self, id: &[u8]) -> Option<CachedSession> {
        if id.is_empty() {
            // No id offered: not a resumption attempt, not a miss.
            return None;
        }
        let h = fnv(id);
        let mut shard = self.shards[self.shard_of(h)].lock().expect("shard lock");
        let Some((b, s)) = shard.find(id, in_shard_hash(h)) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let slot = shard.slots[s as usize];
        if self.ttl_ns.is_some_and(|ttl| self.now_ns().saturating_sub(slot.created_ns) >= ttl) {
            shard.remove(b, s);
            self.expired.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        shard.unlink(s);
        shard.push_front(s);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(CachedSession { master: slot.master.to_vec(), suite: slot.suite })
    }

    fn store(&self, id: Vec<u8>, session: CachedSession) {
        let (Ok(master), Some(id_len)) =
            (session.master.try_into(), (id.len() <= MAX_ID_LEN).then_some(id.len() as u8))
        else {
            return;
        };
        let h = fnv(&id);
        let mut slot = Slot {
            master,
            id: [0; MAX_ID_LEN],
            created_ns: self.now_ns(),
            prev: NIL,
            next: NIL,
            hash: in_shard_hash(h),
            suite: session.suite,
            id_len,
        };
        slot.id[..id.len()].copy_from_slice(&id);
        let mut shard = self.shards[self.shard_of(h)].lock().expect("shard lock");
        shard.store(slot, self.capacity_per_shard);
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("shard lock").len).sum()
    }

    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("shard lock").clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(n: u8) -> CachedSession {
        CachedSession { master: vec![n; 48], suite: CipherSuite::RsaDesCbc3Sha }
    }

    #[test]
    fn simple_cache_roundtrip() {
        let cache = ShardedSessionCache::default();
        assert!(cache.is_empty());
        cache.store(vec![1; 32], session(7));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup(&[1; 32]).expect("hit").master, vec![7; 48]);
        assert!(cache.lookup(&[2; 32]).is_none());
        cache.clear();
        assert!(cache.lookup(&[1; 32]).is_none());
    }

    #[test]
    fn empty_id_never_matches() {
        let cache = ShardedSessionCache::default();
        cache.store(Vec::new(), session(1));
        assert!(cache.lookup(&[]).is_none());
    }

    #[test]
    fn arc_handle_delegates() {
        let cache = Arc::new(ShardedSessionCache::default());
        let handle: Box<dyn SessionCache> = Box::new(Arc::clone(&cache));
        handle.store(vec![9], session(9));
        assert_eq!(cache.len(), 1);
        handle.clear();
        assert!(cache.is_empty());
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

    /// A session's whole cost at the default geometry: its slot plus its
    /// share of the shard's index (two `u32` buckets at load ½).
    #[test]
    fn default_geometry_costs_at_most_128_bytes_per_session() {
        let capacity = ShardedSessionCache::DEFAULT_CAPACITY_PER_SHARD;
        let index_bytes = Shard::new(capacity).index.len() * std::mem::size_of::<u32>();
        let per_session = std::mem::size_of::<Slot>() + index_bytes / capacity;
        assert_eq!((std::mem::size_of::<Slot>(), index_bytes / capacity), (104, 8));
        assert!(per_session <= 128, "{per_session} bytes per session");
    }

    #[test]
    fn refuses_long_ids_and_masters_that_are_not_48_bytes() {
        let cache = ShardedSessionCache::new(1, 8);
        cache.store(vec![1; 33], session(1));
        for len in [0, 47, 49] {
            cache.store(vec![2; 32], CachedSession { master: vec![2; len], ..session(2) });
        }
        assert!(cache.is_empty(), "nothing refused is cached");
        assert!(cache.lookup(&[1; 33]).is_none());
        assert!(cache.lookup(&[2; 32]).is_none());
        cache.store(vec![3; 32], session(3));
        assert_eq!(cache.lookup(&[3; 32]), Some(session(3)), "a 32-byte id and 48-byte master");
    }
}
