//! Stateless session tickets: resumable state sealed under server keys.
//!
//! The id cache of [`crate::cache`] caps the paper's §4.1 resumption win
//! at one server's lifetime — a restarted (or sibling) server instance
//! cannot resume sessions it never cached. A *ticket* inverts the
//! storage: the server seals the resumable state (master secret, suite,
//! issue time) under keys only servers hold and hands the blob to the
//! client, who presents it on reconnect. Any instance holding the same
//! [`TicketKeyring`] — a restarted process, or another instance of a fleet
//! sharing one listener — can open the ticket and resume without ever
//! having seen the session. A [`TicketSessionStore`] pairs a keyring with
//! the id cache that peers without the ticket extension fall back to;
//! [`ServerConfig::with_store`](crate::ServerConfig::with_store) installs
//! the pair.
//!
//! The construction is the classic encrypt-then-MAC recipe (the shape
//! standardized for TLS by RFC 5077 and carried into TLS 1.3):
//!
//! ```text
//! ticket = key_id(4) ‖ iv(16) ‖ AES-128-CBC(state ‖ pad) ‖ HMAC-SHA1(20)
//! state  = suite(2) ‖ issued_ms(8) ‖ master_len(1) ‖ master
//! ```
//!
//! with the MAC over everything before it. Keys rotate on a schedule:
//! tickets sealed under the *current* key are issued, tickets under the
//! current or *previous* key are accepted, anything older (or tampered,
//! or truncated, or expired) is rejected. Rejection is deliberately
//! silent — the server falls back to a full handshake instead of raising
//! an alert, so an attacker flipping ticket bits learns nothing they
//! could not learn by omitting the ticket entirely (no padding/MAC
//! oracle, per the lesson of the record-layer oracle fixed in PR 5).

use crate::cache::{CachedSession, SessionCache};
use crate::CipherSuite;
use sslperf_ciphers::{Aes, BlockCipher};
use sslperf_hashes::{HashAlg, Hmac};
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// AES-128 key length for the ticket cipher.
const TICKET_AES_KEY_LEN: usize = 16;
/// HMAC-SHA1 key and tag length.
const TICKET_MAC_LEN: usize = 20;
/// CBC block (and IV) length.
const TICKET_BLOCK_LEN: usize = 16;
/// Default ticket lifetime when none is configured.
const DEFAULT_LIFETIME: Duration = Duration::from_secs(3600);

/// Why a ticket was refused. Never surfaced to the peer: every variant
/// degrades to a silent full handshake, indistinguishable on the wire
/// from a client that offered no ticket at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketError {
    /// The ticket outlived the keyring's lifetime.
    Expired,
    /// Tampered, truncated, sealed under an unknown key, or otherwise
    /// unparseable.
    Invalid,
}

/// One epoch's sealing keys, derived from the keyring secret once, at
/// rotation: the AES schedule is expanded here, so sealing and opening
/// never build a cipher.
struct TicketKey {
    /// Key id on the wire: the derivation epoch.
    id: u32,
    aes: Aes,
    mac: [u8; TICKET_MAC_LEN],
}

impl TicketKey {
    /// Derives epoch `id`'s keys from the shared secret: independent
    /// HMAC-SHA1 invocations per role, truncated to the key lengths.
    fn derive(secret: &[u8], id: u32) -> Arc<Self> {
        let mut label = Vec::with_capacity(16);
        label.extend_from_slice(b"ticket-aes-");
        label.extend_from_slice(&id.to_be_bytes());
        let aes_full = Hmac::mac(HashAlg::Sha1, secret, &label);
        label.clear();
        label.extend_from_slice(b"ticket-mac-");
        label.extend_from_slice(&id.to_be_bytes());
        let mac_full = Hmac::mac(HashAlg::Sha1, secret, &label);
        // Proof: `Aes::new` refuses only key lengths other than 16, 24 and
        // 32 bytes, and this slice is TICKET_AES_KEY_LEN = 16 bytes long.
        let aes = Aes::new(&aes_full[..TICKET_AES_KEY_LEN]).expect("a 16-byte AES-128 key");
        let mut mac = [0u8; TICKET_MAC_LEN];
        mac.copy_from_slice(&mac_full[..TICKET_MAC_LEN]);
        Arc::new(TicketKey { id, aes, mac })
    }
}

/// The rotating key state: the sealing key and its predecessor.
struct KeyState {
    current: Arc<TicketKey>,
    previous: Option<Arc<TicketKey>>,
    /// When the current key was installed, on the monotonic clock
    /// (drives auto-rotation; a wall-clock step cannot stall or rush it).
    rotated_at: Instant,
}

/// A wall-anchored monotonic clock. Timestamps advance with [`Instant`],
/// so a backward wall-clock step can neither revive expired tickets nor
/// stretch fresh ones; the UNIX-epoch anchor taken at construction keeps
/// `issued_ms` portable across processes (tickets must survive a server
/// restart — the whole point).
#[derive(Debug, Clone, Copy)]
struct Clock {
    /// Wall-clock milliseconds since the UNIX epoch at construction.
    base_wall_ms: u64,
    /// Monotonic instant paired with `base_wall_ms`.
    base: Instant,
}

impl Clock {
    fn new() -> Self {
        Clock {
            base_wall_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_millis() as u64),
            base: Instant::now(),
        }
    }

    /// Milliseconds since the UNIX epoch, advanced monotonically from the
    /// construction-time anchor.
    fn now_ms(&self) -> u64 {
        self.base_wall_ms.saturating_add(self.base.elapsed().as_millis() as u64)
    }
}

/// The shared ticket-sealing keyring: derives per-epoch keys from one
/// secret, seals and opens tickets, and rotates keys. It counts nothing:
/// each handshake's ticket verdict lands in its ledger, and the serving
/// layer's registry counts the ledgers.
///
/// Every server instance that should accept each other's tickets holds a
/// clone of the same `Arc<TicketKeyring>` (or, across real processes,
/// derives from the same secret) — the *only* state the shared-nothing
/// serving topology shares.
pub struct TicketKeyring {
    secret: Vec<u8>,
    state: Mutex<KeyState>,
    /// Issue/expiry timestamps come from here, never straight from
    /// `SystemTime`, so ticket age only moves forward.
    clock: Clock,
    lifetime: Duration,
    /// Rotate automatically once the current key is this old.
    rotate_every: Option<Duration>,
    /// Per-ticket IV derivation counter (unique IVs without consuming any
    /// handshake RNG — the wire pin depends on the RNG stream).
    iv_counter: AtomicU64,
}

impl Debug for TicketKeyring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TicketKeyring")
            .field("lifetime", &self.lifetime)
            .field("rotate_every", &self.rotate_every)
            .finish_non_exhaustive()
    }
}

impl TicketKeyring {
    /// A keyring deriving its keys from `secret`, with the default
    /// one-hour ticket lifetime and manual rotation only.
    #[must_use]
    pub fn new(secret: &[u8]) -> Self {
        Self::with_schedule(secret, DEFAULT_LIFETIME, None)
    }

    /// A keyring with an explicit ticket lifetime and an optional
    /// automatic rotation period (`None` rotates only on
    /// [`TicketKeyring::rotate`]).
    #[must_use]
    pub fn with_schedule(
        secret: &[u8],
        lifetime: Duration,
        rotate_every: Option<Duration>,
    ) -> Self {
        TicketKeyring {
            secret: secret.to_vec(),
            state: Mutex::new(KeyState {
                current: TicketKey::derive(secret, 0),
                previous: None,
                rotated_at: Instant::now(),
            }),
            clock: Clock::new(),
            lifetime,
            rotate_every,
            iv_counter: AtomicU64::new(0),
        }
    }

    /// How long an issued ticket stays acceptable.
    #[must_use]
    pub fn lifetime(&self) -> Duration {
        self.lifetime
    }

    /// The key state. A panic while the lock is held cannot leave it half
    /// written (every update is one assignment of a whole key or instant),
    /// so a poisoned lock still guards valid keys and is taken as is.
    fn keys(&self) -> MutexGuard<'_, KeyState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Installs the next epoch's key: the current key becomes the
    /// (still-accepted) previous key, and anything older is forgotten.
    pub fn rotate(&self) {
        let mut state = self.keys();
        let next = TicketKey::derive(&self.secret, state.current.id.wrapping_add(1));
        state.previous = Some(std::mem::replace(&mut state.current, next));
        state.rotated_at = Instant::now();
    }

    /// Applies the automatic rotation schedule, if one is configured and
    /// due. Called on every seal/open so a quiet keyring still rotates.
    fn maybe_rotate(&self) {
        let Some(period) = self.rotate_every else { return };
        // Monotonic age: a backward wall-clock step used to make
        // `SystemTime::elapsed` fail and silently skip rotations.
        let due = self.keys().rotated_at.elapsed() >= period;
        if due {
            self.rotate();
        }
    }

    /// Seals `session` into a ticket under the current key.
    #[must_use]
    pub fn seal(&self, session: &CachedSession) -> Vec<u8> {
        self.maybe_rotate();
        let key = Arc::clone(&self.keys().current);
        let iv = self.next_iv(&key);

        let mut state = Vec::with_capacity(11 + session.master.len());
        state.extend_from_slice(&session.suite.wire_id().to_be_bytes());
        state.extend_from_slice(&self.clock.now_ms().to_be_bytes());
        state.push(session.master.len() as u8);
        state.extend_from_slice(&session.master);
        // PKCS#7-style padding to the AES block length, which is what
        // `encrypt_cbc` needs: whole blocks behind a one-block IV.
        let pad = TICKET_BLOCK_LEN - state.len() % TICKET_BLOCK_LEN;
        state.extend(std::iter::repeat_n(pad as u8, pad));
        let mut chain = iv;
        key.aes.encrypt_cbc(&mut chain, &mut state);

        let mut ticket = Vec::with_capacity(4 + TICKET_BLOCK_LEN + state.len() + TICKET_MAC_LEN);
        ticket.extend_from_slice(&key.id.to_be_bytes());
        ticket.extend_from_slice(&iv);
        ticket.extend_from_slice(&state);
        let tag = Hmac::mac(HashAlg::Sha1, &key.mac, &ticket);
        ticket.extend_from_slice(&tag);
        ticket
    }

    /// Opens a presented ticket.
    ///
    /// # Errors
    ///
    /// [`TicketError::Invalid`] for tampering, truncation, or an unknown
    /// key id; [`TicketError::Expired`] for an authentic ticket past its
    /// lifetime. Callers fall back to a full handshake either way.
    pub fn open(&self, ticket: &[u8]) -> Result<CachedSession, TicketError> {
        self.maybe_rotate();
        self.open_inner(ticket, self.clock.now_ms())
    }

    /// The open path with the clock injected: `now_ms` comes from the
    /// keyring's monotonic clock in production and from the proptests'
    /// synthetic timelines in tests.
    fn open_inner(&self, ticket: &[u8], now_ms: u64) -> Result<CachedSession, TicketError> {
        let Some((body, tag)) = ticket.split_last_chunk::<TICKET_MAC_LEN>() else {
            return Err(TicketError::Invalid);
        };
        let Some((key_id, rest)) = body.split_first_chunk::<4>() else {
            return Err(TicketError::Invalid);
        };
        let Some((iv, ct)) = rest.split_first_chunk::<TICKET_BLOCK_LEN>() else {
            return Err(TicketError::Invalid);
        };
        // At least one cipher block, and only whole ones.
        if ct.is_empty() || !ct.len().is_multiple_of(TICKET_BLOCK_LEN) {
            return Err(TicketError::Invalid);
        }
        let key_id = u32::from_be_bytes(*key_id);
        let key = {
            let state = self.keys();
            std::iter::once(&state.current)
                .chain(&state.previous)
                .find(|key| key.id == key_id)
                .map(Arc::clone)
                .ok_or(TicketError::Invalid)?
        };

        let expected = Hmac::mac(HashAlg::Sha1, &key.mac, body);
        // Constant-time comparison: no early exit to time against.
        let diff = expected.iter().zip(tag).fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff != 0 {
            return Err(TicketError::Invalid);
        }

        let mut ct = ct.to_vec();
        let mut chain = *iv;
        key.aes.decrypt_cbc(&mut chain, &mut ct);
        let Some(&pad) = ct.last() else { return Err(TicketError::Invalid) };
        let pad = usize::from(pad);
        if pad == 0 || pad > TICKET_BLOCK_LEN || pad > ct.len() {
            return Err(TicketError::Invalid);
        }
        if !ct[ct.len() - pad..].iter().all(|&b| b == pad as u8) {
            return Err(TicketError::Invalid);
        }
        let state = &ct[..ct.len() - pad];

        let Some((head, master)) = state.split_first_chunk::<11>() else {
            return Err(TicketError::Invalid);
        };
        let [suite_hi, suite_lo, issued_ms @ .., master_len] = *head;
        let suite = CipherSuite::from_wire_id(u16::from_be_bytes([suite_hi, suite_lo]))
            .map_err(|_| TicketError::Invalid)?;
        let issued_ms = u64::from_be_bytes(issued_ms);
        if master.len() != usize::from(master_len) {
            return Err(TicketError::Invalid);
        }
        let master = master.to_vec();

        // Saturating age: a ticket "from the future" (issued by a sibling
        // process whose wall anchor runs ahead) counts as fresh rather
        // than underflowing, and nothing here can panic near `u64::MAX`.
        if now_ms.saturating_sub(issued_ms) > self.lifetime.as_millis() as u64 {
            return Err(TicketError::Expired);
        }
        Ok(CachedSession { master, suite })
    }

    /// A unique per-ticket IV: counter-mode HMAC of the MAC key, so
    /// sealing never draws from (and never perturbs) a handshake RNG.
    fn next_iv(&self, key: &TicketKey) -> [u8; TICKET_BLOCK_LEN] {
        let n = self.iv_counter.fetch_add(1, Ordering::Relaxed);
        let mut label = Vec::with_capacity(18);
        label.extend_from_slice(b"ticket-iv-");
        label.extend_from_slice(&n.to_be_bytes());
        let full = Hmac::mac(HashAlg::Sha1, &key.mac, &label);
        let mut iv = [0u8; TICKET_BLOCK_LEN];
        iv.copy_from_slice(&full[..TICKET_BLOCK_LEN]);
        iv
    }
}

/// A ticket keyring and the id cache that peers without the ticket
/// extension fall back to: the pair
/// [`ServerConfig::with_store`](crate::ServerConfig::with_store) installs.
#[derive(Debug)]
pub struct TicketSessionStore {
    pub(crate) keyring: Arc<TicketKeyring>,
    pub(crate) fallback: Box<dyn SessionCache>,
}

impl TicketSessionStore {
    /// Pairs a shared keyring with an id-keyed fallback cache.
    #[must_use]
    pub fn new(keyring: Arc<TicketKeyring>, fallback: Box<dyn SessionCache>) -> Self {
        TicketSessionStore { keyring, fallback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(suite: CipherSuite) -> CachedSession {
        CachedSession { master: vec![0x5a; 48], suite }
    }

    #[test]
    fn seal_open_round_trip() {
        let ring = TicketKeyring::new(b"test-secret");
        for suite in CipherSuite::ALL {
            let t = ring.seal(&session(suite));
            let opened = ring.open(&t).expect("fresh ticket opens");
            assert_eq!(opened.master, vec![0x5a; 48]);
            assert_eq!(opened.suite, suite);
        }
    }

    #[test]
    fn tickets_are_unique_per_seal() {
        let ring = TicketKeyring::new(b"test-secret");
        let a = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        let b = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        assert_ne!(a, b, "IVs must differ between seals of the same state");
    }

    #[test]
    fn any_bit_flip_rejects() {
        let ring = TicketKeyring::new(b"test-secret");
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        for i in 0..t.len() {
            let mut bad = t.clone();
            bad[i] ^= 0x01;
            assert_eq!(ring.open(&bad), Err(TicketError::Invalid), "byte {i}");
        }
    }

    #[test]
    fn truncation_rejects() {
        let ring = TicketKeyring::new(b"test-secret");
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        for cut in [0, 1, 4, 20, t.len() - 1] {
            assert_eq!(ring.open(&t[..cut]), Err(TicketError::Invalid), "cut {cut}");
        }
    }

    #[test]
    fn foreign_keyring_rejects() {
        let ring = TicketKeyring::new(b"test-secret");
        let other = TicketKeyring::new(b"different-secret");
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        assert_eq!(other.open(&t), Err(TicketError::Invalid));
    }

    #[test]
    fn rotation_accepts_previous_epoch_only() {
        let ring = TicketKeyring::new(b"test-secret");
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        ring.rotate();
        assert!(ring.open(&t).is_ok(), "previous key still accepted");
        ring.rotate();
        assert_eq!(ring.open(&t), Err(TicketError::Invalid), "two rotations ago");
    }

    #[test]
    fn expiry_reports_expired_not_invalid() {
        let ring = TicketKeyring::with_schedule(b"test-secret", Duration::ZERO, None);
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ring.open(&t), Err(TicketError::Expired));
    }

    #[test]
    fn auto_rotation_schedule_rotates_on_use() {
        let ring =
            TicketKeyring::with_schedule(b"test-secret", DEFAULT_LIFETIME, Some(Duration::ZERO));
        let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
        // Every subsequent use rotates (period zero): after two opens the
        // sealing epoch has been rotated out entirely.
        let _ = ring.open(&t);
        let _ = ring.open(&t);
        assert_eq!(ring.open(&t), Err(TicketError::Invalid));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Expiry over a synthetic timeline: `now` values past the
            /// lifetime (measured from the latest possible issue instant)
            /// must expire; `now` values within the lifetime of the
            /// earliest possible issue instant must open; and a `now`
            /// *before* issuance — the backward clock step that used to
            /// revive expired tickets — saturates to age zero and opens.
            /// Nothing may panic anywhere on the `u64` range.
            #[test]
            fn expiry_is_saturating_and_step_back_safe(
                lifetime_ms in 0u64..=86_400_000,
                over_ms in 1u64..=u64::MAX / 2,
                under_num in 0u32..=1000,
                step_back_ms in 0u64..=u64::MAX / 2,
            ) {
                let ring = TicketKeyring::with_schedule(
                    b"prop-secret",
                    Duration::from_millis(lifetime_ms),
                    None,
                );
                let issued_earliest = ring.clock.now_ms();
                let t = ring.seal(&session(CipherSuite::RsaDesCbc3Sha));
                let issued_latest = ring.clock.now_ms();

                // Past the lifetime: authentic but expired.
                let now = issued_latest.saturating_add(lifetime_ms).saturating_add(over_ms);
                prop_assert_eq!(ring.open_inner(&t, now), Err(TicketError::Expired));

                // Within the lifetime: opens (fraction of lifetime from
                // the earliest issue bound keeps the check sound even
                // though the exact issue instant is unknown).
                let under_ms = (u128::from(lifetime_ms) * u128::from(under_num) / 1000) as u64;
                let now = issued_earliest.saturating_add(under_ms);
                prop_assert!(ring.open_inner(&t, now).is_ok());

                // Backward step: age saturates to zero, ticket is fresh.
                let now = issued_earliest.saturating_sub(step_back_ms);
                prop_assert!(ring.open_inner(&t, now).is_ok());
            }

            /// Rotation edges for any rotation count: a ticket opens under
            /// the epoch that sealed it and the one after, and is invalid
            /// from two epochs on — independent of how many rotations
            /// preceded the seal.
            #[test]
            fn rotation_window_is_exactly_two_epochs(
                pre_rotations in 0usize..8,
                post_rotations in 0usize..8,
            ) {
                let ring = TicketKeyring::new(b"prop-secret");
                for _ in 0..pre_rotations {
                    ring.rotate();
                }
                let t = ring.seal(&session(CipherSuite::RsaAes128Sha));
                for _ in 0..post_rotations {
                    ring.rotate();
                }
                if post_rotations <= 1 {
                    prop_assert!(ring.open(&t).is_ok());
                } else {
                    prop_assert_eq!(ring.open(&t), Err(TicketError::Invalid));
                }
            }
        }
    }
}
