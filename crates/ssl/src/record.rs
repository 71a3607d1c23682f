//! The SSL v3 record layer: fragmentation, MAC, padding, encryption.
//!
//! Records are MAC-then-encrypt: `encrypt(data ‖ MAC ‖ padding ‖ pad_len)`
//! for block ciphers, `encrypt(data ‖ MAC)` for the stream cipher. Each
//! direction keeps its own sequence number and (for CBC) running IV, both
//! reset when a `ChangeCipherSpec` activates new keys.

use crate::{mac, BulkCipher, SslError, VERSION};
use sslperf_ciphers::{Aes, BlockCipher};
use sslperf_hashes::{HashAlg, Sha1};
use sslperf_profile::{measure, PhaseSet};
use std::ops::Range;

/// Size of the cleartext record header: content type, two version bytes,
/// and the big-endian body length.
pub const RECORD_HEADER_LEN: usize = 5;

/// Maximum plaintext fragment per record (2¹⁴ bytes, per the SSL3 spec).
pub const MAX_FRAGMENT: usize = 16_384;

/// Maximum record body on the wire: a full fragment plus the SSLv3
/// allowance of 2048 bytes for MAC and padding (the spec's
/// `SSLCiphertext.length` bound). Anything longer is a framing error.
pub const MAX_RECORD_BODY: usize = MAX_FRAGMENT + 2048;

/// A reusable, connection-lifetime buffer for wire-format records.
///
/// The zero-copy pipeline ([`RecordLayer::seal_into`],
/// [`RecordLayer::open_in_place`]) seals and opens records inside one of
/// these; once warmed to record capacity, the
/// steady-state data path performs no heap allocation at all (proved by the
/// `alloc_budget` integration test).
///
/// # Examples
///
/// ```
/// use sslperf_ssl::{ContentType, RecordBuffer, RecordLayer};
///
/// let mut tx = RecordLayer::new();
/// let mut rx = RecordLayer::new();
/// let mut buf = RecordBuffer::with_record_capacity();
/// tx.seal_into(ContentType::Handshake, b"hello", &mut buf).unwrap();
/// let (ct, range) = rx.open_in_place(&mut buf).unwrap();
/// assert_eq!(ct, ContentType::Handshake);
/// assert_eq!(&buf.as_slice()[range], b"hello");
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordBuffer {
    buf: Vec<u8>,
}

impl RecordBuffer {
    /// An empty buffer; it grows on first use and keeps its capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer pre-sized for one maximum record (header plus
    /// [`MAX_RECORD_BODY`]), so even the first record allocates nothing.
    #[must_use]
    pub fn with_record_capacity() -> Self {
        RecordBuffer { buf: Vec::with_capacity(RECORD_HEADER_LEN + MAX_RECORD_BODY) }
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The held bytes.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends raw bytes (e.g. a record received out-of-band).
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Consumes the buffer, returning the underlying vector.
    #[must_use]
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Mutable access to the backing vector for in-crate fill paths (the
    /// engine's inbox and outbox).
    pub(crate) fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl AsRef<[u8]> for RecordBuffer {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ContentType {
    /// Change cipher spec (20).
    ChangeCipherSpec = 20,
    /// Alert (21).
    Alert = 21,
    /// Handshake (22).
    Handshake = 22,
    /// Application data (23).
    ApplicationData = 23,
}

impl ContentType {
    pub(crate) fn from_u8(v: u8) -> Result<Self, SslError> {
        Ok(match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            _ => return Err(SslError::Decode("content type")),
        })
    }
}

/// A direction's record protection once its keys are active. Cipher, MAC
/// hash and MAC secret arrive together, so a protected state has all three.
#[derive(Debug, Clone)]
struct Protection {
    cipher: BulkCipher,
    mac_alg: HashAlg,
    mac_secret: Vec<u8>,
}

/// One direction's security state: protection (none until a
/// ChangeCipherSpec) and sequence number.
#[derive(Debug, Clone, Default)]
struct ConnState {
    protection: Option<Protection>,
    seq: u64,
    /// Cycles spent in "cipher" and "mac" — or, for a stitched seal,
    /// which no timer can split, in "pri_encryption_and_mac" — for
    /// crypto/non-crypto splits.
    crypto: PhaseSet,
}

/// What a stitched seal runs on — the AES-NI cipher, its encryption
/// schedule and the running IV — when this direction can stitch: AES-CBC on
/// AES-NI with a SHA-1 MAC on the SHA unit. `None` sends the record down
/// the sequential path (DES, 3DES, RC4, MD5, the table AES and the portable
/// SHA-1).
fn stitchable(cipher: &mut BulkCipher, mac_alg: HashAlg) -> Option<(&Aes, &[u8], &mut [u8])> {
    let BulkCipher::AesCbc(cbc) = cipher else { return None };
    if mac_alg != HashAlg::Sha1 || Sha1::new().backend_name() != "ni" {
        return None;
    }
    let (aes, iv) = cbc.cipher_and_iv_mut();
    Some((aes, aes.ni_encrypt_schedule()?, iv))
}

impl ConnState {
    /// Protects the fragment sitting at `buf[body_start..]` in place:
    /// appends the MAC (and, for block ciphers, SSLv3 padding) and encrypts
    /// the whole body within `buf`. With the null cipher the plaintext is
    /// already the wire body and nothing is copied.
    ///
    /// An AES-CBC + SHA-1 record on both round units is stitched: the MAC
    /// and the encryption of the data's whole 64-byte grains run in one
    /// pass, then the rest of the body is encrypted once the MAC is in
    /// place. The bytes are the sequential path's.
    fn protect_in_place(
        &mut self,
        content_type: ContentType,
        buf: &mut Vec<u8>,
        body_start: usize,
    ) -> Result<(), SslError> {
        let seq = self.seq;
        self.seq += 1;
        let Some(Protection { cipher, mac_alg, mac_secret }) = &mut self.protection else {
            return Ok(());
        };
        let (data_len, mac_len) = (buf.len() - body_start, mac_alg.output_len());
        buf.resize(buf.len() + mac_len, 0);
        if let Some(block) = cipher.block_len() {
            // SSLv3 padding: pad to a block multiple; last byte is the count
            // of padding bytes preceding it.
            let pad = (block - (data_len + mac_len + 1) % block) % block;
            buf.resize(buf.len() + pad, 0);
            buf.push(pad as u8);
        }
        let body = &mut buf[body_start..];
        let ct = content_type as u8;
        match stitchable(cipher, *mac_alg) {
            Some((aes, schedule, iv)) => {
                let ((), cycles) = measure(|| {
                    let (data, rest) = body.split_at_mut(data_len);
                    let tag = &mut rest[..mac_len];
                    let done =
                        mac::compute_into_stitched(mac_secret, seq, ct, data, tag, schedule, iv);
                    aes.encrypt_cbc(iv, &mut body[done..]);
                });
                self.crypto.add("pri_encryption_and_mac", cycles);
                Ok(())
            }
            None => {
                let (data, rest) = body.split_at_mut(data_len);
                let ((), mac_cycles) = measure(|| {
                    mac::compute_into(*mac_alg, mac_secret, seq, ct, data, &mut rest[..mac_len]);
                });
                self.crypto.add("mac", mac_cycles);
                let (result, cipher_cycles) = measure(|| cipher.encrypt(body));
                self.crypto.add("cipher", cipher_cycles);
                result
            }
        }
    }

    /// Unprotects a wire-format record body in place: decrypts, strips
    /// padding and verifies the MAC without allocating. On success the
    /// plaintext occupies `body[..returned_len]`. With the null cipher the
    /// body already is the plaintext and nothing is touched.
    ///
    /// Bad padding and a bad MAC are deliberately indistinguishable: both
    /// still run the MAC (over a deterministic slice) and both surface as
    /// [`SslError::MacMismatch`], so neither the error value nor the time
    /// taken gives a decryption oracle (Vaudenay-style padding attacks).
    /// The only early exits depend on the *public* ciphertext length.
    fn unprotect_in_place(
        &mut self,
        content_type: ContentType,
        body: &mut [u8],
    ) -> Result<usize, SslError> {
        let Some(Protection { cipher, mac_alg, mac_secret }) = &mut self.protection else {
            self.seq += 1;
            return Ok(body.len());
        };
        let alg = *mac_alg;
        let (result, cipher_cycles) = measure(|| cipher.decrypt(body));
        self.crypto.add("cipher", cipher_cycles);
        result?;
        let mac_len = alg.output_len();
        let mut plain_len = body.len();
        let mut pad_ok = true;
        if let Some(block) = cipher.block_len() {
            // Length checks first: the ciphertext length is on the wire,
            // so rejecting on it leaks nothing about the plaintext.
            if plain_len == 0 || !plain_len.is_multiple_of(block) {
                return Err(SslError::MacMismatch);
            }
            let pad = body[plain_len - 1] as usize;
            if pad < block && pad + 1 + mac_len <= plain_len {
                plain_len -= pad + 1;
            } else {
                // Invalid padding (or padding that would swallow the MAC):
                // proceed as if the pad were zero-length so the MAC below
                // runs over a slice derived only from the public length,
                // then fail with the same error as a MAC mismatch.
                pad_ok = false;
                plain_len -= 1;
            }
        }
        if plain_len < mac_len {
            // Public-length condition: too short to carry a MAC at all.
            return Err(SslError::MacMismatch);
        }
        let data_len = plain_len - mac_len;
        let (ok, mac_cycles) = measure(|| {
            mac::verify(
                alg,
                mac_secret,
                self.seq,
                content_type as u8,
                &body[..data_len],
                &body[data_len..plain_len],
            )
        });
        self.crypto.add("mac", mac_cycles);
        self.seq += 1;
        if !ok || !pad_ok {
            return Err(SslError::MacMismatch);
        }
        Ok(data_len)
    }
}

/// A bidirectional record layer.
///
/// # Examples
///
/// ```
/// use sslperf_ssl::{ContentType, RecordBuffer, RecordLayer};
///
/// let mut a = RecordLayer::new();
/// let mut b = RecordLayer::new();
/// let mut buf = RecordBuffer::new();
/// a.seal_into(ContentType::Handshake, b"hello", &mut buf).unwrap();
/// let (ct, range) = b.open_in_place(&mut buf).unwrap();
/// assert_eq!((ct, &buf.as_slice()[range]), (ContentType::Handshake, &b"hello"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct RecordLayer {
    write: ConnState,
    read: ConnState,
    wire_version: (u8, u8),
    accept_any_version: bool,
}

impl Default for RecordLayer {
    fn default() -> Self {
        RecordLayer {
            write: ConnState::default(),
            read: ConnState::default(),
            wire_version: VERSION,
            accept_any_version: false,
        }
    }
}

impl RecordLayer {
    /// A record layer with null ciphers in both directions (the handshake
    /// starts in the clear).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A record layer stamping (and expecting) `version` in record
    /// headers instead of the default SSLv3 `(3, 0)` — the TLS 1.3-style
    /// machines use `(3, 4)`.
    #[must_use]
    pub fn with_wire_version(version: (u8, u8)) -> Self {
        RecordLayer { wire_version: version, ..Self::default() }
    }

    /// The protocol version written into (and required of) record headers.
    #[must_use]
    pub fn wire_version(&self) -> (u8, u8) {
        self.wire_version
    }

    /// Disables the inbound record-version check. Only the
    /// protocol-sniffing dispatch state uses this, for the one record it
    /// opens before a concrete machine (with a strict layer) takes over;
    /// the engine's own `accepts_record_version` filter still applies.
    pub(crate) fn set_accept_any_version(&mut self, on: bool) {
        self.accept_any_version = on;
    }

    /// True once the peer's records arrive under a cipher.
    pub(crate) fn reads_protected(&self) -> bool {
        self.read.protection.is_some()
    }

    fn accepts_version(&self, major: u8, minor: u8) -> bool {
        self.accept_any_version || (major, minor) == self.wire_version
    }

    /// Activates write protection (called when *we* send ChangeCipherSpec).
    /// Resets the write sequence number.
    pub fn activate_write(&mut self, cipher: BulkCipher, mac_alg: HashAlg, mac_secret: Vec<u8>) {
        self.write = ConnState {
            protection: Some(Protection { cipher, mac_alg, mac_secret }),
            seq: 0,
            crypto: std::mem::take(&mut self.write.crypto),
        };
    }

    /// Activates read protection (called when the *peer's* ChangeCipherSpec
    /// arrives). Resets the read sequence number.
    pub fn activate_read(&mut self, cipher: BulkCipher, mac_alg: HashAlg, mac_secret: Vec<u8>) {
        self.read = ConnState {
            protection: Some(Protection { cipher, mac_alg, mac_secret }),
            seq: 0,
            crypto: std::mem::take(&mut self.read.crypto),
        };
    }

    /// Cycles spent in symmetric crypto (cipher + MAC) across both
    /// directions since construction — the record layer's contribution to
    /// "libcrypto" in the web-server breakdown.
    #[must_use]
    pub fn crypto_phases(&self) -> PhaseSet {
        let mut total = self.write.crypto.clone();
        total.merge(&self.read.crypto);
        total
    }

    /// Total of [`RecordLayer::crypto_phases`] without building the merged
    /// set — no allocation, so per-record instrumentation (the live
    /// metrics registry reads the delta after every open/seal) keeps the
    /// steady-state record path at zero bytes per record.
    #[must_use]
    pub fn crypto_total(&self) -> sslperf_profile::Cycles {
        self.write.crypto.total() + self.read.crypto.total()
    }

    /// Seals `payload` as one or more records of `content_type` into a
    /// reusable [`RecordBuffer`], MACing and encrypting in place. The buffer
    /// is cleared first; once warmed to capacity, sealing allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates cipher failures (which indicate internal length bugs).
    pub fn seal_into(
        &mut self,
        content_type: ContentType,
        payload: &[u8],
        out: &mut RecordBuffer,
    ) -> Result<(), SslError> {
        out.buf.clear();
        self.seal_append(content_type, payload, &mut out.buf)
    }

    /// Seals `payload` as one or more records *appended* to `out` (nothing
    /// is cleared), so several flights or records can accumulate in one
    /// outbound buffer. Allocation-free once `out` is at capacity.
    pub(crate) fn seal_append(
        &mut self,
        content_type: ContentType,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        out.reserve(payload.len() + 64);
        // An empty payload still produces one (empty) record.
        if payload.is_empty() {
            return self.seal_one(content_type, payload, out);
        }
        for chunk in payload.chunks(MAX_FRAGMENT) {
            self.seal_one(content_type, chunk, out)?;
        }
        Ok(())
    }

    fn seal_one(
        &mut self,
        content_type: ContentType,
        fragment: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), SslError> {
        let header_start = out.len();
        // Header with a length placeholder, patched once the body is sealed.
        out.extend_from_slice(&[
            content_type as u8,
            self.wire_version.0,
            self.wire_version.1,
            0,
            0,
        ]);
        let body_start = out.len();
        out.extend_from_slice(fragment);
        self.write.protect_in_place(content_type, out, body_start)?;
        let body_len = (out.len() - body_start) as u16;
        out[header_start + 3..header_start + RECORD_HEADER_LEN]
            .copy_from_slice(&body_len.to_be_bytes());
        Ok(())
    }

    /// Opens the single record held in `buf`, decrypting and verifying in
    /// place. Returns the content type and the range of `buf` holding the
    /// plaintext; nothing is allocated.
    ///
    /// The buffer must frame exactly one record; trailing bytes are a
    /// framing error.
    ///
    /// # Errors
    ///
    /// Returns [`SslError::Decode`] on framing errors and a uniform
    /// [`SslError::MacMismatch`] on protection failures (bad padding is
    /// deliberately not distinguished from a bad MAC).
    pub fn open_in_place(
        &mut self,
        buf: &mut RecordBuffer,
    ) -> Result<(ContentType, Range<usize>), SslError> {
        self.open_slice(&mut buf.buf)
    }

    /// Opens exactly one record framed by `record` (a slice of a larger
    /// inbound buffer), decrypting and verifying in place without
    /// allocating. Returns the content type and the plaintext range
    /// *relative to the slice*.
    pub(crate) fn open_slice(
        &mut self,
        record: &mut [u8],
    ) -> Result<(ContentType, Range<usize>), SslError> {
        if record.len() < RECORD_HEADER_LEN {
            return Err(SslError::Decode("record header"));
        }
        let content_type = ContentType::from_u8(record[0])?;
        if !self.accepts_version(record[1], record[2]) {
            return Err(SslError::UnsupportedVersion { major: record[1], minor: record[2] });
        }
        let len = u16::from_be_bytes([record[3], record[4]]) as usize;
        if record.len() < RECORD_HEADER_LEN + len {
            return Err(SslError::Decode("record body"));
        }
        if record.len() > RECORD_HEADER_LEN + len {
            return Err(SslError::Decode("trailing bytes after record"));
        }
        let plain_len = self.read.unprotect_in_place(
            content_type,
            &mut record[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len],
        )?;
        Ok((content_type, RECORD_HEADER_LEN..RECORD_HEADER_LEN + plain_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CipherSuite;
    use sslperf_ciphers::{AesBackend, Cbc, PerBlock};
    use sslperf_profile::counters;

    fn protected_pair(suite: CipherSuite) -> (RecordLayer, RecordLayer) {
        let key = vec![0x42u8; suite.key_len()];
        let iv = vec![0x17u8; suite.iv_len()];
        let mac_secret = vec![0x33u8; suite.mac_alg().output_len()];
        let mut tx = RecordLayer::new();
        tx.activate_write(
            suite.new_cipher(&key, &iv).unwrap(),
            suite.mac_alg(),
            mac_secret.clone(),
        );
        let mut rx = RecordLayer::new();
        rx.activate_read(suite.new_cipher(&key, &iv).unwrap(), suite.mac_alg(), mac_secret);
        (tx, rx)
    }

    fn seal(tx: &mut RecordLayer, content_type: ContentType, payload: &[u8]) -> Vec<u8> {
        let mut buf = RecordBuffer::new();
        tx.seal_into(content_type, payload, &mut buf).unwrap();
        buf.into_vec()
    }

    /// Opens `wire` record by record, walking the record headers.
    fn open_each(
        rx: &mut RecordLayer,
        wire: &[u8],
    ) -> Result<Vec<(ContentType, Vec<u8>)>, SslError> {
        let mut records = Vec::new();
        let mut rest = wire;
        while !rest.is_empty() {
            let len = RECORD_HEADER_LEN + usize::from(u16::from_be_bytes([rest[3], rest[4]]));
            let (record, tail) = rest.split_at(len);
            rest = tail;
            let mut record = record.to_vec();
            let (ct, range) = rx.open_slice(&mut record)?;
            records.push((ct, record[range].to_vec()));
        }
        Ok(records)
    }

    #[test]
    fn large_payload_fragments() {
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaRc4Sha);
        let data = vec![0xaau8; MAX_FRAGMENT * 2 + 100];
        let wire = seal(&mut tx, ContentType::ApplicationData, &data);
        let out = open_each(&mut rx, &wire).unwrap();
        assert_eq!(out.len(), 3);
        let glued: Vec<u8> = out.into_iter().flat_map(|(_, d)| d).collect();
        assert_eq!(glued, data);
    }

    #[test]
    fn replayed_record_fails_sequence() {
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaRc4Md5);
        let wire = seal(&mut tx, ContentType::ApplicationData, b"once");
        assert!(open_each(&mut rx, &wire).is_ok());
        // Same bytes again: sequence number advanced, MAC now wrong (and for
        // CBC suites the IV would also differ).
        assert_eq!(open_each(&mut rx, &wire).unwrap_err(), SslError::MacMismatch);
    }

    #[test]
    fn reordered_records_fail() {
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaRc4Sha);
        let w1 = seal(&mut tx, ContentType::ApplicationData, b"first");
        let w2 = seal(&mut tx, ContentType::ApplicationData, b"second");
        let mut swapped = w2.clone();
        swapped.extend_from_slice(&w1);
        assert!(open_each(&mut rx, &swapped).is_err());
    }

    #[test]
    fn truncated_wire_rejected() {
        let (mut tx, rx) = protected_pair(CipherSuite::RsaAes128Sha);
        let wire = seal(&mut tx, ContentType::ApplicationData, b"data");
        for cut in [1usize, 4, wire.len() - 1] {
            let mut cut_wire = wire[..cut].to_vec();
            assert!(rx.clone().open_slice(&mut cut_wire).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let mut rx = RecordLayer::new();
        let mut bad = [22u8, 3, 1, 0, 0];
        assert_eq!(
            rx.open_slice(&mut bad),
            Err(SslError::UnsupportedVersion { major: 3, minor: 1 })
        );
    }

    #[test]
    fn open_in_place_round_trips_every_suite() {
        for suite in CipherSuite::ALL {
            let (mut tx, mut rx) = protected_pair(suite);
            let mut buf = RecordBuffer::with_record_capacity();
            for len in [0usize, 1, 7, 8, 15, 16, 100, 1000] {
                let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
                tx.seal_into(ContentType::ApplicationData, &data, &mut buf).unwrap();
                let (ct, range) = rx.open_in_place(&mut buf).unwrap();
                assert_eq!(ct, ContentType::ApplicationData);
                assert_eq!(&buf.as_slice()[range], &data[..], "{suite} len {len}");
            }
        }
    }

    #[test]
    fn null_cipher_open_in_place_borrows_without_copy() {
        let mut tx = RecordLayer::new();
        let mut rx = RecordLayer::new();
        let mut buf = RecordBuffer::new();
        tx.seal_into(ContentType::Handshake, b"plaintext", &mut buf).unwrap();
        assert_eq!(&buf.as_slice()[..3], &[22, 3, 0]);
        let (ct, range) = rx.open_in_place(&mut buf).unwrap();
        assert_eq!(ct, ContentType::Handshake);
        // The plaintext sits right after the header: no copy was made.
        assert_eq!(range, 5..5 + b"plaintext".len());
        assert_eq!(&buf.as_slice()[range], b"plaintext");
    }

    #[test]
    fn open_in_place_rejects_trailing_bytes() {
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaRc4Sha);
        let mut buf = RecordBuffer::new();
        tx.seal_into(ContentType::ApplicationData, b"one", &mut buf).unwrap();
        buf.extend_from_slice(&[0u8]);
        assert_eq!(
            rx.open_in_place(&mut buf),
            Err(SslError::Decode("trailing bytes after record"))
        );
    }

    #[test]
    fn open_in_place_tampered_record_fails() {
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaDesCbc3Sha);
        let mut buf = RecordBuffer::new();
        tx.seal_into(ContentType::ApplicationData, b"important data", &mut buf).unwrap();
        let wire: Vec<u8> = buf.as_slice().to_vec();
        let mut tampered = RecordBuffer::new();
        let mut bytes = wire;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        tampered.extend_from_slice(&bytes);
        let err = rx.open_in_place(&mut tampered).unwrap_err();
        assert!(matches!(err, SslError::MacMismatch | SslError::BadPadding));
    }

    /// Flips the byte at `index` and opens the record, returning the error
    /// and how many MAC verifications the opener paid for.
    fn open_tampered(
        suite: CipherSuite,
        payload: &[u8],
        tamper: impl Fn(&[u8]) -> usize,
    ) -> (SslError, u64) {
        let (mut tx, mut rx) = protected_pair(suite);
        let mut wire = seal(&mut tx, ContentType::ApplicationData, payload);
        let index = tamper(&wire);
        wire[index] ^= 0x80;
        let err = open_each(&mut rx, &wire).unwrap_err();
        let macs = rx.crypto_phases().get("mac").map_or(0, |p| p.hits());
        (err, macs)
    }

    #[test]
    fn bad_padding_and_bad_mac_are_indistinguishable() {
        // A 50-byte payload + 20-byte MAC spans several CBC blocks with a
        // nonzero pad. Corrupting the last byte of the *penultimate*
        // ciphertext block flips the decrypted pad-length byte (CBC
        // malleability) so the padding check fails; corrupting an early
        // block garbles data under valid padding so only the MAC fails.
        let payload = [0x5au8; 50];
        for suite in [CipherSuite::RsaDesCbc3Sha, CipherSuite::RsaAes128Sha] {
            let block = suite.iv_len();
            let (pad_err, pad_macs) = open_tampered(suite, &payload, |wire| wire.len() - block - 1);
            let (mac_err, mac_macs) = open_tampered(suite, &payload, |_| RECORD_HEADER_LEN);
            // One uniform error for both failure modes — no decryption
            // oracle in the error value...
            assert_eq!(pad_err, SslError::MacMismatch, "{suite}");
            assert_eq!(mac_err, SslError::MacMismatch, "{suite}");
            // ...and the MAC is paid for in both, so none in the timing
            // either (pre-fix, bad padding skipped the MAC entirely).
            assert_eq!(pad_macs, 1, "{suite}: MAC must run on bad padding");
            assert_eq!(mac_macs, 1, "{suite}: MAC must run on bad MAC");
        }
    }

    #[test]
    fn oversized_pad_claim_fails_uniformly() {
        // A decrypted pad byte claiming more padding than the record holds
        // must not short-circuit differently from a plain MAC failure.
        let (mut tx, mut rx) = protected_pair(CipherSuite::RsaAes256Sha);
        let mut wire = seal(&mut tx, ContentType::ApplicationData, b"x");
        // Flip a bit in the penultimate ciphertext block's last byte: the
        // pad-length byte decrypts to pad ^ 0x80 >= block.
        let block = 16;
        let idx = wire.len() - block - 1;
        wire[idx] ^= 0x80;
        assert_eq!(open_each(&mut rx, &wire).unwrap_err(), SslError::MacMismatch);
        assert_eq!(rx.crypto_phases().get("mac").map_or(0, |p| p.hits()), 1);
    }

    #[test]
    fn record_buffer_basics() {
        let mut buf = RecordBuffer::with_record_capacity();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        buf.extend_from_slice(b"abc");
        assert_eq!(buf.as_slice(), b"abc");
        assert_eq!(buf.as_ref(), b"abc");
        assert_eq!(buf.len(), 3);
        buf.clear();
        assert!(buf.is_empty());
        buf.extend_from_slice(b"xyz");
        assert_eq!(buf.into_vec(), b"xyz");
    }

    #[test]
    fn cbc_records_are_block_aligned_on_wire() {
        let (mut tx, _) = protected_pair(CipherSuite::RsaAes256Sha);
        for len in [0usize, 1, 16, 31] {
            let wire = seal(&mut tx, ContentType::ApplicationData, &vec![0u8; len]);
            let body_len = wire.len() - 5;
            assert_eq!(body_len % 16, 0, "len {len}");
        }
    }

    /// Seals one 16 KiB AES128-SHA record on the AES backend given,
    /// returning the phases it booked, its `aes_block`, `sha1_block` and
    /// `ssl3_mac` units, and the wire bytes.
    fn seal_16k(backend: AesBackend) -> (Vec<String>, [u64; 3], Vec<u8>) {
        let aes = Aes::with_backend(&[0x42; 16], backend).unwrap();
        let mut tx = RecordLayer::new();
        let cipher = BulkCipher::AesCbc(Cbc::new(aes, vec![0x17; 16]).unwrap());
        tx.activate_write(cipher, HashAlg::Sha1, vec![0x33; 20]);
        let mut buf = RecordBuffer::new();
        let payload = [0x5a; MAX_FRAGMENT];
        let ((), snap) = counters::counted(|| {
            tx.seal_into(ContentType::ApplicationData, &payload, &mut buf).unwrap();
        });
        let mut phases: Vec<String> =
            tx.crypto_phases().iter().map(|p| p.name().to_owned()).collect();
        phases.sort();
        let units = ["aes_block", "sha1_block", "ssl3_mac"].map(|name| snap.units(name));
        (phases, units, buf.into_vec())
    }

    /// The seal path this host takes, witnessed by what it books: with
    /// AES-NI and the SHA unit a 16 KiB AES128-SHA seal is one stitched
    /// `pri_encryption_and_mac` span; without either, and always on the
    /// table AES, it books `cipher` and `mac` apart. Either way it counts
    /// the sequential path's AES blocks, SHA-1 blocks and MAC'd bytes and
    /// writes its bytes, so this asserts something on every host.
    #[test]
    fn stitched_seal_witness() {
        let (table_phases, table_units, table_wire) = seal_16k(AesBackend::Table);
        assert_eq!(table_phases, ["cipher", "mac"]);
        // 16 384 + 20 + 11 pad + 1 = 1026 blocks; 258 inner + 2 outer
        // SHA-1 blocks.
        assert_eq!(table_units, [1026, 260, MAX_FRAGMENT as u64]);

        let ni = Aes::ni_available();
        let (phases, units, wire) = seal_16k(if ni { AesBackend::Ni } else { AesBackend::Table });
        let stitched = ni && Sha1::new().backend_name() == "ni";
        eprintln!("aes-ni {ni}, sha unit {}: seal booked {phases:?}", Sha1::new().backend_name());
        let want: &[&str] = if stitched { &["pri_encryption_and_mac"] } else { &["cipher", "mac"] };
        assert_eq!(phases, want);
        assert_eq!(units, table_units, "aes_block, sha1_block, ssl3_mac units");
        assert_eq!(wire, table_wire);
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        const CONTENT_TYPES: [ContentType; 4] = [
            ContentType::ChangeCipherSpec,
            ContentType::Alert,
            ContentType::Handshake,
            ContentType::ApplicationData,
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// AES-CBC + SHA-1 seals — stitched wherever this host can —
            /// against a reference built from `mac::compute` and the
            /// per-block CBC default over the table rounds, two records in
            /// a row so the IV carries, at any length up to a full fragment
            /// (half the cases under 200 bytes, where the grain boundaries
            /// are), any sequence number and content type; and every sealed
            /// record opens under the sequential open.
            #[test]
            fn seal_matches_sequential_reference(
                suite_sel in 0usize..2,
                short in 0usize..200,
                long in 0usize..=MAX_FRAGMENT,
                pick_long in any::<bool>(),
                seq in any::<u64>(),
                type_sel in 0usize..4,
                key in vec(any::<u8>(), 32..=32),
                iv in vec(any::<u8>(), 16..=16),
                secret in vec(any::<u8>(), 20..=20),
                fill in any::<u8>(),
            ) {
                let suite = [CipherSuite::RsaAes128Sha, CipherSuite::RsaAes256Sha][suite_sel];
                let key = &key[..suite.key_len()];
                let content_type = CONTENT_TYPES[type_sel];
                let len = if pick_long { long } else { short };
                let data: Vec<u8> =
                    (0..len).map(|i| (i as u8).wrapping_mul(0x9d) ^ fill).collect();

                let table = Aes::with_backend(key, AesBackend::Table).unwrap();
                let mut reference = Cbc::new(PerBlock(table), iv.clone()).unwrap();
                let mut tx = RecordLayer::new();
                tx.activate_write(suite.new_cipher(key, &iv).unwrap(), HashAlg::Sha1, secret.clone());
                tx.write.seq = seq;
                let mut rx = RecordLayer::new();
                rx.activate_read(suite.new_cipher(key, &iv).unwrap(), HashAlg::Sha1, secret.clone());
                rx.read.seq = seq;

                for record_seq in [seq, seq.wrapping_add(1)] {
                    let mut body = data.clone();
                    body.extend(mac::compute(HashAlg::Sha1, &secret, record_seq, content_type as u8, &data));
                    let pad = 15 - body.len() % 16;
                    body.resize(body.len() + pad, 0);
                    body.push(pad as u8);
                    reference.encrypt(&mut body).unwrap();

                    let mut buf = RecordBuffer::new();
                    tx.seal_into(content_type, &data, &mut buf).unwrap();
                    prop_assert_eq!(&buf.as_slice()[RECORD_HEADER_LEN..], &body[..]);
                    let (opened_type, range) = rx.open_in_place(&mut buf).unwrap();
                    prop_assert_eq!(opened_type, content_type);
                    prop_assert_eq!(&buf.as_slice()[range], &data[..]);
                }
            }
        }
    }
}
