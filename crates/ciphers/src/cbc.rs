//! Cipher-block chaining over any [`BlockCipher`].
//!
//! The paper notes (§2) that CBC "ensures a dependency between blocks of
//! data within the message and removes the potential for parallelism". That
//! holds for encryption only: block i's input needs block i − 1's output, so
//! one chain keeps one block in flight. Decryption reads ciphertext, which
//! is all known up front, so its blocks are independent and only the final
//! XOR reaches back one block — AES-NI decrypts eight at once and DES/3DES
//! two ([`Aes`](crate::Aes)'s and [`Des3`](crate::Des3)'s overrides of
//! [`BlockCipher::decrypt_cbc`]). The IV handling matches SSL v3: the
//! chaining state carries over from record to record.
//!
//! `encrypt_per_block` and `decrypt_per_block` are the per-block loops
//! behind the trait's provided methods: the path the table AES takes, and
//! — through [`PerBlock`] — the oracle the AES-NI and DES CBC overrides
//! are tested and ablated against.

use crate::{BlockCipher, CipherError};

/// Largest block length supported by the chaining buffers (AES's 16 bytes).
/// Keeping the chaining state on the stack lets `decrypt` run without heap
/// allocation, which the record layer's in-place pipeline depends on.
const MAX_BLOCK: usize = 16;

/// Checks the shape every CBC call needs: a one-block `iv` and whole blocks.
fn assert_cbc_shape(block: usize, iv: &[u8], data: &[u8]) {
    assert_eq!(iv.len(), block, "CBC chaining vector must be one block");
    assert!(data.len().is_multiple_of(block), "CBC data must be whole blocks");
}

/// CBC encryption one [`BlockCipher::encrypt_block`] at a time.
pub(crate) fn encrypt_per_block<C: BlockCipher + ?Sized>(
    cipher: &C,
    iv: &mut [u8],
    data: &mut [u8],
) {
    let block = cipher.block_len();
    assert_cbc_shape(block, iv, data);
    for chunk in data.chunks_mut(block) {
        for (b, ivb) in chunk.iter_mut().zip(iv.iter()) {
            *b ^= ivb;
        }
        cipher.encrypt_block(chunk);
        iv.copy_from_slice(chunk);
    }
}

/// CBC decryption one [`BlockCipher::decrypt_block`] at a time.
pub(crate) fn decrypt_per_block<C: BlockCipher + ?Sized>(
    cipher: &C,
    iv: &mut [u8],
    data: &mut [u8],
) {
    let block = cipher.block_len();
    assert_cbc_shape(block, iv, data);
    let mut prev = [0u8; MAX_BLOCK];
    prev[..block].copy_from_slice(iv);
    let mut cipher_block = [0u8; MAX_BLOCK];
    for chunk in data.chunks_mut(block) {
        cipher_block[..block].copy_from_slice(chunk);
        cipher.decrypt_block(chunk);
        for (b, pv) in chunk.iter_mut().zip(&prev[..block]) {
            *b ^= pv;
        }
        prev[..block].copy_from_slice(&cipher_block[..block]);
    }
    iv.copy_from_slice(&prev[..block]);
}

/// A cipher with its CBC override hidden: the trait's per-block provided
/// bodies run whatever `C` is, so `Cbc<PerBlock<Aes>>` is the reference the
/// fused AES-NI kernel is tested and ablated against.
#[derive(Debug, Clone)]
pub struct PerBlock<C>(pub C);

impl<C: BlockCipher> BlockCipher for PerBlock<C> {
    fn block_len(&self) -> usize {
        self.0.block_len()
    }

    fn encrypt_block(&self, block: &mut [u8]) {
        self.0.encrypt_block(block);
    }

    fn decrypt_block(&self, block: &mut [u8]) {
        self.0.decrypt_block(block);
    }
}

/// A CBC-mode wrapper owning the cipher and the running IV.
///
/// # Examples
///
/// ```
/// use sslperf_ciphers::{Aes, Cbc};
///
/// let key = [0u8; 16];
/// let iv = vec![0u8; 16];
/// let mut enc = Cbc::new(Aes::new(&key)?, iv.clone())?;
/// let mut dec = Cbc::new(Aes::new(&key)?, iv)?;
///
/// let mut data = *b"exactly 32 bytes of merry text!!";
/// enc.encrypt(&mut data)?;
/// dec.decrypt(&mut data)?;
/// assert_eq!(&data, b"exactly 32 bytes of merry text!!");
/// # Ok::<(), sslperf_ciphers::CipherError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cbc<C> {
    cipher: C,
    iv: Vec<u8>,
}

impl<C: BlockCipher> Cbc<C> {
    /// Wraps `cipher` with the initial chaining vector `iv`.
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidDataLen`] if `iv` is not exactly one
    /// block long.
    pub fn new(cipher: C, iv: Vec<u8>) -> Result<Self, CipherError> {
        if iv.len() != cipher.block_len() || iv.len() > MAX_BLOCK {
            return Err(CipherError::InvalidDataLen { got: iv.len(), block: cipher.block_len() });
        }
        Ok(Cbc { cipher, iv })
    }

    /// Block length of the wrapped cipher.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.cipher.block_len()
    }

    /// The current chaining vector (the last ciphertext block processed).
    #[must_use]
    pub fn iv(&self) -> &[u8] {
        &self.iv
    }

    /// Borrows the wrapped cipher.
    #[must_use]
    pub fn cipher(&self) -> &C {
        &self.cipher
    }

    /// Borrows the wrapped cipher together with the running chaining
    /// vector, for a caller that CBC-encrypts part of a record with its own
    /// kernel and must carry the chain on exactly as [`Cbc::encrypt`] would.
    pub fn cipher_and_iv_mut(&mut self) -> (&C, &mut [u8]) {
        (&self.cipher, &mut self.iv)
    }

    /// Encrypts `data` in place; the final ciphertext block becomes the IV
    /// for the next call (SSL v3 record chaining).
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidDataLen`] unless `data` is a whole
    /// number of blocks.
    pub fn encrypt(&mut self, data: &mut [u8]) -> Result<(), CipherError> {
        self.check_len(data)?;
        self.cipher.encrypt_cbc(&mut self.iv, data);
        Ok(())
    }

    /// Decrypts `data` in place, carrying the chaining vector forward.
    ///
    /// # Errors
    ///
    /// Returns [`CipherError::InvalidDataLen`] unless `data` is a whole
    /// number of blocks.
    pub fn decrypt(&mut self, data: &mut [u8]) -> Result<(), CipherError> {
        self.check_len(data)?;
        self.cipher.decrypt_cbc(&mut self.iv, data);
        Ok(())
    }

    fn check_len(&self, data: &[u8]) -> Result<(), CipherError> {
        let block = self.cipher.block_len();
        if data.len().is_multiple_of(block) {
            Ok(())
        } else {
            Err(CipherError::InvalidDataLen { got: data.len(), block })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aes, Des, Des3};

    #[test]
    fn round_trip_all_ciphers() {
        let data_len = 64;
        let data: Vec<u8> = (0..data_len as u8).collect();

        let mut enc = Cbc::new(Aes::new(&[1u8; 16]).unwrap(), vec![2u8; 16]).unwrap();
        let mut dec = Cbc::new(Aes::new(&[1u8; 16]).unwrap(), vec![2u8; 16]).unwrap();
        let mut buf = data.clone();
        enc.encrypt(&mut buf).unwrap();
        dec.decrypt(&mut buf).unwrap();
        assert_eq!(buf, data);

        let mut enc = Cbc::new(Des::new(&[3u8; 8]).unwrap(), vec![4u8; 8]).unwrap();
        let mut dec = Cbc::new(Des::new(&[3u8; 8]).unwrap(), vec![4u8; 8]).unwrap();
        let mut buf = data.clone();
        enc.encrypt(&mut buf).unwrap();
        dec.decrypt(&mut buf).unwrap();
        assert_eq!(buf, data);

        let key24: Vec<u8> = (0..24).collect();
        let mut enc = Cbc::new(Des3::new(&key24).unwrap(), vec![5u8; 8]).unwrap();
        let mut dec = Cbc::new(Des3::new(&key24).unwrap(), vec![5u8; 8]).unwrap();
        let mut buf = data.clone();
        enc.encrypt(&mut buf).unwrap();
        dec.decrypt(&mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn iv_chains_across_calls() {
        // Encrypting in two calls must equal encrypting in one.
        let data: Vec<u8> = (0..48u8).collect();
        let mut one = Cbc::new(Aes::new(&[9u8; 16]).unwrap(), vec![7u8; 16]).unwrap();
        let mut split = Cbc::new(Aes::new(&[9u8; 16]).unwrap(), vec![7u8; 16]).unwrap();
        let mut whole = data.clone();
        one.encrypt(&mut whole).unwrap();
        let mut parts = data.clone();
        let (a, b) = parts.split_at_mut(16);
        split.encrypt(a).unwrap();
        split.encrypt(b).unwrap();
        assert_eq!(whole, parts);
        // Same for decryption.
        let mut dec = Cbc::new(Aes::new(&[9u8; 16]).unwrap(), vec![7u8; 16]).unwrap();
        let (a, b) = whole.split_at_mut(32);
        dec.decrypt(a).unwrap();
        dec.decrypt(b).unwrap();
        assert_eq!(whole, data);
    }

    #[test]
    fn identical_plaintext_blocks_produce_distinct_ciphertext() {
        let mut enc = Cbc::new(Aes::new(&[1u8; 16]).unwrap(), vec![0u8; 16]).unwrap();
        let mut data = [0x42u8; 48];
        enc.encrypt(&mut data).unwrap();
        assert_ne!(data[0..16], data[16..32]);
        assert_ne!(data[16..32], data[32..48]);
    }

    #[test]
    fn rejects_misaligned_data_and_iv() {
        let mut cbc = Cbc::new(Aes::new(&[0u8; 16]).unwrap(), vec![0u8; 16]).unwrap();
        let mut bad = [0u8; 15];
        assert_eq!(cbc.encrypt(&mut bad), Err(CipherError::InvalidDataLen { got: 15, block: 16 }));
        assert_eq!(cbc.decrypt(&mut bad), Err(CipherError::InvalidDataLen { got: 15, block: 16 }));
        assert!(Cbc::new(Aes::new(&[0u8; 16]).unwrap(), vec![0u8; 8]).is_err());
    }

    #[test]
    fn empty_data_is_fine() {
        let mut cbc = Cbc::new(Des::new(&[0u8; 8]).unwrap(), vec![0u8; 8]).unwrap();
        let mut empty: [u8; 0] = [];
        cbc.encrypt(&mut empty).unwrap();
        cbc.decrypt(&mut empty).unwrap();
    }
}
