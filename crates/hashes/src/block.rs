//! The 64-byte block buffering MD5, SHA-1 and SHA-256 share.
//!
//! All three are Merkle–Damgård constructions over 64-byte blocks with the
//! same padding rule (`0x80`, zeros to 56 mod 64, then the 64-bit message
//! bit length); they differ in the compression function and in the byte
//! order of that length. This type owns the part that is the same — the
//! partial-block buffer, the running length and the padding — and hands
//! every run of complete blocks to the caller's compression closure in one
//! call, so a kernel that keeps its chaining state in registers keeps it
//! there across a whole record.

/// Compression block length of every hash in this crate.
pub(crate) const BLOCK_LEN: usize = 64;

/// Partial-block buffer and message length of one streaming hash.
#[derive(Debug, Clone)]
pub(crate) struct BlockBuffer {
    /// Total message length in bytes.
    len: u64,
    buf: [u8; BLOCK_LEN],
    /// Bytes of `buf` in use; always `< BLOCK_LEN` between calls.
    buf_len: usize,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer { len: 0, buf: [0; BLOCK_LEN], buf_len: 0 }
    }

    /// Absorbs `data`. `compress` receives non-empty slices whose length is
    /// a multiple of [`BLOCK_LEN`]: the completed buffered block first, then
    /// all full blocks of `data` at once, borrowed straight from the input.
    #[inline]
    pub(crate) fn update(&mut self, data: &[u8], mut compress: impl FnMut(&[u8])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&self.buf);
            self.buf_len = 0;
            input = &input[take..];
        }
        let (blocks, tail) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress(blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads the message and compresses the last block — two blocks when
    /// fewer than nine bytes of the current one are free. The pad and the
    /// bit length (as `encode_len` lays it out: big-endian for SHA,
    /// little-endian for MD5) are written straight into the buffer.
    #[inline]
    pub(crate) fn finish(
        mut self,
        encode_len: fn(u64) -> [u8; 8],
        mut compress: impl FnMut(&[u8]),
    ) {
        const LEN_AT: usize = BLOCK_LEN - 8;
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= LEN_AT {
            compress(&self.buf);
            self.buf[..LEN_AT].fill(0);
        }
        self.buf[LEN_AT..].copy_from_slice(&encode_len(self.len.wrapping_mul(8)));
        compress(&self.buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concatenates everything the compression closure was handed.
    fn absorbed(chunks: &[&[u8]]) -> (Vec<u8>, Vec<usize>) {
        let mut b = BlockBuffer::new();
        let (mut seen, mut calls) = (Vec::new(), Vec::new());
        let mut sink = |blocks: &[u8]| {
            calls.push(blocks.len());
            seen.extend_from_slice(blocks);
        };
        for c in chunks {
            b.update(c, &mut sink);
        }
        b.finish(u64::to_be_bytes, &mut sink);
        (seen, calls)
    }

    #[test]
    fn full_blocks_arrive_as_one_run() {
        let data = [7u8; 10 + 64 * 5 + 3];
        let (seen, calls) = absorbed(&[&data[..10], &data[10..]]);
        // The 54 bytes completing the buffered block, then four whole blocks
        // in one call, then the padded tail.
        assert_eq!(calls, [64, 256, 64]);
        assert_eq!(&seen[..data.len()], &data[..]);
    }

    #[test]
    fn padding_layout() {
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0x11u8; len];
            let (seen, _) = absorbed(&[&data]);
            let want_len = (len + 9).div_ceil(64) * 64;
            assert_eq!(seen.len(), want_len, "len {len}");
            assert_eq!(&seen[..len], &data[..], "len {len}");
            assert_eq!(seen[len], 0x80, "len {len}");
            assert!(seen[len + 1..want_len - 8].iter().all(|&b| b == 0), "len {len}");
            assert_eq!(seen[want_len - 8..], ((len as u64) * 8).to_be_bytes(), "len {len}");
        }
    }
}
