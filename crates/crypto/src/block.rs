//! The Merkle–Damgård framing SHA-1 and SHA-256 share: a partial-block
//! buffer, the running message length, and the final padding.
//!
//! Both hashes cut the message into 64-byte blocks and end it with `0x80`,
//! zeros, and the bit length as a big-endian `u64`; only the compression
//! function differs. [`BlockBuffer`] owns everything but that function, which
//! each hash passes in as a closure over a *run* of whole blocks, so a backend
//! can keep its state in registers across every full block of one `update`.

/// The block size of SHA-1 and SHA-256, in bytes.
pub(crate) const BLOCK_LEN: usize = 64;

/// One 64-byte message block.
pub(crate) type Block = [u8; BLOCK_LEN];

/// Bytes of the trailing length field in the final block.
const LEN_FIELD: usize = 8;

/// Buffered input and total length of one hash computation.
#[derive(Clone)]
pub(crate) struct BlockBuffer {
    buffer: Block,
    /// Bytes of `buffer` holding input; always below `BLOCK_LEN`.
    buffer_len: usize,
    total_len: u64,
}

impl BlockBuffer {
    pub(crate) const fn new() -> Self {
        BlockBuffer {
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`, handing `compress` every block it completes: first the
    /// buffered block if `data` fills it, then the whole blocks of `data` in
    /// place as one run. The tail waits in the buffer.
    #[inline]
    pub(crate) fn update(&mut self, mut data: &[u8], mut compress: impl FnMut(&[Block])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }

        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        if !blocks.is_empty() {
            compress(blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Pads the message and hands `compress` the final one or two blocks,
    /// built together in one stack buffer.
    #[inline]
    pub(crate) fn finalize(self, mut compress: impl FnMut(&[Block])) {
        let mut last = [[0u8; BLOCK_LEN]; 2];
        let n = self.buffer_len;
        // The length field must fit after the 0x80 byte, or it spills into a
        // second block.
        let blocks = if n < BLOCK_LEN - LEN_FIELD { 1 } else { 2 };
        let end = blocks * BLOCK_LEN;
        let bytes = last.as_flattened_mut();
        bytes[..n].copy_from_slice(&self.buffer[..n]);
        bytes[n] = 0x80;
        bytes[end - LEN_FIELD..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&last[..blocks]);
    }
}
