//! Code blocks — the paper's domain `E`.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A block index `i ∈ N` (the paper uses the naturals so that rateless
/// codes, with their unbounded block sequence, are captured).
pub type BlockIndex = u32;

/// A code block `e = E(v, i)` together with its index.
///
/// The paper's storage-cost measure (Definition 2) counts `|e|` — the number
/// of bits in the block — for every block instance held by a base object or
/// client; [`Block::size_bits`] is exactly that quantity. The index is
/// *metadata* and is not counted.
///
/// ```
/// use rsb_coding::Block;
/// let b = Block::new(3, vec![0xab; 16]);
/// assert_eq!(b.index(), 3);
/// assert_eq!(b.size_bits(), 128);
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Block {
    index: BlockIndex,
    /// The payload is `buf[start..end]`: all of a buffer of the block's
    /// own, or — for a systematic block, which *is* a stretch of the value
    /// — a window onto the value's buffer. The window lives here rather
    /// than in [`Bytes`] because blocks are few and [`Value`]s (which never
    /// need one) are many: every history record holds a couple.
    ///
    /// [`Value`]: crate::Value
    buf: Bytes,
    start: usize,
    end: usize,
}

impl Block {
    /// Creates a block with the given index and payload.
    pub fn new(index: BlockIndex, data: impl Into<Bytes>) -> Self {
        let buf = data.into();
        let end = buf.len();
        Block::window(index, buf, 0..end)
    }

    /// Creates a block whose payload is `buf[range]`, sharing `buf`: no
    /// allocation, no copy — and the whole of `buf` lives for as long as
    /// the block does.
    pub(crate) fn window(index: BlockIndex, buf: Bytes, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "block window out of bounds"
        );
        Block {
            index,
            buf,
            start: range.start,
            end: range.end,
        }
    }

    /// The block number `i` passed to `E(v, i)`.
    pub fn index(&self) -> BlockIndex {
        self.index
    }

    /// The coded payload.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// The paper's `|e|`: payload size in bits.
    pub fn size_bits(&self) -> u64 {
        8 * self.len() as u64
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

// A block is its index and payload bytes, whichever buffer they sit in.
impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index && self.data() == other.data()
    }
}

impl Eq for Block {}

impl std::hash::Hash for Block {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.index.hash(state);
        self.data().hash(state);
    }
}

impl std::fmt::Debug for Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let prefix: Vec<u8> = self.data().iter().take(4).copied().collect();
        write!(
            f,
            "Block(#{}, {} B, {:02x?}…)",
            self.index,
            self.len(),
            prefix
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting() {
        let b = Block::new(0, vec![1, 2, 3]);
        assert_eq!(b.size_bits(), 24);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert!(Block::new(9, Vec::new()).is_empty());
    }

    #[test]
    fn equality_includes_index() {
        let a = Block::new(0, vec![1]);
        let b = Block::new(1, vec![1]);
        assert_ne!(a, b);
        assert_eq!(a, Block::new(0, vec![1]));
    }

    #[test]
    fn a_window_equals_and_hashes_like_its_copy() {
        use std::hash::{Hash, Hasher};
        let buf = Bytes::from(vec![9u8, 1, 2, 3, 9]);
        let window = Block::window(4, buf.clone(), 1..4);
        let copy = Block::new(4, vec![1u8, 2, 3]);
        assert_eq!(window.data(), &[1, 2, 3]);
        assert_eq!(
            window.data().as_ptr(),
            buf[1..].as_ptr(),
            "shares the buffer"
        );
        assert_eq!((window.len(), window.size_bits()), (3, 24));
        assert_eq!(window, copy);
        let digest = |b: &Block| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&window), digest(&copy));
        assert!(Block::window(0, buf, 2..2).is_empty());
    }

    #[test]
    fn debug_is_short() {
        let b = Block::new(7, vec![0u8; 10_000]);
        assert!(format!("{b:?}").len() < 80);
    }
}
