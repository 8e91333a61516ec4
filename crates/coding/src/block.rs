//! Code blocks — the paper's domain `E`.

use crate::Value;
use bytes::Bytes;

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
#[derive(Clone)]
pub struct Block {
    index: BlockIndex,
    /// The payload is `buf[start..end]`: all of a buffer of the block's
    /// own, or — for a systematic block, which *is* a stretch of the value
    /// — a window onto the value's buffer. The window lives here rather
    /// than in [`Bytes`] because blocks are few and [`Value`]s (which never
    /// need one) are many: every history record holds a couple.
    ///
    /// The bounds are `u32`s, which keeps a block at 32 bytes so that an
    /// RMW carrying one fits in 64 (the registers pin that size): a
    /// payload is at most 4 GiB.
    ///
    /// [`Value`]: crate::Value
    buf: Bytes,
    start: u32,
    end: u32,
}

impl Block {
    /// Creates a block with the given index and payload.
    ///
    /// # Panics
    ///
    /// Panics if the payload is 4 GiB or longer.
    pub fn new(index: BlockIndex, data: impl Into<Bytes>) -> Self {
        let buf = data.into();
        let end = buf.len();
        Block::window(index, buf, 0..end)
    }

    /// Creates a block whose payload is `buf[range]`, sharing `buf`: no
    /// allocation, no copy — and the whole of `buf` lives for as long as
    /// the block does.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or ends past 4 GiB.
    pub(crate) fn window(index: BlockIndex, buf: Bytes, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= buf.len(),
            "block window out of bounds"
        );
        let end = u32::try_from(range.end).expect("a block payload ends within 4 GiB");
        Block {
            index,
            buf,
            start: range.start as u32,
            end,
        }
    }

    /// The block whose payload is all of `value` — a full replica —
    /// sharing the value's buffer: no allocation, no copy.
    pub fn replica(index: BlockIndex, value: &Value) -> Self {
        Block::new(index, value.buffer().clone())
    }

    /// The payload as a value: the block's buffer itself, shared, when the
    /// payload is all of it (the inverse of [`Block::replica`]), a copy
    /// otherwise.
    pub fn to_value(&self) -> Value {
        if self.len() == self.buf.len() {
            Value::from_bytes(self.buf.clone())
        } else {
            Value::from_bytes(self.data())
        }
    }

    /// The buffer the payload is a window onto.
    pub(crate) fn buffer(&self) -> &Bytes {
        &self.buf
    }

    /// Whether the payload is the window of `buf` that starts at `start`.
    /// Two live buffers that begin at one address with one length are the
    /// same bytes, so comparing those is comparing identity.
    pub(crate) fn is_window_at(&self, buf: &Bytes, start: usize) -> bool {
        self.start as usize == start
            && self.buf.as_ptr() == buf.as_ptr()
            && self.buf.len() == buf.len()
    }

    /// The block number `i` passed to `E(v, i)`.
    pub fn index(&self) -> BlockIndex {
        self.index
    }

    /// The coded payload.
    pub fn data(&self) -> &[u8] {
        &self.buf[self.start as usize..self.end as usize]
    }

    /// The paper's `|e|`: payload size in bits.
    pub fn size_bits(&self) -> u64 {
        8 * self.len() as u64
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
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
    fn a_replica_and_its_value_share_one_buffer() {
        let v = Value::seeded(3, 24);
        let replica = Block::replica(2, &v);
        assert_eq!(replica.index(), 2);
        assert_eq!(replica.data().as_ptr(), v.as_bytes().as_ptr());
        assert_eq!(
            replica.to_value().as_bytes().as_ptr(),
            v.as_bytes().as_ptr()
        );
        // A proper window is not the whole buffer: its value is a copy.
        let window = Block::window(0, v.buffer().clone(), 8..16);
        assert_eq!(window.to_value().as_bytes(), &v.as_bytes()[8..16]);
        assert_ne!(
            window.to_value().as_bytes().as_ptr(),
            v.as_bytes()[8..].as_ptr()
        );
        assert!(window.is_window_at(v.buffer(), 8));
        assert!(!window.is_window_at(v.buffer(), 0));
        assert!(!window.is_window_at(Value::seeded(3, 24).buffer(), 8));
    }

    #[test]
    fn debug_is_short() {
        let b = Block::new(7, vec![0u8; 10_000]);
        assert!(format!("{b:?}").len() < 80);
    }
}
