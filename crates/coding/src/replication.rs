//! Full replication, the paper's baseline and the degenerate `k = 1` code.

use crate::scheme::validate_params;
use crate::{Block, BlockIndex, Code, CodeKind, CodingError, Value};

/// The replication "code": every block is a full copy of the value.
///
/// This realizes the paper's observation that replication is the `k = 1`
/// case of `k`-of-`n` coding: `D({e}) = v` for any single block. Storage per
/// block is the full `D` bits, which is why replication-based algorithms
/// (such as ABD) cost `O(fD)` but never pay a concurrency penalty.
///
/// ```
/// use rsb_coding::{Code, Replication, Value};
/// # fn main() -> Result<(), rsb_coding::CodingError> {
/// let code = Replication::new(3, 8)?;
/// let v = Value::seeded(1, 8);
/// let blocks = code.encode(&v);
/// // One block suffices:
/// assert_eq!(code.decode(&blocks[2..3])?, v);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Replication {
    n: usize,
    value_len: usize,
}

impl std::fmt::Debug for Replication {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Replication({} copies, {} B values)",
            self.n, self.value_len
        )
    }
}

impl Replication {
    /// Creates a replication scheme producing `n` copies of `value_len`-byte
    /// values.
    ///
    /// # Errors
    ///
    /// Fails if `n = 0`, `n > 256`, or `value_len = 0`.
    pub fn new(n: usize, value_len: usize) -> Result<Self, CodingError> {
        validate_params(1, n, value_len)?;
        Ok(Replication { n, value_len })
    }
}

impl Code for Replication {
    fn kind(&self) -> CodeKind {
        CodeKind::Replication
    }

    fn reconstruction_threshold(&self) -> usize {
        1
    }

    fn block_count(&self) -> usize {
        self.n
    }

    fn value_len(&self) -> usize {
        self.value_len
    }

    fn block_size_bits(&self, _index: BlockIndex) -> u64 {
        8 * self.value_len as u64
    }

    fn encode_block(&self, value: &Value, index: BlockIndex) -> Result<Block, CodingError> {
        if value.len() != self.value_len {
            return Err(CodingError::WrongValueLength {
                expected: self.value_len,
                actual: value.len(),
            });
        }
        if index as usize >= self.n {
            return Err(CodingError::UnknownBlockIndex(index));
        }
        Ok(Block::replica(index, value))
    }

    fn decode(&self, blocks: &[Block]) -> Result<Value, CodingError> {
        let Some(b) = blocks.first() else {
            return Err(CodingError::NotEnoughBlocks { needed: 1, got: 0 });
        };
        if b.index() as usize >= self.n {
            return Err(CodingError::UnknownBlockIndex(b.index()));
        }
        if b.len() != self.value_len {
            return Err(CodingError::WrongBlockSize {
                index: b.index(),
                expected: self.value_len,
                actual: b.len(),
            });
        }
        Ok(b.to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_is_a_replica() {
        let code = Replication::new(4, 12).unwrap();
        let v = Value::seeded(6, 12);
        for b in code.encode(&v) {
            assert_eq!(b.data(), v.as_bytes());
            assert_eq!(b.size_bits(), v.size_bits());
        }
    }

    #[test]
    fn single_block_decodes() {
        let code = Replication::new(5, 4).unwrap();
        let v = Value::seeded(10, 4);
        let blocks = code.encode(&v);
        for b in &blocks {
            assert_eq!(code.decode(std::slice::from_ref(b)).unwrap(), v);
        }
    }

    #[test]
    fn empty_set_is_bottom() {
        let code = Replication::new(3, 4).unwrap();
        assert_eq!(
            code.decode(&[]).unwrap_err(),
            CodingError::NotEnoughBlocks { needed: 1, got: 0 }
        );
    }

    #[test]
    fn storage_is_n_times_d() {
        let code = Replication::new(3, 128).unwrap();
        assert_eq!(code.full_set_bits(), 3 * 1024);
    }

    #[test]
    fn invalid_inputs() {
        assert!(Replication::new(0, 4).is_err());
        assert!(Replication::new(3, 0).is_err());
        let code = Replication::new(2, 4).unwrap();
        assert!(code.encode_block(&Value::zeroed(4), 2).is_err());
        assert!(code.encode_block(&Value::zeroed(5), 0).is_err());
        assert!(code.decode(&[Block::new(0, vec![1, 2, 3])]).is_err());
    }
}
