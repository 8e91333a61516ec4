//! A rateless random-linear fountain code over unbounded block indices.
//!
//! The paper chooses `N` as the domain of block numbers specifically so that
//! *rateless* codes — whose encoders can generate a limitless block sequence
//! — are captured by the model (its citation [13]). This module implements
//! the standard random-linear fountain over GF(2⁸): block `i`'s coefficient
//! vector is derived deterministically from `i`, the first `k` indices are
//! systematic, and decoding performs incremental Gaussian elimination until
//! rank `k` is reached.

use crate::matrix::Matrix;
use crate::scheme::{shard_slice, validate_params};
use crate::{gf256, Block, BlockIndex, Code, CodeKind, CodingError, Value};

/// A rateless random-linear code with reconstruction threshold `k`.
///
/// Unlike [`crate::ReedSolomon`], `k` distinct blocks decode only with high
/// probability (non-systematic coefficient vectors may be linearly
/// dependent); [`Rateless::decode`] reports [`CodingError::NotEnoughBlocks`]
/// when the supplied set has rank `< k`, and callers simply fetch more
/// blocks — the defining workflow of fountain codes.
///
/// ```
/// use rsb_coding::{Code, Rateless, Value};
/// # fn main() -> Result<(), rsb_coding::CodingError> {
/// let code = Rateless::new(3, 60)?;
/// let v = Value::seeded(4, 60);
/// // Indices far beyond any fixed rate are fine:
/// let blocks: Vec<_> = [0u32, 1000, 123_456, 7, 99]
///     .iter()
///     .map(|&i| code.encode_block(&v, i))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(code.decode(&blocks)?, v);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Rateless {
    k: usize,
    value_len: usize,
    shard_len: usize,
}

impl std::fmt::Debug for Rateless {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Rateless(k={}, {} B values, {} B blocks)",
            self.k, self.value_len, self.shard_len
        )
    }
}

/// SplitMix64: the deterministic per-index coefficient source.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Rateless {
    /// Creates a rateless code with threshold `k` for `value_len`-byte
    /// values.
    ///
    /// # Errors
    ///
    /// Fails if `k = 0`, `k > 256`, or `value_len = 0`.
    pub fn new(k: usize, value_len: usize) -> Result<Self, CodingError> {
        validate_params(k, k, value_len)?;
        Ok(Rateless {
            k,
            value_len,
            shard_len: value_len.div_ceil(k),
        })
    }

    /// The deterministic coefficient vector for block `index`.
    ///
    /// Indices `0..k` are systematic unit vectors; later indices derive a
    /// nonzero pseudo-random vector from the index.
    pub fn coefficients(&self, index: BlockIndex) -> Vec<u8> {
        let mut coeffs = vec![0u8; self.k];
        if (index as usize) < self.k {
            coeffs[index as usize] = 1;
            return coeffs;
        }
        let mut state = (index as u64) ^ 0xd1b5_4a32_d192_ed03;
        loop {
            for chunk in coeffs.chunks_mut(8) {
                let word = splitmix64(&mut state);
                for (j, c) in chunk.iter_mut().enumerate() {
                    *c = (word >> (8 * j)) as u8;
                }
            }
            if coeffs.iter().any(|&c| c != 0) {
                return coeffs;
            }
        }
    }
}

impl Code for Rateless {
    fn kind(&self) -> CodeKind {
        CodeKind::Rateless
    }

    fn reconstruction_threshold(&self) -> usize {
        self.k
    }

    /// Rateless codes have no fixed rate; the primary set is taken to be
    /// the systematic prefix plus `k` parity blocks (callers may request any
    /// `u32` index directly).
    fn block_count(&self) -> usize {
        2 * self.k
    }

    fn value_len(&self) -> usize {
        self.value_len
    }

    fn block_size_bits(&self, _index: BlockIndex) -> u64 {
        8 * self.shard_len as u64
    }

    fn encode_block(&self, value: &Value, index: BlockIndex) -> Result<Block, CodingError> {
        if value.len() != self.value_len {
            return Err(CodingError::WrongValueLength {
                expected: self.value_len,
                actual: value.len(),
            });
        }
        // No re-sharding: read shard views of the value in place (see
        // `scheme::shard_slice`); systematic indices are a straight copy.
        let bytes = value.as_bytes();
        let mut out = vec![0u8; self.shard_len];
        if (index as usize) < self.k {
            let src = shard_slice(bytes, self.shard_len, index as usize);
            out[..src.len()].copy_from_slice(src);
        } else {
            let coeffs = self.coefficients(index);
            let src = |j: usize| shard_slice(bytes, self.shard_len, j);
            gf256::mul_block([&mut out[..]], self.k, src, |_, j| coeffs[j], false);
        }
        Ok(Block::new(index, out))
    }

    fn decode(&self, blocks: &[Block]) -> Result<Value, CodingError> {
        // Collect distinct-index blocks with their coefficient vectors.
        let mut rows: Vec<Vec<u8>> = Vec::new();
        let mut payloads: Vec<&Block> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for b in blocks {
            if b.len() != self.shard_len {
                return Err(CodingError::WrongBlockSize {
                    index: b.index(),
                    expected: self.shard_len,
                    actual: b.len(),
                });
            }
            if seen.insert(b.index()) {
                rows.push(self.coefficients(b.index()));
                payloads.push(b);
            }
        }
        if rows.len() < self.k {
            return Err(CodingError::NotEnoughBlocks {
                needed: self.k,
                got: rows.len(),
            });
        }
        // Pick k linearly independent rows by rank-extending greedily.
        // Independence is tested against an incrementally maintained
        // reduced (echelon) basis — O(k²) per candidate instead of
        // re-running full Gaussian elimination on every prefix.
        let mut chosen_rows: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        let mut chosen_blocks: Vec<&Block> = Vec::with_capacity(self.k);
        let mut basis: Vec<Vec<u8>> = Vec::with_capacity(self.k);
        let mut pivots: Vec<usize> = Vec::with_capacity(self.k);
        for (row, b) in rows.into_iter().zip(payloads) {
            let mut reduced = row.clone();
            for (bi, &pc) in basis.iter().zip(pivots.iter()) {
                let factor = reduced[pc];
                if factor != 0 {
                    gf256::mul_acc(&mut reduced, bi, factor);
                }
            }
            let Some(pivot) = reduced.iter().position(|&c| c != 0) else {
                continue; // linearly dependent on the rows chosen so far
            };
            let pivot_inv = gf256::inv(reduced[pivot]);
            gf256::scale(&mut reduced, pivot_inv);
            basis.push(reduced);
            pivots.push(pivot);
            chosen_rows.push(row);
            chosen_blocks.push(b);
            if chosen_rows.len() == self.k {
                break;
            }
        }
        if chosen_rows.len() < self.k {
            // Enough blocks but linearly dependent: still ⊥.
            return Err(CodingError::NotEnoughBlocks {
                needed: self.k,
                got: chosen_rows.len(),
            });
        }
        let coeff = Matrix::from_rows(chosen_rows);
        let inv = coeff
            .inverse()
            .expect("rows were chosen linearly independent");
        // One contiguous buffer for all decoded shards, truncated to the
        // value length — no per-shard vectors, no reassembly pass.
        let mut data = vec![0u8; self.k * self.shard_len];
        gf256::mul_block(
            data.chunks_exact_mut(self.shard_len),
            self.k,
            |j| chosen_blocks[j].data(),
            |s, j| inv.get(s, j),
            false,
        );
        data.truncate(self.value_len);
        Ok(Value::from_bytes(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::shard;

    #[test]
    fn systematic_prefix() {
        let code = Rateless::new(4, 40).unwrap();
        let v = Value::seeded(11, 40);
        let shards = shard(&v, 4);
        for i in 0..4u32 {
            let b = code.encode_block(&v, i).unwrap();
            assert_eq!(b.data(), &shards[i as usize][..]);
        }
    }

    #[test]
    fn decode_from_systematic() {
        let code = Rateless::new(3, 30).unwrap();
        let v = Value::seeded(8, 30);
        let blocks: Vec<Block> = (0..3u32)
            .map(|i| code.encode_block(&v, i).unwrap())
            .collect();
        assert_eq!(code.decode(&blocks).unwrap(), v);
    }

    #[test]
    fn decode_from_high_indices() {
        let code = Rateless::new(4, 64).unwrap();
        let v = Value::seeded(3, 64);
        let blocks: Vec<Block> = [1_000u32, 2_000, 30_000, 400_000, 5_000_000]
            .iter()
            .map(|&i| code.encode_block(&v, i).unwrap())
            .collect();
        assert_eq!(code.decode(&blocks).unwrap(), v);
    }

    #[test]
    fn coefficients_deterministic_and_nonzero() {
        let code = Rateless::new(5, 10).unwrap();
        for i in [0u32, 4, 5, 77, 1_000_000] {
            let a = code.coefficients(i);
            let b = code.coefficients(i);
            assert_eq!(a, b);
            assert!(a.iter().any(|&c| c != 0));
        }
    }

    #[test]
    fn insufficient_rank_reports_bottom() {
        let code = Rateless::new(2, 8).unwrap();
        let v = Value::seeded(1, 8);
        let b0 = code.encode_block(&v, 0).unwrap();
        assert!(matches!(
            code.decode(&[b0.clone(), b0]).unwrap_err(),
            CodingError::NotEnoughBlocks { needed: 2, got: 1 }
        ));
    }

    #[test]
    fn mixed_systematic_and_random_blocks() {
        let code = Rateless::new(4, 17).unwrap();
        let v = Value::seeded(21, 17);
        let blocks: Vec<Block> = [0u32, 9, 2, 1234]
            .iter()
            .map(|&i| code.encode_block(&v, i).unwrap())
            .collect();
        assert_eq!(code.decode(&blocks).unwrap(), v);
    }

    #[test]
    fn size_symmetry_across_indices_and_values() {
        let code = Rateless::new(3, 31).unwrap();
        let expected = 8 * 31u64.div_ceil(3);
        for seed in 0..3 {
            let v = Value::seeded(seed, 31);
            for i in [0u32, 1, 2, 3, 500, 100_000] {
                assert_eq!(code.encode_block(&v, i).unwrap().size_bits(), expected);
                assert_eq!(code.block_size_bits(i), expected);
            }
        }
    }
}
