//! Systematic `k`-of-`n` Reed–Solomon codes over GF(2⁸).
//!
//! This is the code family the paper's Section 5 algorithm assumes: `encode`
//! produces `n` blocks of `D/k` bits each, and `decode` reconstructs the
//! value from any `k` distinct blocks (the MDS property).

use crate::matrix::Matrix;
use crate::scheme::{shard_slice, validate_params};
use crate::{gf256, Block, BlockIndex, Code, CodeKind, CodingError, Value};
use bytes::BytesMut;

/// A systematic `k`-of-`n` Reed–Solomon code for values of a fixed length.
///
/// The encoding matrix is the `n × k` Vandermonde matrix normalized so its
/// top `k × k` block is the identity; blocks `0..k` are therefore the raw
/// data shards (systematic form) and blocks `k..n` are parity. Any `k` rows
/// of the matrix are invertible, so any `k` distinct blocks decode.
///
/// ```
/// use rsb_coding::{Code, ReedSolomon, Value};
/// # fn main() -> Result<(), rsb_coding::CodingError> {
/// let code = ReedSolomon::new(3, 7, 300)?;
/// let v = Value::seeded(9, 300);
/// let blocks = code.encode(&v);
/// assert_eq!(blocks.len(), 7);
/// // Parity-only decoding works too:
/// assert_eq!(code.decode(&blocks[4..7])?, v);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    value_len: usize,
    shard_len: usize,
    /// `n × k` systematic encoding matrix.
    encoding: Matrix,
}

impl std::fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ReedSolomon({}-of-{}, {} B values, {} B shards)",
            self.k, self.n, self.value_len, self.shard_len
        )
    }
}

impl ReedSolomon {
    /// Creates a `k`-of-`n` code for values of exactly `value_len` bytes.
    ///
    /// # Errors
    ///
    /// Fails if `k = 0`, `k > n`, `n > 256`, or `value_len = 0`.
    pub fn new(k: usize, n: usize, value_len: usize) -> Result<Self, CodingError> {
        validate_params(k, n, value_len)?;
        let vandermonde = Matrix::vandermonde(n, k);
        let top = vandermonde.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .inverse()
            .expect("square Vandermonde with distinct points is invertible");
        let encoding = &vandermonde * &top_inv;
        // The normalization guarantees the systematic form the fast paths
        // rely on: rows 0..k of the encoding matrix are the identity.
        debug_assert!((0..k).all(|i| { (0..k).all(|j| encoding.get(i, j) == u8::from(i == j)) }));
        Ok(ReedSolomon {
            k,
            n,
            value_len,
            shard_len: value_len.div_ceil(k),
            encoding,
        })
    }

    /// The `n × k` systematic encoding matrix (row `i` produces block `i`).
    pub fn encoding_matrix(&self) -> &Matrix {
        &self.encoding
    }

    /// Shard (= block payload) length in **bytes**: `⌈value_len / k⌉`,
    /// i.e. `⌈(D/8) / k⌉` for the paper's `D = 8·value_len` bits.
    ///
    /// The paper states block sizes in the bit domain as `D/k` bits; this
    /// implementation works on whole bytes, so each block carries
    /// `8·⌈D/(8k)⌉` bits — `D/k` rounded up to the next byte boundary (the
    /// tail shard is zero-padded when `k` does not divide `value_len`).
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    fn check_value(&self, value: &Value) -> Result<(), CodingError> {
        if value.len() != self.value_len {
            return Err(CodingError::WrongValueLength {
                expected: self.value_len,
                actual: value.len(),
            });
        }
        Ok(())
    }

    /// Writes block `i` of `bytes` into `out` (exactly `shard_len` bytes,
    /// already zeroed). Systematic rows are a straight copy; parity rows are
    /// one row of the matrix–buffer product, reading the shard views of
    /// `bytes` in place (no sharding copies).
    fn encode_row_into(&self, bytes: &[u8], i: usize, out: &mut [u8]) {
        debug_assert_eq!(out.len(), self.shard_len);
        if i < self.k {
            let src = shard_slice(bytes, self.shard_len, i);
            out[..src.len()].copy_from_slice(src);
        } else {
            for (j, &coeff) in self.encoding.row(i).iter().enumerate() {
                let src = shard_slice(bytes, self.shard_len, j);
                gf256::mul_acc(&mut out[..src.len()], src, coeff);
            }
        }
    }

    /// Block `i` of `value` (already length-checked). A systematic block
    /// that lies wholly inside the value *is* a stretch of the value, so it
    /// is a window onto the value's own buffer: no allocation, no copy —
    /// and the value's buffer lives for as long as the block does. Parity
    /// rows and a zero-padded tail shard are computed straight into their
    /// final shared buffer: one allocation, no staging copy.
    fn block(&self, value: &Value, i: usize) -> Block {
        let start = i * self.shard_len;
        if i < self.k && start + self.shard_len <= self.value_len {
            let window = start..start + self.shard_len;
            return Block::window(i as BlockIndex, value.buffer().clone(), window);
        }
        let mut out = BytesMut::zeroed(self.shard_len);
        self.encode_row_into(value.as_bytes(), i, &mut out);
        Block::new(i as BlockIndex, out.freeze())
    }

    /// The value itself, when `chosen` (`k` blocks of distinct indices,
    /// each `shard_len` long) are the systematic windows [`Self::block`]
    /// cut from one live buffer: `k` in-place windows of a `value_len`
    /// buffer cover it, so that buffer *is* the decoded value — no
    /// allocation, no copy, and nothing to keep beyond what the blocks
    /// already keep alive.
    fn rejoin(&self, chosen: &[&Block]) -> Option<Value> {
        let buf = chosen[0].buffer();
        let in_place = buf.len() == self.value_len
            && chosen.iter().all(|b| {
                let i = b.index() as usize;
                i < self.k && b.is_window_at(buf, i * self.shard_len)
            });
        in_place.then(|| Value::from_bytes(buf.clone()))
    }

    /// Encodes all `n` blocks into one contiguous caller-provided buffer —
    /// block `i` occupies `out[i*shard_len .. (i+1)*shard_len]` — as a
    /// column-major matrix–buffer product: each source shard is read once
    /// per group of up to [`gf256::MAX_INTERLEAVED_ROWS`] parity rows (the
    /// multi-row kernels), instead of once per parity row. Only two small
    /// bookkeeping `Vec`s (row pointers and one coefficient column) are
    /// allocated; no data is copied or staged.
    ///
    /// # Errors
    ///
    /// Fails if `value` has the wrong length for this code.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block_count() * shard_len()` (buffer sizing
    /// is a programmer error, not a data error).
    pub fn encode_into(&self, value: &Value, out: &mut [u8]) -> Result<(), CodingError> {
        self.check_value(value)?;
        assert_eq!(
            out.len(),
            self.n * self.shard_len,
            "encode_into buffer must be n * shard_len bytes"
        );
        let bytes = value.as_bytes();
        out.fill(0);
        // Systematic prefix: blocks 0..k are the (padded) value itself.
        out[..bytes.len()].copy_from_slice(bytes);
        // Parity rows read shard views of `bytes` (the value, not `out`),
        // so they can all accumulate concurrently: for each source shard,
        // one interleaved pass feeds every parity row in groups of up to
        // MAX_INTERLEAVED_ROWS.
        let parity = &mut out[self.k * self.shard_len..];
        let mut rows: Vec<&mut [u8]> = parity.chunks_exact_mut(self.shard_len).collect();
        if rows.is_empty() {
            return Ok(());
        }
        let mut coeffs = vec![0u8; rows.len()];
        for j in 0..self.k {
            let src = shard_slice(bytes, self.shard_len, j);
            for (pi, c) in coeffs.iter_mut().enumerate() {
                *c = self.encoding.get(self.k + pi, j);
            }
            if src.len() == self.shard_len {
                gf256::mul_acc_multi(&mut rows, src, &coeffs);
            } else {
                // Tail shard: the source view is short, so accumulate into
                // equally-short row prefixes (the suffix stays zero, which
                // matches the zero-padded tail semantics).
                let mut views: Vec<&mut [u8]> =
                    rows.iter_mut().map(|r| &mut r[..src.len()]).collect();
                gf256::mul_acc_multi(&mut views, src, &coeffs);
            }
        }
        Ok(())
    }
}

impl Code for ReedSolomon {
    fn kind(&self) -> CodeKind {
        CodeKind::ReedSolomon
    }

    fn reconstruction_threshold(&self) -> usize {
        self.k
    }

    fn block_count(&self) -> usize {
        self.n
    }

    fn value_len(&self) -> usize {
        self.value_len
    }

    fn block_size_bits(&self, _index: BlockIndex) -> u64 {
        8 * self.shard_len as u64
    }

    fn encode_block(&self, value: &Value, index: BlockIndex) -> Result<Block, CodingError> {
        self.check_value(value)?;
        if index as usize >= self.n {
            return Err(CodingError::UnknownBlockIndex(index));
        }
        // No re-sharding: the row product reads shard views of the value in
        // place, so a caller looping over every index pays O(D) per parity
        // block and nothing per whole systematic block — not O(k·D) copies.
        Ok(self.block(value, index as usize))
    }

    fn encode(&self, value: &Value) -> Vec<Block> {
        self.check_value(value)
            .expect("value length must match the code");
        (0..self.n).map(|i| self.block(value, i)).collect()
    }

    fn decode(&self, blocks: &[Block]) -> Result<Value, CodingError> {
        // Deduplicate by index, validating as we go.
        let mut chosen: Vec<&Block> = Vec::with_capacity(self.k);
        let mut seen = vec![false; self.n];
        for b in blocks {
            let i = b.index() as usize;
            if i >= self.n {
                return Err(CodingError::UnknownBlockIndex(b.index()));
            }
            if b.len() != self.shard_len {
                return Err(CodingError::WrongBlockSize {
                    index: b.index(),
                    expected: self.shard_len,
                    actual: b.len(),
                });
            }
            if !seen[i] {
                seen[i] = true;
                chosen.push(b);
                if chosen.len() == self.k {
                    break;
                }
            }
        }
        if chosen.len() < self.k {
            return Err(CodingError::NotEnoughBlocks {
                needed: self.k,
                got: chosen.len(),
            });
        }
        if let Some(value) = self.rejoin(&chosen) {
            return Ok(value);
        }
        // The value's own final buffer holds the decoded shards end to
        // end; a tail shard is cut short (possibly to nothing) where the
        // value ends — its padding is never produced — so nothing is
        // reassembled or copied.
        let mut data = BytesMut::zeroed(self.value_len);
        if chosen.iter().all(|b| (b.index() as usize) < self.k) {
            // All-systematic fast path: k distinct indices < k are exactly
            // {0..k}, so the shards are the raw payloads — no inversion.
            for b in &chosen {
                let start = (b.index() as usize * self.shard_len).min(self.value_len);
                let end = (start + self.shard_len).min(self.value_len);
                data[start..end].copy_from_slice(&b.data()[..end - start]);
            }
        } else {
            let indices: Vec<usize> = chosen.iter().map(|b| b.index() as usize).collect();
            let sub = self.encoding.select_rows(&indices);
            let sub_inv = sub
                .inverse()
                .expect("any k rows of an MDS encoding matrix are invertible");
            // shard[s] = Σ_j inv[s][j] * block[j]
            for (s, out) in data.chunks_mut(self.shard_len).enumerate() {
                for (j, b) in chosen.iter().enumerate() {
                    gf256::mul_acc(out, &b.data()[..out.len()], sub_inv.get(s, j));
                }
            }
        }
        Ok(Value::from_bytes(data.freeze()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::shard;

    #[test]
    fn encode_into_matches_encode() {
        for (k, n, len) in [
            (3usize, 7usize, 301usize),
            (2, 4, 16),
            (5, 5, 40),
            (4, 9, 64),
        ] {
            let code = ReedSolomon::new(k, n, len).unwrap();
            let v = Value::seeded(17, len);
            let blocks = code.encode(&v);
            let mut buf = vec![0xaau8; n * code.shard_len()];
            code.encode_into(&v, &mut buf).unwrap();
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(
                    &buf[i * code.shard_len()..(i + 1) * code.shard_len()],
                    b.data(),
                    "k={k} n={n} len={len} block {i}"
                );
            }
        }
    }

    #[test]
    fn encode_into_rejects_wrong_value_length() {
        let code = ReedSolomon::new(2, 4, 16).unwrap();
        let mut buf = vec![0u8; 4 * code.shard_len()];
        assert_eq!(
            code.encode_into(&Value::zeroed(15), &mut buf).unwrap_err(),
            CodingError::WrongValueLength {
                expected: 16,
                actual: 15
            }
        );
    }

    #[test]
    #[should_panic(expected = "n * shard_len")]
    fn encode_into_wrong_buffer_size_panics() {
        let code = ReedSolomon::new(2, 4, 16).unwrap();
        let mut buf = vec![0u8; 7];
        let _ = code.encode_into(&Value::zeroed(16), &mut buf);
    }

    #[test]
    fn systematic_blocks_decode_in_any_order() {
        // Exercises the no-inversion fast path, shuffled.
        let code = ReedSolomon::new(4, 9, 57).unwrap();
        let v = Value::seeded(31, 57);
        let blocks = code.encode(&v);
        let shuffled = vec![
            blocks[2].clone(),
            blocks[0].clone(),
            blocks[3].clone(),
            blocks[1].clone(),
        ];
        assert_eq!(code.decode(&shuffled).unwrap(), v);
    }

    #[test]
    fn systematic_prefix_is_raw_data() {
        let code = ReedSolomon::new(4, 9, 64).unwrap();
        let v = Value::seeded(7, 64);
        let blocks = code.encode(&v);
        let shards = shard(&v, 4);
        for i in 0..4 {
            assert_eq!(blocks[i].data(), &shards[i][..], "block {i} not systematic");
        }
    }

    #[test]
    fn whole_systematic_blocks_are_windows_onto_the_value() {
        let code = ReedSolomon::new(4, 7, 64).unwrap();
        let v = Value::seeded(11, 64);
        let blocks = code.encode(&v);
        for (i, b) in blocks.iter().enumerate().take(4) {
            assert_eq!(
                b.data().as_ptr(),
                v.as_bytes()[i * 16..].as_ptr(),
                "systematic block {i} should share the value's buffer"
            );
        }
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(&code.encode_block(&v, i as BlockIndex).unwrap(), b);
        }
        // A padded tail shard is not a stretch of the value: own buffer.
        let code = ReedSolomon::new(3, 5, 10).unwrap(); // shards of 4: 4 + 4 + 2
        let v = Value::seeded(12, 10);
        let tail = &code.encode(&v)[2];
        assert_eq!(tail.data(), &[v.as_bytes()[8], v.as_bytes()[9], 0, 0]);
        assert_ne!(tail.data().as_ptr(), v.as_bytes()[8..].as_ptr());
    }

    #[test]
    fn decode_rejoins_the_systematic_windows_of_one_buffer() {
        let code = ReedSolomon::new(4, 7, 64).unwrap();
        let v = Value::seeded(21, 64);
        let blocks = code.encode(&v);
        let shared = |decoded: &Value| decoded.as_bytes().as_ptr() == v.as_bytes().as_ptr();
        let pick =
            |order: &[usize]| -> Vec<Block> { order.iter().map(|&i| blocks[i].clone()).collect() };
        // In any order, with duplicates, and with parity trailing: the
        // first k distinct indices are the four windows of `v`'s buffer.
        for order in [
            &[0, 1, 2, 3][..],
            &[3, 1, 0, 2],
            &[2, 2, 0, 0, 3, 1, 1],
            &[1, 0, 3, 2, 5, 6],
        ] {
            let decoded = code.decode(&pick(order)).unwrap();
            assert_eq!(decoded, v, "{order:?}");
            assert!(shared(&decoded), "{order:?} should rejoin");
        }
        // A parity block among the first k: decoded, not rejoined.
        for order in [&[4, 0, 1, 2, 3][..], &[0, 1, 2, 6], &[3, 4, 5, 6]] {
            let decoded = code.decode(&pick(order)).unwrap();
            assert_eq!(decoded, v, "{order:?}");
            assert!(!shared(&decoded), "{order:?} has no buffer to rejoin");
        }
        // An equal-content block in a buffer of its own (what the wire or
        // a snapshot would hand back) is not a window of `v`'s buffer …
        let mut mixed = pick(&[0, 1, 2, 3]);
        mixed[2] = Block::new(2, blocks[2].data().to_vec());
        assert_eq!(mixed[2], blocks[2]);
        let decoded = code.decode(&mixed).unwrap();
        assert_eq!(decoded, v);
        assert!(!shared(&decoded));
        // … and neither is a window of an equal value's other buffer.
        let twin = Value::from_bytes(v.as_bytes().to_vec());
        mixed[2] = code.encode_block(&twin, 2).unwrap();
        let decoded = code.decode(&mixed).unwrap();
        assert_eq!(decoded, v);
        assert!(!shared(&decoded));
        // The twin's own windows rejoin to the twin's buffer.
        let decoded = code.decode(&code.encode(&twin)).unwrap();
        assert_eq!(decoded.as_bytes().as_ptr(), twin.as_bytes().as_ptr());
    }

    #[test]
    fn decode_never_rejoins_across_a_padded_tail_shard() {
        // 10 bytes in shards of 4 + 4 + 2: block 2 is padded in a buffer
        // of its own, so the three systematic blocks do not cover `v`'s.
        let code = ReedSolomon::new(3, 5, 10).unwrap();
        let v = Value::seeded(22, 10);
        let blocks = code.encode(&v);
        for order in [[0usize, 1, 2], [2, 0, 1]] {
            let subset: Vec<Block> = order.iter().map(|&i| blocks[i].clone()).collect();
            let decoded = code.decode(&subset).unwrap();
            assert_eq!(decoded, v, "{order:?}");
            assert_ne!(decoded.as_bytes().as_ptr(), v.as_bytes().as_ptr());
        }
        // k = 1: block 0 is the whole value, and decodes to its buffer.
        let code = ReedSolomon::new(1, 3, 10).unwrap();
        let decoded = code.decode(&code.encode(&v)[..1]).unwrap();
        assert_eq!(decoded.as_bytes().as_ptr(), v.as_bytes().as_ptr());
        let decoded = code.decode(&code.encode(&v)[1..]).unwrap();
        assert_eq!(decoded, v);
    }

    #[test]
    fn any_k_blocks_decode() {
        let code = ReedSolomon::new(3, 6, 50).unwrap();
        let v = Value::seeded(123, 50);
        let blocks = code.encode(&v);
        // All 20 3-subsets of 6 blocks.
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let subset = vec![blocks[a].clone(), blocks[b].clone(), blocks[c].clone()];
                    assert_eq!(code.decode(&subset).unwrap(), v, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn fewer_than_k_blocks_is_bottom() {
        let code = ReedSolomon::new(3, 6, 50).unwrap();
        let v = Value::seeded(5, 50);
        let blocks = code.encode(&v);
        let err = code.decode(&blocks[..2]).unwrap_err();
        assert_eq!(err, CodingError::NotEnoughBlocks { needed: 3, got: 2 });
    }

    #[test]
    fn duplicate_indices_do_not_count_twice() {
        let code = ReedSolomon::new(2, 4, 10).unwrap();
        let v = Value::seeded(5, 10);
        let blocks = code.encode(&v);
        let dup = vec![blocks[1].clone(), blocks[1].clone(), blocks[1].clone()];
        assert_eq!(
            code.decode(&dup).unwrap_err(),
            CodingError::NotEnoughBlocks { needed: 2, got: 1 }
        );
    }

    #[test]
    fn extra_blocks_are_ignored() {
        let code = ReedSolomon::new(2, 5, 16).unwrap();
        let v = Value::seeded(1, 16);
        let blocks = code.encode(&v);
        assert_eq!(code.decode(&blocks).unwrap(), v);
    }

    #[test]
    fn block_sizes_symmetric_and_d_over_k() {
        let code = ReedSolomon::new(4, 10, 100).unwrap();
        // ⌈100/4⌉ = 25 bytes = 200 bits for every index.
        for i in 0..10 {
            assert_eq!(code.block_size_bits(i), 200);
        }
        // Symmetry across values: sizes never depend on content.
        for seed in 0..5 {
            let v = Value::seeded(seed, 100);
            for b in code.encode(&v) {
                assert_eq!(b.size_bits(), 200);
            }
        }
    }

    #[test]
    fn unaligned_value_length_pads() {
        let code = ReedSolomon::new(3, 5, 10).unwrap(); // 10 = 3·3+1
        let v = Value::seeded(77, 10);
        let blocks = code.encode(&v);
        assert!(blocks.iter().all(|b| b.len() == 4));
        assert_eq!(code.decode(&blocks[2..5]).unwrap(), v);
    }

    #[test]
    fn k_equals_n_works() {
        let code = ReedSolomon::new(4, 4, 32).unwrap();
        let v = Value::seeded(2, 32);
        let blocks = code.encode(&v);
        assert_eq!(code.decode(&blocks).unwrap(), v);
        assert_eq!(
            code.decode(&blocks[..3]).unwrap_err(),
            CodingError::NotEnoughBlocks { needed: 4, got: 3 }
        );
    }

    #[test]
    fn wrong_value_length_rejected() {
        let code = ReedSolomon::new(2, 4, 16).unwrap();
        let err = code.encode_block(&Value::zeroed(15), 0).unwrap_err();
        assert_eq!(
            err,
            CodingError::WrongValueLength {
                expected: 16,
                actual: 15
            }
        );
    }

    #[test]
    fn wrong_block_size_rejected() {
        let code = ReedSolomon::new(2, 4, 16).unwrap();
        let bogus = vec![Block::new(0, vec![0u8; 3]), Block::new(1, vec![0u8; 8])];
        assert!(matches!(
            code.decode(&bogus).unwrap_err(),
            CodingError::WrongBlockSize { index: 0, .. }
        ));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let code = ReedSolomon::new(2, 4, 16).unwrap();
        let v = Value::zeroed(16);
        assert_eq!(
            code.encode_block(&v, 4).unwrap_err(),
            CodingError::UnknownBlockIndex(4)
        );
        let blocks = vec![Block::new(200, vec![0u8; 8])];
        assert_eq!(
            code.decode(&blocks).unwrap_err(),
            CodingError::UnknownBlockIndex(200)
        );
    }

    #[test]
    fn full_set_bits_is_n_over_k_expansion() {
        let code = ReedSolomon::new(4, 12, 100).unwrap();
        // n·⌈D/k⌉ in bits: 12 · 25 B = 300 B = 2400 bits.
        assert_eq!(code.full_set_bits(), 2400);
    }

    #[test]
    fn max_field_size_code() {
        let code = ReedSolomon::new(8, 256, 64).unwrap();
        let v = Value::seeded(3, 64);
        let blocks = code.encode(&v);
        let tail: Vec<Block> = blocks[248..].to_vec();
        assert_eq!(code.decode(&tail).unwrap(), v);
    }
}
