//! Differential tests for the GF(256) bulk kernels and fuzz round-trips
//! through the Reed–Solomon and rateless encode/decode paths.
//!
//! The kernel tests are the tail/alignment bug trap: every available kernel
//! must match the scalar reference byte-for-byte for **all 256
//! coefficients**, every length in `0..=64` (crossing the 8/16/32-byte
//! chunk boundaries and exercising every possible tail length), and a range
//! of unaligned slice offsets (vector kernels use unaligned loads; a
//! misaligned-head bug would only show up here). The block kernel is held
//! to the scalar kernel row at a time over every pass shape, and the
//! Reed–Solomon and rateless codes to a row-at-a-time reference built here
//! from the public matrix and the scalar kernel.

use rsb_coding::gf256::{self, Kernel};
use rsb_coding::{Block, Code, Rateless, ReedSolomon, Value};

/// SplitMix64 — the deterministic fuzz driver used across the workspace.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fill_random(buf: &mut [u8], state: &mut u64) {
    for chunk in buf.chunks_mut(8) {
        let w = splitmix64(state).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&w[..n]);
    }
}

const MAX_LEN: usize = 64;
const OFFSETS: [usize; 6] = [0, 1, 2, 3, 5, 7];

#[test]
fn mul_acc_kernels_match_scalar_exhaustively() {
    let kernels = gf256::available_kernels();
    assert!(kernels.len() >= 2, "scalar and swar are always available");
    let mut state = 0x5eed_0001u64;
    // One oversized backing pair; sub-slicing at varying offsets produces
    // genuinely unaligned starting addresses.
    let mut src_base = vec![0u8; MAX_LEN + *OFFSETS.last().unwrap()];
    let mut dst_base = vec![0u8; MAX_LEN + *OFFSETS.last().unwrap()];
    fill_random(&mut src_base, &mut state);
    fill_random(&mut dst_base, &mut state);
    let mut expected = [0u8; MAX_LEN];
    let mut actual = [0u8; MAX_LEN];
    for coeff in 0..=255u8 {
        for len in 0..=MAX_LEN {
            for off in OFFSETS {
                let src = &src_base[off..off + len];
                let dst = &dst_base[off..off + len];
                expected[..len].copy_from_slice(dst);
                gf256::mul_acc_with(Kernel::Scalar, &mut expected[..len], src, coeff);
                for &kernel in &kernels {
                    actual[..len].copy_from_slice(dst);
                    gf256::mul_acc_with(kernel, &mut actual[..len], src, coeff);
                    assert_eq!(
                        actual[..len],
                        expected[..len],
                        "mul_acc {kernel} vs scalar: coeff={coeff} len={len} off={off}"
                    );
                }
            }
        }
    }
}

/// A coefficient for row `r` and source `j` of a sweep: 0 and 1 recur, the
/// rest are spread over the field.
fn sweep_coeff(r: usize, j: usize, salt: usize) -> u8 {
    const PICKS: [u8; 8] = [0, 1, 2, 0x1d, 87, 142, 200, 255];
    PICKS[(r * 5 + j * 3 + salt) % PICKS.len()]
}

#[test]
fn block_kernels_match_scalar_row_at_a_time() {
    // Rows 1..=6 × sources 1..=9 cross every kernel's pass shape (4 × 4,
    // SWAR 4 × 8) with a rump in both directions; lengths 0..=130 cross the
    // 16/32-byte steps at every tail length, each slice at its own
    // unaligned offset; half the cases give the sources the ragged lengths
    // of a value's shards, read as zero-padded.
    const MAX_ROWS: usize = 6;
    const MAX_SOURCES: usize = 9;
    const LEN: usize = 130;
    let kernels = gf256::available_kernels();
    let mut state = 0x5eed_0006u64;
    let pad = LEN + *OFFSETS.last().unwrap();
    let mut src_base = vec![vec![0u8; pad]; MAX_SOURCES];
    let mut out_base = vec![vec![0u8; pad]; MAX_ROWS];
    for buf in src_base.iter_mut().chain(&mut out_base) {
        fill_random(buf, &mut state);
    }
    for rows in 1..=MAX_ROWS {
        for sources in 1..=MAX_SOURCES {
            for len in 0..=LEN {
                for (ragged, accumulate) in
                    [(false, false), (false, true), (true, false), (true, true)]
                {
                    let off = |i: usize| OFFSETS[(len + i) % OFFSETS.len()];
                    let src_len = |j: usize| {
                        if ragged {
                            len * ((j * 5 + 3) % (sources + 1)) / sources
                        } else {
                            len
                        }
                    };
                    let srcs: Vec<&[u8]> = (0..sources)
                        .map(|j| &src_base[j][off(j)..off(j) + src_len(j)])
                        .collect();
                    let coeff = |r: usize, j: usize| sweep_coeff(r, j, len);
                    let start: Vec<&[u8]> = (0..rows)
                        .map(|r| &out_base[r][off(r + 1)..off(r + 1) + len])
                        .collect();
                    // The reference: each row on its own, zeroed unless
                    // accumulating, then one scalar `mul_acc` per source.
                    let mut expected: Vec<Vec<u8>> = start.iter().map(|r| r.to_vec()).collect();
                    for (r, row) in expected.iter_mut().enumerate() {
                        if !accumulate {
                            row.fill(0);
                        }
                        for (j, src) in srcs.iter().enumerate() {
                            gf256::mul_acc_with(
                                Kernel::Scalar,
                                &mut row[..src.len()],
                                src,
                                coeff(r, j),
                            );
                        }
                    }
                    for &kernel in &kernels {
                        let mut bufs = out_base.clone();
                        let outs = bufs
                            .iter_mut()
                            .take(rows)
                            .enumerate()
                            .map(|(r, b)| &mut b[off(r + 1)..off(r + 1) + len]);
                        gf256::mul_block_with(
                            kernel,
                            outs,
                            sources,
                            |j| srcs[j],
                            coeff,
                            accumulate,
                        );
                        for (r, want) in expected.iter().enumerate() {
                            assert_eq!(
                                &bufs[r][off(r + 1)..off(r + 1) + len],
                                &want[..],
                                "mul_block {kernel} vs scalar rows: {rows}x{sources} len={len} \
                                 row={r} ragged={ragged} accumulate={accumulate}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn initialising_block_kernels_match_scalar() {
    // `mul_block_new` hands the kernel uninitialised rows: its first pass
    // must write every byte without reading one, and a 9th source (past
    // every pass shape) is added to what that pass wrote. Under Miri, a
    // read of an output byte before its write fails the test. Rows 1..=4 ×
    // sources 1..=9, lengths at and around the 32-byte step plus one over
    // 4 KiB; each case also runs with a short last source (a tail shard).
    const LENS: [usize; 6] = [0, 1, 31, 32, 33, 4097];
    const MAX_SOURCES: usize = 9;
    let mut state = 0x5eed_0007u64;
    let mut src_base = vec![vec![0u8; LENS[5]]; MAX_SOURCES];
    for buf in &mut src_base {
        fill_random(buf, &mut state);
    }
    for rows in 1..=4 {
        for sources in 1..=MAX_SOURCES {
            for len in LENS {
                for short in [false, true] {
                    let src_len = |j: usize| {
                        if short && j == sources - 1 {
                            len / 3
                        } else {
                            len
                        }
                    };
                    let srcs: Vec<&[u8]> =
                        (0..sources).map(|j| &src_base[j][..src_len(j)]).collect();
                    let coeff = |r: usize, j: usize| sweep_coeff(r, j, len);
                    let mut expected = vec![0u8; rows * len];
                    for (r, row) in expected.chunks_exact_mut(len.max(1)).enumerate() {
                        for (j, src) in srcs.iter().enumerate() {
                            let row = &mut row[..src.len()];
                            gf256::mul_acc_with(Kernel::Scalar, row, src, coeff(r, j));
                        }
                    }
                    let ctx = format!("rows={rows} sources={sources} len={len} short={short}");
                    for kernel in gf256::available_kernels() {
                        let got = gf256::mul_block_new_with(
                            kernel,
                            rows,
                            len,
                            sources,
                            |j| srcs[j],
                            coeff,
                        );
                        assert_eq!(&got[..], &expected[..], "{kernel}: {ctx}");
                    }
                    let got = gf256::mul_block_new(rows, len, sources, |j| srcs[j], coeff);
                    assert_eq!(&got[..], &expected[..], "dispatched: {ctx}");
                }
            }
        }
    }
}

/// The code's shards of `v`, zero-padded: the reference's sources.
fn shards(v: &Value, k: usize, shard_len: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|j| {
            let bytes = v.as_bytes();
            let start = (j * shard_len).min(bytes.len());
            let end = ((j + 1) * shard_len).min(bytes.len());
            let mut shard = bytes[start..end].to_vec();
            shard.resize(shard_len, 0);
            shard
        })
        .collect()
}

/// Row `coeffs` applied to `sources` row at a time through the scalar
/// kernel: the reference every encode and decode path is compared with.
fn scalar_row(coeffs: &[u8], sources: &[Vec<u8>], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    for (src, &c) in sources.iter().zip(coeffs) {
        gf256::mul_acc_with(Kernel::Scalar, &mut out, src, c);
    }
    out
}

/// Reference encode of block `i`: row `i` of the encoding matrix over the
/// zero-padded shards.
fn reference_block(code: &ReedSolomon, v: &Value, i: usize) -> Vec<u8> {
    let k = code.reconstruction_threshold();
    let shard_len = code.shard_len();
    scalar_row(
        code.encoding_matrix().row(i),
        &shards(v, k, shard_len),
        shard_len,
    )
}

/// Reference decode: invert the chosen blocks' encoding rows and rebuild
/// every shard row at a time, then cut the padding.
fn reference_decode(code: &ReedSolomon, blocks: &[Block]) -> Vec<u8> {
    let indices: Vec<usize> = blocks.iter().map(|b| b.index() as usize).collect();
    let inv = code
        .encoding_matrix()
        .select_rows(&indices)
        .inverse()
        .expect("distinct rows of an MDS matrix invert");
    let payloads: Vec<Vec<u8>> = blocks.iter().map(|b| b.data().to_vec()).collect();
    let mut value: Vec<u8> = (0..indices.len())
        .flat_map(|s| scalar_row(inv.row(s), &payloads, code.shard_len()))
        .collect();
    value.truncate(code.value_len());
    value
}

/// Every encode path and a decode from several `k`-subsets of `code`,
/// under every available kernel, against the row-at-a-time reference.
fn check_code_against_reference(code: &ReedSolomon, seed: u64) {
    let (k, n, len) = (
        code.reconstruction_threshold(),
        code.block_count(),
        code.value_len(),
    );
    let v = Value::seeded(seed, len);
    let expected: Vec<Vec<u8>> = (0..n).map(|i| reference_block(code, &v, i)).collect();
    // Subsets: the parity-heaviest (the last k), the first k, and one that
    // interleaves systematic and parity blocks.
    let mut subsets: Vec<Vec<usize>> = vec![(n - k..n).collect(), (0..k).collect()];
    subsets.push(
        (0..n)
            .filter(|i| i % 2 == 1)
            .chain((0..n).filter(|i| i % 2 == 0))
            .take(k)
            .collect(),
    );
    for kernel in gf256::available_kernels() {
        assert!(gf256::force_kernel(kernel));
        let blocks = code.encode(&v);
        for (i, want) in expected.iter().enumerate() {
            let ctx = format!("{kernel} k={k} n={n} len={len} block {i}");
            assert_eq!(blocks[i].data(), &want[..], "encode: {ctx}");
            let one = code.encode_block(&v, i as u32).unwrap();
            assert_eq!(one.data(), &want[..], "encode_block: {ctx}");
        }
        for subset in &subsets {
            let chosen: Vec<Block> = subset.iter().map(|&i| blocks[i].clone()).collect();
            let decoded = code.decode(&chosen).unwrap();
            assert_eq!(
                decoded.as_bytes(),
                &reference_decode(code, &chosen)[..],
                "{kernel} {subset:?}"
            );
            assert_eq!(
                decoded, v,
                "{kernel} k={k} n={n} len={len} subset {subset:?}"
            );
        }
    }
    gf256::reset_kernel();
}

#[test]
fn reed_solomon_paths_match_row_at_a_time_reference() {
    // Every k in 1..=8 and n up to 12, at a value length k divides and at
    // lengths that leave a short (or empty) tail shard; then the-block's
    // 16 data + 8 parity stripe.
    for k in 1..=8usize {
        for n in k..=12usize {
            for len in [13 * k, 13 * k + 1, 13 * k + k / 2 + 1, k + 1] {
                let code = ReedSolomon::new(k, n, len).unwrap();
                check_code_against_reference(&code, (k * 100 + n) as u64);
            }
        }
    }
    for len in [16 * 64, 16 * 64 + 5] {
        check_code_against_reference(&ReedSolomon::new(16, 24, len).unwrap(), 1624);
    }
}

#[test]
fn rateless_blocks_match_row_at_a_time_reference() {
    for (k, len) in [(1usize, 9usize), (3, 31), (4, 64), (7, 50)] {
        let code = Rateless::new(k, len).unwrap();
        let v = Value::seeded(k as u64, len);
        let shard_len = len.div_ceil(k);
        let sources = shards(&v, k, shard_len);
        for index in [0u32, 1, k as u32, 99, 123_456] {
            let want = scalar_row(&code.coefficients(index), &sources, shard_len);
            assert_eq!(
                code.encode_block(&v, index).unwrap().data(),
                &want[..],
                "k={k} #{index}"
            );
        }
    }
}

#[test]
fn kernels_handle_large_buffers_with_ragged_tails() {
    // A second net above the exhaustive small-length sweep: sizes around
    // and beyond the 32-byte AVX2 stride, including a multi-KiB buffer.
    let kernels = gf256::available_kernels();
    let mut state = 0x5eed_0003u64;
    for len in [31usize, 32, 33, 47, 63, 64, 65, 127, 255, 1000, 4096, 4127] {
        let mut src = vec![0u8; len];
        let mut dst0 = vec![0u8; len];
        fill_random(&mut src, &mut state);
        fill_random(&mut dst0, &mut state);
        for coeff in [0u8, 1, 2, 0x1d, 87, 255] {
            let mut expected = dst0.clone();
            gf256::mul_acc_with(Kernel::Scalar, &mut expected, &src, coeff);
            for &kernel in &kernels {
                let mut actual = dst0.clone();
                gf256::mul_acc_with(kernel, &mut actual, &src, coeff);
                assert_eq!(actual, expected, "{kernel} coeff={coeff} len={len}");
            }
        }
    }
}

#[test]
fn dispatched_mul_acc_is_linear() {
    // dst ^= a·src then dst ^= b·src  ==  dst ^= (a^b)·src, whatever kernel
    // dispatch picked — a sanity net over the dispatcher's fast paths.
    let mut state = 0x5eed_0004u64;
    let mut src = vec![0u8; 777];
    fill_random(&mut src, &mut state);
    for (a, b) in [(3u8, 200u8), (1, 1), (0, 99), (255, 254)] {
        let mut d1 = vec![0u8; src.len()];
        gf256::mul_acc(&mut d1, &src, a);
        gf256::mul_acc(&mut d1, &src, b);
        let mut d2 = vec![0u8; src.len()];
        gf256::mul_acc(&mut d2, &src, a ^ b);
        assert_eq!(d1, d2, "a={a} b={b}");
    }
}

#[test]
fn reed_solomon_contiguous_roundtrip_fuzz() {
    let mut state = 0xc0de_0001u64;
    for round in 0..200 {
        let k = 1 + (splitmix64(&mut state) as usize % 8);
        let n = k + (splitmix64(&mut state) as usize % 9);
        let len = 1 + (splitmix64(&mut state) as usize % 300);
        let code = ReedSolomon::new(k, n, len).unwrap();
        let v = Value::seeded(splitmix64(&mut state), len);
        let blocks = code.encode(&v);

        // Any k distinct blocks decode (random subset via partial shuffle).
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + (splitmix64(&mut state) as usize % (n - i));
            order.swap(i, j);
        }
        let subset: Vec<_> = order[..k].iter().map(|&i| blocks[i].clone()).collect();
        assert_eq!(
            code.decode(&subset).unwrap(),
            v,
            "round {round}: decode failed for subset {:?} (k={k} n={n} len={len})",
            &order[..k]
        );
    }
}

#[test]
fn rateless_contiguous_roundtrip_fuzz() {
    let mut state = 0xc0de_0002u64;
    for round in 0..100 {
        let k = 1 + (splitmix64(&mut state) as usize % 8);
        let len = 1 + (splitmix64(&mut state) as usize % 200);
        let code = Rateless::new(k, len).unwrap();
        let v = Value::seeded(splitmix64(&mut state), len);
        // k distinct random indices (plus slack for unlucky dependence).
        let mut indices = std::collections::BTreeSet::new();
        while indices.len() < k + 2 {
            indices.insert(splitmix64(&mut state) as u32 % 1_000_000);
        }
        let blocks: Vec<_> = indices
            .iter()
            .map(|&i| code.encode_block(&v, i).unwrap())
            .collect();
        assert_eq!(
            code.decode(&blocks).unwrap(),
            v,
            "round {round}: k={k} len={len} indices={indices:?}"
        );
    }
}
