//! B5 — GF(256) kernel and contiguous Reed–Solomon throughput.
//!
//! Measures the coding hot path the SWAR/SIMD kernels accelerate:
//!
//! * `gf256_kernels/mul_acc/*` — raw `dst ^= c·src` GB/s per kernel on a
//!   64 KiB buffer (scalar = the pre-kernel baseline);
//! * `coding_encode/*` — the contiguous `encode_into` product across a
//!   k-of-n × value-size grid (includes the acceptance point 4-of-7 ×
//!   64 KiB);
//! * `coding_encode_scalar/*` — the same product forced onto the scalar
//!   kernel, i.e. the old implementation's speed on the new structure;
//! * `coding_encode_block/*` — a caller looping `encode_block` over all
//!   `n` indices (the path that used to re-shard the value per block);
//! * `coding_decode/*` — decode from the last `k` blocks (the
//!   maximally-parity subset; always a full matrix inversion).
//!
//! All groups set byte throughput so the harness reports GB/s, and all
//! names land in `$CRITERION_JSON` for the CI bench-regression gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rsb_coding::{gf256, Code, ReedSolomon, Value};

const GRID: [(usize, usize); 3] = [(2, 4), (4, 7), (8, 16)];
const SIZES: [usize; 3] = [4 * 1024, 64 * 1024, 1024 * 1024];

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256_kernels");
    let len = 64 * 1024;
    let src = Value::seeded(7, len);
    let mut dst = vec![0u8; len];
    group.throughput(Throughput::Bytes(len as u64));
    for kernel in gf256::available_kernels() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("mul_acc/{kernel}")),
            &kernel,
            |b, &kernel| {
                b.iter(|| {
                    gf256::mul_acc_with(
                        kernel,
                        std::hint::black_box(&mut dst),
                        std::hint::black_box(src.as_bytes()),
                        0x1d,
                    );
                });
            },
        );
    }
    group.finish();
}

/// The block kernel's one-source case (`mul_acc_multi`) against the same
/// kernel called row-at-a-time: 3 parity rows (4-of-7's count) over a
/// 64 KiB source. A pass reads the source once for all its rows instead
/// of once per row — part of what the block kernel saves every encode.
fn bench_multi_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf256_multi_row");
    let len = 64 * 1024;
    let coeffs: [u8; 3] = [0x1d, 0x47, 0x8e];
    let src = Value::seeded(7, len);
    group.throughput(Throughput::Bytes((coeffs.len() * len) as u64));
    for kernel in gf256::available_kernels() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("interleaved/{kernel}")),
            &kernel,
            |b, &kernel| {
                let mut rows = vec![vec![0u8; len]; coeffs.len()];
                b.iter(|| {
                    let mut dsts: Vec<&mut [u8]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
                    gf256::mul_acc_multi_with(
                        kernel,
                        std::hint::black_box(&mut dsts),
                        std::hint::black_box(src.as_bytes()),
                        &coeffs,
                    );
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("row_at_a_time/{kernel}")),
            &kernel,
            |b, &kernel| {
                let mut rows = vec![vec![0u8; len]; coeffs.len()];
                b.iter(|| {
                    for (row, &coeff) in rows.iter_mut().zip(&coeffs) {
                        gf256::mul_acc_with(
                            kernel,
                            std::hint::black_box(row),
                            std::hint::black_box(src.as_bytes()),
                            coeff,
                        );
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding_encode");
    for (k, n) in GRID {
        for len in SIZES {
            let code = ReedSolomon::new(k, n, len).unwrap();
            let v = Value::seeded(1, len);
            let mut out = vec![0u8; n * code.shard_len()];
            group.throughput(Throughput::Bytes(len as u64));
            group.bench_with_input(
                BenchmarkId::from_parameter(format!("{k}of{n}/{len}B")),
                &(code, v),
                |b, (code, v)| {
                    b.iter(|| code.encode_into(std::hint::black_box(v), &mut out).unwrap());
                },
            );
        }
    }
    group.finish();
}

fn bench_encode_scalar(c: &mut Criterion) {
    // The pre-kernel baseline: identical encode structure, scalar EXP/LOG
    // inner loop. One size keeps the gating run short.
    assert!(gf256::force_kernel(gf256::Kernel::Scalar));
    let mut group = c.benchmark_group("coding_encode_scalar");
    for (k, n) in GRID {
        let len = 64 * 1024;
        let code = ReedSolomon::new(k, n, len).unwrap();
        let v = Value::seeded(1, len);
        let mut out = vec![0u8; n * code.shard_len()];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{k}of{n}/{len}B")),
            &(code, v),
            |b, (code, v)| {
                b.iter(|| code.encode_into(std::hint::black_box(v), &mut out).unwrap());
            },
        );
    }
    group.finish();
    gf256::reset_kernel();
}

fn bench_encode_block_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding_encode_block");
    let (k, n) = (4, 7);
    let len = 64 * 1024;
    let code = ReedSolomon::new(k, n, len).unwrap();
    let v = Value::seeded(1, len);
    group.throughput(Throughput::Bytes(len as u64));
    group.bench_with_input(
        BenchmarkId::from_parameter(format!("{k}of{n}/{len}B")),
        &(code, v),
        |b, (code, v)| {
            b.iter(|| {
                for i in 0..n as u32 {
                    std::hint::black_box(code.encode_block(std::hint::black_box(v), i).unwrap());
                }
            });
        },
    );
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("coding_decode");
    for (k, n) in GRID {
        let len = 64 * 1024;
        let code = ReedSolomon::new(k, n, len).unwrap();
        let v = Value::seeded(1, len);
        let blocks = code.encode(&v);
        // Worst case: decode from the last k blocks — the maximally-parity
        // subset (all n-k parity blocks, topped up with systematic ones
        // when k > n-k, as in 4-of-7). Never the all-systematic fast path;
        // always a full matrix inversion.
        let tail: Vec<_> = blocks[n - k..].to_vec();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{k}of{n}/tail/{len}B")),
            &(code, tail),
            |b, (code, tail)| b.iter(|| code.decode(std::hint::black_box(tail)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_multi_row,
    bench_encode,
    bench_encode_scalar,
    bench_encode_block_loop,
    bench_decode
);
criterion_main!(benches);
