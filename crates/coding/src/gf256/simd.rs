//! x86-64 `pshufb` and GFNI kernels for bulk GF(256) multiplication.
//!
//! The nibble kernels evaluate the per-coefficient split tables
//! ([`MUL_LO`] / [`MUL_HI`]) as vector shuffles: the 16-entry table is the
//! shuffle *source* and the data nibbles are the shuffle *indices*, so one
//! `pshufb` performs 16 (SSSE3) or 2×16 (AVX2) table lookups. The GFNI
//! kernel instead broadcasts the coefficient's precomputed 8×8 bit-matrix
//! ([`MUL_MATRIX`]) and applies it with one `vgf2p8affineqb` per 32 bytes
//! — the affine form, not `vgf2p8mulb`, because the plain multiply
//! hardwires the AES polynomial 0x11B while this crate's field is 0x11D.
//! Tails shorter than a vector fall back to the nibble tables one byte at
//! a time, which is what the exhaustive differential tests pin down
//! (`tests/kernels.rs`).
//!
//! The `block_*` kernels are the block kernel's passes
//! ([`mul_block`](super::mul_block)) — and, at one row and one source,
//! [`mul_acc`](super::mul_acc) too: up to four output rows from up to four
//! sources, monomorphised per shape so the row and source pointers and
//! every running sum stay in registers. Each 32/16-byte source chunk is
//! loaded once and each output chunk is stored once per pass; an output
//! is loaded only when the pass adds to it, never when it is the output's
//! first writer.
//!
//! This module and `uninit.rs` are the only places in the crate that use
//! `unsafe`. Here it is raw pointer loads/stores for the unaligned vector
//! accesses, plus the calls into `#[target_feature]` functions. Every
//! entry point is a safe wrapper whose caller contract — "only dispatch
//! here after runtime feature detection" — is enforced by
//! `gf256::dispatch_*` and `kernel_available`.
#![allow(unsafe_code)]

use super::{OutByte, MUL_HI, MUL_LO, MUL_MATRIX};
use core::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_gf2p8affine_epi64_epi8,
    _mm256_loadu_si256, _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_setzero_si256,
    _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256, _mm256_xor_si256, _mm_and_si128,
    _mm_loadu_si128, _mm_set1_epi8, _mm_setzero_si128, _mm_shuffle_epi8, _mm_srli_epi64,
    _mm_storeu_si128, _mm_xor_si128,
};

// ---------------------------------------------------------------------------
// A coefficient's operands: nibble tables, or the GFNI bit-matrix
// ---------------------------------------------------------------------------

/// Loads a 16-entry nibble table into a 128-bit register.
#[target_feature(enable = "ssse3")]
fn load_table_128(table: &[u8; 16]) -> __m128i {
    // SAFETY: `table` is exactly 16 readable bytes; loadu has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(table.as_ptr().cast()) }
}

/// Loads a 16-entry nibble table broadcast to both 128-bit lanes.
#[target_feature(enable = "avx2")]
fn load_table_256(table: &[u8; 16]) -> __m256i {
    // SAFETY: `table` is exactly 16 readable bytes.
    let t = unsafe { _mm_loadu_si128(table.as_ptr().cast()) };
    _mm256_broadcastsi128_si256(t)
}

/// The coefficient's 8×8 bit-matrix broadcast to every qword of a 256-bit
/// register — the second operand of `vgf2p8affineqb`.
#[target_feature(enable = "gfni,avx2")]
fn mul_matrix_256(coeff: u8) -> __m256i {
    _mm256_set1_epi64x(i64::from_le_bytes(MUL_MATRIX[coeff as usize].to_le_bytes()))
}

// ---------------------------------------------------------------------------
// Block kernels: one rows × sources pass, every sum kept in registers
// ---------------------------------------------------------------------------

/// The shortest of the slices: the columns a pass may touch.
fn common_len<B>(outs: &[&mut [B]], srcs: &[&[u8]]) -> usize {
    let outs = outs.iter().map(|o| o.len());
    outs.chain(srcs.iter().map(|s| s.len())).min().unwrap_or(0)
}

/// The start addresses of `N` output rows, for a pass that keeps them in
/// registers.
fn out_ptrs<const N: usize, B>(outs: &mut [&mut [B]]) -> [*mut u8; N] {
    let mut ptrs = [core::ptr::null_mut(); N];
    for (p, out) in ptrs.iter_mut().zip(outs.iter_mut()) {
        *p = out.as_mut_ptr().cast();
    }
    ptrs
}

/// The start addresses of `N` sources; see [`out_ptrs`].
fn src_ptrs<const N: usize>(srcs: &[&[u8]]) -> [*const u8; N] {
    let mut ptrs = [core::ptr::null(); N];
    for (p, src) in ptrs.iter_mut().zip(srcs) {
        *p = src.as_ptr();
    }
    ptrs
}

/// Runs the pass `$pass::<R, S>` over the `[B]` rows `$outs` when
/// `$outs` × `$srcs` is a shape in the table and evaluates to the columns
/// it covered; any other shape covers none, and the byte loop after it
/// does the whole pass.
macro_rules! by_shape {
    ($pass:ident::<$b:ident>($outs:ident, $srcs:ident, $coeffs:ident, $len:ident)
        $($r:literal => [$($s:literal)*])*) => {
        match ($outs.len(), $srcs.len()) {
            $($(($r, $s) => {
                let outs = out_ptrs::<$r, $b>($outs);
                let srcs = src_ptrs::<$s>($srcs);
                // SAFETY: the dispatcher verified the pass's CPU features;
                // the pointers are those of exactly `$r` outputs and `$s`
                // sources, each at least `$len` bytes long, and the outputs
                // are distinct `&mut` borrows, so none overlaps another
                // output or a source. The pass loads outputs only when it
                // accumulates, which `u8` rows alone do: over
                // `MaybeUninit<u8>` rows the initialising pass writes every
                // output byte and reads none.
                unsafe { $pass::<$r, $s>(outs, srcs, $coeffs, $len, $b::ACCUMULATE) }
            })*)*
            _ => 0,
        }
    };
}

/// `outs[r] = base + Σ_s coeffs[r·S + s] · srcs[s]`, `base` being each
/// byte's [`OutByte::base`], via GFNI: each 32-byte source chunk is loaded
/// once, each output chunk is summed in a register and stored once. Up to
/// 4 × 4 per pass.
pub(super) fn block_gfni<B: OutByte>(outs: &mut [&mut [B]], srcs: &[&[u8]], coeffs: &[u8]) {
    debug_assert!(is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx2"));
    let len = common_len(outs, srcs);
    let done = by_shape!(block_gfni_pass::<B>(outs, srcs, coeffs, len)
        1 => [1 2 3 4] 2 => [1 2 3 4] 3 => [1 2 3 4] 4 => [1 2 3 4]);
    if done < len {
        super::block_tail(outs, srcs, coeffs, done);
    }
}

/// [`block_gfni`] via AVX2 `vpshufb`, 32 bytes per step.
pub(super) fn block_avx2<B: OutByte>(outs: &mut [&mut [B]], srcs: &[&[u8]], coeffs: &[u8]) {
    debug_assert!(is_x86_feature_detected!("avx2"));
    let len = common_len(outs, srcs);
    let done = by_shape!(block_avx2_pass::<B>(outs, srcs, coeffs, len)
        1 => [1 2 3 4] 2 => [1 2 3 4] 3 => [1 2 3 4] 4 => [1 2 3 4]);
    if done < len {
        super::block_tail(outs, srcs, coeffs, done);
    }
}

/// [`block_gfni`] via SSSE3 `pshufb`, 16 bytes per step.
pub(super) fn block_ssse3<B: OutByte>(outs: &mut [&mut [B]], srcs: &[&[u8]], coeffs: &[u8]) {
    debug_assert!(is_x86_feature_detected!("ssse3"));
    let len = common_len(outs, srcs);
    let done = by_shape!(block_ssse3_pass::<B>(outs, srcs, coeffs, len)
        1 => [1 2 3 4] 2 => [1 2 3 4] 3 => [1 2 3 4] 4 => [1 2 3 4]);
    if done < len {
        super::block_tail(outs, srcs, coeffs, done);
    }
}

/// One pass of [`block_gfni`] over the whole 32-byte columns of `len`;
/// returns how many columns that was.
///
/// # Safety
///
/// The CPU supports GFNI and AVX2, every pointer is valid for `len`
/// bytes — reads for `srcs`, writes for `outs`, and reads for `outs` too
/// when `accumulate`, whose bytes are then initialised — and no output
/// overlaps another output or a source.
// SAFETY: the contract above binds the caller — `by_shape!`, which
// upholds it — not this definition.
#[target_feature(enable = "gfni,avx2")]
unsafe fn block_gfni_pass<const R: usize, const S: usize>(
    outs: [*mut u8; R],
    srcs: [*const u8; S],
    coeffs: &[u8],
    len: usize,
    accumulate: bool,
) -> usize {
    debug_assert_eq!(coeffs.len(), R * S);
    let mut mats = [[_mm256_setzero_si256(); S]; R];
    for (row, cs) in mats.iter_mut().zip(coeffs.chunks_exact(S)) {
        for (m, &c) in row.iter_mut().zip(cs) {
            *m = mul_matrix_256(c);
        }
    }
    let end = len - len % 32;
    let mut i = 0;
    while i < end {
        let mut xs = [_mm256_setzero_si256(); S];
        for (x, src) in xs.iter_mut().zip(srcs) {
            // SAFETY: `i + 32 <= len`, and every source holds `len` bytes.
            *x = unsafe { _mm256_loadu_si256(src.add(i).cast()) };
        }
        for (out, row) in outs.iter().zip(&mats) {
            let mut sum = if accumulate {
                // SAFETY: `i + 32 <= len`, and every output holds `len` bytes.
                unsafe { _mm256_loadu_si256(out.add(i).cast()) }
            } else {
                _mm256_setzero_si256()
            };
            for (&x, &m) in xs.iter().zip(row) {
                sum = _mm256_xor_si256(sum, _mm256_gf2p8affine_epi64_epi8::<0>(x, m));
            }
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_si256(out.add(i).cast(), sum) };
        }
        i += 32;
    }
    end
}

/// One pass of [`block_avx2`]; see [`block_gfni_pass`].
///
/// # Safety
///
/// As for [`block_gfni_pass`], with AVX2 in place of GFNI and AVX2.
// SAFETY: the contract above binds the caller — `by_shape!`, which
// upholds it — not this definition.
#[target_feature(enable = "avx2")]
unsafe fn block_avx2_pass<const R: usize, const S: usize>(
    outs: [*mut u8; R],
    srcs: [*const u8; S],
    coeffs: &[u8],
    len: usize,
    accumulate: bool,
) -> usize {
    debug_assert_eq!(coeffs.len(), R * S);
    let zero = _mm256_setzero_si256();
    let mut tables = [[(zero, zero); S]; R];
    for (row, cs) in tables.iter_mut().zip(coeffs.chunks_exact(S)) {
        for (t, &c) in row.iter_mut().zip(cs) {
            *t = (
                load_table_256(&MUL_LO[c as usize]),
                load_table_256(&MUL_HI[c as usize]),
            );
        }
    }
    let nib = _mm256_set1_epi8(0x0f);
    let end = len - len % 32;
    let mut i = 0;
    while i < end {
        // Each source chunk split into its low and high nibbles once.
        let mut xs = [(zero, zero); S];
        for (x, src) in xs.iter_mut().zip(srcs) {
            // SAFETY: `i + 32 <= len`, and every source holds `len` bytes.
            let v = unsafe { _mm256_loadu_si256(src.add(i).cast()) };
            *x = (
                _mm256_and_si256(v, nib),
                _mm256_and_si256(_mm256_srli_epi64::<4>(v), nib),
            );
        }
        for (out, row) in outs.iter().zip(&tables) {
            let mut sum = if accumulate {
                // SAFETY: `i + 32 <= len`, and every output holds `len` bytes.
                unsafe { _mm256_loadu_si256(out.add(i).cast()) }
            } else {
                zero
            };
            for (&(xl, xh), &(tl, th)) in xs.iter().zip(row) {
                let prod =
                    _mm256_xor_si256(_mm256_shuffle_epi8(tl, xl), _mm256_shuffle_epi8(th, xh));
                sum = _mm256_xor_si256(sum, prod);
            }
            // SAFETY: as for the load.
            unsafe { _mm256_storeu_si256(out.add(i).cast(), sum) };
        }
        i += 32;
    }
    end
}

/// One pass of [`block_ssse3`] over 16-byte columns; see
/// [`block_gfni_pass`].
///
/// # Safety
///
/// As for [`block_gfni_pass`], with SSSE3 in place of GFNI and AVX2.
// SAFETY: the contract above binds the caller — `by_shape!`, which
// upholds it — not this definition.
#[target_feature(enable = "ssse3")]
unsafe fn block_ssse3_pass<const R: usize, const S: usize>(
    outs: [*mut u8; R],
    srcs: [*const u8; S],
    coeffs: &[u8],
    len: usize,
    accumulate: bool,
) -> usize {
    debug_assert_eq!(coeffs.len(), R * S);
    let zero = _mm_setzero_si128();
    let mut tables = [[(zero, zero); S]; R];
    for (row, cs) in tables.iter_mut().zip(coeffs.chunks_exact(S)) {
        for (t, &c) in row.iter_mut().zip(cs) {
            *t = (
                load_table_128(&MUL_LO[c as usize]),
                load_table_128(&MUL_HI[c as usize]),
            );
        }
    }
    let nib = _mm_set1_epi8(0x0f);
    let end = len - len % 16;
    let mut i = 0;
    while i < end {
        let mut xs = [(zero, zero); S];
        for (x, src) in xs.iter_mut().zip(srcs) {
            // SAFETY: `i + 16 <= len`, and every source holds `len` bytes.
            let v = unsafe { _mm_loadu_si128(src.add(i).cast()) };
            *x = (
                _mm_and_si128(v, nib),
                _mm_and_si128(_mm_srli_epi64::<4>(v), nib),
            );
        }
        for (out, row) in outs.iter().zip(&tables) {
            let mut sum = if accumulate {
                // SAFETY: `i + 16 <= len`, and every output holds `len` bytes.
                unsafe { _mm_loadu_si128(out.add(i).cast()) }
            } else {
                zero
            };
            for (&(xl, xh), &(tl, th)) in xs.iter().zip(row) {
                let prod = _mm_xor_si128(_mm_shuffle_epi8(tl, xl), _mm_shuffle_epi8(th, xh));
                sum = _mm_xor_si128(sum, prod);
            }
            // SAFETY: as for the load.
            unsafe { _mm_storeu_si128(out.add(i).cast(), sum) };
        }
        i += 16;
    }
    end
}
