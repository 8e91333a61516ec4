//! Arithmetic in the finite field GF(2⁸).
//!
//! All codes in this crate operate over GF(2⁸) with the primitive polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (0x11d), the conventional choice for
//! Reed–Solomon coding (e.g., in RAID-6 and QR codes). Addition is XOR;
//! scalar multiplication uses compile-time log/antilog tables.
//!
//! # Bulk kernels
//!
//! The field's bulk operation — the block kernel below, and its one-row
//! case [`mul_acc`] (`dst[i] ^= coeff · src[i]`) — dispatches once per
//! call, never per byte, to the fastest [`Kernel`] the host supports:
//!
//! * **`Gfni`** (x86-64, runtime-detected): each coefficient's multiply map
//!   is a GF(2)-linear transform, precomputed as an 8×8 bit-matrix
//!   ([`MUL_MATRIX`]) and evaluated 32 bytes at a time with
//!   `vgf2p8affineqb`. (The plain `vgf2p8mulb` multiply hardwires the AES
//!   polynomial 0x11B; the affine form is what makes GFNI usable with this
//!   crate's 0x11D field.)
//! * **`Avx2`** / **`Ssse3`** (x86-64, runtime-detected): the coefficient's
//!   low/high-nibble product tables ([`MUL_LO`] / [`MUL_HI`], 2×16 entries)
//!   are loaded into vector registers and evaluated 32 / 16 bytes at a time
//!   with `pshufb`.
//! * **`Swar`** (all platforms): 32 bytes at a time in four `u64`s, every
//!   byte lane doubled with branchless shift-and-xor and the doublings a
//!   coefficient's bits select summed; tails fall back to the nibble
//!   tables, one byte at a time.
//! * **`Scalar`**: a byte loop over the `EXP[LOG[c] + LOG[s]]` [`mul`],
//!   kept as the differential-testing reference and benchmark baseline.
//!
//! Detection runs once per process ([`active_kernel`]); the
//! `RSB_GF256_KERNEL` environment variable
//! (`scalar`/`swar`/`ssse3`/`avx2`/`gfni`) or [`force_kernel`] pins a
//! specific kernel for benchmarks and tests.
//!
//! The in-place [`scale`] does not dispatch: it is one byte loop over
//! [`mul`]. Its callers — matrix row operations and the rateless code's
//! basis reduction — hand it coefficient rows `k` or `n` bytes long, never
//! a data shard, so a vector step would cover one or two vectors at most.
//!
//! # The block kernel
//!
//! Erasure coding is a matrix–buffer product: output row `r` is
//! `Σ_j c[r][j] · src_j`. Built from [`mul_acc`], that product reads every
//! source once per output row and rewrites every output once per source —
//! at 4-of-7 × 64 KiB, twelve passes over 16 KiB shards. [`mul_block`]
//! computes it in passes of up to 4 rows × 4 sources (SWAR: 4 × 8): a
//! pass loads each 32-byte source chunk (16 for SSSE3) once, sums every
//! output chunk in registers, and stores it once, as the output's first
//! writer or adding to it. Every Reed–Solomon and rateless encode and
//! decode runs through it; [`mul_acc_multi`] is its one-source,
//! accumulating case.
//! The scalar kernel computes each pass a byte at a time with the
//! `EXP`/`LOG` multiply — the reference the differential tests hold the
//! other kernels to.
//!
//! A pass adds its sums to a row of bytes (`[u8]`), or is the first writer
//! of a row of uninitialised ones (`[MaybeUninit<u8>]`), which it never
//! reads: the row's type, not a flag, says which. A group's first pass over
//! uninitialised rows writes every byte of them, and the passes after it
//! add to what it wrote. So [`mul_block_new`] hands the kernel a new buffer
//! uninitialised, and its bytes are written once — not zero-filled first.

use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

#[cfg(target_arch = "x86_64")]
mod simd;
mod uninit;

/// The primitive polynomial 0x11d, i.e. `x⁸ + x⁴ + x³ + x² + 1`.
pub const PRIMITIVE_POLY: u16 = 0x11d;

/// Number of elements in the field.
pub const FIELD_SIZE: usize = 256;

/// Compile-time generation of the exp/log tables for the field.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= PRIMITIVE_POLY;
        }
        i += 1;
    }
    // Duplicate the table so `exp[log a + log b]` needs no modular reduction.
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();

/// Antilog table: `EXP[i] = g^i` for the generator `g = 2`, doubled in
/// length so that products of logs never need reduction mod 255.
pub const EXP: [u8; 512] = TABLES.0;

/// Log table: `LOG[x] = log_g x` for `x != 0`. `LOG[0]` is 0 and must not
/// be used; callers guard against zero operands.
pub const LOG: [u8; 256] = TABLES.1;

/// `const`-context multiply used to build the nibble product tables.
const fn mul_const(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Compile-time generation of the per-coefficient nibble product tables.
const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            lo[c][x] = mul_const(c as u8, x as u8);
            hi[c][x] = mul_const(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();

/// Compile-time generation of the per-coefficient GF(2) bit-matrices for
/// the GFNI affine kernel. Multiplication by a constant `c` is GF(2)-linear
/// in the bits of the other operand, so it is exactly an 8×8 bit-matrix —
/// the operand shape `vgf2p8affineqb` applies to every byte of a vector.
///
/// Bit layout follows the instruction: output bit `i` of a transformed byte
/// `x` is `parity(matrix.byte[7 - i] & x)`, so byte `7 - i` of each `u64`
/// holds (as a mask over the input bits) row `i` of the multiply-by-`c` map.
const fn build_mul_matrices() -> [u64; 256] {
    let mut matrices = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut word = 0u64;
        let mut i = 0; // output bit
        while i < 8 {
            let mut row = 0u8;
            let mut j = 0; // input bit
            while j < 8 {
                if (mul_const(c as u8, 1 << j) >> i) & 1 == 1 {
                    row |= 1 << j;
                }
                j += 1;
            }
            word |= (row as u64) << ((7 - i) * 8);
            i += 1;
        }
        matrices[c] = word;
        c += 1;
    }
    matrices
}

/// Per-coefficient 8×8 GF(2) bit-matrices: `MUL_MATRIX[c]`, applied to a
/// byte `x` by `vgf2p8affineqb` (or the scalar parity fold in the tests),
/// yields `c · x` in this crate's 0x11D field: output bit `i` is
/// `parity(MUL_MATRIX[c].byte[7 - i] & x)`.
pub const MUL_MATRIX: [u64; 256] = build_mul_matrices();

/// Low-nibble product table: `MUL_LO[c][x] = c · x` for `x < 16`.
///
/// Together with [`MUL_HI`] this splits any product into two 16-entry
/// lookups — `c · s = MUL_LO[c][s & 0xf] ^ MUL_HI[c][s >> 4]` — which is
/// exactly the shape `pshufb` evaluates 16 (or 32) lanes at a time.
pub const MUL_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;

/// High-nibble product table: `MUL_HI[c][x] = c · (x << 4)` for `x < 16`.
/// See [`MUL_LO`].
pub const MUL_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// Adds two field elements (XOR). Subtraction is identical.
///
/// ```
/// assert_eq!(rsb_coding::gf256::add(0x53, 0xca), 0x99);
/// ```
#[inline]
pub const fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Subtracts `b` from `a`; in characteristic 2 this equals [`add`].
#[inline]
pub const fn sub(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
///
/// ```
/// use rsb_coding::gf256::mul;
/// assert_eq!(mul(0, 17), 0);
/// assert_eq!(mul(1, 17), 17);
/// assert_eq!(mul(3, 7), 9); // (x+1)(x²+x+1) = x³+2x²+2x+1 ≡ x³+1
/// ```
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Divides `a` by `b`.
///
/// # Panics
///
/// Panics if `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "division by zero in GF(256)");
    if a == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + 255 - LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse of `a`.
///
/// # Panics
///
/// Panics if `a == 0`.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "zero has no inverse in GF(256)");
    EXP[255 - LOG[a as usize] as usize]
}

/// Raises `a` to the power `e`.
///
/// ```
/// use rsb_coding::gf256::pow;
/// assert_eq!(pow(2, 8), 0x1d); // x⁸ ≡ x⁴+x³+x²+1 (mod 0x11d)
/// assert_eq!(pow(0, 0), 1);
/// ```
#[inline]
pub fn pow(a: u8, e: u32) -> u8 {
    if e == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let l = LOG[a as usize] as u64 * e as u64 % 255;
    EXP[l as usize]
}

/// Computes the dot product `Σ aᵢ·bᵢ` of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[u8], b: &[u8]) -> u8 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    let mut acc = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        acc ^= mul(x, y);
    }
    acc
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

/// A bulk GF(256) multiply kernel — the implementation the block kernel
/// and [`mul_acc`] dispatch to.
///
/// All kernels compute byte-for-byte identical results (proven exhaustively
/// by the crate's differential tests); they differ only in throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// A byte loop over the `EXP[LOG[c] + LOG[s]]` [`mul`]. Reference and
    /// benchmark baseline; never auto-selected.
    Scalar,
    /// Portable `u64` SWAR: 32 byte lanes per step, branchless
    /// shift-and-xor doubling, nibble-table tail. The fallback everywhere.
    Swar,
    /// x86-64 SSSE3 `pshufb` nibble lookup, 16 bytes per step.
    Ssse3,
    /// x86-64 AVX2 `vpshufb` nibble lookup, 32 bytes per step.
    Avx2,
    /// x86-64 GFNI `vgf2p8affineqb` bit-matrix transform, 32 bytes per
    /// step. One instruction replaces the whole nibble-shuffle sequence.
    Gfni,
}

impl Kernel {
    const ALL: [Kernel; 5] = [
        Kernel::Scalar,
        Kernel::Swar,
        Kernel::Ssse3,
        Kernel::Avx2,
        Kernel::Gfni,
    ];

    /// Human-readable kernel name (`"scalar"`, `"swar"`, `"ssse3"`,
    /// `"avx2"`, `"gfni"`); the inverse of [`Kernel::by_name`].
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Swar => "swar",
            Kernel::Ssse3 => "ssse3",
            Kernel::Avx2 => "avx2",
            Kernel::Gfni => "gfni",
        }
    }

    /// Parses a kernel name as accepted in `RSB_GF256_KERNEL`.
    pub fn by_name(name: &str) -> Option<Kernel> {
        Kernel::ALL.iter().copied().find(|k| k.name() == name)
    }

    fn as_u8(self) -> u8 {
        match self {
            Kernel::Scalar => 0,
            Kernel::Swar => 1,
            Kernel::Ssse3 => 2,
            Kernel::Avx2 => 3,
            Kernel::Gfni => 4,
        }
    }

    fn from_u8(v: u8) -> Kernel {
        Kernel::ALL[v as usize]
    }

    /// Output rows × sources of one pass of this kernel's block kernel.
    /// A vector pass holds every source chunk of a step and every sum in
    /// its sixteen registers: at 4 × 8, 8-of-16 and 16-of-24 encodes ran
    /// slower than at 4 × 4. SWAR reads its sources one at a time, so more
    /// of them per pass only save rewriting the outputs.
    fn pass_shape(self) -> (usize, usize) {
        match self {
            Kernel::Scalar | Kernel::Swar => (MAX_PASS_ROWS, MAX_PASS_SOURCES),
            Kernel::Ssse3 | Kernel::Avx2 | Kernel::Gfni => (4, 4),
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Sentinel meaning "detection has not run yet".
const KERNEL_UNRESOLVED: u8 = u8::MAX;

static ACTIVE_KERNEL: AtomicU8 = AtomicU8::new(KERNEL_UNRESOLVED);

/// Whether `kernel` can run on this machine. [`Kernel::Scalar`] and
/// [`Kernel::Swar`] are always available; the vector kernels require
/// x86-64 with the corresponding feature at runtime.
pub fn kernel_available(kernel: Kernel) -> bool {
    match kernel {
        Kernel::Scalar | Kernel::Swar => true,
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => is_x86_feature_detected!("ssse3"),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => is_x86_feature_detected!("avx2"),
        // The kernel works in 256-bit registers, so it needs AVX2 on top
        // of the GF(2⁸) instructions themselves.
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Ssse3 | Kernel::Avx2 | Kernel::Gfni => false,
    }
}

/// Every kernel runnable on this machine, in increasing-preference order.
pub fn available_kernels() -> Vec<Kernel> {
    Kernel::ALL
        .iter()
        .copied()
        .filter(|&k| kernel_available(k))
        .collect()
}

fn detect_kernel() -> Kernel {
    if let Ok(name) = std::env::var("RSB_GF256_KERNEL") {
        if let Some(k) = Kernel::by_name(name.trim()) {
            if kernel_available(k) {
                return k;
            }
        }
        // Unknown or unavailable override: fall through to detection rather
        // than failing library initialization.
    }
    #[cfg(target_arch = "x86_64")]
    {
        if kernel_available(Kernel::Gfni) {
            return Kernel::Gfni;
        }
        if is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        if is_x86_feature_detected!("ssse3") {
            return Kernel::Ssse3;
        }
    }
    Kernel::Swar
}

/// The kernel the block kernel and [`mul_acc`] currently dispatch to.
///
/// Resolved once per process (runtime CPU feature detection, overridable via
/// the `RSB_GF256_KERNEL` environment variable) and cached in an atomic, so
/// the per-call cost is one relaxed load.
pub fn active_kernel() -> Kernel {
    // Relaxed: a pure value cache: every thread that races the unresolved state
    // re-runs detection and stores the same answer; kernels are stateless fns,
    // nothing is guarded.
    match ACTIVE_KERNEL.load(Ordering::Relaxed) {
        KERNEL_UNRESOLVED => {
            let k = detect_kernel();
            // Relaxed: see the load above.
            ACTIVE_KERNEL.store(k.as_u8(), Ordering::Relaxed);
            k
        }
        v => Kernel::from_u8(v),
    }
}

/// Pins dispatch to a specific kernel — a benchmark/test hook.
///
/// Returns `false` (leaving dispatch unchanged) if the kernel is not
/// available on this machine. Affects the whole process; pair with
/// [`reset_kernel`] to restore auto-detection.
pub fn force_kernel(kernel: Kernel) -> bool {
    if !kernel_available(kernel) {
        return false;
    }
    // Relaxed: test/bench hook; see `active_kernel`.
    ACTIVE_KERNEL.store(kernel.as_u8(), Ordering::Relaxed);
    true
}

/// Clears any forced kernel; the next [`active_kernel`] call re-detects.
pub fn reset_kernel() {
    // Relaxed: test/bench hook; see `active_kernel`.
    ACTIVE_KERNEL.store(KERNEL_UNRESOLVED, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Bulk operations
// ---------------------------------------------------------------------------

/// Computes `dst[i] ^= coeff * src[i]` for every byte — the inner loop of
/// all encode/decode paths. Dispatches to the fastest available [`Kernel`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_acc(dst: &mut [u8], src: &[u8], coeff: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc on unequal lengths");
    if coeff == 0 {
        return;
    }
    if coeff == 1 {
        xor_slices(dst, src);
        return;
    }
    dispatch_mul_acc(active_kernel(), dst, src, coeff);
}

/// Scales every byte of `buf` by `coeff` in place, one [`mul`] per byte:
/// it is handed coefficient rows, never data shards, so it does not
/// dispatch.
pub fn scale(buf: &mut [u8], coeff: u8) {
    for b in buf {
        *b = mul(coeff, *b);
    }
}

/// Runs [`mul_acc`] through one specific kernel, bypassing dispatch — the
/// hook the differential tests and kernel benchmarks use.
///
/// # Panics
///
/// Panics if the slices have different lengths or the kernel is unavailable
/// on this machine (see [`kernel_available`]).
pub fn mul_acc_with(kernel: Kernel, dst: &mut [u8], src: &[u8], coeff: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc on unequal lengths");
    assert!(
        kernel_available(kernel),
        "kernel {kernel} unavailable on this machine"
    );
    dispatch_mul_acc(kernel, dst, src, coeff);
}

/// One row: the block kernel's one-row, one-source pass — the scalar
/// kernel's byte loop, and any other kernel's straight to its byte loop
/// for a row under 32 bytes, such as a matrix row, which no vector step
/// would cover anyway.
fn dispatch_mul_acc(kernel: Kernel, dst: &mut [u8], src: &[u8], coeff: u8) {
    match kernel {
        Kernel::Scalar => block_bytes(&mut [dst], &[src], &[coeff], 0, mul),
        _ if dst.len() < 32 => block_tail(&mut [dst], &[src], &[coeff], 0),
        _ => dispatch_block(kernel, &mut [dst], &[src], &[coeff]),
    }
}

/// The most output rows one pass of any block kernel takes.
const MAX_PASS_ROWS: usize = 4;

/// The most sources one pass of any block kernel takes.
const MAX_PASS_SOURCES: usize = 8;

/// A byte of a block-kernel output row. A pass adds its sum to a `u8`, and
/// is the first writer of a `MaybeUninit<u8>`, which it never reads.
trait OutByte {
    /// Whether a pass adds its sum to the byte, rather than writing it
    /// first.
    const ACCUMULATE: bool;

    /// What a pass adds its sum to: the byte, or 0 for one it writes first.
    fn base(&self) -> u8;

    /// Stores a pass's result.
    fn set(&mut self, value: u8);
}

impl OutByte for u8 {
    const ACCUMULATE: bool = true;

    fn base(&self) -> u8 {
        *self
    }

    fn set(&mut self, value: u8) {
        *self = value;
    }
}

impl OutByte for MaybeUninit<u8> {
    const ACCUMULATE: bool = false;

    fn base(&self) -> u8 {
        0
    }

    fn set(&mut self, value: u8) {
        self.write(value);
    }
}

/// The block kernel: `outs[r] = Σ_j coeff(r, j) · src(j)` over the
/// sources `j < sources`, for every output row `r` — the matrix–buffer
/// product every Reed–Solomon encode and decode is — or
/// `outs[r] ^= Σ_j coeff(r, j) · src(j)` when `accumulate` is set.
///
/// Every output has one length; a source may be shorter, and reads as if
/// zero-padded to it (the tail shard of a value `k` does not divide).
/// Rows and sources go through the active [`Kernel`] in passes of its
/// shape: a pass loads each source chunk once and sums each output chunk
/// in registers before storing it once. Rows, sources and coefficients
/// are asked for as the passes need them, so nothing is allocated.
///
/// Results are byte-for-byte identical to the scalar kernel's row at a
/// time (proven by the differential tests).
///
/// # Panics
///
/// Panics if the outputs differ in length or a source is longer than
/// they are.
pub fn mul_block<'o, 's>(
    outs: impl IntoIterator<Item = &'o mut [u8]>,
    sources: usize,
    src: impl Fn(usize) -> &'s [u8],
    coeff: impl Fn(usize, usize) -> u8,
    accumulate: bool,
) {
    block(active_kernel(), outs, sources, &src, &coeff, accumulate);
}

/// Runs [`mul_block`] through one specific kernel, bypassing dispatch —
/// the hook the differential tests use.
///
/// # Panics
///
/// Panics as [`mul_block`] does, or if the kernel is unavailable on this
/// machine (see [`kernel_available`]).
pub fn mul_block_with<'o, 's>(
    kernel: Kernel,
    outs: impl IntoIterator<Item = &'o mut [u8]>,
    sources: usize,
    src: impl Fn(usize) -> &'s [u8],
    coeff: impl Fn(usize, usize) -> u8,
    accumulate: bool,
) {
    assert!(
        kernel_available(kernel),
        "kernel {kernel} unavailable on this machine"
    );
    block(kernel, outs, sources, &src, &coeff, accumulate);
}

/// [`mul_block`] into one new buffer: `rows` output rows of `len` bytes,
/// row `r` at `r·len`. The block kernel is the buffer's first and only
/// writer, so its bytes are written once and never zero-filled.
///
/// # Panics
///
/// Panics if a source is longer than `len`.
pub fn mul_block_new<'s>(
    rows: usize,
    len: usize,
    sources: usize,
    src: impl Fn(usize) -> &'s [u8],
    coeff: impl Fn(usize, usize) -> u8,
) -> Arc<[u8]> {
    uninit::new_rows(active_kernel(), rows, len, sources, &src, &coeff)
}

/// Runs [`mul_block_new`] through one specific kernel, bypassing
/// dispatch — the hook the differential tests use.
///
/// # Panics
///
/// Panics as [`mul_block_new`] does, or if the kernel is unavailable on
/// this machine (see [`kernel_available`]).
pub fn mul_block_new_with<'s>(
    kernel: Kernel,
    rows: usize,
    len: usize,
    sources: usize,
    src: impl Fn(usize) -> &'s [u8],
    coeff: impl Fn(usize, usize) -> u8,
) -> Arc<[u8]> {
    assert!(
        kernel_available(kernel),
        "kernel {kernel} unavailable on this machine"
    );
    uninit::new_rows(kernel, rows, len, sources, &src, &coeff)
}

/// Computes `dsts[r][i] ^= coeffs[r] · src[i]` for every destination row:
/// [`mul_block`]'s one-source, accumulating case, so the source is read
/// once per pass of rows instead of once per row.
///
/// # Panics
///
/// Panics if `dsts` and `coeffs` have different lengths, or any destination
/// row's length differs from `src`'s — a shorter source too, which
/// [`mul_block`] alone would read as zero-padded.
pub fn mul_acc_multi(dsts: &mut [&mut [u8]], src: &[u8], coeffs: &[u8]) {
    assert_eq!(
        dsts.len(),
        coeffs.len(),
        "mul_acc_multi row/coefficient count mismatch"
    );
    for d in dsts.iter() {
        assert_eq!(d.len(), src.len(), "mul_acc_multi on unequal lengths");
    }
    let outs = dsts.iter_mut().map(|d| &mut **d);
    mul_block(outs, 1, |_| src, |r, _| coeffs[r], true);
}

/// [`mul_block`] on `kernel`. Overwriting rows is the initialising form's
/// work ([`uninit::overwrite`]); accumulating, every pass adds.
fn block<'o, 's>(
    kernel: Kernel,
    outs: impl IntoIterator<Item = &'o mut [u8]>,
    sources: usize,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
    accumulate: bool,
) {
    if !accumulate {
        return uninit::overwrite(kernel, outs, sources, src, coeff);
    }
    for_each_group(kernel, outs, |group, row| {
        add_passes(kernel, group, row, 0..sources, src, coeff);
    });
}

/// Hands `outs` to `each` in groups of the kernel's pass rows, each with
/// the index of its first row.
fn for_each_group<'o, B: 'o>(
    kernel: Kernel,
    outs: impl IntoIterator<Item = &'o mut [B]>,
    mut each: impl FnMut(&mut [&'o mut [B]], usize),
) {
    let pass_rows = kernel.pass_shape().0;
    let mut outs = outs.into_iter();
    let mut out_len = None;
    let mut row = 0;
    loop {
        let mut group: [&mut [B]; MAX_PASS_ROWS] = Default::default();
        let mut rows = 0;
        for (slot, out) in group[..pass_rows].iter_mut().zip(&mut outs) {
            *slot = out;
            rows += 1;
        }
        if rows == 0 {
            return;
        }
        let group = &mut group[..rows];
        let len = *out_len.get_or_insert(group[0].len());
        assert!(
            group.iter().all(|out| out.len() == len),
            "mul_block outputs of unequal lengths"
        );
        each(group, row);
        row += rows;
    }
}

/// Adds the sources `sources` to one group of rows, in passes of the
/// kernel's shape.
fn add_passes<'s>(
    kernel: Kernel,
    group: &mut [&mut [u8]],
    row: usize,
    sources: Range<usize>,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
) {
    let pass_sources = kernel.pass_shape().1;
    let mut first = sources.start;
    while first < sources.end {
        let end = (first + pass_sources).min(sources.end);
        block_group(kernel, group, row, first..end, src, coeff);
        first = end;
    }
}

/// The output rows `row..row + outs.len()` against the sources `sources`,
/// at most one pass's worth: over uninitialised rows it writes every byte,
/// the sum over no source being 0.
fn block_group<'s, B: OutByte>(
    kernel: Kernel,
    outs: &mut [&mut [B]],
    row: usize,
    sources: Range<usize>,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
) {
    let (rows, len) = (outs.len(), outs[0].len());
    let mut views: [&[u8]; MAX_PASS_SOURCES] = [&[]; MAX_PASS_SOURCES];
    for (view, j) in views.iter_mut().zip(sources.clone()) {
        *view = src(j);
        assert!(
            view.len() <= len,
            "mul_block source longer than its outputs"
        );
    }
    let views = &views[..sources.len()];
    if !views.is_empty() && views.iter().all(|v| v.len() == len) {
        // The usual case, and the only one when `k` divides the value.
        let coeff = |r, s| coeff(row + r, sources.start + s);
        return block_pass(kernel, outs, views, &coeff);
    }
    // A short source: the columns in stretches over which the same
    // sources have bytes, each stretch one pass.
    let mut start = 0;
    while start < len {
        let end = views
            .iter()
            .map(|v| v.len())
            .filter(|&l| l > start)
            .min()
            .unwrap_or(len);
        let mut srcs: [&[u8]; MAX_PASS_SOURCES] = [&[]; MAX_PASS_SOURCES];
        let mut cols = [0; MAX_PASS_SOURCES];
        let mut width = 0;
        for (view, j) in views.iter().zip(sources.clone()) {
            if view.len() > start {
                srcs[width] = &view[start..end];
                cols[width] = j;
                width += 1;
            }
        }
        let mut segment: [&mut [B]; MAX_PASS_ROWS] = Default::default();
        for (seg, out) in segment.iter_mut().zip(outs.iter_mut()) {
            *seg = &mut out[start..end];
        }
        let segment = &mut segment[..rows];
        if width > 0 {
            let coeff = |r, s: usize| coeff(row + r, cols[s]);
            block_pass(kernel, segment, &srcs[..width], &coeff);
        } else if !B::ACCUMULATE {
            for byte in segment.iter_mut().flat_map(|seg| seg.iter_mut()) {
                byte.set(0);
            }
        }
        start = end;
    }
}

/// One pass: its coefficients — `coeff(r, s)` for its own rows and
/// sources — gathered on the stack, then `kernel` run.
fn block_pass<B: OutByte>(
    kernel: Kernel,
    outs: &mut [&mut [B]],
    srcs: &[&[u8]],
    coeff: &impl Fn(usize, usize) -> u8,
) {
    let width = srcs.len();
    let mut coeffs = [0u8; MAX_PASS_ROWS * MAX_PASS_SOURCES];
    let coeffs = &mut coeffs[..outs.len() * width];
    for (r, row) in coeffs.chunks_exact_mut(width).enumerate() {
        for (s, c) in row.iter_mut().enumerate() {
            *c = coeff(r, s);
        }
    }
    dispatch_block(kernel, outs, srcs, coeffs);
}

/// One pass on `kernel`: `outs[r] = base + Σ_s coeffs[r·S + s] · srcs[s]`
/// for `S = srcs.len()` and each byte's [`OutByte::base`]; every slice
/// has one length, and the shape is at most the kernel's.
fn dispatch_block<B: OutByte>(
    kernel: Kernel,
    outs: &mut [&mut [B]],
    srcs: &[&[u8]],
    coeffs: &[u8],
) {
    match kernel {
        Kernel::Scalar => block_bytes(outs, srcs, coeffs, 0, mul),
        Kernel::Swar => block_swar(outs, srcs, coeffs),
        #[cfg(target_arch = "x86_64")]
        Kernel::Ssse3 => simd::block_ssse3(outs, srcs, coeffs),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => simd::block_avx2(outs, srcs, coeffs),
        #[cfg(target_arch = "x86_64")]
        Kernel::Gfni => simd::block_gfni(outs, srcs, coeffs),
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Ssse3 | Kernel::Avx2 | Kernel::Gfni => {
            unreachable!("vector kernels are x86-64 only")
        }
    }
}

/// The columns `from..` of a pass, one byte at a time, each byte's full
/// sum written once: the scalar kernel's whole pass with the `EXP`/`LOG`
/// [`mul`] — the reference every other kernel is tested against — and the
/// ragged end of every other kernel's with [`mul_nibbles`].
fn block_bytes<B: OutByte>(
    outs: &mut [&mut [B]],
    srcs: &[&[u8]],
    coeffs: &[u8],
    from: usize,
    mul: impl Fn(u8, u8) -> u8,
) {
    for (out, row) in outs.iter_mut().zip(coeffs.chunks_exact(srcs.len())) {
        for (i, o) in out.iter_mut().enumerate().skip(from) {
            let mut sum = o.base();
            for (src, &c) in srcs.iter().zip(row) {
                sum ^= mul(c, src[i]);
            }
            o.set(sum);
        }
    }
}

/// [`block_bytes`] through the nibble tables: the tail of a vector or
/// SWAR pass.
fn block_tail<B: OutByte>(outs: &mut [&mut [B]], srcs: &[&[u8]], coeffs: &[u8], from: usize) {
    block_bytes(outs, srcs, coeffs, from, mul_nibbles);
}

/// `c · s` as two nibble-table lookups.
fn mul_nibbles(c: u8, s: u8) -> u8 {
    MUL_LO[c as usize][(s & 0x0f) as usize] ^ MUL_HI[c as usize][(s >> 4) as usize]
}

/// `dst ^= src`, 8 bytes at a time.
fn xor_slices(dst: &mut [u8], src: &[u8]) {
    let (dw, d_tail) = dst.as_chunks_mut::<8>();
    let (sw, s_tail) = src.as_chunks::<8>();
    for (d, s) in dw.iter_mut().zip(sw) {
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(*s)).to_le_bytes();
    }
    for (d, &s) in d_tail.iter_mut().zip(s_tail) {
        *d ^= s;
    }
}

/// 32 bytes' [`OutByte::base`]s as four little-endian words.
fn load4<B: OutByte>(bytes: &[B]) -> [u64; 4] {
    let mut w = [0u64; 4];
    for (lane, chunk) in w.iter_mut().zip(bytes.as_chunks::<8>().0) {
        *lane = u64::from_le_bytes(chunk.each_ref().map(OutByte::base));
    }
    w
}

fn store4<B: OutByte>(bytes: &mut [B], w: [u64; 4]) {
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(w) {
        for (byte, value) in chunk.iter_mut().zip(word.to_le_bytes()) {
            byte.set(value);
        }
    }
}

/// A pass through the portable SWAR kernel, 32 bytes per step: each
/// source chunk is loaded and doubled once, every output row adding the
/// doublings its coefficient's bits select to a sum it keeps in registers
/// until its one store.
fn block_swar<B: OutByte>(outs: &mut [&mut [B]], srcs: &[&[u8]], coeffs: &[u8]) {
    match outs.len() {
        1 => block_swar_rows::<1, B>(outs, srcs, coeffs),
        2 => block_swar_rows::<2, B>(outs, srcs, coeffs),
        3 => block_swar_rows::<3, B>(outs, srcs, coeffs),
        4 => block_swar_rows::<4, B>(outs, srcs, coeffs),
        // Not a shape `block` makes: the byte loop is right for any.
        _ => block_tail(outs, srcs, coeffs, 0),
    }
}

/// [`block_swar`] for exactly `R` output rows, so that the sums are
/// registers rather than memory.
fn block_swar_rows<const R: usize, B: OutByte>(
    outs: &mut [&mut [B]],
    srcs: &[&[u8]],
    coeffs: &[u8],
) {
    const MSB: u64 = 0x8080_8080_8080_8080;
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Each coefficient as one all-ones-or-zero mask per bit, and per
    // source the doublings its coefficients' top bits need — past those,
    // doubling adds nothing.
    let mut masks = [[[0u64; 8]; R]; MAX_PASS_SOURCES];
    let mut bits = [0usize; MAX_PASS_SOURCES];
    for (r, row) in coeffs.chunks_exact(srcs.len()).enumerate() {
        for ((s, &c), bits) in row.iter().enumerate().zip(&mut bits) {
            for (b, mask) in masks[s][r].iter_mut().enumerate() {
                *mask = 0u64.wrapping_sub(u64::from((c >> b) & 1));
            }
            *bits = (*bits).max(8 - c.leading_zeros() as usize);
        }
    }
    let len = outs.first().map_or(0, |out| out.len());
    let end = len - len % 32;
    let mut i = 0;
    while i < end {
        let mut sums = [[0u64; 4]; R];
        for ((src, masks), &bits) in srcs.iter().zip(&masks).zip(&bits) {
            let mut p = load4(&src[i..i + 32]);
            for b in 0..bits {
                for (sum, mask) in sums.iter_mut().zip(masks) {
                    for (acc, lane) in sum.iter_mut().zip(p) {
                        *acc ^= lane & mask[b];
                    }
                }
                p = p.map(|lane| ((lane & LOW7) << 1) ^ ((lane & MSB) >> 7).wrapping_mul(0x1d));
            }
        }
        for (out, sum) in outs.iter_mut().zip(&sums) {
            let chunk = &mut out[i..i + 32];
            let mut words = *sum;
            for (w, base) in words.iter_mut().zip(load4(chunk)) {
                *w ^= base;
            }
            store4(chunk, words);
        }
        i += 32;
    }
    if end < len {
        block_tail(outs, srcs, coeffs, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_roundtrip() {
        for x in 1..=255u8 {
            assert_eq!(EXP[LOG[x as usize] as usize], x);
        }
    }

    #[test]
    fn generator_has_full_order() {
        // 2 generates the multiplicative group: all 255 powers distinct.
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert!(!seen[v], "generator order < 255 at {i}");
            seen[v] = true;
        }
        assert!(!seen[0], "zero must never appear as a power");
    }

    #[test]
    fn add_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(add(a, a), 0);
            assert_eq!(add(a, 0), a);
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn mul_commutative_exhaustive() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul(b, a));
            }
        }
    }

    #[test]
    fn mul_associative_sampled() {
        for a in (0..=255u8).step_by(7) {
            for b in (0..=255u8).step_by(11) {
                for c in (0..=255u8).step_by(13) {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_sampled() {
        for a in (0..=255u8).step_by(5) {
            for b in (0..=255u8).step_by(9) {
                for c in (0..=255u8).step_by(17) {
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_exhaustive() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1);
            assert_eq!(div(a, a), 1);
        }
    }

    #[test]
    fn div_is_mul_by_inverse() {
        for a in (0..=255u8).step_by(3) {
            for b in 1..=255u8 {
                assert_eq!(div(a, b), mul(a, inv(b)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        div(5, 0);
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inv_of_zero_panics() {
        inv(0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for a in [0u8, 1, 2, 3, 5, 87, 255] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(pow(a, e), acc, "a={a} e={e}");
                acc = mul(acc, a);
            }
        }
    }

    #[test]
    fn pow_large_exponent_wraps() {
        // a^255 = 1 for a != 0 (Fermat in GF(256)).
        for a in 1..=255u8 {
            assert_eq!(pow(a, 255), 1);
            assert_eq!(pow(a, 256), a);
        }
    }

    #[test]
    fn dot_product_basics() {
        assert_eq!(dot(&[1, 2, 3], &[1, 1, 1]), 1 ^ 2 ^ 3);
        assert_eq!(dot(&[], &[]), 0);
    }

    #[test]
    fn nibble_tables_cover_all_products() {
        for c in 0..=255u8 {
            for s in 0..=255u8 {
                let via_tables =
                    MUL_LO[c as usize][(s & 0x0f) as usize] ^ MUL_HI[c as usize][(s >> 4) as usize];
                assert_eq!(via_tables, mul(c, s), "c={c} s={s}");
            }
        }
    }

    #[test]
    fn mul_acc_matches_scalar_path() {
        let src = [1u8, 0, 255, 87, 13];
        for coeff in [0u8, 1, 2, 200] {
            let mut dst = [9u8, 9, 9, 9, 9];
            mul_acc(&mut dst, &src, coeff);
            for i in 0..src.len() {
                assert_eq!(dst[i], 9 ^ mul(coeff, src[i]));
            }
        }
    }

    #[test]
    fn scale_matches_mul() {
        // Every coefficient over every length 0..=64, against `mul` byte by
        // byte; the data starts with a 0.
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(0x4f)).collect();
        for coeff in 0..=255u8 {
            for len in 0..=64 {
                let mut buf = data[..len].to_vec();
                scale(&mut buf, coeff);
                let want: Vec<u8> = data[..len].iter().map(|&b| mul(coeff, b)).collect();
                assert_eq!(buf, want, "coeff={coeff} len={len}");
            }
        }
    }

    #[test]
    fn kernel_names_roundtrip() {
        for k in Kernel::ALL {
            assert_eq!(Kernel::by_name(k.name()), Some(k));
            assert_eq!(Kernel::from_u8(k.as_u8()), k);
        }
        assert_eq!(Kernel::by_name("avx512"), None);
    }

    // Pure-bit check of the GFNI matrices — runs on machines *without*
    // GFNI too, so the table itself is verified everywhere even when the
    // hardware kernel never executes.
    #[test]
    fn mul_matrices_encode_multiplication_exhaustively() {
        for c in 0..=255u8 {
            let m = MUL_MATRIX[c as usize];
            for x in 0..=255u8 {
                let mut out = 0u8;
                for i in 0..8u32 {
                    let row = (m >> ((7 - i) * 8)) as u8;
                    out |= ((((row & x).count_ones()) as u8) & 1) << i;
                }
                assert_eq!(out, mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn mul_acc_multi_matches_sequential_rows() {
        let src: Vec<u8> = (0..77u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let coeffs = [0u8, 1, 2, 0x1d, 87, 200, 255];
        let mut expected: Vec<Vec<u8>> = coeffs.iter().map(|_| vec![0x33; src.len()]).collect();
        for (row, &c) in expected.iter_mut().zip(&coeffs) {
            mul_acc(row, &src, c);
        }
        let mut actual: Vec<Vec<u8>> = coeffs.iter().map(|_| vec![0x33; src.len()]).collect();
        let mut rows: Vec<&mut [u8]> = actual.iter_mut().map(Vec::as_mut_slice).collect();
        mul_acc_multi(&mut rows, &src, &coeffs);
        assert_eq!(actual, expected);
    }

    #[test]
    #[should_panic(expected = "mul_acc_multi on unequal lengths")]
    fn mul_acc_multi_rejects_a_short_source() {
        let (mut a, mut b) = ([0u8; 8], [0u8; 8]);
        mul_acc_multi(&mut [&mut a, &mut b], &[1u8; 7], &[2, 3]);
    }

    #[test]
    fn portable_kernels_always_available() {
        let avail = available_kernels();
        assert!(avail.contains(&Kernel::Scalar));
        assert!(avail.contains(&Kernel::Swar));
    }

    // All force/reset interactions live in ONE test: dispatch state is
    // process-global, and concurrent force calls from parallel tests could
    // otherwise observe each other. (Results are unaffected either way —
    // every kernel computes identical bytes.)
    #[test]
    fn force_and_reset_kernel() {
        assert!(force_kernel(Kernel::Swar));
        assert_eq!(active_kernel(), Kernel::Swar);
        assert!(force_kernel(Kernel::Scalar));
        assert_eq!(active_kernel(), Kernel::Scalar);
        reset_kernel();
        let redetected = active_kernel();
        assert!(available_kernels().contains(&redetected));
        // Auto-detection never picks Scalar — unless the environment
        // explicitly pins it (a documented RSB_GF256_KERNEL value).
        if std::env::var("RSB_GF256_KERNEL").as_deref() != Ok("scalar") {
            assert_ne!(redetected, Kernel::Scalar);
        }
    }
}
