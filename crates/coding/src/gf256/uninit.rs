//! The block kernel's initialising form: output rows it is the first
//! writer of.
//!
//! A group's first pass over `[MaybeUninit<u8>]` rows writes every byte of
//! them and reads none ([`OutByte`](super::OutByte)); the passes after it
//! add to what it wrote. That postcondition — *the initialising pass writes
//! every output byte* — is what each `unsafe` block below rests on. No
//! `&mut [u8]` is ever formed over a byte before its first write.
#![allow(unsafe_code)]

use super::{add_passes, block_group, for_each_group, Kernel, MAX_PASS_ROWS};
use std::mem::MaybeUninit;
use std::sync::Arc;

/// `rows` rows of `len` bytes in one new buffer, row `r` at `r·len`,
/// written by [`block_init`] as their first and only writer.
pub(super) fn new_rows<'s>(
    kernel: Kernel,
    rows: usize,
    len: usize,
    sources: usize,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
) -> Arc<[u8]> {
    let mut buf = Arc::<[u8]>::new_uninit_slice(rows * len);
    #[expect(clippy::expect_used, reason = "a new `Arc` has no other owner")]
    let bytes = Arc::get_mut(&mut buf).expect("a new `Arc` is unique");
    // Zero-length rows tile an empty buffer: no chunk, nothing to write.
    block_init(
        kernel,
        bytes.chunks_exact_mut(len.max(1)),
        sources,
        src,
        coeff,
    );
    // SAFETY: the initialising pass writes every output byte, and the
    // rows are `rows` chunks of `len` that tile the buffer end to end.
    unsafe { buf.assume_init() }
}

/// [`mul_block`](super::mul_block) overwriting `outs`: initialised bytes
/// handed to [`block_init`] as if they were not.
pub(super) fn overwrite<'o, 's>(
    kernel: Kernel,
    outs: impl IntoIterator<Item = &'o mut [u8]>,
    sources: usize,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
) {
    let outs = outs.into_iter().map(|out| {
        // SAFETY: `MaybeUninit<u8>` has `u8`'s layout, and the view never
        // gets an uninitialised byte: the initialising pass writes every
        // output byte, each with a value, so `out` holds bytes again when
        // the borrow ends.
        unsafe { &mut *(std::ptr::from_mut(out) as *mut [MaybeUninit<u8>]) }
    });
    block_init(kernel, outs, sources, src, coeff);
}

/// The block kernel over uninitialised rows: each group's first pass
/// writes them, and the rest of the sources are added to what it wrote.
fn block_init<'o, 's>(
    kernel: Kernel,
    outs: impl IntoIterator<Item = &'o mut [MaybeUninit<u8>]>,
    sources: usize,
    src: &impl Fn(usize) -> &'s [u8],
    coeff: &impl Fn(usize, usize) -> u8,
) {
    let first = kernel.pass_shape().1.min(sources);
    for_each_group(kernel, outs, |group, row| {
        let rows = group.len();
        block_group(kernel, group, row, 0..first, src, coeff);
        let mut written: [&mut [u8]; MAX_PASS_ROWS] = Default::default();
        for (slot, out) in written.iter_mut().zip(group.iter_mut()) {
            // SAFETY: the initialising pass writes every output byte, and
            // `block_group` over `0..first` was it.
            *slot = unsafe { out.assume_init_mut() };
        }
        add_passes(
            kernel,
            &mut written[..rows],
            row,
            first..sources,
            src,
            coeff,
        );
    });
}
