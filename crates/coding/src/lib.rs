//! Erasure-coding substrate for the PODC 2016 paper *"Space Bounds for
//! Reliable Storage: Fundamental Limits of Coding"* (Spiegelman, Cassuto,
//! Chockler, Keidar).
//!
//! The paper models storage algorithms that manipulate *code blocks* of a
//! written value through two oracles (its Definition 1): an encoder oracle
//! `oracleE` exposing `get(i) = E(v, i)` and a decoder oracle `oracleD`
//! exposing `push(e, i)` / `done(i)`. This crate provides:
//!
//! * [`gf256`] — arithmetic in GF(2⁸), the field under every code here;
//! * [`matrix`] — matrices over GF(2⁸) with Gauss–Jordan inversion;
//! * [`Value`] / [`Block`] — the paper's `V` (with `D = log₂|V|` bits) and
//!   `E` domains, with per-block bit accounting (`|e|`);
//! * [`ReedSolomon`] — systematic MDS `k`-of-`n` codes (any `k` blocks
//!   reconstruct the value, each block `D/k` bits);
//! * [`Replication`] — the degenerate `k = 1` code (full replicas);
//! * [`Rateless`] — a random-linear fountain code over the unbounded block
//!   index domain `N`, capturing the paper's rateless-code remark;
//! * [`EncoderOracle`] / [`DecoderOracle`] — Definition 1 made executable,
//!   including the bookkeeping needed by the lower-bound *source function*
//!   (Definition 4);
//! * the [`Code`] trait, whose contract includes the paper's *symmetric
//!   encoding* assumption (Definition 3): block sizes depend only on the
//!   block index, never on the value.
//!
//! # Example
//!
//! ```
//! use rsb_coding::{Code, ReedSolomon, Value};
//!
//! # fn main() -> Result<(), rsb_coding::CodingError> {
//! // A 2-of-5 code over 1 KiB values: each block is D/2 bits.
//! let code = ReedSolomon::new(2, 5, 1024)?;
//! let value = Value::from_bytes(vec![7u8; 1024]);
//! let blocks = code.encode(&value);
//! // Any k = 2 blocks decode back to the value.
//! let decoded = code.decode(&[blocks[4].clone(), blocks[1].clone()])?;
//! assert_eq!(decoded, value);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the block kernel's x86-64 passes
// (`gf256/simd.rs`) and its uninitialised-output form (`gf256/uninit.rs`)
// opt in locally with a documented safety contract; everything else in the
// crate, `gf256::scale` included, remains unsafe-free.
#![deny(unsafe_code)]

// The field kernels never panic outside their tests.
#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
pub mod gf256;
pub mod matrix;

mod block;
mod oracle;
mod rateless;
mod reed_solomon;
mod replication;
mod scheme;
mod value;

pub use block::{Block, BlockIndex};
pub use oracle::{DecoderOracle, EncoderOracle, OracleEvent};
pub use rateless::Rateless;
pub use reed_solomon::ReedSolomon;
pub use replication::Replication;
pub use scheme::{Code, CodeKind, CodingError};
pub use value::Value;
