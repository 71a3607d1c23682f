//! A small x86-flavoured ISA simulator — the SoftSDV substitute.
//!
//! The paper collected dynamic instruction traces of the crypto kernels
//! with SoftSDV, a full-system simulator, to report the top-ten instruction
//! mixes (Table 12), the instruction body of `bn_mul_add_words` (Table 9),
//! and path length / CPI (Table 11). Those are properties of the
//! *instruction stream*, not of a particular machine, so this crate
//! reproduces them by executing the same kernels on a deterministic
//! register machine with x86 semantics:
//!
//! * [`ir`] — eight 32-bit registers, flat little-endian memory,
//!   base+index×scale addressing, and the instruction repertoire that
//!   appears in the paper's tables (`movl`, `movb`, `xorl`, `andl`,
//!   `addl`, `adcl`, `mull`, `shrl`, `rorl`, `roll`, `leal`, `incl`,
//!   `decl`, `pushl`, `popl`, `bswap`, `jnz`, …).
//! * [`Machine`] — the interpreter; every executed instruction lands in an
//!   [`InstrMix`] histogram.
//! * [`cost`] — a two-wide in-order issue model assigning each instruction
//!   class a cycle cost; CPI = cycles / instructions.
//! * [`kernels`] — the crypto kernels as IR programs (AES round loop, DES
//!   rounds, RC4 byte loop, MD5/SHA-1 block operations, and the bignum word
//!   kernels), each **validated against the native Rust implementation** on
//!   random inputs.
//!
//! # Examples
//!
//! ```
//! use sslperf_isasim::{kernels, Machine};
//!
//! // Instruction mix of 64 RC4 keystream bytes.
//! let stats = kernels::rc4::simulate(b"Key", 64);
//! let top = stats.mix.top(3);
//! assert_eq!(top[0].0, "movl"); // loads/stores dominate, as in Table 12
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod ir;
pub mod kernels;
mod machine;
mod mix;

pub use machine::{Machine, RunStats, SimError};
pub use mix::InstrMix;
