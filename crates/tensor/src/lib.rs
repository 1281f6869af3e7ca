#![deny(unsafe_code)]
//! # safex-tensor
//!
//! Deterministic tensor and fixed-point arithmetic substrate for the
//! SAFEXPLAIN reproduction.
//!
//! This crate is the numerical foundation of the FUSA-compliant deep
//! learning library (`safex-nn`). Its design goals mirror pillar 3 of the
//! SAFEXPLAIN paper — *"DL library implementations that adhere to safety
//! requirements"*:
//!
//! * **Determinism.** Every operation uses a fixed, documented evaluation
//!   order. Reductions sum left-to-right; no operation depends on hash
//!   ordering, pointer values, threads, or the OS clock. Running the same
//!   computation twice yields bit-identical results.
//! * **No hidden allocation on hot paths.** Kernels write into caller
//!   provided buffers (`*_into` variants) so a deployed inference engine can
//!   pre-allocate everything at initialisation time.
//! * **Explicit failure.** Shape mismatches return [`TensorError`] instead
//!   of panicking; fixed-point arithmetic saturates instead of wrapping.
//! * **No `unsafe`, no dependencies.** The crate is `deny(unsafe_code)`
//!   and depends only on `std`. The single audited exception is the
//!   one-line dispatch into the feature-gated CRC-32 carry-less-multiply
//!   fold in [`crc`] — no raw pointers or transmutes, only the runtime
//!   CPU-feature obligation, and the result is pinned bit-identical to
//!   the safe table implementation by tests at every level.
//!
//! ## Quick start
//!
//! ```
//! # fn main() -> Result<(), safex_tensor::TensorError> {
//! use safex_tensor::{Shape, Tensor};
//!
//! let a = Tensor::from_vec(Shape::matrix(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::from_vec(Shape::matrix(3, 2), vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape().dims(), &[2, 2]);
//! assert_eq!(c.as_slice(), &[4.0, 5.0, 10.0, 11.0]);
//! # Ok(())
//! # }
//! ```
//!
//! ## Fixed point
//!
//! [`fixed::Q16_16`] and [`fixed::Q8_24`] are saturating binary fixed-point
//! types used for the bit-exact quantised inference path:
//!
//! ```
//! use safex_tensor::fixed::Q16_16;
//!
//! let x = Q16_16::from_f32(1.5);
//! let y = Q16_16::from_f32(2.25);
//! assert_eq!((x * y).to_f32(), 3.375);
//! ```

pub mod crc;
pub mod error;
pub mod fixed;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use crc::CrcAccumulator;
pub use error::TensorError;
pub use fixed::{Q16_16, Q8_24};
pub use rng::DetRng;
pub use shape::Shape;
pub use tensor::Tensor;
