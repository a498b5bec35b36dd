//! # cq-quant
//!
//! Quantization primitives for the ColumnQuant workspace:
//!
//! * [`QuantFormat`] — integer formats (signed/unsigned/binary) with their
//!   LSQ clamping ranges.
//! * [`Granularity`] / [`GroupLayout`] — layer-, array-, and column-wise
//!   scale-factor grouping (paper Fig. 1).
//! * [`LsqQuantizer`] — Learned Step Size Quantization with per-group
//!   learnable scales and straight-through-estimator gradients (paper
//!   Sec. III-A, reference \[10\]).
//! * [`BitSplit`] — two's-complement slicing of integer weights into
//!   per-cell values with a signed top slice (paper Sec. III-C), exact
//!   under shift-and-add reassembly.
//! * [`round_clamped`] — branch-free `f32::round` for values already
//!   clamped onto a quantization grid, so per-value loops vectorize.
//!
//! ## Example
//!
//! ```
//! use cq_quant::{GroupLayout, LsqQuantizer, QuantFormat};
//! use cq_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![0.4, -0.9, 1.3, -0.1], &[4]);
//! let q = LsqQuantizer::with_init_from(QuantFormat::signed(3), &w, &GroupLayout::single());
//! let w_int = q.forward_int(&w, &GroupLayout::single());
//! assert!(w_int.data().iter().all(|v| (-4.0..=3.0).contains(v)));
//! ```

#![warn(missing_docs)]

mod bitsplit;
mod granularity;
mod lsq;
mod qformat;
mod round;

pub use bitsplit::BitSplit;
pub use granularity::{Granularity, GroupLayout};
pub use lsq::{LsqQuantizer, SCALE_EPS};
pub use qformat::QuantFormat;
pub use round::round_clamped;
