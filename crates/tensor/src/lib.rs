//! # cq-tensor
//!
//! Dense `f32` tensor substrate for the ColumnQuant workspace: a simple
//! contiguous row-major [`Tensor`], blocked/threaded GEMM kernels,
//! im2col-based (grouped) 2-D convolution with explicit gradients, pooling
//! operators, deterministic RNG utilities, and descriptive statistics.
//!
//! The design goal is *auditable numerics*: every kernel is plain safe Rust
//! with an obvious reference implementation next to it in the tests, because
//! downstream crates rely on bit-exact integer arithmetic carried in `f32`
//! (CIM partial sums are integers well below the 2²⁴ exactness limit).
//! Parallel kernels run on the persistent [`exec`] executor (the one place
//! in the workspace with an `unsafe` block — the scoped-task lifetime
//! erasure, documented at the site), and per-call scratch comes from
//! per-worker [`arena`] pools.
//!
//! ## Example
//!
//! ```
//! use cq_tensor::{conv2d, CqRng, Tensor};
//!
//! let mut rng = CqRng::new(0);
//! let x = rng.normal_tensor(&[1, 3, 8, 8], 1.0);
//! let w = rng.normal_tensor(&[4, 3, 3, 3], 0.1);
//! let y = conv2d(&x, &w, 1, 1);
//! assert_eq!(y.shape(), &[1, 4, 8, 8]);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod backend;
mod conv;
pub mod exec;
mod igemm;
mod matmul;
mod pool;
mod rng;
pub mod stats;
mod tensor;

pub use backend::{
    backend_instance, BackendError, BackendKind, BackendSet, ConvProfile, ExecBackend, IntPanels,
    ScalarRef, SimdF32,
};
pub use conv::{
    conv2d, conv2d_backward_input, conv2d_backward_weight, conv2d_grouped, conv2d_grouped_into,
    conv2d_naive, conv_out_dim, ConvShape,
};
pub use igemm::{accum_to_f32, igemm_into, im2col_i8, widen_i8_to_i32, PackedPanels};
pub use matmul::{
    gemm_nn_acc, gemm_nt_acc, matmul, matmul_a_bt, matmul_at_b, max_threads, threads_for,
};
pub use pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward,
};
pub use rng::CqRng;
pub use tensor::Tensor;
