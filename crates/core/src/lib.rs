//! # cq-core
//!
//! The ColumnQuant framework itself — a Rust implementation of
//! *"Column-wise Quantization of Weights and Partial Sums for Accurate and
//! Efficient Compute-In-Memory Accelerators"* (DATE 2025):
//!
//! * [`CimConv2d`] — the CIM-oriented convolution layer: LSQ quantization
//!   of weights and partial sums at layer/array/**column** granularity,
//!   bit-split duplication, kernel-intact tiling realized as group
//!   convolution, shift-and-add, and merged `s_w · s_p` dequantization,
//!   with full straight-through-estimator gradients for one-stage QAT.
//! * [`QuantScheme`] (re-exported from `cq-scheme`) — the scheme zoo:
//!   the paper's method, the five compared related works (Table I), and
//!   the BWMA / hybrid-ADC extensions.
//! * [`CimConvFactory`] / [`build_cim_resnet`] — model construction.
//! * [`PreparedCimModel`] — the frozen, batched serving engine: weights
//!   quantized/bit-split/grouped once at load, micro-batch coalescing,
//!   bit-identical to the per-call path.
//! * Whole-model surgery: stage toggles for two-stage QAT, PTQ
//!   calibration, device-variation injection, dequantization-overhead
//!   accounting.
//!
//! ## Example
//!
//! ```
//! use cq_cim::CimConfig;
//! use cq_core::{build_cim_resnet, QuantScheme};
//! use cq_nn::{Layer, Mode, ResNetSpec};
//! use cq_tensor::CqRng;
//!
//! let mut net = build_cim_resnet(
//!     ResNetSpec::resnet8(10, 4),
//!     &CimConfig::tiny(),
//!     &QuantScheme::ours(),
//!     0,
//! );
//! let x = CqRng::new(1).normal_tensor(&[1, 3, 16, 16], 1.0);
//! let logits = net.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[1, 10]);
//! ```

#![warn(missing_docs)]

mod cim_conv;
mod cim_linear;
mod model;
mod prepared;

pub use cim_conv::{CimConv2d, VariationCfg, VariationMode};
pub use cim_linear::CimLinear;
// The shared execution layer both conv paths drive (lives in `cq-cim`;
// re-exported here because it is the framework's central abstraction).
pub use cq_cim::{
    backend_instance, AdcDigitizer, BackendError, BackendKind, BackendSet, ColumnDigitizer,
    ConvProfile, ExecBackend, IdealDigitizer, PerturbedDigitizer, PsumPipeline,
};
pub use model::{
    accelerator_report, build_cim_resnet, count_cim_convs, for_each_cim_conv, load_cim_checkpoint,
    model_dequant_mults, ptq_calibrate, save_cim_checkpoint, set_psum_quant_enabled,
    set_quant_enabled, set_variation, CimConvFactory,
};
pub use prepared::{freeze_model, unfreeze_model, PreparedCimModel};
// The scheme zoo lives in `cq-scheme`; re-exported here because model
// construction and training consume it everywhere.
pub use cq_scheme::{Digitization, QuantScheme, TrainMethod, WeightQuant};
