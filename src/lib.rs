//! # column-quant
//!
//! A from-scratch Rust reproduction of **“Column-wise Quantization of
//! Weights and Partial Sums for Accurate and Efficient Compute-In-Memory
//! Accelerators”** (Kim, Jeon, Kim & Ko, DATE 2025).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`tensor`] | `cq-tensor` | dense f32 tensors, GEMM, (grouped) convolution, pooling, RNG |
//! | [`quant`] | `cq-quant` | LSQ quantizers with per-group scales, granularities, bit-splitting |
//! | [`cim`] | `cq-cim` | array tiling, crossbars, ADC, variation, overhead model, crossbar engine |
//! | [`nn`] | `cq-nn` | layers with manual autograd, SGD, ResNet-20/18 |
//! | [`scheme`] | `cq-scheme` | the quantization-scheme zoo: paper LSQ, BWMA binary weights, ADC-less hybrid digitization |
//! | [`data`] | `cq-data` | synthetic CIFAR-10/100/ImageNet stand-ins, loaders |
//! | [`core`] | `cq-core` | **the paper's contribution**: `CimConv2d`, schemes, PTQ, variation |
//! | [`serve`] | `cq-serve` | queued, multi-model serving front-end: bounded queue, batch scheduler, model registry |
//! | [`train`] | `cq-train` | one-stage/two-stage QAT and PTQ training schedules |
//!
//! The most commonly used items are re-exported at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use column_quant::{
//!     build_cim_resnet, CimConfig, Layer, Mode, QuantScheme, ResNetSpec,
//! };
//! use column_quant::tensor::CqRng;
//!
//! // A ResNet whose body convs run through the column-wise CIM pipeline.
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

pub use cq_cim as cim;
pub use cq_core as core;
pub use cq_data as data;
pub use cq_nn as nn;
pub use cq_quant as quant;
pub use cq_scheme as scheme;
pub use cq_serve as serve;
pub use cq_tensor as tensor;
pub use cq_train as train;

pub use cq_cim::{CimConfig, CrossbarLayer, TilingPlan};
pub use cq_core::{
    build_cim_resnet, freeze_model, ptq_calibrate, set_psum_quant_enabled, set_quant_enabled,
    set_variation, unfreeze_model, CimConv2d, PreparedCimModel, QuantScheme, TrainMethod,
    VariationMode,
};
pub use cq_data::SyntheticSpec;
pub use cq_nn::{Layer, Mode, ResNet, ResNetSpec};
pub use cq_quant::Granularity;
pub use cq_serve::{
    Admission, CimServer, CompletionSet, EvictTicket, ModelRegistry, Request, SchedulerPolicy,
    ServeConfig, ServeSession, Slo, TenantId, TenantSpec, Ticket,
};
pub use cq_tensor::Tensor;
pub use cq_train::{train_with_scheme, TrainConfig, TrainResult};
