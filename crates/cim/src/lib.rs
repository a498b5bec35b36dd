//! # cq-cim
//!
//! The compute-in-memory hardware model underneath the ColumnQuant
//! framework:
//!
//! * [`CimConfig`] — macro geometry and precisions (Table II presets).
//! * [`TilingPlan`] — the paper's kernel-intact array tiling (Sec. III-C)
//!   plus the weight/partial-sum scale-group layouts it induces.
//! * [`Crossbar`] / [`Adc`] — behavioural array and converter models.
//! * [`PsumPipeline`] / [`ColumnDigitizer`] — the **shared execution
//!   layer**: the single implementation of the tile → bit-split →
//!   psum-quantize → shift-add → merged-dequant loop driven by both the
//!   fast emulation (`cq-core`) and the crossbar engine.
//! * [`CrossbarLayer`] — the explicit, column-by-column inference engine,
//!   bit-exact against the fast group-convolution emulation in `cq-core`.
//! * [`PreparedConv`] — the frozen serving executor: weight quantization,
//!   bit-splitting, and grouping done **once** at load, per-call
//!   intermediates checked out of per-worker [`cq_tensor::arena`] pools.
//! * [`BackendSet`] / [`ExecBackend`] (re-exported from `cq_tensor`) —
//!   serving-side backend selection: the psum front-end resolves an
//!   ordered fallback chain of execution backends (scalar reference,
//!   blocked f32, freeze-time repacked `i8×i8→i32` panel kernels over
//!   [`IntGroupedWeights`]) against each layer's capability profile, all
//!   bit-identical where applicable.
//! * [`dequant_mults`] / [`overhead_class`] — the dequantization-overhead
//!   model behind the paper's Fig. 8.
//! * [`Crossbar::apply_variation`] — the Eq. (5) memory-cell variation
//!   model (the fast and frozen paths bake the same model into their
//!   weight slices through `cq_core::VariationCfg`), swept over
//!   [`FIG10_SIGMAS`].
//!
//! ## Example
//!
//! ```
//! use cq_cim::{CimConfig, TilingPlan};
//! use cq_quant::Granularity;
//!
//! let cfg = CimConfig::cifar10();
//! let plan = TilingPlan::new(&cfg, 64, 64, 3, 3);
//! assert_eq!(plan.num_row_tiles, 5); // ceil(64 / floor(128/9))
//! let mults = cq_cim::dequant_mults(&plan, Granularity::Column, Granularity::Column);
//! assert_eq!(mults, 3 * 5 * 64); // n_split · n_array · n_oc
//! ```

#![warn(missing_docs)]

mod adc;
mod config;
mod cost;
mod crossbar;
mod engine;
mod overhead;
mod pipeline;
mod prepared;
mod tiling;
mod variation;

pub use adc::{Adc, AdcCostModel};
pub use config::CimConfig;
pub use cost::{layer_cost, LayerCost};
pub use cq_tensor::{
    backend_instance, BackendError, BackendKind, BackendSet, ConvProfile, ExecBackend, IntPanels,
    ScalarRef, SimdF32,
};
pub use crossbar::Crossbar;
pub use engine::{CrossbarLayer, QuantizedConv};
pub use overhead::{dequant_mults, overhead_class, OverheadClass};
pub use pipeline::{
    AdcDigitizer, ColumnDigitizer, HybridDigitizer, IdealDigitizer, IntGroupedWeights, PsumPipeline,
};
pub use prepared::PreparedConv;
pub use tiling::TilingPlan;
pub use variation::FIG10_SIGMAS;
