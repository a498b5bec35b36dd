//! The **prepared inference executor**: all weight-side work of a
//! quantized convolution — LSQ weight quantization, bit-plane splitting,
//! grouping into the kernel-intact crossbar layout — done **once** at
//! construction, so serving a request costs only activation quantization,
//! the grouped-convolution sweep, and the shared digitize → shift-add →
//! merged-dequant back-end.
//!
//! This is the serving-side counterpart of the per-call training path in
//! `cq-core::CimConv2d` (which must re-quantize weights every forward
//! because QAT updates them between steps) and of the explicit
//! [`CrossbarLayer`](crate::CrossbarLayer) engine (which programs arrays
//! once but recomputes nothing weight-side either — `PreparedConv` is its
//! fast-emulation twin). All three produce **bit-identical** outputs at
//! zero device variation; the `engine_equivalence` and
//! `prepared_inference` integration tests pin this.
//!
//! Sweeps execute on a pluggable [`ExecBackend`] resolved from a
//! [`BackendSet`] fallback chain against the layer's [`ConvProfile`]
//! (capability probe). All backends are bit-identical, so the choice is
//! purely about speed. Parallelism comes from the backend kernels, which
//! schedule their work items on the shared [`cq_tensor::exec`] pool.
//!
//! Per-call intermediates (the quantized and channel-padded activations,
//! per-split partial sums, the im2col matrix) are checked out
//! of the executing thread's [`cq_tensor::arena`], so a steady-state
//! serving loop allocates only its output tensors.

use crate::pipeline::IntGroupedWeights;
use crate::{Adc, PsumPipeline, QuantizedConv};
use cq_quant::{GroupLayout, LsqQuantizer};
use cq_tensor::{
    arena, conv_out_dim, BackendError, BackendKind, BackendSet, ConvProfile, ConvShape,
    ExecBackend, Tensor,
};
use std::sync::Arc;

/// A quantized convolution frozen for inference: weights quantized,
/// bit-split, and grouped once; every serve drives the shared
/// [`PsumPipeline`] on the resolved execution backend.
#[derive(Debug, Clone)]
pub struct PreparedConv {
    desc: QuantizedConv,
    pipeline: PsumPipeline,
    /// One grouped `[G·OC, c_pa, K, K]` weight tensor per bit-split,
    /// computed at construction.
    grouped_weights: Vec<Tensor>,
    /// The same slices repacked into [`cq_tensor::PackedPanels`] at
    /// construction, when they are integer-eligible (see
    /// [`PsumPipeline::split_grouped_weights_int`]); `None` under device
    /// variation or out-of-range formats.
    int_weights: Option<Vec<IntGroupedWeights>>,
    /// What this layer offers to backend capability probes
    /// ([`ExecBackend::supports`]).
    profile: ConvProfile,
    /// The configured fallback chain.
    backends: BackendSet,
    /// The resolved backend sweeps run on.
    active: Arc<dyn ExecBackend>,
    adc: Adc,
    a_quant: LsqQuantizer,
}

impl PreparedConv {
    /// Prepares a conv from its dense quantized description.
    ///
    /// # Panics
    ///
    /// Panics if the description is inconsistent (see
    /// [`QuantizedConv::validate`]).
    pub fn new(desc: QuantizedConv) -> Self {
        Self::with_slice_transform(desc, |_, slice| slice)
    }

    /// Like [`PreparedConv::new`] but mapping every bit-split weight slice
    /// through `transform(split, slice)` before grouping — the hook that
    /// bakes deterministic device variation into the prepared weights
    /// exactly where cells would be programmed.
    ///
    /// The initial backend chain is [`BackendSet::standard`] (the
    /// `CQ_BACKEND` process default).
    ///
    /// # Panics
    ///
    /// Panics if the description is inconsistent, a transformed slice
    /// changes shape, or the process-default backend chain cannot execute
    /// this layer (e.g. `CQ_BACKEND=int` with variation-perturbed slices).
    pub fn with_slice_transform(
        desc: QuantizedConv,
        mut transform: impl FnMut(usize, Tensor) -> Tensor,
    ) -> Self {
        desc.validate();
        let pipeline = desc.pipeline();
        let shape = desc.w_int.shape().to_vec();
        let grouped_weights: Vec<Tensor> = (0..desc.plan.num_splits)
            .map(|s| {
                let slice = transform(s, desc.bit_split.split_tensor(&desc.w_int, s));
                assert_eq!(slice.shape(), &shape[..], "slice transform changed shape");
                pipeline.group_weight_slice(&slice)
            })
            .collect();
        let mut a_quant = LsqQuantizer::new(desc.act_format, 1);
        a_quant.set_scales(&[desc.act_scale]);
        let adc = Adc::new(desc.psum_format);
        let act_max_abs = desc.act_format.qn().abs().max(desc.act_format.qp());
        let int_weights = pipeline.split_grouped_weights_int(&grouped_weights, act_max_abs);
        let profile = ConvProfile {
            integer_eligible: int_weights.is_some(),
        };
        let backends = BackendSet::standard();
        let active = backends.resolve(&profile).unwrap_or_else(|| {
            panic!(
                "process-default backend chain (CQ_BACKEND) cannot execute this \
                 layer: {}",
                BackendError::NoBackend(backends.kinds())
            )
        });
        Self {
            pipeline,
            grouped_weights,
            int_weights,
            profile,
            backends,
            active,
            adc,
            a_quant,
            desc,
        }
    }

    /// Selects the execution-backend fallback chain: the layer resolves
    /// (and sweeps run on) the first chain entry whose capability probe
    /// accepts this layer's [`ConvProfile`]. All backends are
    /// bit-identical, so the choice is purely speed.
    ///
    /// # Errors
    ///
    /// [`BackendError::NoBackend`] when no chain entry supports the layer
    /// (e.g. [`BackendSet::int`] on slices that are not integer-eligible);
    /// the previous configuration is left untouched.
    pub fn set_backends(&mut self, backends: BackendSet) -> Result<(), BackendError> {
        self.active = backends
            .resolve(&self.profile)
            .ok_or_else(|| BackendError::NoBackend(backends.kinds()))?;
        self.backends = backends;
        Ok(())
    }

    /// The configured backend chain.
    pub fn backends(&self) -> &BackendSet {
        &self.backends
    }

    /// The resolved backend sweeps run on.
    pub fn active_backend(&self) -> BackendKind {
        self.active.kind()
    }

    /// What this layer offers to backend capability probes.
    pub fn profile(&self) -> ConvProfile {
        self.profile
    }

    /// Whether sweeps currently dispatch to the integer kernels
    /// (the resolved backend runs the integer chain).
    pub fn integer_kernel_active(&self) -> bool {
        self.active.integer()
    }

    /// The frozen layer description.
    pub fn desc(&self) -> &QuantizedConv {
        &self.desc
    }

    /// The shared execution pipeline.
    pub fn pipeline(&self) -> &PsumPipeline {
        &self.pipeline
    }

    /// Quantizes raw activations onto this layer's integer grid
    /// (bit-identical to the training-time LSQ activation quantizer).
    pub fn quantize_activations(&self, x: &Tensor) -> Tensor {
        self.a_quant.forward_int(x, &GroupLayout::single())
    }

    /// Serves one batch of raw activations `[B, Cin, H, W]`. Per-call
    /// intermediates come from the executing thread's
    /// [`cq_tensor::arena`], so repeated calls on a warm worker allocate
    /// only the output tensor.
    ///
    /// # Panics
    ///
    /// Panics if the input shape mismatches the plan.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        let mut a_int = arena::take_tensor(x.shape());
        self.a_quant
            .forward_int_into(x, &GroupLayout::single(), &mut a_int);
        let p = &self.desc.plan;
        let (b, h, w) = (a_int.dim(0), a_int.dim(2), a_int.dim(3));
        let mut a_pad = arena::take_tensor(&[b, p.padded_in_ch, h, w]);
        p.pad_channels_into(&a_int, &mut a_pad);
        let oh = conv_out_dim(h, p.kh, self.desc.stride, self.desc.pad);
        let ow = conv_out_dim(w, p.kw, self.desc.stride, self.desc.pad);
        let shape = [b, p.num_row_tiles * p.out_ch, oh, ow];
        let mut psums: Vec<Tensor> = (0..p.num_splits)
            .map(|_| arena::take_tensor(&shape))
            .collect();
        let tiles = p.num_row_tiles;
        if self.active.integer() {
            let iw = self
                .int_weights
                .as_deref()
                .expect("integer backend resolved without panels");
            self.pipeline.grouped_psums_int_into(
                self.active.as_ref(),
                &a_pad,
                iw,
                0..tiles,
                &mut psums,
            );
        } else {
            let s = ConvShape::new(
                a_pad.shape(),
                &[tiles * p.out_ch, p.ch_per_array, p.kh, p.kw],
                self.desc.stride,
                self.desc.pad,
                tiles,
            );
            let mut col = arena::take_f32(s.col_rows() * s.col_cols());
            self.pipeline.grouped_psums_into(
                self.active.as_ref(),
                &a_pad,
                &self.grouped_weights,
                &mut psums,
                &mut col,
            );
            arena::put_f32(col);
        }
        let desc = &self.desc;
        let adc = desc.psum_quant.then_some((self.adc, &desc.psum_scales[..]));
        let y = self
            .pipeline
            .reduce_with_adc(&psums, adc, desc.digital_splits);
        for ps in psums {
            arena::put_tensor(ps);
        }
        arena::put_tensor(a_pad);
        arena::put_tensor(a_int);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CimConfig, CrossbarLayer, TilingPlan};
    use cq_tensor::CqRng;

    fn small_desc(psum_quant: bool) -> QuantizedConv {
        let cfg = CimConfig::tiny();
        let (in_ch, out_ch, k) = (7, 5, 3);
        let plan = TilingPlan::new(&cfg, in_ch, out_ch, k, k);
        let mut rng = CqRng::new(42);
        let w_int = rng
            .uniform_tensor(&[out_ch, in_ch, k, k], -4.0, 4.0)
            .map(|v| v.floor().clamp(-4.0, 3.0));
        let weight_scales: Vec<f32> = (0..plan.num_row_tiles * out_ch)
            .map(|i| 0.02 + 0.003 * i as f32)
            .collect();
        let psum_scales: Vec<f32> = (0..plan.num_splits * plan.num_row_tiles * out_ch)
            .map(|i| 1.0 + 0.1 * (i % 7) as f32)
            .collect();
        QuantizedConv {
            w_int,
            bit_split: cfg.bit_split(),
            plan,
            stride: 1,
            pad: 1,
            act_scale: 0.05,
            act_format: cfg.act_format(),
            weight_scales,
            psum_scales,
            psum_format: cfg.psum_format(),
            psum_quant,
            digital_splits: 0,
            bias: Some(vec![0.1, -0.2, 0.0, 0.3, -0.1]),
        }
    }

    /// The prepared fast-emulation path must equal the explicit crossbar
    /// engine bit-for-bit, with and without partial-sum quantization.
    #[test]
    fn prepared_matches_crossbar_engine() {
        for psq in [false, true] {
            let desc = small_desc(psq);
            let engine = CrossbarLayer::new(desc.clone());
            let prepared = PreparedConv::new(desc);
            let mut rng = CqRng::new(7);
            let x = rng.normal_tensor(&[2, 7, 6, 6], 1.0).map(|v| v.max(0.0));
            let a_int = prepared.quantize_activations(&x);
            let slow = engine.forward(&a_int);
            let fast = prepared.infer(&x);
            assert_eq!(fast, slow, "psq={psq}");
        }
    }

    /// Hybrid (ADC-less low-split) digitization stays bit-identical
    /// between the prepared path and the crossbar engine, across every
    /// backend, while differing from the pure-ADC path.
    #[test]
    fn hybrid_digitization_is_bit_exact_across_paths() {
        let mut desc = small_desc(true);
        desc.digital_splits = 1;
        let engine = CrossbarLayer::new(desc.clone());
        let prepared = PreparedConv::new(desc.clone());
        let mut rng = CqRng::new(53);
        let x = rng.normal_tensor(&[2, 7, 6, 6], 1.0).map(|v| v.max(0.0));
        let a_int = prepared.quantize_activations(&x);
        let want = prepared.infer(&x);
        assert_eq!(want, engine.forward(&a_int), "prepared vs crossbar");
        let pure_adc = PreparedConv::new(small_desc(true));
        assert_ne!(want, pure_adc.infer(&x), "hybrid must skip low-split ADC");
        let mut scalar = PreparedConv::new(desc.clone());
        scalar.set_backends(BackendSet::scalar()).unwrap();
        assert_eq!(scalar.infer(&x), want, "scalar backend");
        let mut int_forced = PreparedConv::new(desc.clone());
        int_forced.set_backends(BackendSet::int()).unwrap();
        assert_eq!(int_forced.infer(&x), want, "integer backend");
        assert_eq!(int_forced.infer(&x), want, "warm-arena integer backend");
    }

    /// Serving repeatedly on one thread (so every call reuses the same
    /// warm arena buffers) must be idempotent bit-for-bit, including
    /// across interleaved input shapes.
    #[test]
    fn arena_reuse_is_bit_stable() {
        let prepared = PreparedConv::new(small_desc(true));
        let mut rng = CqRng::new(9);
        let a = rng.normal_tensor(&[1, 7, 6, 6], 1.0).map(|v| v.max(0.0));
        let b = rng.normal_tensor(&[3, 7, 4, 4], 1.0).map(|v| v.max(0.0));
        let ya1 = prepared.infer(&a);
        let yb1 = prepared.infer(&b);
        let ya2 = prepared.infer(&a);
        let yb2 = prepared.infer(&b);
        assert_eq!(ya1, ya2);
        assert_eq!(yb1, yb2);
    }

    /// A slice transform (the variation hook) must change the output, and
    /// the identity transform must not.
    #[test]
    fn slice_transform_hook_applies() {
        let desc = small_desc(true);
        let plain = PreparedConv::new(desc.clone());
        let identity = PreparedConv::with_slice_transform(desc.clone(), |_, s| s);
        let scaled = PreparedConv::with_slice_transform(desc, |_, s| s.scale(1.5));
        let mut rng = CqRng::new(11);
        let x = rng.normal_tensor(&[1, 7, 6, 6], 1.0).map(|v| v.max(0.0));
        assert_eq!(plain.infer(&x), identity.infer(&x));
        assert_ne!(plain.infer(&x), scaled.infer(&x));
    }

    /// The kernels' work items run on whichever exec pool is installed;
    /// every pool width must produce the same bits on every backend, with
    /// and without psum quantization, across warm (arena-reusing) calls.
    #[test]
    fn pool_width_is_bit_exact() {
        for psq in [false, true] {
            let desc = small_desc(psq);
            assert!(desc.plan.num_row_tiles > 1, "test needs a multi-tile layer");
            let mut rng = CqRng::new(31);
            let x = rng.normal_tensor(&[2, 7, 6, 6], 1.0).map(|v| v.max(0.0));
            let want = PreparedConv::new(desc.clone()).infer(&x);
            for backends in [BackendSet::int(), BackendSet::f32(), BackendSet::scalar()] {
                let mut prepared = PreparedConv::new(desc.clone());
                prepared.set_backends(backends.clone()).unwrap();
                for width in [1usize, 2, 3] {
                    let pool = cq_tensor::exec::ExecPool::with_threads(width);
                    let (got1, got2) = pool.install(|| (prepared.infer(&x), prepared.infer(&x)));
                    assert_eq!(got1, want, "{backends:?} width={width} psq={psq}");
                    assert_eq!(
                        got2, want,
                        "warm-arena {backends:?} width={width} psq={psq}"
                    );
                }
            }
        }
    }

    /// Backend selection is pure speed: every backend chain must equal the
    /// forced-f32 path bit-for-bit, with and without psum quantization.
    #[test]
    fn integer_kernel_is_bit_exact_and_selectable() {
        for psq in [false, true] {
            let desc = small_desc(psq);
            let mut f32_forced = PreparedConv::new(desc.clone());
            f32_forced.set_backends(BackendSet::f32()).unwrap();
            assert!(!f32_forced.integer_kernel_active());
            assert_eq!(f32_forced.active_backend(), BackendKind::SimdF32);
            let mut int_forced = PreparedConv::new(desc.clone());
            int_forced.set_backends(BackendSet::int()).unwrap();
            assert!(int_forced.integer_kernel_active());
            assert_eq!(int_forced.active_backend(), BackendKind::IntPanels);
            let mut scalar = PreparedConv::new(desc.clone());
            scalar.set_backends(BackendSet::scalar()).unwrap();
            assert_eq!(scalar.active_backend(), BackendKind::Scalar);
            let mut auto = PreparedConv::new(desc.clone());
            auto.set_backends(BackendSet::auto()).unwrap();
            assert_eq!(auto.backends(), &BackendSet::auto());
            assert!(auto.integer_kernel_active(), "clean slices must qualify");
            let mut rng = CqRng::new(17);
            let x = rng.normal_tensor(&[2, 7, 6, 6], 1.0).map(|v| v.max(0.0));
            let want = f32_forced.infer(&x);
            assert_eq!(int_forced.infer(&x), want, "psq={psq}");
            assert_eq!(scalar.infer(&x), want, "scalar psq={psq}");
            assert_eq!(auto.infer(&x), want, "psq={psq}");
        }
    }

    /// Re-selecting the backend chain on one frozen layer swaps the
    /// resolved kernels without drift: every chain in turn must reproduce
    /// the first output bit-for-bit.
    #[test]
    fn backend_reselection_is_bit_exact() {
        for psq in [false, true] {
            let mut prepared = PreparedConv::new(small_desc(psq));
            let mut rng = CqRng::new(47);
            let x = rng.normal_tensor(&[2, 7, 6, 6], 1.0).map(|v| v.max(0.0));
            let want = prepared.infer(&x);
            for backends in [
                BackendSet::int(),
                BackendSet::scalar(),
                BackendSet::f32(),
                BackendSet::auto(),
            ] {
                prepared.set_backends(backends.clone()).unwrap();
                assert_eq!(prepared.backends(), &backends);
                assert_eq!(prepared.infer(&x), want, "{backends:?} psq={psq}");
            }
        }
    }

    /// A variation-style slice transform disqualifies the integer path:
    /// `Auto` falls back to f32 (bit-identical to forcing f32) and `Int`
    /// is rejected.
    #[test]
    fn variation_falls_back_to_f32() {
        let desc = small_desc(true);
        let mut auto = PreparedConv::with_slice_transform(desc.clone(), |_, s| s.scale(1.37));
        auto.set_backends(BackendSet::auto()).unwrap();
        assert!(
            !auto.integer_kernel_active(),
            "off-integer slices must disqualify the integer kernel"
        );
        let mut f32_forced = PreparedConv::with_slice_transform(desc, |_, s| s.scale(1.37));
        f32_forced.set_backends(BackendSet::f32()).unwrap();
        let mut rng = CqRng::new(19);
        let x = rng.normal_tensor(&[1, 7, 6, 6], 1.0).map(|v| v.max(0.0));
        assert_eq!(auto.infer(&x), f32_forced.infer(&x));
    }

    /// Forcing the integer backend on variation-perturbed slices is a
    /// recoverable error (the `ConfigError` convention) that leaves the
    /// previous configuration intact.
    #[test]
    fn ineligible_backend_selection_is_an_error() {
        let mut prepared =
            PreparedConv::with_slice_transform(small_desc(false), |_, s| s.scale(1.37));
        prepared.set_backends(BackendSet::f32()).unwrap();
        let err = prepared.set_backends(BackendSet::int()).unwrap_err();
        assert_eq!(err, BackendError::NoBackend(vec![BackendKind::IntPanels]));
        assert!(err.to_string().contains("not integer-eligible"));
        assert_eq!(prepared.backends(), &BackendSet::f32(), "config clobbered");
        assert_eq!(prepared.active_backend(), BackendKind::SimdF32);
    }

    #[test]
    #[should_panic(expected = "weight scale table")]
    fn invalid_description_rejected() {
        let mut desc = small_desc(false);
        desc.weight_scales.pop();
        let _ = PreparedConv::new(desc);
    }
}
