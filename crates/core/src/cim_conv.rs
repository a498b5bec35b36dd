//! `CimConv2d` — the paper's CIM-oriented convolution layer
//! (Sec. III-A…III-C, Fig. 3 and Fig. 5).
//!
//! Pipeline per forward pass:
//!
//! 1. **Activation quantization** (LSQ, layer-wise unsigned) to the integer
//!    grid — `A_q` in Eq. (1).
//! 2. **Weight quantization** (LSQ at layer/array/column granularity) —
//!    `⌊W_i/s_wi⌉` in Eq. (1), with one scale per logical column in the
//!    column-wise scheme.
//! 3. **Bit-splitting** of the integer weights into per-cell slices
//!    (duplicated processing per split, Fig. 5 step #1).
//! 4. **Kernel-intact tiling realized as group convolution**: each CIM
//!    array is one group; the grouped conv output holds every array's
//!    partial sums as separate channels (Fig. 5 steps #2–#3), removing the
//!    sequential array indexing of the im2col approach.
//! 5. **Partial-sum quantization** (LSQ at layer/array/column granularity;
//!    column-wise means one scale per *physical* column, i.e. per
//!    (split, array, output channel)) — Eq. (2).
//! 6. **Shift-and-add & merged dequantization** — each column's partial
//!    sum is multiplied by its merged `s_w · s_p` factor and the splits'
//!    power-of-two shifts, then accumulated across arrays — Eq. (3).
//!
//! The backward pass propagates straight-through-estimator gradients
//! through all three quantizers (one-stage QAT, Sec. III-D) and hands the
//! LSQ scale gradients to the optimizer.
//!
//! Steps 3–6 run on the **shared** [`cq_cim::PsumPipeline`] execution
//! layer: this layer's front-end produces per-split partial sums by group
//! convolution, the crossbar engine's front-end produces the same tensors
//! from programmed arrays, and both share one digitize → shift-add →
//! merged-dequant implementation. At zero device variation the fast
//! emulation is therefore **bit-exact** against the explicit crossbar
//! engine (`cq_cim::CrossbarLayer`); integration tests enforce equality.

use std::collections::HashMap;

use cq_cim::{
    dequant_mults, Adc, BackendError, BackendKind, BackendSet, CimConfig, PreparedConv,
    PsumPipeline, QuantizedConv, TilingPlan,
};
use cq_nn::{
    accumulate_bias_grad, add_channel_bias, kaiming_conv_init, Layer, Mode, Param, ParamKind,
    ParamView,
};
use cq_quant::{BitSplit, Granularity, GroupLayout, LsqQuantizer};
use cq_scheme::QuantScheme;
use cq_tensor::{conv2d, conv2d_backward_input, conv2d_backward_weight, CqRng, Tensor};

/// How device variation is injected at inference (paper Eq. (5)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariationMode {
    /// One log-normal factor per weight, shared by all of its cells —
    /// the paper's `w_var = w · e^θ` exactly.
    PerWeight,
    /// Independent factors per cell (per bit-split slice) — the
    /// finer-grained hardware reality.
    PerCell,
}

/// Variation settings applied during [`Mode::Eval`] forward passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationCfg {
    /// Injection granularity.
    pub mode: VariationMode,
    /// Log-normal σ.
    pub sigma: f32,
    /// Noise seed (deterministic per layer).
    pub seed: u64,
}

struct FwdCache {
    x: Tensor,
    a_pad: Tensor,
    psums: Vec<Tensor>,
    grouped_weights: Vec<Tensor>,
    dw_int_template: Tensor,
    sw_table: Vec<f32>,
    psum_quant_used: bool,
}

/// The CIM-oriented quantized convolution layer (see module docs).
pub struct CimConv2d {
    cfg: CimConfig,
    plan: TilingPlan,
    bit_split: BitSplit,
    w_gran: Granularity,
    p_gran: Granularity,
    stride: usize,
    pad: usize,
    /// Low-order bit-splits carried digitally instead of through the ADC
    /// (ADC-less hybrid digitization); `0` = classic all-ADC.
    digital_splits: usize,
    /// Scheme this layer was built from ([`CimConv2d::with_scheme`]) —
    /// the serving registry's attribution key. `None` when constructed
    /// directly from granularities.
    scheme_name: Option<String>,

    weight: Param,
    bias: Option<Param>,

    w_quant: LsqQuantizer,
    w_layout: GroupLayout,
    a_quant: LsqQuantizer,
    p_quant: LsqQuantizer,

    quant_enabled: bool,
    psum_quant_enabled: bool,
    variation: Option<VariationCfg>,
    psum_capture: bool,
    captured_psums: Option<Vec<Tensor>>,

    cache: Option<FwdCache>,
    fp_cache: Option<Tensor>,
    p_layout_cache: HashMap<usize, Vec<GroupLayout>>,
    /// Frozen serving state: the prepared executor. Present only between
    /// [`CimConv2d::freeze`] and the next invalidating mutation (training
    /// forward, stage toggle, scale reset, variation change, checkpoint
    /// restore).
    frozen: Option<PreparedConv>,
    /// Execution-backend chain applied to the frozen executor (kept
    /// across re-freezes).
    backends: BackendSet,
}

impl CimConv2d {
    /// Creates a CIM convolution with Kaiming-initialized weights.
    ///
    /// Weight scales initialize immediately from the weights; activation
    /// and partial-sum scales initialize lazily from the first batch they
    /// observe (partial-sum scales at the first batch with partial-sum
    /// quantization *enabled*, which is what makes two-stage QAT work).
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the configured array
    /// (see [`TilingPlan::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        cfg: CimConfig,
        w_gran: Granularity,
        p_gran: Granularity,
        bias: bool,
        rng: &mut CqRng,
    ) -> Self {
        cfg.validate();
        let plan = TilingPlan::new(&cfg, in_ch, out_ch, kernel, kernel);
        let weight = kaiming_conv_init(out_ch, in_ch, kernel, rng);
        let w_layout = plan.weight_layout(w_gran);
        let w_quant = LsqQuantizer::with_init_from(cfg.weight_format(), &weight, &w_layout);
        let a_quant = LsqQuantizer::new(cfg.act_format(), 1);
        let p_quant = LsqQuantizer::new(cfg.psum_format(), plan.psum_group_count(p_gran));
        Self {
            bit_split: cfg.bit_split(),
            plan,
            w_gran,
            p_gran,
            stride,
            pad,
            digital_splits: 0,
            scheme_name: None,
            weight: Param::new(weight),
            bias: bias.then(|| Param::new(Tensor::zeros(&[out_ch]))),
            w_quant,
            w_layout,
            a_quant,
            p_quant,
            quant_enabled: true,
            psum_quant_enabled: true,
            variation: None,
            psum_capture: false,
            captured_psums: None,
            cache: None,
            fp_cache: None,
            p_layout_cache: HashMap::new(),
            frozen: None,
            backends: BackendSet::standard(),
            cfg,
        }
    }

    /// Creates a CIM convolution from a [`QuantScheme`]: the scheme's
    /// granularities, its weight-quantizer family applied to the macro
    /// config (binary weights force the degenerate 1-bit single-split
    /// layout — see [`QuantScheme::apply_to_config`]), its digitization
    /// strategy resolved against the layer's split count, and its name
    /// recorded for serving attribution.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the configured array
    /// (see [`TilingPlan::new`]).
    #[allow(clippy::too_many_arguments)]
    pub fn with_scheme(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        cfg: CimConfig,
        scheme: &QuantScheme,
        bias: bool,
        rng: &mut CqRng,
    ) -> Self {
        let cfg = scheme.apply_to_config(&cfg);
        let mut layer = Self::new(
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            cfg,
            scheme.w_gran,
            scheme.p_gran,
            bias,
            rng,
        );
        layer.digital_splits = scheme.digital_splits_for(layer.plan.num_splits);
        layer.scheme_name = Some(scheme.name.clone());
        layer
    }

    /// Number of low-order bit-splits carried digitally (0 = all-ADC).
    pub fn digital_splits(&self) -> usize {
        self.digital_splits
    }

    /// The scheme name recorded at construction
    /// ([`CimConv2d::with_scheme`]), if any.
    pub fn scheme_name(&self) -> Option<&str> {
        self.scheme_name.as_deref()
    }

    /// When enabled, the next quantized forward pass stores a copy of the
    /// integer partial sums of every split (Fig. 6 probing).
    pub fn set_psum_capture(&mut self, on: bool) {
        self.psum_capture = on;
        if !on {
            self.captured_psums = None;
        }
    }

    /// Takes the partial sums captured by the last forward pass.
    pub fn take_captured_psums(&mut self) -> Option<Vec<Tensor>> {
        self.captured_psums.take()
    }

    /// The tiling plan.
    pub fn plan(&self) -> &TilingPlan {
        &self.plan
    }

    /// The CIM configuration.
    pub fn cim_config(&self) -> &CimConfig {
        &self.cfg
    }

    /// Enables/disables all quantization (full-precision passthrough when
    /// disabled — the starting point for PTQ schemes).
    pub fn set_quant_enabled(&mut self, enabled: bool) {
        self.quant_enabled = enabled;
        self.frozen = None;
    }

    /// Whether quantization is active.
    pub fn quant_enabled(&self) -> bool {
        self.quant_enabled
    }

    /// Enables/disables partial-sum quantization (stage toggle for
    /// two-stage QAT; scales initialize at the first enabled batch).
    pub fn set_psum_quant_enabled(&mut self, enabled: bool) {
        self.psum_quant_enabled = enabled;
        self.frozen = None;
    }

    /// Whether partial-sum quantization is active.
    pub fn psum_quant_enabled(&self) -> bool {
        self.psum_quant_enabled
    }

    /// Sets (or clears) inference-time device variation. Invalidates any
    /// frozen state (re-[`freeze`](CimConv2d::freeze) to bake the new
    /// variation into the prepared weights).
    pub fn set_variation(&mut self, v: Option<VariationCfg>) {
        self.variation = v;
        self.frozen = None;
    }

    /// Dequantization multiplications of this layer (paper Fig. 8 model).
    pub fn dequant_mults(&self) -> usize {
        dequant_mults(&self.plan, self.w_gran, self.p_gran)
    }

    /// Hardware cost summary of this layer on its CIM macro.
    pub fn cost(&self) -> cq_cim::LayerCost {
        cq_cim::layer_cost(&self.plan, &self.cfg, self.w_gran, self.p_gran)
    }

    /// Re-fits weight scales from the current weights (PTQ calibration
    /// after full-precision training).
    pub fn reinit_weight_scales(&mut self) {
        self.w_quant.init_from(&self.weight.value, &self.w_layout);
        self.frozen = None;
    }

    /// Resets activation and partial-sum scales so the next forward pass
    /// re-initializes them from live statistics (PTQ calibration).
    pub fn reset_data_scales(&mut self) {
        self.a_quant.reset();
        self.p_quant.reset();
        self.frozen = None;
    }

    /// Marks all three quantizers initialized without touching their
    /// scales — call after restoring a trained checkpoint, so lazy
    /// initialization does not overwrite the loaded scale factors.
    pub fn mark_scales_initialized(&mut self) {
        self.w_quant.assume_initialized();
        self.a_quant.assume_initialized();
        self.p_quant.assume_initialized();
        // Called after checkpoint restores overwrite weights and scales:
        // any previously prepared state is stale.
        self.frozen = None;
    }

    /// Direct access to the master (full-precision) weights.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// The weight quantizer (scales are per the weight granularity).
    pub fn weight_quantizer(&self) -> &LsqQuantizer {
        &self.w_quant
    }

    /// The activation quantizer.
    pub fn act_quantizer(&self) -> &LsqQuantizer {
        &self.a_quant
    }

    /// The partial-sum quantizer (scales per the psum granularity).
    pub fn psum_quantizer(&self) -> &LsqQuantizer {
        &self.p_quant
    }

    fn psum_layouts(&mut self, inner: usize) -> Vec<GroupLayout> {
        if let Some(l) = self.p_layout_cache.get(&inner) {
            return l.clone();
        }
        let layouts: Vec<GroupLayout> = (0..self.plan.num_splits)
            .map(|s| self.plan.psum_layout(self.p_gran, s, inner))
            .collect();
        self.p_layout_cache.insert(inner, layouts.clone());
        layouts
    }

    /// Weight scale per partial-sum channel `(g · OC + oc)`, resolved from
    /// the weight granularity.
    fn sw_table(&self) -> Vec<f32> {
        let (g_tiles, oc) = (self.plan.num_row_tiles, self.plan.out_ch);
        let mut table = Vec::with_capacity(g_tiles * oc);
        for g in 0..g_tiles {
            for o in 0..oc {
                let s = match self.w_gran {
                    Granularity::Layer => self.w_quant.scales()[0],
                    Granularity::Array => {
                        let t = self.plan.col_tile_of_output(o);
                        self.w_quant.scales()[g * self.plan.num_col_tiles + t]
                    }
                    Granularity::Column => self.w_quant.scales()[g * oc + o],
                };
                table.push(s);
            }
        }
        table
    }

    /// Zero-pads input channels up to `padded_in_ch` (one shared
    /// implementation on [`TilingPlan`], also used by the prepared path).
    fn pad_channels(&self, a: &Tensor) -> Tensor {
        if self.plan.padded_in_ch == a.dim(1) {
            return a.clone();
        }
        let mut out = Tensor::zeros(&[0]);
        self.plan.pad_channels_into(a, &mut out);
        out
    }

    /// Strips the channel padding from a gradient tensor.
    fn unpad_channels(&self, g: &Tensor, real_ch: usize) -> Tensor {
        let (b, pc, h, w) = (g.dim(0), g.dim(1), g.dim(2), g.dim(3));
        if pc == real_ch {
            return g.clone();
        }
        let mut out = Tensor::zeros(&[b, real_ch, h, w]);
        let chw = real_ch * h * w;
        let pchw = pc * h * w;
        for bi in 0..b {
            out.data_mut()[bi * chw..(bi + 1) * chw]
                .copy_from_slice(&g.data()[bi * pchw..bi * pchw + chw]);
        }
        out
    }

    /// Builds the shared execution pipeline for the current scales and
    /// bias. Requires the activation scale to be initialized (the callers
    /// initialize it lazily first).
    fn pipeline(&self) -> PsumPipeline {
        PsumPipeline::new(
            self.plan.clone(),
            self.bit_split,
            self.stride,
            self.pad,
            self.a_quant.scales()[0],
            self.sw_table(),
            self.bias.as_ref().map(|b| b.value.data().to_vec()),
        )
    }

    /// Partial-sum scale per physical column, indexed
    /// `[(s · G + g) · OC + oc]`, resolved from the psum granularity
    /// (shared scales are repeated into the dense table).
    fn dense_psum_scales(&self) -> Vec<f32> {
        let p = &self.plan;
        let mut table = Vec::with_capacity(p.num_splits * p.num_row_tiles * p.out_ch);
        for s in 0..p.num_splits {
            let layout = p.psum_layout(self.p_gran, s, 1);
            for ch in 0..p.num_row_tiles * p.out_ch {
                table.push(self.p_quant.scales()[layout.group_of_channel(ch)]);
            }
        }
        table
    }

    /// Scatters a grouped weight gradient back to `[OC, Cin, K, K]`,
    /// scaling by `1/shift` (the STE through bit-splitting; padding
    /// channels are dropped).
    fn scatter_grouped_grad(&self, dwg: &Tensor, inv_shift: f32, dw_int: &mut Tensor) {
        let p = &self.plan;
        let (oc, kk) = (p.out_ch, p.kh * p.kw);
        for g in 0..p.num_row_tiles {
            for o in 0..oc {
                for (c_local, cin) in p.channels_of_row_tile(g).enumerate() {
                    let src = ((g * oc + o) * p.ch_per_array + c_local) * kk;
                    let dst = (o * p.in_ch + cin) * kk;
                    for i in 0..kk {
                        dw_int.data_mut()[dst + i] += dwg.data()[src + i] * inv_shift;
                    }
                }
            }
        }
    }

    /// Initializes partial-sum scales from observed integer partial sums
    /// across all splits (LSQ formula per group).
    fn init_psum_scales(&mut self, psums: &[Tensor], layouts: &[GroupLayout]) {
        let n = self.p_quant.num_groups();
        let mut sums = vec![0.0f64; n];
        let mut counts = vec![0usize; n];
        for (p, layout) in psums.iter().zip(layouts) {
            for (i, &v) in p.data().iter().enumerate() {
                let g = layout.group_of(i);
                sums[g] += v.abs() as f64;
                counts[g] += 1;
            }
        }
        // Binary ADCs use the sign quantizer's MSE-optimal magnitude
        // s₀ = mean|P|; multi-bit ADCs use the LSQ formula.
        let factor = if self.p_quant.format().is_binary() {
            1.0
        } else {
            2.0 / (self.p_quant.format().qp() as f64).sqrt()
        };
        let scales: Vec<f32> = (0..n)
            .map(|g| {
                let mean = if counts[g] > 0 {
                    sums[g] / counts[g] as f64
                } else {
                    0.0
                };
                ((factor * mean) as f32).max(1e-4)
            })
            .collect();
        self.p_quant.set_scales(&scales);
    }

    /// Deterministic per-element variation factors.
    fn variation_factors(shape: &[usize], sigma: f32, seed: u64) -> Tensor {
        let mut rng = CqRng::new(seed);
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.lognormal_factor(sigma)).collect();
        Tensor::from_vec(data, shape)
    }

    /// The `PerWeight` factor tensor shared by all bit-splits, if that
    /// variation mode is configured.
    fn per_weight_factors(var: Option<VariationCfg>, w_shape: &[usize]) -> Option<Tensor> {
        var.and_then(|v| {
            (v.mode == VariationMode::PerWeight)
                .then(|| Self::variation_factors(w_shape, v.sigma, v.seed))
        })
    }

    /// Applies the configured device variation (Eq. (5)) to one bit-split
    /// weight slice, exactly where cells would be programmed. The per-call
    /// and frozen paths both bake variation through this one function —
    /// the single implementation that keeps them bit-identical.
    fn apply_variation_to_slice(
        var: Option<VariationCfg>,
        weight_factors: Option<&Tensor>,
        s: usize,
        slice: Tensor,
    ) -> Tensor {
        if let Some(f) = weight_factors {
            return slice.mul(f);
        }
        if let Some(v) = var {
            if v.mode == VariationMode::PerCell {
                let f = Self::variation_factors(
                    slice.shape(),
                    v.sigma,
                    v.seed.wrapping_add(1 + s as u64),
                );
                return slice.mul(&f);
            }
        }
        slice
    }

    /// Exports the layer as a dense [`QuantizedConv`] description for the
    /// explicit crossbar engine.
    ///
    /// # Panics
    ///
    /// Panics if the activation (or, with psum quantization enabled, the
    /// partial-sum) scales have not been initialized by a forward pass.
    pub fn to_quantized_conv(&mut self) -> QuantizedConv {
        assert!(
            self.a_quant.is_initialized(),
            "run a forward pass before exporting (activation scale uninitialized)"
        );
        let w_int = self.w_quant.forward_int(&self.weight.value, &self.w_layout);
        let p = &self.plan;
        let psum_scales = if self.psum_quant_enabled {
            assert!(
                self.p_quant.is_initialized(),
                "psum scales uninitialized; run a forward pass with psum quantization enabled"
            );
            self.dense_psum_scales()
        } else {
            Vec::new()
        };
        QuantizedConv {
            w_int,
            bit_split: self.bit_split,
            plan: p.clone(),
            stride: self.stride,
            pad: self.pad,
            act_scale: self.a_quant.scales()[0],
            act_format: self.a_quant.format(),
            weight_scales: self.sw_table(),
            psum_scales,
            psum_format: self.p_quant.format(),
            psum_quant: self.psum_quant_enabled,
            digital_splits: self.digital_splits,
            bias: self.bias.as_ref().map(|b| b.value.data().to_vec()),
        }
    }

    /// Freezes the layer for serving: quantizes the weights, splits them
    /// into per-split grouped bit-plane tensors (baking in any configured
    /// device variation), and builds the prepared executor **once**.
    /// Subsequent `Mode::Eval` forwards reuse it — bit-identical to the
    /// unfrozen path — with per-call scratch buffers instead of redoing
    /// the weight-side work every call.
    ///
    /// The frozen state invalidates automatically on anything that could
    /// change it: a `Mode::Train` forward, stage toggles, scale resets,
    /// variation changes, or a checkpoint restore. Direct mutation of
    /// `weight()`/quantizer internals between freezes requires an explicit
    /// [`CimConv2d::unfreeze`].
    ///
    /// # Panics
    ///
    /// Panics if quantization is disabled or the activation (or enabled
    /// partial-sum) scales are uninitialized (see
    /// [`CimConv2d::to_quantized_conv`]).
    pub fn freeze(&mut self) {
        assert!(
            self.quant_enabled,
            "freeze requires quantization enabled (full-precision layers have nothing to prepare)"
        );
        let desc = self.to_quantized_conv();
        let var = self.variation;
        let weight_factors = Self::per_weight_factors(var, desc.w_int.shape());
        let mut prepared = PreparedConv::with_slice_transform(desc, move |s, slice| {
            Self::apply_variation_to_slice(var, weight_factors.as_ref(), s, slice)
        });
        // Kernel hint: a single-split ±1 layer (binary weights) always
        // packs for the integer kernels when no variation perturbs the
        // programmed cells off the integer grid.
        if self.bit_split.num_splits() == 1 && var.is_none() {
            debug_assert!(
                prepared.profile().integer_eligible,
                "binary-weight layer must be IntPanels-eligible"
            );
        }
        prepared
            .set_backends(self.backends.clone())
            .expect("configured backend chain cannot execute the frozen layer");
        self.frozen = Some(prepared);
    }

    /// Selects the execution-backend chain of the frozen executor (see
    /// [`PreparedConv::set_backends`] — bit-identical outputs on every
    /// backend; the choice is a pure speed change). Applies to the
    /// current frozen state, if any, and persists across re-freezes. The
    /// unfrozen per-call path always runs the f32 kernels.
    ///
    /// # Errors
    ///
    /// [`BackendError::NoBackend`] when the layer is frozen and no chain
    /// entry supports it (e.g. [`BackendSet::int`] under device
    /// variation); the previous configuration is left untouched.
    pub fn set_backends(&mut self, backends: BackendSet) -> Result<(), BackendError> {
        if let Some(fr) = &mut self.frozen {
            fr.set_backends(backends.clone())?;
        }
        self.backends = backends;
        Ok(())
    }

    /// The configured execution-backend chain.
    pub fn backends(&self) -> &BackendSet {
        &self.backends
    }

    /// The backend the frozen executor resolved (`None` when unfrozen).
    pub fn active_backend(&self) -> Option<BackendKind> {
        self.frozen.as_ref().map(PreparedConv::active_backend)
    }

    /// Whether the frozen executor currently dispatches to the integer
    /// kernels (`false` when unfrozen, when f32 is forced, or when the
    /// frozen slices were not integer-eligible — see
    /// [`PreparedConv::integer_kernel_active`]).
    pub fn integer_kernel_active(&self) -> bool {
        self.frozen
            .as_ref()
            .is_some_and(PreparedConv::integer_kernel_active)
    }

    /// Drops the frozen serving state (the next eval forward runs the full
    /// per-call path again).
    pub fn unfreeze(&mut self) {
        self.frozen = None;
    }

    /// Whether the layer currently holds prepared serving state.
    pub fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    /// Quantizes `x` on this layer's activation grid (for driving the
    /// crossbar engine with identical inputs).
    ///
    /// # Panics
    ///
    /// Panics if the activation scale is uninitialized.
    pub fn quantize_activations(&self, x: &Tensor) -> Tensor {
        self.a_quant.forward_int(x, &GroupLayout::single())
    }

    fn forward_fp(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            self.frozen = None; // FP training updates weights too
        }
        let mut y = conv2d(x, &self.weight.value, self.stride, self.pad);
        if let Some(b) = &self.bias {
            add_channel_bias(&mut y, &b.value);
        }
        self.fp_cache = (mode == Mode::Train).then(|| x.clone());
        self.cache = None;
        y
    }

    fn backward_fp(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .fp_cache
            .take()
            .expect("CimConv2d::backward without forward");
        let dw = conv2d_backward_weight(
            grad_out,
            &x,
            self.weight.value.shape(),
            self.stride,
            self.pad,
            1,
        );
        self.weight.grad.add_assign(&dw);
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(grad_out, &mut b.grad);
        }
        conv2d_backward_input(
            grad_out,
            &self.weight.value,
            x.shape(),
            self.stride,
            self.pad,
            1,
        )
    }

    fn forward_quant(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if mode == Mode::Train {
            // Training updates weights and scales; prepared state is stale.
            self.frozen = None;
        } else if !self.psum_capture {
            // Prepared serving path: all weight-side work was done at
            // freeze time; only activation quantization, the grouped conv
            // sweep, and the shared reduce run per call (bit-identical to
            // the full path below).
            if let Some(fr) = &self.frozen {
                let y = fr.infer(x);
                self.fp_cache = None;
                self.cache = None;
                return y;
            }
        }
        let p = self.plan.clone();
        if !self.a_quant.is_initialized() {
            self.a_quant.init_from(x, &GroupLayout::single());
        }
        let a_int = self.a_quant.forward_int(x, &GroupLayout::single());
        let a_pad = self.pad_channels(&a_int);
        let w_int = self.w_quant.forward_int(&self.weight.value, &self.w_layout);

        // Device variation (eval only): multiplicative factors on the
        // programmed cell values, Eq. (5).
        let var = if mode == Mode::Eval {
            self.variation
        } else {
            None
        };
        let weight_factors = Self::per_weight_factors(var, w_int.shape());

        // Tile → bit-split front-end (variation is applied to the slices
        // before grouping, exactly where cells would be programmed).
        let pipeline = self.pipeline();
        let mut grouped_weights = Vec::with_capacity(p.num_splits);
        for s in 0..p.num_splits {
            let slice = Self::apply_variation_to_slice(
                var,
                weight_factors.as_ref(),
                s,
                self.bit_split.split_tensor(&w_int, s),
            );
            grouped_weights.push(pipeline.group_weight_slice(&slice));
        }
        let psums = pipeline.grouped_psums(&a_pad, &grouped_weights);

        if self.psum_capture {
            self.captured_psums = Some(psums.clone());
        }
        let inner = psums[0].dim(2) * psums[0].dim(3);
        let layouts = self.psum_layouts(inner);
        let psum_quant_used = self.psum_quant_enabled;
        if psum_quant_used && !self.p_quant.is_initialized() {
            self.init_psum_scales(&psums, &layouts);
        }

        // Shared back-end: digitize → shift-add → merged dequant. The ADC
        // digitizer reproduces the LSQ psum quantizer bit-exactly (same
        // clamp-then-round grid, same dense scale resolution).
        let table = psum_quant_used.then(|| self.dense_psum_scales());
        let adc = table
            .as_deref()
            .map(|t| (Adc::new(self.p_quant.format()), t));
        let y = pipeline.reduce_with_adc(&psums, adc, self.digital_splits);

        let sw_table = self.sw_table();
        self.fp_cache = None;
        self.cache = (mode == Mode::Train).then(|| FwdCache {
            x: x.clone(),
            a_pad,
            psums,
            grouped_weights,
            dw_int_template: Tensor::zeros(self.weight.value.shape()),
            sw_table,
            psum_quant_used,
        });
        y
    }

    fn backward_quant(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cache
            .take()
            .expect("CimConv2d::backward without forward");
        let p = self.plan.clone();
        let batch = grad_out.dim(0);
        let (oh, ow) = (grad_out.dim(2), grad_out.dim(3));
        let inner = oh * ow;
        let layouts = self.psum_layouts(inner);
        let sa = self.a_quant.scales()[0];

        let mut d_a_pad = Tensor::zeros(cache.a_pad.shape());
        let mut dw_int = cache.dw_int_template.clone();
        let gchannels = p.num_row_tiles * p.out_ch;

        for (s, layout) in layouts.iter().enumerate() {
            let shift = self.bit_split.shift_weight(s);
            // ∂L/∂p̂ per partial-sum channel.
            let mut grad_phat = Tensor::zeros(&[batch, gchannels, oh, ow]);
            for bi in 0..batch {
                for g in 0..p.num_row_tiles {
                    for o in 0..p.out_ch {
                        let f = (sa * shift) * cache.sw_table[g * p.out_ch + o];
                        let src = (bi * p.out_ch + o) * inner;
                        let dst = ((bi * p.num_row_tiles + g) * p.out_ch + o) * inner;
                        let (gp, go) = (
                            &mut grad_phat.data_mut()[dst..dst + inner],
                            &grad_out.data()[src..src + inner],
                        );
                        for (a, &b) in gp.iter_mut().zip(go) {
                            *a = b * f;
                        }
                    }
                }
            }
            // Digitally-carried low-order splits bypass the ADC, so their
            // gradient bypasses the psum quantizer too (pure identity).
            let d_psum = if cache.psum_quant_used && s >= self.digital_splits {
                self.p_quant.backward(&cache.psums[s], &grad_phat, layout)
            } else {
                grad_phat
            };
            let da = conv2d_backward_input(
                &d_psum,
                &cache.grouped_weights[s],
                cache.a_pad.shape(),
                self.stride,
                self.pad,
                p.num_row_tiles,
            );
            d_a_pad.add_assign(&da);
            let dwg = conv2d_backward_weight(
                &d_psum,
                &cache.a_pad,
                cache.grouped_weights[s].shape(),
                self.stride,
                self.pad,
                p.num_row_tiles,
            );
            self.scatter_grouped_grad(&dwg, 1.0 / shift, &mut dw_int);
        }

        // Weight quantizer STE (+ scale gradients).
        let grad_what = self.w_quant.divide_by_scales(&dw_int, &self.w_layout);
        let dw = self
            .w_quant
            .backward(&self.weight.value, &grad_what, &self.w_layout);
        self.weight.grad.add_assign(&dw);
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(grad_out, &mut b.grad);
        }

        // Activation quantizer STE (+ scale gradient).
        let d_a_int = self.unpad_channels(&d_a_pad, cache.x.dim(1));
        let grad_ahat = d_a_int.scale(1.0 / sa);
        self.a_quant
            .backward(&cache.x, &grad_ahat, &GroupLayout::single())
    }
}

impl Layer for CimConv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        assert_eq!(x.rank(), 4, "CimConv2d input must be [B,C,H,W]");
        assert_eq!(x.dim(1), self.plan.in_ch, "input channels vs plan");
        if self.quant_enabled {
            self.forward_quant(x, mode)
        } else {
            self.forward_fp(x, mode)
        }
    }

    fn forward_shared(&self, x: &Tensor) -> Option<Tensor> {
        assert_eq!(x.rank(), 4, "CimConv2d input must be [B,C,H,W]");
        assert_eq!(x.dim(1), self.plan.in_ch, "input channels vs plan");
        if !self.quant_enabled {
            // Full-precision passthrough is pure in eval mode.
            let mut y = conv2d(x, &self.weight.value, self.stride, self.pad);
            if let Some(b) = &self.bias {
                add_channel_bias(&mut y, &b.value);
            }
            return Some(y);
        }
        // Quantized concurrent serving requires the frozen executor (the
        // per-call path mutates lazy scales and caches); psum capture also
        // needs the stateful path.
        if self.psum_capture {
            return None;
        }
        self.frozen.as_ref().map(|fr| fr.infer(x))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        if self.cache.is_some() {
            self.backward_quant(grad_out)
        } else {
            self.backward_fp(grad_out)
        }
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
        self.weight
            .visit(format!("{prefix}weight"), ParamKind::Weight, f);
        if let Some(b) = &mut self.bias {
            b.visit(format!("{prefix}bias"), ParamKind::Bias, f);
        }
        let (v, g) = self.w_quant.scales_and_grads_mut();
        f(ParamView {
            name: format!("{prefix}w_scale"),
            kind: ParamKind::Scale,
            value: v,
            grad: g,
        });
        let (v, g) = self.a_quant.scales_and_grads_mut();
        f(ParamView {
            name: format!("{prefix}a_scale"),
            kind: ParamKind::Scale,
            value: v,
            grad: g,
        });
        let (v, g) = self.p_quant.scales_and_grads_mut();
        f(ParamView {
            name: format!("{prefix}p_scale"),
            kind: ParamKind::Scale,
            value: v,
            grad: g,
        });
    }

    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_quant::QuantFormat;

    fn tiny_cfg() -> CimConfig {
        CimConfig::tiny() // 32×32, w3/1b-cell (3 splits), a3, p3
    }

    fn make_layer(w_gran: Granularity, p_gran: Granularity, rng_seed: u64) -> CimConv2d {
        let mut rng = CqRng::new(rng_seed);
        CimConv2d::new(7, 5, 3, 1, 1, tiny_cfg(), w_gran, p_gran, false, &mut rng)
    }

    fn relu_input(seed: u64, shape: &[usize]) -> Tensor {
        CqRng::new(seed)
            .normal_tensor(shape, 1.0)
            .map(|v| v.max(0.0))
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 1);
        let x = relu_input(2, &[2, 7, 8, 8]);
        let y1 = layer.forward(&x, Mode::Eval);
        let y2 = layer.forward(&x, Mode::Eval);
        assert_eq!(y1.shape(), &[2, 5, 8, 8]);
        assert_eq!(y1, y2, "eval forward is deterministic");
    }

    /// With psum quantization off, the pipeline must exactly equal the
    /// fake-quantized convolution conv(Q(w), Q(a)) — the bit-split and
    /// group-conv decomposition is exact.
    #[test]
    fn no_psq_equals_fake_quant_conv() {
        for gran in Granularity::ALL {
            let mut layer = make_layer(gran, Granularity::Column, 3);
            layer.set_psum_quant_enabled(false);
            let x = relu_input(4, &[1, 7, 6, 6]);
            let y = layer.forward(&x, Mode::Eval);
            let w_hat = layer
                .w_quant
                .fake_quant(&layer.weight.value.clone(), &layer.w_layout.clone());
            let a_hat = layer.a_quant.fake_quant(&x, &GroupLayout::single());
            let want = conv2d(&a_hat, &w_hat, 1, 1);
            assert!(
                y.allclose(&want, 2e-3),
                "gran {gran}: max diff {}",
                y.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn psum_quantization_changes_output_but_preserves_direction() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 5);
        let x = relu_input(6, &[1, 7, 6, 6]);
        let yq = layer.forward(&x, Mode::Eval);
        layer.set_psum_quant_enabled(false);
        let yf = layer.forward(&x, Mode::Eval);
        assert_ne!(yq, yf, "3-bit ADC must introduce error");
        // Even at LSQ-init (no training yet) the quantized output must be
        // strongly correlated with the ideal output.
        let cos = yq.mul(&yf).sum() / (yq.sq_sum().sqrt() * yf.sq_sum().sqrt()).max(1e-9);
        assert!(cos > 0.5, "cosine similarity too low: {cos}");
    }

    /// The paper's core mechanism (Fig. 6): when columns have heterogeneous
    /// magnitudes, *learned* per-column scale factors capture the weights
    /// far more accurately than one shared layer scale. (At heuristic init
    /// the granularities can tie; the win comes from heterogeneity plus
    /// scale learning, which is exactly the paper's setting.)
    #[test]
    fn learned_column_scales_quantize_heterogeneous_columns_more_accurately() {
        let mut err = Vec::new();
        for gran in Granularity::ALL {
            let mut layer = make_layer(gran, Granularity::Column, 7);
            // Give each output channel (→ logical column) a very different
            // magnitude, as real trained layers do.
            let (oc, icks) = (5usize, 7 * 3 * 3);
            for o in 0..oc {
                let boost = 0.2 + 1.5 * o as f32;
                for i in 0..icks {
                    layer.weight.value.data_mut()[o * icks + i] *= boost;
                }
            }
            layer.reinit_weight_scales();
            let w = layer.weight.value.clone();
            let layout = layer.w_layout.clone();
            let n = w.numel() as f32;
            // Learn the scales by descending quantization MSE (LSQ).
            let q = &mut layer.w_quant;
            for _ in 0..400 {
                let what = q.fake_quant(&w, &layout);
                let gvh = what.sub(&w).scale(2.0 / n);
                q.zero_scale_grads();
                let _ = q.backward(&w, &gvh, &layout);
                for g in 0..q.num_groups() {
                    let step = q.scale_grads()[g];
                    q.scales_mut()[g] -= 0.5 * step;
                }
                q.clamp_scales();
            }
            let what = q.fake_quant(&w, &layout);
            err.push(what.sub(&w).sq_sum());
        }
        assert!(
            err[2] < err[0] * 0.95,
            "learned column-wise should beat layer-wise: {err:?}"
        );
        assert!(
            err[2] <= err[1] * 1.05,
            "column-wise should not lose to array-wise: {err:?}"
        );
    }

    #[test]
    fn lazy_psum_init_happens_on_first_enabled_forward() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 9);
        layer.set_psum_quant_enabled(false);
        let x = relu_input(10, &[1, 7, 6, 6]);
        let _ = layer.forward(&x, Mode::Train);
        assert!(
            !layer.p_quant.is_initialized(),
            "stage 1 must not touch psum scales"
        );
        layer.set_psum_quant_enabled(true);
        let _ = layer.forward(&x, Mode::Train);
        assert!(
            layer.p_quant.is_initialized(),
            "stage 2 initializes psum scales"
        );
    }

    #[test]
    fn backward_produces_all_gradients() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 11);
        let x = relu_input(12, &[2, 7, 6, 6]);
        let y = layer.forward(&x, Mode::Train);
        let gy = CqRng::new(13).normal_tensor(y.shape(), 0.1);
        let dx = layer.backward(&gy);
        assert_eq!(dx.shape(), x.shape());
        assert!(dx.max_abs() > 0.0, "input gradient flows");
        assert!(layer.weight.grad.max_abs() > 0.0, "weight gradient flows");
        assert!(
            layer.w_quant.scale_grads().iter().any(|&g| g != 0.0),
            "weight scale gradient flows"
        );
        assert!(
            layer.a_quant.scale_grads().iter().any(|&g| g != 0.0),
            "act scale gradient flows"
        );
        assert!(
            layer.p_quant.scale_grads().iter().any(|&g| g != 0.0),
            "psum scale gradient flows"
        );
    }

    /// With quantization disabled entirely, the layer is a plain conv and
    /// its gradient matches the plain conv gradient.
    #[test]
    fn fp_passthrough_matches_plain_conv() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 15);
        layer.set_quant_enabled(false);
        let x = relu_input(16, &[1, 7, 6, 6]);
        let y = layer.forward(&x, Mode::Train);
        let want = conv2d(&x, &layer.weight.value, 1, 1);
        assert_eq!(y, want);
        let gy = Tensor::ones(y.shape());
        let dx = layer.backward(&gy);
        let want_dx = conv2d_backward_input(&gy, &layer.weight.value, x.shape(), 1, 1, 1);
        assert_eq!(dx, want_dx);
    }

    /// QAT sanity: minimizing ||y - target||² through the full quantized
    /// pipeline must reduce the loss.
    #[test]
    fn qat_reduces_loss_end_to_end() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 17);
        let x = relu_input(18, &[2, 7, 6, 6]);
        let target = CqRng::new(19).normal_tensor(&[2, 5, 6, 6], 0.5);
        let mut opt = cq_nn::Sgd::new(0.02, 0.9, 0.0);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..30 {
            let y = layer.forward(&x, Mode::Train);
            let diff = y.sub(&target);
            let loss = diff.sq_sum() / diff.numel() as f32;
            if it == 0 {
                first = loss;
            }
            last = loss;
            layer.zero_grads();
            let gy = diff.scale(2.0 / diff.numel() as f32);
            let _ = layer.backward(&gy);
            opt.step(&mut layer);
        }
        assert!(last < first * 0.8, "QAT loss {first} -> {last}");
    }

    #[test]
    fn variation_perturbs_eval_output_only() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 21);
        let x = relu_input(22, &[1, 7, 6, 6]);
        let clean = layer.forward(&x, Mode::Eval);
        layer.set_variation(Some(VariationCfg {
            mode: VariationMode::PerWeight,
            sigma: 0.2,
            seed: 99,
        }));
        let noisy = layer.forward(&x, Mode::Eval);
        assert_ne!(clean, noisy, "variation must perturb eval output");
        // σ = 0 is exactly clean.
        layer.set_variation(Some(VariationCfg {
            mode: VariationMode::PerWeight,
            sigma: 0.0,
            seed: 99,
        }));
        assert_eq!(layer.forward(&x, Mode::Eval), clean);
        // Per-cell mode also works.
        layer.set_variation(Some(VariationCfg {
            mode: VariationMode::PerCell,
            sigma: 0.2,
            seed: 99,
        }));
        assert_ne!(layer.forward(&x, Mode::Eval), clean);
        layer.set_variation(None);
        assert_eq!(layer.forward(&x, Mode::Eval), clean);
    }

    #[test]
    fn dequant_mults_match_overhead_model() {
        let layer = make_layer(Granularity::Column, Granularity::Column, 23);
        // tiny cfg: 7 ch, 3 ch/array -> 3 row tiles; 3 splits; 5 oc.
        assert_eq!(layer.dequant_mults(), 3 * 3 * 5);
        let layer = make_layer(Granularity::Layer, Granularity::Layer, 23);
        assert_eq!(layer.dequant_mults(), 1);
    }

    #[test]
    fn integer_psums_are_integral_and_bounded() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 25);
        let x = relu_input(26, &[1, 7, 6, 6]);
        layer.set_psum_capture(true);
        let _ = layer.forward(&x, Mode::Eval);
        let psums = layer.take_captured_psums().expect("captured psums");
        assert_eq!(psums.len(), 3);
        let bound = 1.0 /* 1b cell values in {-1,0,1} */ * 7.0 * (3.0 * 9.0);
        for p in &psums {
            for &v in p.data() {
                assert_eq!(v, v.round(), "psum {v} not integral");
                assert!(v.abs() <= bound, "psum {v} out of bound {bound}");
            }
        }
    }

    #[test]
    fn hybrid_scheme_carries_low_splits_digitally() {
        let scheme = cq_scheme::QuantScheme::hybrid_adc();
        let mut rng = CqRng::new(31);
        let mut hybrid =
            CimConv2d::with_scheme(7, 5, 3, 1, 1, tiny_cfg(), &scheme, false, &mut rng);
        // tiny cfg: 3 splits; requested 2 digital splits fit unclamped.
        assert_eq!(hybrid.digital_splits(), 2);
        assert_eq!(hybrid.scheme_name(), Some("hybrid-adc"));
        let mut all_adc = make_layer(Granularity::Column, Granularity::Column, 31);
        let x = relu_input(32, &[1, 7, 6, 6]);
        let yh = hybrid.forward(&x, Mode::Eval);
        let ya = all_adc.forward(&x, Mode::Eval);
        assert_ne!(yh, ya, "bypassing low-split ADCs must change the output");
        all_adc.set_psum_quant_enabled(false);
        let yf = all_adc.forward(&x, Mode::Eval);
        assert_ne!(yh, yf, "one split still digitizes through the ADC");
        // The hybrid output is closer to ideal than the all-ADC one (two of
        // three splits carry no conversion error).
        assert!(
            yh.max_abs_diff(&yf) <= ya.max_abs_diff(&yf),
            "hybrid should not be further from ideal than all-ADC"
        );
        // QAT through the hybrid path: gradients flow everywhere, and the
        // analog split still feeds the psum-scale gradient.
        let y = hybrid.forward(&x, Mode::Train);
        let gy = CqRng::new(33).normal_tensor(y.shape(), 0.1);
        let dx = hybrid.backward(&gy);
        assert!(dx.max_abs() > 0.0, "input gradient flows");
        assert!(hybrid.weight.grad.max_abs() > 0.0, "weight gradient flows");
        assert!(
            hybrid.p_quant.scale_grads().iter().any(|&g| g != 0.0),
            "psum scale gradient flows through the analog split"
        );
    }

    #[test]
    fn binary_scheme_runs_single_split_integer_fast_path() {
        let scheme = cq_scheme::QuantScheme::bwma();
        let mut rng = CqRng::new(41);
        let mut layer = CimConv2d::with_scheme(7, 5, 3, 1, 1, tiny_cfg(), &scheme, false, &mut rng);
        assert_eq!(layer.scheme_name(), Some("bwma"));
        assert_eq!(layer.cim_config().weight_bits, 1);
        assert_eq!(layer.plan().num_splits, 1, "binary weights = one split");
        assert_eq!(layer.digital_splits(), 0, "the single split stays analog");
        let x = relu_input(42, &[1, 7, 6, 6]);
        let y = layer.forward(&x, Mode::Eval);
        // Quantized weights are the scaled codebook {-1, 0, +1}.
        let w_int = layer
            .w_quant
            .forward_int(&layer.weight.value.clone(), &layer.w_layout.clone());
        assert!(w_int
            .data()
            .iter()
            .all(|&v| v == -1.0 || v == 0.0 || v == 1.0));
        // Freeze: always IntPanels-eligible, bit-exact vs the per-call path.
        layer.freeze();
        assert!(
            layer.integer_kernel_active() || layer.active_backend() != Some(BackendKind::IntPanels),
            "binary layer rejected by the integer backend"
        );
        assert_eq!(layer.forward(&x, Mode::Eval), y, "frozen == unfrozen");
        layer.set_backends(BackendSet::int()).unwrap();
        assert!(
            layer.integer_kernel_active(),
            "forced IntPanels must engage"
        );
        assert_eq!(layer.forward(&x, Mode::Eval), y, "int backend bit-exact");
        // QAT smoke through the sign STE.
        layer.set_backends(BackendSet::standard()).unwrap();
        let y = layer.forward(&x, Mode::Train);
        let gy = CqRng::new(43).normal_tensor(y.shape(), 0.1);
        let dx = layer.backward(&gy);
        assert!(dx.max_abs() > 0.0 && layer.weight.grad.max_abs() > 0.0);
    }

    #[test]
    fn export_format_matches_config() {
        let mut layer = make_layer(Granularity::Column, Granularity::Column, 27);
        let x = relu_input(28, &[1, 7, 6, 6]);
        let _ = layer.forward(&x, Mode::Eval);
        let qc = layer.to_quantized_conv();
        qc.validate();
        assert_eq!(qc.psum_format, QuantFormat::signed(3));
        assert_eq!(qc.weight_scales.len(), 3 * 5);
        assert_eq!(qc.psum_scales.len(), 3 * 3 * 5);
    }
}
