//! The explicit crossbar inference engine: programs quantized weights into
//! [`Crossbar`] arrays per the kernel-intact [`TilingPlan`], drives im2col
//! patches through the wordlines, digitizes every physical column with an
//! [`Adc`] referenced to that column's scale factor, shift-and-adds the
//! bit-splits, and applies the merged `s_w · s_p` dequantization
//! (paper Fig. 3 / Fig. 4(d)).
//!
//! This is the hardware-shaped twin of the fast group-convolution
//! emulation in `cq-core`. Both paths drive the shared [`PsumPipeline`]
//! back-end — one implementation of the digitize → shift-add → dequant
//! loop with one f32 operation order — so they agree **exactly** at zero
//! variation; integration tests enforce this.

use crate::{Adc, Crossbar, PsumPipeline, TilingPlan};
use cq_quant::{BitSplit, QuantFormat};
use cq_tensor::{CqRng, Tensor};

/// A fully-quantized convolution layer description, with every scale factor
/// resolved to dense per-column tables. Produced by `cq-core` from a
/// trained `CimConv2d`.
#[derive(Debug, Clone)]
pub struct QuantizedConv {
    /// Integer weights `[OC, Cin, KH, KW]` in the signed weight range.
    pub w_int: Tensor,
    /// Bit-split geometry.
    pub bit_split: BitSplit,
    /// Array tiling plan.
    pub plan: TilingPlan,
    /// Convolution stride.
    pub stride: usize,
    /// Convolution zero padding.
    pub pad: usize,
    /// Activation scale `s_a` (layer-wise).
    pub act_scale: f32,
    /// Activation quantization format (unsigned for post-ReLU inputs).
    /// Together with `act_scale` this lets a prepared engine quantize raw
    /// activations itself instead of requiring pre-quantized inputs.
    pub act_format: QuantFormat,
    /// Weight scale per logical column, indexed `[g · OC + oc]`
    /// (`g` = row tile). Layer-/array-wise schemes repeat the shared value.
    pub weight_scales: Vec<f32>,
    /// Partial-sum scale per physical column, indexed
    /// `[(s · G + g) · OC + oc]`. Ignored when `psum_quant` is false.
    pub psum_scales: Vec<f32>,
    /// ADC output format.
    pub psum_format: QuantFormat,
    /// Whether partial sums are quantized (false = ideal ADC bypass).
    pub psum_quant: bool,
    /// Number of **low-order** bit-splits carried digitally, ADC-less-style
    /// (HCiM): those splits bypass the converter while splits
    /// `digital_splits..num_splits` still go through the ADC. `0` is the
    /// classic all-ADC path; ignored when `psum_quant` is false.
    pub digital_splits: usize,
    /// Optional per-output-channel bias, applied after dequantization.
    pub bias: Option<Vec<f32>>,
}

impl QuantizedConv {
    /// Validates the internal consistency of the description.
    ///
    /// # Panics
    ///
    /// Panics on any size mismatch, non-finite / non-integral /
    /// out-of-range weight, or non-positive scale factor.
    pub fn validate(&self) {
        let p = &self.plan;
        assert_eq!(
            self.w_int.shape(),
            &[p.out_ch, p.in_ch, p.kh, p.kw],
            "w_int shape vs plan"
        );
        assert_eq!(
            self.weight_scales.len(),
            p.num_row_tiles * p.out_ch,
            "weight scale table"
        );
        if self.psum_quant {
            assert_eq!(
                self.psum_scales.len(),
                p.num_splits * p.num_row_tiles * p.out_ch,
                "psum scale table"
            );
            for &s in &self.psum_scales {
                assert!(s > 0.0, "non-positive psum scale {s}");
            }
        }
        if let Some(b) = &self.bias {
            assert_eq!(b.len(), p.out_ch, "bias length");
        }
        let (lo, hi) = self.bit_split.weight_range();
        let (lo, hi) = (lo as f32, hi as f32);
        for &w in self.w_int.data() {
            assert!(w.is_finite(), "non-finite weight {w}");
            assert_eq!(w, w.round(), "non-integral weight {w}");
            assert!((lo..=hi).contains(&w), "weight {w} out of range");
        }
        assert!(self.act_scale > 0.0, "activation scale");
        assert!(
            self.digital_splits <= p.num_splits,
            "digital_splits {} exceeds num_splits {}",
            self.digital_splits,
            p.num_splits
        );
    }

    /// Builds the shared execution pipeline for this description.
    pub fn pipeline(&self) -> PsumPipeline {
        PsumPipeline::new(
            self.plan.clone(),
            self.bit_split,
            self.stride,
            self.pad,
            self.act_scale,
            self.weight_scales.clone(),
            self.bias.clone(),
        )
    }

    /// Weight scale of logical column (row tile `g`, output channel `oc`).
    #[inline]
    pub fn weight_scale(&self, g: usize, oc: usize) -> f32 {
        self.weight_scales[g * self.plan.out_ch + oc]
    }
}

/// A convolution layer programmed onto crossbar arrays.
#[derive(Debug, Clone)]
pub struct CrossbarLayer {
    desc: QuantizedConv,
    /// Arrays indexed `[g · num_col_tiles + t]`.
    arrays: Vec<Crossbar>,
    adc: Adc,
    pipeline: PsumPipeline,
}

impl CrossbarLayer {
    /// Programs the quantized weights into crossbars.
    ///
    /// # Panics
    ///
    /// Panics if the description is inconsistent (see
    /// [`QuantizedConv::validate`]).
    pub fn new(desc: QuantizedConv) -> Self {
        desc.validate();
        let p = desc.plan.clone();
        let ns = p.num_splits;
        let kk = p.kh * p.kw;
        let mut arrays = Vec::with_capacity(p.num_arrays());
        for g in 0..p.num_row_tiles {
            let chans = p.channels_of_row_tile(g);
            for t in 0..p.num_col_tiles {
                let ocs = p.outputs_of_col_tile(t);
                let mut xb = Crossbar::new(p.rows_used, ocs.len() * ns);
                for (local_oc, oc) in ocs.clone().enumerate() {
                    for s in 0..ns {
                        let col = local_oc * ns + s;
                        for (c_local, cin) in chans.clone().enumerate() {
                            for ki in 0..p.kh {
                                for kj in 0..p.kw {
                                    let w = desc.w_int.data()[desc.w_int.idx4(oc, cin, ki, kj)];
                                    let v = desc.bit_split.split_value(w as i32, s) as f32;
                                    xb.program(c_local * kk + ki * p.kw + kj, col, v);
                                }
                            }
                        }
                    }
                }
                arrays.push(xb);
            }
        }
        let adc = Adc::new(desc.psum_format);
        let pipeline = desc.pipeline();
        Self {
            desc,
            arrays,
            adc,
            pipeline,
        }
    }

    /// The layer description.
    pub fn desc(&self) -> &QuantizedConv {
        &self.desc
    }

    /// The programmed arrays (row-tile-major).
    pub fn arrays(&self) -> &[Crossbar] {
        &self.arrays
    }

    /// Applies per-cell log-normal variation to every array (Eq. (5)).
    pub fn apply_variation(&mut self, sigma: f32, rng: &mut CqRng) {
        for xb in &mut self.arrays {
            xb.apply_variation(sigma, rng);
        }
    }

    /// Total programmed (non-zero) cells across all arrays.
    pub fn programmed_cells(&self) -> usize {
        self.arrays.iter().map(Crossbar::programmed_cells).sum()
    }

    /// Runs inference on integer activations `a_int` (`[B, Cin, H, W]`,
    /// values on the unsigned activation grid) and returns the dequantized
    /// output `[B, OC, OH, OW]` including the activation scale and bias.
    ///
    /// Both stages run on the shared [`PsumPipeline`]: the crossbar
    /// front-end produces per-split partial sums (parallel across
    /// batch × row-tile), and the shared reduce digitizes each physical
    /// column (real [`Adc`] or ideal bypass) and shift-and-adds with the
    /// merged `s_w · s_p` dequantization.
    ///
    /// # Panics
    ///
    /// Panics if the input shape mismatches the plan.
    pub fn forward(&self, a_int: &Tensor) -> Tensor {
        let psums = self.pipeline.crossbar_psums(&self.arrays, a_int);
        let desc = &self.desc;
        let adc = desc.psum_quant.then_some((self.adc, &desc.psum_scales[..]));
        self.pipeline
            .reduce_with_adc(&psums, adc, desc.digital_splits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CimConfig;
    use cq_tensor::conv2d;

    /// Builds a small quantized conv with identity-ish scales.
    fn small_desc(psum_quant: bool) -> QuantizedConv {
        let cfg = CimConfig::tiny(); // 32x32 arrays, w3 a3 p3, 1b cells -> 3 splits
        let (in_ch, out_ch, k) = (7, 5, 3); // 7 channels -> 3/array, 3 row tiles
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
            bias: None,
        }
    }

    /// With the ADC bypassed, the crossbar path must equal an exact
    /// dequantized convolution: y = s_a * conv(a_int, s_w ⊙ w_int).
    #[test]
    fn bypass_adc_equals_reference_conv() {
        let desc = small_desc(false);
        let layer = CrossbarLayer::new(desc.clone());
        let mut rng = CqRng::new(7);
        let a_int = rng.uniform_tensor(&[2, 7, 6, 6], 0.0, 8.0).map(f32::floor);
        let got = layer.forward(&a_int);

        // Reference: scale each weight by its logical column's s_w.
        let p = &desc.plan;
        let mut w_scaled = desc.w_int.clone();
        for oc in 0..p.out_ch {
            for cin in 0..p.in_ch {
                let g = p.row_tile_of_channel(cin);
                let sw = desc.weight_scale(g, oc);
                for ki in 0..p.kh {
                    for kj in 0..p.kw {
                        let i = w_scaled.idx4(oc, cin, ki, kj);
                        w_scaled.data_mut()[i] *= sw;
                    }
                }
            }
        }
        let want = conv2d(&a_int, &w_scaled, 1, 1).scale(desc.act_scale);
        assert!(
            got.allclose(&want, 1e-4),
            "max diff {}",
            got.max_abs_diff(&want)
        );
    }

    /// Bit-split decomposition inside the arrays must be exact: the
    /// shift-and-add of split MACs equals the MAC of the full weight.
    #[test]
    fn shift_add_reconstructs_full_weight_mac() {
        let desc = small_desc(false);
        let layer = CrossbarLayer::new(desc.clone());
        let p = &desc.plan;
        // Drive a single array (g=0, t=0) with an arbitrary patch.
        let mut rng = CqRng::new(3);
        let patch: Vec<f32> = (0..p.rows_used).map(|_| rng.below(8) as f32).collect();
        let currents = layer.arrays()[0].mac(&patch);
        let ns = p.num_splits;
        let kk = p.kh * p.kw;
        for (local_oc, oc) in p.outputs_of_col_tile(0).enumerate() {
            let combined: f32 = (0..ns)
                .map(|s| currents[local_oc * ns + s] * desc.bit_split.shift_weight(s))
                .sum();
            // Full-precision integer MAC over the same channels.
            let mut want = 0.0f32;
            for (c_local, cin) in p.channels_of_row_tile(0).enumerate() {
                for ki in 0..p.kh {
                    for kj in 0..p.kw {
                        want += patch[c_local * kk + ki * p.kw + kj]
                            * desc.w_int.data()[desc.w_int.idx4(oc, cin, ki, kj)];
                    }
                }
            }
            assert_eq!(combined, want, "oc {oc}");
        }
    }

    /// ADC clipping must saturate extreme partial sums.
    #[test]
    fn adc_path_clamps_to_range() {
        let mut desc = small_desc(true);
        // Absurdly small psum scales force every column into saturation.
        desc.psum_scales.iter_mut().for_each(|s| *s = 1e-3);
        let layer = CrossbarLayer::new(desc.clone());
        let a_int = Tensor::full(&[1, 7, 5, 5], 7.0);
        let y = layer.forward(&a_int);
        // Every quantized psum is ±Qn/Qp; output stays finite and small.
        assert!(
            y.max_abs() < 1.0,
            "saturated output should be tiny, got {}",
            y.max_abs()
        );
    }

    #[test]
    fn variation_perturbs_output_monotonically_in_expectation() {
        let desc = small_desc(true);
        let clean = CrossbarLayer::new(desc.clone());
        let mut rng = CqRng::new(11);
        let a_int = rng.uniform_tensor(&[1, 7, 5, 5], 0.0, 8.0).map(f32::floor);
        let y0 = clean.forward(&a_int);
        let mut devs = Vec::new();
        for sigma in [0.05f32, 0.25] {
            let mut sum = 0.0;
            for seed in 0..3u64 {
                let mut noisy = CrossbarLayer::new(desc.clone());
                noisy.apply_variation(sigma, &mut CqRng::new(100 + seed));
                sum += noisy.forward(&a_int).max_abs_diff(&y0);
            }
            devs.push(sum / 3.0);
        }
        assert!(
            devs[1] > devs[0],
            "larger sigma should deviate more: {devs:?}"
        );
        assert!(devs[0] > 0.0);
    }

    #[test]
    fn programmed_cells_counted() {
        let desc = small_desc(false);
        let layer = CrossbarLayer::new(desc);
        assert!(layer.programmed_cells() > 0);
        assert_eq!(layer.arrays().len(), 3); // 3 row tiles x 1 col tile
    }

    #[test]
    #[should_panic(expected = "weight scale table")]
    fn bad_scale_table_panics() {
        let mut desc = small_desc(false);
        desc.weight_scales.pop();
        let _ = CrossbarLayer::new(desc);
    }

    #[test]
    #[should_panic(expected = "non-positive psum scale")]
    fn zero_psum_scale_rejected() {
        let mut desc = small_desc(true);
        desc.psum_scales[3] = 0.0;
        desc.validate();
    }

    #[test]
    #[should_panic(expected = "non-positive psum scale")]
    fn negative_psum_scale_rejected() {
        let mut desc = small_desc(true);
        desc.psum_scales[0] = -0.5;
        desc.validate();
    }

    /// With psum quantization off the scale table is ignored entirely, so
    /// a bogus table must not be rejected.
    #[test]
    fn psum_scales_unchecked_when_quant_disabled() {
        let mut desc = small_desc(false);
        desc.psum_scales.iter_mut().for_each(|s| *s = -1.0);
        desc.validate();
    }

    #[test]
    #[should_panic(expected = "non-finite weight")]
    fn nan_weight_rejected() {
        let mut desc = small_desc(false);
        desc.w_int.data_mut()[5] = f32::NAN;
        desc.validate();
    }

    #[test]
    #[should_panic(expected = "non-finite weight")]
    fn infinite_weight_rejected() {
        let mut desc = small_desc(false);
        desc.w_int.data_mut()[0] = f32::INFINITY;
        desc.validate();
    }

    #[test]
    #[should_panic(expected = "non-integral weight")]
    fn fractional_weight_rejected() {
        let mut desc = small_desc(false);
        desc.w_int.data_mut()[1] = 0.5;
        desc.validate();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_weight_rejected() {
        let mut desc = small_desc(false);
        desc.w_int.data_mut()[2] = 4.0; // 3b signed range is [-4, 3]
        desc.validate();
    }
}
