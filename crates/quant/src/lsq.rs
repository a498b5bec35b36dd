//! Learned Step Size Quantization (LSQ, Esser et al. ICLR 2020 — the
//! paper's reference [10]), extended to **per-group scale factors** so a
//! single quantizer can operate layer-wise, array-wise, or column-wise
//! (paper Sec. III-A: "we extend LSQ to support scale factors at varying
//! granularities").
//!
//! Forward (per element, group `g`, scale `s_g`):
//! `v_int = round(clamp(v / s_g, -Qn, Qp))`, `v̂ = v_int · s_g`.
//!
//! Backward (straight-through estimator):
//! `∂L/∂v = ∂L/∂v̂ · 1[-Qn ≤ v/s ≤ Qp]`, and the scale gradient of LSQ:
//! `∂v̂/∂s = v_int − v/s` in range, `−Qn`/`Qp` when clamped, multiplied by
//! the gradient scale `g = 1/sqrt(N_g · Qp)`.

use crate::{round_clamped, GroupLayout, QuantFormat};
use cq_tensor::Tensor;

/// Smallest representable scale; keeps SGD from driving scales to zero or
/// negative values.
pub const SCALE_EPS: f32 = 1e-8;

/// An LSQ quantizer with one learnable scale factor per group.
///
/// The quantizer owns its scales and their gradient accumulators; layers
/// expose them to the optimizer as parameters.
#[derive(Debug, Clone)]
pub struct LsqQuantizer {
    format: QuantFormat,
    scales: Vec<f32>,
    scale_grads: Vec<f32>,
    initialized: bool,
}

impl LsqQuantizer {
    /// Creates an uninitialized quantizer with `num_groups` scales.
    ///
    /// Scales start at 1.0 but [`LsqQuantizer::is_initialized`] is `false`
    /// until [`LsqQuantizer::init_from`] (or
    /// [`LsqQuantizer::set_scales`]) is called; quantizing before
    /// initialization panics, which catches ordering bugs in two-stage QAT.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0`.
    pub fn new(format: QuantFormat, num_groups: usize) -> Self {
        assert!(num_groups > 0, "quantizer needs at least one group");
        Self {
            format,
            scales: vec![1.0; num_groups],
            scale_grads: vec![0.0; num_groups],
            initialized: false,
        }
    }

    /// Creates and immediately initializes a quantizer from data statistics.
    pub fn with_init_from(format: QuantFormat, v: &Tensor, layout: &GroupLayout) -> Self {
        let mut q = Self::new(format, layout.num_groups());
        q.init_from(v, layout);
        q
    }

    /// The quantization format.
    pub fn format(&self) -> QuantFormat {
        self.format
    }

    /// Number of scale-factor groups.
    pub fn num_groups(&self) -> usize {
        self.scales.len()
    }

    /// Whether scales have been initialized.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The per-group scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Mutable access to scales (for the optimizer).
    pub fn scales_mut(&mut self) -> &mut [f32] {
        &mut self.scales
    }

    /// Accumulated scale gradients.
    pub fn scale_grads(&self) -> &[f32] {
        &self.scale_grads
    }

    /// Simultaneous mutable access to scales and their gradients (for
    /// exposing both as one optimizer parameter).
    pub fn scales_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.scales, &mut self.scale_grads)
    }

    /// Overwrites scales directly (PTQ calibration) and marks the quantizer
    /// initialized.
    ///
    /// # Panics
    ///
    /// Panics if the length mismatches.
    pub fn set_scales(&mut self, scales: &[f32]) {
        assert_eq!(scales.len(), self.scales.len(), "scale count mismatch");
        self.scales.copy_from_slice(scales);
        self.clamp_scales();
        self.initialized = true;
    }

    /// LSQ scale initialization `s₀ = 2·mean(|v|)/sqrt(Qp)` per group.
    /// For the binary format the MSE-optimal `s₀ = mean(|v|)` is used
    /// instead (the sign quantizer's ideal magnitude).
    ///
    /// Groups that receive no data (or all zeros) fall back to a small
    /// positive scale.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is incompatible with the layout.
    pub fn init_from(&mut self, v: &Tensor, layout: &GroupLayout) {
        assert_eq!(
            layout.num_groups(),
            self.scales.len(),
            "layout group count mismatch"
        );
        layout.validate(v);
        let mut sums = vec![0.0f64; self.scales.len()];
        let mut counts = vec![0usize; self.scales.len()];
        for (i, &x) in v.data().iter().enumerate() {
            let g = layout.group_of(i);
            sums[g] += x.abs() as f64;
            counts[g] += 1;
        }
        let factor = if self.format.is_binary() {
            1.0
        } else {
            2.0 / (self.format.qp() as f64).sqrt()
        };
        for g in 0..self.scales.len() {
            let mean = if counts[g] > 0 {
                sums[g] / counts[g] as f64
            } else {
                0.0
            };
            let s = (factor * mean) as f32;
            self.scales[g] = s.max(SCALE_EPS.max(1e-4));
        }
        self.initialized = true;
    }

    /// Quantizes to the integer grid: `round(clamp(v/s, -Qn, Qp))`.
    ///
    /// Returns a tensor of integer-valued `f32`s (exact for all supported
    /// widths). For the binary format the result is `±1`.
    ///
    /// # Panics
    ///
    /// Panics if the quantizer is uninitialized or the layout mismatches.
    pub fn forward_int(&self, v: &Tensor, layout: &GroupLayout) -> Tensor {
        let mut out = v.clone();
        self.quantize_in_place(&mut out, layout);
        out
    }

    /// Like [`LsqQuantizer::forward_int`] but writing into a reused buffer
    /// (reallocated only on shape change) — the allocation-free variant
    /// for serving loops. Bit-identical to [`LsqQuantizer::forward_int`].
    ///
    /// # Panics
    ///
    /// Panics if the quantizer is uninitialized or the layout mismatches.
    pub fn forward_int_into(&self, v: &Tensor, layout: &GroupLayout, out: &mut Tensor) {
        if out.shape() == v.shape() {
            out.data_mut().copy_from_slice(v.data());
        } else {
            *out = v.clone();
        }
        self.quantize_in_place(out, layout);
    }

    /// The single quantization body both forward variants share.
    fn quantize_in_place(&self, out: &mut Tensor, layout: &GroupLayout) {
        assert!(self.initialized, "LSQ quantizer used before initialization");
        assert_eq!(
            layout.num_groups(),
            self.scales.len(),
            "layout group count mismatch"
        );
        layout.validate(out);
        let (qn, qp) = (self.format.qn(), self.format.qp());
        let binary = self.format.is_binary();
        match layout {
            GroupLayout::Single => {
                let s = self.scales[0];
                for x in out.data_mut() {
                    *x = quantize_one(*x, s, qn, qp, binary);
                }
            }
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                ..
            } => {
                let data = out.data_mut();
                let block = inner * channels;
                for blockslice in data.chunks_mut(block) {
                    for (ch, chunk) in blockslice.chunks_mut(*inner).enumerate() {
                        let s = self.scales[map[ch] as usize];
                        for x in chunk {
                            *x = quantize_one(*x, s, qn, qp, binary);
                        }
                    }
                }
            }
        }
    }

    /// Multiplies integer values by their group scale: `v̂ = v_int · s_g`.
    ///
    /// # Panics
    ///
    /// Panics if the layout mismatches.
    pub fn dequantize(&self, v_int: &Tensor, layout: &GroupLayout) -> Tensor {
        assert_eq!(
            layout.num_groups(),
            self.scales.len(),
            "layout group count mismatch"
        );
        layout.validate(v_int);
        let mut out = v_int.clone();
        match layout {
            GroupLayout::Single => out.scale_in_place(self.scales[0]),
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                ..
            } => {
                let block = inner * channels;
                for blockslice in out.data_mut().chunks_mut(block) {
                    for (ch, chunk) in blockslice.chunks_mut(*inner).enumerate() {
                        let s = self.scales[map[ch] as usize];
                        for x in chunk {
                            *x *= s;
                        }
                    }
                }
            }
        }
        out
    }

    /// Divides each element by its group scale: `v / s_g`. The inverse of
    /// [`LsqQuantizer::dequantize`]; used to convert integer-domain
    /// gradients into fake-quant-domain gradients.
    ///
    /// # Panics
    ///
    /// Panics if the layout mismatches.
    pub fn divide_by_scales(&self, v: &Tensor, layout: &GroupLayout) -> Tensor {
        assert_eq!(
            layout.num_groups(),
            self.scales.len(),
            "layout group count mismatch"
        );
        layout.validate(v);
        let mut out = v.clone();
        match layout {
            // True division, not multiplication by the reciprocal: the
            // Channelwise arm divides, and the two layouts must agree
            // bit-exactly when they describe the same grouping (the repo's
            // exact-f32-agreement invariant across granularities).
            GroupLayout::Single => {
                let s = self.scales[0];
                for x in out.data_mut() {
                    *x /= s;
                }
            }
            GroupLayout::Channelwise {
                inner,
                channels,
                map,
                ..
            } => {
                let block = inner * channels;
                for blockslice in out.data_mut().chunks_mut(block) {
                    for (ch, chunk) in blockslice.chunks_mut(*inner).enumerate() {
                        let s = self.scales[map[ch] as usize];
                        for x in chunk {
                            *x /= s;
                        }
                    }
                }
            }
        }
        out
    }

    /// Fake quantization `v̂ = dequantize(forward_int(v))` in one call.
    ///
    /// # Panics
    ///
    /// Panics if the quantizer is uninitialized or the layout mismatches.
    pub fn fake_quant(&self, v: &Tensor, layout: &GroupLayout) -> Tensor {
        let vi = self.forward_int(v, layout);
        self.dequantize(&vi, layout)
    }

    /// STE backward pass. `grad_vhat` is `∂L/∂v̂`; returns `∂L/∂v` and
    /// accumulates `∂L/∂s` into the scale gradient buffer.
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch or the quantizer is uninitialized.
    pub fn backward(&mut self, v: &Tensor, grad_vhat: &Tensor, layout: &GroupLayout) -> Tensor {
        assert!(self.initialized, "LSQ backward before initialization");
        assert_eq!(v.shape(), grad_vhat.shape(), "grad shape mismatch");
        layout.validate(v);
        let (qn, qp) = (self.format.qn(), self.format.qp());
        let binary = self.format.is_binary();
        let counts = layout.counts(v.numel());
        let gscales: Vec<f32> = counts
            .iter()
            .map(|&c| {
                if c == 0 {
                    0.0
                } else {
                    1.0 / ((c as f32) * qp).sqrt()
                }
            })
            .collect();
        let mut dv = Tensor::zeros(v.shape());
        {
            let vd = v.data();
            let gd = grad_vhat.data();
            let out = dv.data_mut();
            for i in 0..vd.len() {
                let g = layout.group_of(i);
                let s = self.scales[g];
                let vs = vd[i] / s;
                let (pass, term) = lsq_terms(vs, qn, qp, binary);
                if pass {
                    out[i] = gd[i];
                }
                self.scale_grads[g] += gd[i] * term * gscales[g];
            }
        }
        dv
    }

    /// Marks the quantizer uninitialized so the next
    /// [`LsqQuantizer::init_from`] (or lazy initialization by its owner)
    /// re-fits scales from fresh statistics. Used by PTQ calibration.
    pub fn reset(&mut self) {
        self.initialized = false;
    }

    /// Marks the quantizer initialized *without* touching the scales —
    /// used after restoring trained scales from a checkpoint.
    pub fn assume_initialized(&mut self) {
        self.initialized = true;
    }

    /// Zeroes the scale-gradient accumulators.
    pub fn zero_scale_grads(&mut self) {
        self.scale_grads.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Clamps all scales to at least [`SCALE_EPS`] (call after optimizer
    /// steps).
    pub fn clamp_scales(&mut self) {
        for s in &mut self.scales {
            if !s.is_finite() || *s < SCALE_EPS {
                *s = SCALE_EPS;
            }
        }
    }
}

#[inline]
fn quantize_one(v: f32, s: f32, qn: f32, qp: f32, binary: bool) -> f32 {
    let vs = v / s;
    if binary {
        if vs >= 0.0 {
            1.0
        } else {
            -1.0
        }
    } else {
        round_clamped(vs.clamp(-qn, qp))
    }
}

/// Returns `(in_range, scale_grad_term)` for one normalized value.
#[inline]
fn lsq_terms(vs: f32, qn: f32, qp: f32, binary: bool) -> (bool, f32) {
    if binary {
        if vs < -1.0 {
            (false, -1.0)
        } else if vs > 1.0 {
            (false, 1.0)
        } else {
            let q = if vs >= 0.0 { 1.0 } else { -1.0 };
            (true, q - vs)
        }
    } else if vs <= -qn {
        (false, -qn)
    } else if vs >= qp {
        (false, qp)
    } else {
        (true, vs.round() - vs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_layout2() -> GroupLayout {
        // 2 channels of 3 elements each, one group per channel.
        GroupLayout::channelwise(3, vec![0, 1])
    }

    #[test]
    fn forward_rounds_and_clamps() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(3), 1);
        q.set_scales(&[0.5]);
        let v = Tensor::from_vec(vec![0.0, 0.24, 0.26, -0.3, 10.0, -10.0], &[6]);
        let vi = q.forward_int(&v, &GroupLayout::single());
        // v/s = 0, .48, .52, -.6, 20, -20 -> 0, 0, 1, -1, 3 (clamp), -4 (clamp)
        assert_eq!(vi.data(), &[0.0, 0.0, 1.0, -1.0, 3.0, -4.0]);
        let vh = q.dequantize(&vi, &GroupLayout::single());
        assert_eq!(vh.data(), &[0.0, 0.0, 0.5, -0.5, 1.5, -2.0]);
    }

    #[test]
    fn per_group_scales_apply_independently() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(4), 2);
        q.set_scales(&[1.0, 0.1]);
        let v = Tensor::from_vec(vec![1.2, 2.6, -0.4, 0.12, 0.26, -0.04], &[2, 3]);
        let layout = simple_layout2();
        let vi = q.forward_int(&v, &layout);
        assert_eq!(vi.data(), &[1.0, 3.0, 0.0, 1.0, 3.0, 0.0]);
        let vh = q.dequantize(&vi, &layout);
        assert!(vh.allclose(
            &Tensor::from_vec(vec![1.0, 3.0, 0.0, 0.1, 0.3, 0.0], &[2, 3]),
            1e-6
        ));
    }

    #[test]
    fn unsigned_format_clamps_negatives_to_zero() {
        let mut q = LsqQuantizer::new(QuantFormat::unsigned(3), 1);
        q.set_scales(&[1.0]);
        let v = Tensor::from_vec(vec![-2.0, 0.4, 6.6, 9.0], &[4]);
        let vi = q.forward_int(&v, &GroupLayout::single());
        assert_eq!(vi.data(), &[0.0, 0.0, 7.0, 7.0]);
    }

    #[test]
    fn binary_format_is_sign() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(1), 1);
        q.set_scales(&[2.0]);
        let v = Tensor::from_vec(vec![-5.0, -0.1, 0.0, 0.1, 5.0], &[5]);
        let vi = q.forward_int(&v, &GroupLayout::single());
        assert_eq!(vi.data(), &[-1.0, -1.0, 1.0, 1.0, 1.0]);
        let vh = q.dequantize(&vi, &GroupLayout::single());
        assert_eq!(vh.data(), &[-2.0, -2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn init_from_uses_lsq_formula() {
        let v = Tensor::from_vec(vec![1.0, -1.0, 1.0, -1.0], &[4]);
        let q = LsqQuantizer::with_init_from(QuantFormat::signed(3), &v, &GroupLayout::single());
        // 2 * mean|v| / sqrt(Qp) = 2 / sqrt(3)
        assert!((q.scales()[0] - 2.0 / 3.0f32.sqrt()).abs() < 1e-6);
        assert!(q.is_initialized());
    }

    #[test]
    #[should_panic(expected = "before initialization")]
    fn forward_before_init_panics() {
        let q = LsqQuantizer::new(QuantFormat::signed(3), 1);
        let _ = q.forward_int(&Tensor::zeros(&[2]), &GroupLayout::single());
    }

    /// The heart of LSQ: the STE gradients must match the published
    /// formulas exactly. (Finite differences cannot be used here — the
    /// fake-quantized function is piecewise constant in `v`, which is
    /// precisely why LSQ defines a straight-through estimator.)
    #[test]
    fn gradients_match_lsq_formulas() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(3), 2);
        q.set_scales(&[0.7, 0.3]);
        let layout = simple_layout2();
        // Covers in-range and both clamped regions in both groups.
        let v = Tensor::from_vec(vec![0.5, -1.4, 100.0, 0.2, -0.8, -100.0], &[2, 3]);
        let coef = Tensor::from_vec(vec![0.3, -0.2, 0.5, 0.7, 0.1, -0.4], &[2, 3]);
        let dv = q.backward(&v, &coef, &layout);

        let (qn, qp) = (q.format().qn(), q.format().qp());
        let counts = layout.counts(6);
        let mut want_ds = [0.0f32; 2];
        for i in 0..6 {
            let g = layout.group_of(i);
            let s = q.scales()[g];
            let vs = v.data()[i] / s;
            let (mask, term) = if vs <= -qn {
                (0.0, -qn)
            } else if vs >= qp {
                (0.0, qp)
            } else {
                (1.0, vs.round() - vs)
            };
            assert_eq!(dv.data()[i], coef.data()[i] * mask, "dv[{i}]");
            let gscale = 1.0 / ((counts[g] as f32) * qp).sqrt();
            want_ds[g] += coef.data()[i] * term * gscale;
        }
        for (g, want) in want_ds.iter().enumerate() {
            assert!(
                (q.scale_grads()[g] - want).abs() < 1e-6,
                "ds[{g}]: got {} want {}",
                q.scale_grads()[g],
                want
            );
        }
    }

    /// Minimizing quantization MSE by gradient descent on the scale must
    /// reduce the error — an end-to-end sanity check that the scale
    /// gradient points the right way.
    #[test]
    fn scale_gradient_descends_quantization_error() {
        let mut rngish = 1u64;
        let vals: Vec<f32> = (0..256)
            .map(|_| {
                rngish = rngish.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((rngish >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
            })
            .collect();
        let v = Tensor::from_vec(vals, &[256]);
        let mut q = LsqQuantizer::new(QuantFormat::signed(4), 1);
        // Deliberately bad initial scale.
        q.set_scales(&[3.0]);
        let mse = |qq: &LsqQuantizer| {
            let vh = qq.fake_quant(&v, &GroupLayout::single());
            vh.sub(&v).sq_sum() / 256.0
        };
        let initial = mse(&q);
        for _ in 0..200 {
            let vh = q.fake_quant(&v, &GroupLayout::single());
            // dL/dv̂ for L = mean((v̂ - v)²)
            let gvh = vh.sub(&v).scale(2.0 / 256.0);
            q.zero_scale_grads();
            let _ = q.backward(&v, &gvh, &GroupLayout::single());
            let g = q.scale_grads()[0];
            q.scales_mut()[0] -= 0.5 * g;
            q.clamp_scales();
        }
        let fin = mse(&q);
        assert!(
            fin < initial * 0.5,
            "scale learning failed: {initial} -> {fin} (scale {})",
            q.scales()[0]
        );
    }

    /// The buffer-reusing forward must match the allocating one exactly,
    /// including on a dirty reused buffer and across shape changes.
    #[test]
    fn forward_int_into_matches_allocating_path() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(3), 1);
        q.set_scales(&[0.5]);
        let a = Tensor::from_vec(vec![0.0, 0.24, 0.26, -0.3, 10.0, -10.0], &[6]);
        let b = Tensor::from_vec(vec![1.0, -1.0, 0.1, 0.9], &[4]);
        let mut out = Tensor::zeros(&[2]); // wrong shape on purpose
        q.forward_int_into(&a, &GroupLayout::single(), &mut out);
        assert_eq!(out, q.forward_int(&a, &GroupLayout::single()));
        q.forward_int_into(&b, &GroupLayout::single(), &mut out); // shrink
        assert_eq!(out, q.forward_int(&b, &GroupLayout::single()));
        q.forward_int_into(&b, &GroupLayout::single(), &mut out); // reuse
        assert_eq!(out, q.forward_int(&b, &GroupLayout::single()));
    }

    /// A one-group channelwise layout and the `Single` layout describe the
    /// same grouping, so every scale-resolving op must agree **bit-exactly**
    /// between the two arms. This is a regression test for
    /// `divide_by_scales` multiplying by the reciprocal in the `Single` arm
    /// (double rounding) while truly dividing in the `Channelwise` arm.
    #[test]
    fn single_and_one_group_channelwise_agree_bitwise() {
        let n = 257usize;
        let mut state = 0x9E3779B97F4A7C15u64;
        let vals: Vec<f32> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 8.0 - 4.0
            })
            .collect();
        let v = Tensor::from_vec(vals, &[n]);
        let cw = GroupLayout::channelwise(n, vec![0]); // 1 channel == 1 group
        for &scale in &[3.0f32, 0.37, 7e-3, 49.0] {
            let mut q = LsqQuantizer::new(QuantFormat::signed(4), 1);
            q.set_scales(&[scale]);
            let div_single = q.divide_by_scales(&v, &GroupLayout::single());
            let div_cw = q.divide_by_scales(&v, &cw);
            assert_eq!(div_single, div_cw, "divide_by_scales at scale {scale}");
            let deq_single = q.dequantize(&v, &GroupLayout::single());
            let deq_cw = q.dequantize(&v, &cw);
            assert_eq!(deq_single, deq_cw, "dequantize at scale {scale}");
            let int_single = q.forward_int(&v, &GroupLayout::single());
            let int_cw = q.forward_int(&v, &cw);
            assert_eq!(int_single, int_cw, "forward_int at scale {scale}");
        }
    }

    #[test]
    fn backward_masks_out_of_range() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(3), 1);
        q.set_scales(&[1.0]);
        let v = Tensor::from_vec(vec![0.2, 5.0, -7.0], &[3]);
        let g = Tensor::ones(&[3]);
        let dv = q.backward(&v, &g, &GroupLayout::single());
        assert_eq!(dv.data(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn clamp_scales_repairs_bad_values() {
        let mut q = LsqQuantizer::new(QuantFormat::signed(3), 3);
        q.set_scales(&[1.0, 1.0, 1.0]);
        q.scales_mut()[0] = -0.5;
        q.scales_mut()[1] = f32::NAN;
        q.clamp_scales();
        assert_eq!(q.scales()[0], SCALE_EPS);
        assert_eq!(q.scales()[1], SCALE_EPS);
        assert_eq!(q.scales()[2], 1.0);
    }
}
