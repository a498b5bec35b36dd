//! Behavioural ADC: digitizes an analog partial sum against a reference
//! derived from the column's scale factor (paper Sec. II-A: "the reference
//! voltage for each ADC, Vref, is set by the scale factor corresponding to
//! its input partial-sums").

use cq_quant::{round_clamped, QuantFormat};

/// An ADC with a fixed resolution/format.
///
/// Conversion is `round(clamp(analog / scale, -Qn, Qp))` — identical to the
/// LSQ integer grid, so the hardware path and the training-time emulation
/// quantize partial sums bit-identically. A 1-bit (binary) format converts
/// to the sign, the near-ADC-less regime of the paper's references \[8\]/\[9\].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adc {
    format: QuantFormat,
}

impl Adc {
    /// Creates an ADC with the given output format.
    pub fn new(format: QuantFormat) -> Self {
        Self { format }
    }

    /// The output format.
    pub fn format(&self) -> QuantFormat {
        self.format
    }

    /// Digitizes one analog value against a scale (Vref) and returns the
    /// integer code as `f32`.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn convert(&self, analog: f32, scale: f32) -> f32 {
        assert_positive(scale);
        let vs = analog / scale;
        if self.format.is_binary() {
            sign_code(vs)
        } else {
            round_clamped(vs.clamp(-self.format.qn(), self.format.qp()))
        }
    }

    /// Digitizes one physical column's psums against its scale and
    /// accumulates the dequantized, merged-scale value into `out`:
    /// `out[i] += ((convert(psums[i], scale) · scale) · sw) · shift`,
    /// multiplied left to right.
    ///
    /// The column-at-once form of [`Adc::convert`]: the scale check and
    /// the format branch run once per column, so the per-value loop is
    /// straight-line arithmetic the autovectorizer turns into SIMD. The
    /// operation order is the per-value one, so results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn convert_axpy(&self, psums: &[f32], scale: f32, sw: f32, shift: f32, out: &mut [f32]) {
        assert_positive(scale);
        // One monomorphized loop per format, the code function inlined.
        if self.format.is_binary() {
            axpy_codes(psums, scale, sw, shift, out, sign_code);
        } else {
            let (lo, hi) = (-self.format.qn(), self.format.qp());
            axpy_codes(psums, scale, sw, shift, out, |vs| {
                round_clamped(vs.clamp(lo, hi))
            });
        }
    }
}

/// `out[i] += ((code(psums[i] / scale) · scale) · sw) · shift`.
#[inline(always)]
fn axpy_codes(
    psums: &[f32],
    scale: f32,
    sw: f32,
    shift: f32,
    out: &mut [f32],
    code: impl Fn(f32) -> f32,
) {
    for (yv, &pv) in out.iter_mut().zip(psums) {
        *yv += ((code(pv / scale) * scale) * sw) * shift;
    }
}

fn assert_positive(scale: f32) {
    assert!(scale > 0.0, "ADC scale must be positive, got {scale}");
}

/// The binary (1-bit) converter: a sign detector, `0` reading as `+1`.
#[inline]
fn sign_code(vs: f32) -> f32 {
    if vs >= 0.0 {
        1.0
    } else {
        -1.0
    }
}

/// First-order energy model for SAR-style ADCs. The constant is an
/// ISAAC-flavoured ballpark; the model feeds the cost *reports* only,
/// never an accuracy result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcCostModel {
    /// Energy per conversion of a 1-bit ADC, femtojoules. Energy scales as
    /// `2^bits`.
    pub energy_fj_1b: f64,
}

impl Default for AdcCostModel {
    fn default() -> Self {
        Self { energy_fj_1b: 2.0 }
    }
}

impl AdcCostModel {
    /// Energy of one conversion at the given resolution, femtojoules.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` — `QuantFormat` caps every
    /// partial-sum format at 16 bits, so an out-of-range resolution is a
    /// caller bug; silently clamping would under-report the cost.
    pub fn energy_fj(&self, bits: u32) -> f64 {
        assert!(
            (1..=16).contains(&bits),
            "ADC resolution {bits}b outside the supported 1..=16 range"
        );
        self.energy_fj_1b * f64::from(1u32 << bits) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convert_rounds_and_clamps() {
        let adc = Adc::new(QuantFormat::signed(3));
        assert_eq!(adc.convert(0.9, 1.0), 1.0);
        assert_eq!(adc.convert(0.4, 1.0), 0.0);
        assert_eq!(adc.convert(100.0, 1.0), 3.0);
        assert_eq!(adc.convert(-100.0, 1.0), -4.0);
        // Scale acts as Vref: halving the scale doubles the code.
        assert_eq!(adc.convert(1.0, 0.5), 2.0);
    }

    #[test]
    fn binary_adc_is_sign_detector() {
        let adc = Adc::new(QuantFormat::signed(1));
        assert_eq!(adc.convert(0.01, 1.0), 1.0);
        assert_eq!(adc.convert(-0.01, 1.0), -1.0);
        assert_eq!(adc.convert(0.0, 1.0), 1.0);
    }

    #[test]
    fn matches_lsq_integer_grid() {
        use cq_quant::{GroupLayout, LsqQuantizer};
        use cq_tensor::Tensor;
        let fmt = QuantFormat::signed(4);
        let adc = Adc::new(fmt);
        let mut q = LsqQuantizer::new(fmt, 1);
        q.set_scales(&[0.37]);
        let vals: Vec<f32> = (-40..40).map(|i| i as f32 * 0.31).collect();
        let t = Tensor::from_vec(vals.clone(), &[vals.len()]);
        let viq = q.forward_int(&t, &GroupLayout::single());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(
                adc.convert(v, 0.37),
                viq.data()[i],
                "ADC and LSQ disagree at {v}"
            );
        }
    }

    #[test]
    fn energy_doubles_per_bit() {
        let m = AdcCostModel::default();
        assert_eq!(m.energy_fj(1), 2.0);
        assert_eq!(m.energy_fj(2), 4.0);
        assert_eq!(m.energy_fj(8), 256.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nonpositive_scale_panics() {
        Adc::new(QuantFormat::signed(3)).convert(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the supported")]
    fn oversized_resolution_cost_panics() {
        let _ = AdcCostModel::default().energy_fj(17);
    }

    #[test]
    #[should_panic(expected = "outside the supported")]
    fn zero_resolution_cost_panics() {
        let _ = AdcCostModel::default().energy_fj(0);
    }
}
