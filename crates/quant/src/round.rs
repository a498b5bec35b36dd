//! Branch-free exact rounding for values already clamped onto a small
//! integer grid.
//!
//! `f32::round` (ties away from zero) lowers to a libm call on the x86-64
//! baseline, which keeps every loop that contains it scalar. The grids this
//! workspace rounds onto are tiny — `QuantFormat` caps every format at 16
//! bits — so the classic magic-number trick applies: adding `1.5·2²³`
//! pushes the value into the binade where one ulp is exactly 1, so the
//! hardware's round-to-nearest-even does the rounding, and subtracting it
//! back is exact. A tie fix-up turns ties-to-even into ties-away, and
//! `copysign` restores the sign of a zero result (`-0.3` rounds to `-0.0`).
//! Every step is a plain arithmetic op or a select, so loops vectorize.

/// `1.5·2²³`: any `|v| < 2²²` added to it lands in `[2²³, 2²⁴)`, where the
/// f32 spacing is exactly 1.
const MAGIC: f32 = 12_582_912.0;

/// Exclusive bound of [`round_clamped`]'s exact domain, `2²²`.
const ROUND_CLAMPED_LIMIT: f32 = 4_194_304.0;

/// Rounds to the nearest integer, ties away from zero — bit-identical to
/// [`f32::round`] for every `|v| < 2²²` and for NaN, without a libm call.
///
/// Meant for values that were just clamped onto a quantization grid
/// (`|v| < 2¹⁶` for every [`QuantFormat`](crate::QuantFormat)); debug
/// builds assert the domain.
#[inline]
pub fn round_clamped(v: f32) -> f32 {
    debug_assert!(
        v.is_nan() || v.abs() < ROUND_CLAMPED_LIMIT,
        "round_clamped({v}) outside |v| < 2^22"
    );
    // Round half to even: exact for the whole domain.
    let r = (v + MAGIC) - MAGIC;
    // `v - r` is exact; a half means `v` was a tie, which `f32::round`
    // resolves away from zero (also exact: `v` is a half-integer here).
    let r = if (v - r).abs() == 0.5 {
        v + 0.5f32.copysign(v)
    } else {
        r
    };
    r.copysign(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_tensor::CqRng;

    fn check(v: f32) {
        assert_eq!(
            round_clamped(v).to_bits(),
            v.round().to_bits(),
            "round_clamped({v:e}) [{:#010x}] = {} vs f32::round = {}",
            v.to_bits(),
            round_clamped(v),
            v.round()
        );
    }

    /// Every tie `k + 0.5` with `|k| ≤ 2¹⁶`, its ±1-ulp neighbours, and
    /// the integer `k` itself, both signs.
    #[test]
    fn round_clamped_matches_round_on_ties_and_neighbours() {
        for k in 0..=(1u32 << 16) {
            let tie = (k as f32 + 0.5).to_bits();
            for bits in [tie - 1, tie, tie + 1, (k as f32).to_bits()] {
                check(f32::from_bits(bits));
                check(-f32::from_bits(bits));
            }
        }
    }

    #[test]
    fn round_clamped_matches_round_on_zeros_subnormals_and_nan() {
        for v in [
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0.5f32.to_bits() - 1),
            0.5,
            1.5,
            2.5,
            f32::from_bits(ROUND_CLAMPED_LIMIT.to_bits() - 1),
        ] {
            check(v);
            check(-v);
        }
        for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7fc0_0001)] {
            check(nan);
        }
    }

    #[test]
    fn round_clamped_matches_round_on_seeded_sample() {
        let mut rng = CqRng::new(0x0D0D_2026);
        let limit = ROUND_CLAMPED_LIMIT.to_bits() as usize;
        for _ in 0..10_000_000u32 {
            // Uniform over in-domain bit patterns, so every binade is hit.
            let v = f32::from_bits(rng.below(limit) as u32);
            check(if rng.coin() { -v } else { v });
        }
    }

    /// Every in-domain bit pattern (both signs), plus every NaN payload.
    /// Slow in debug builds; run with
    /// `cargo test --release -p cq-quant -- --ignored round_clamped`.
    #[test]
    #[ignore]
    fn round_clamped_exhaustive() {
        let limit = ROUND_CLAMPED_LIMIT.to_bits();
        for mag in (0..limit).chain(0x7f80_0001..=0x7fff_ffff) {
            for sign in [0, 0x8000_0000u32] {
                check(f32::from_bits(sign | mag));
            }
        }
    }
}
