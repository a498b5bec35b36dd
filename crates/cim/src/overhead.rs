//! Dequantization-overhead model (paper Sec. III-B, Fig. 4, Fig. 8).
//!
//! Counts the scale-factor multiplication points a layer needs after the
//! ADCs. The key result reproduced here: because shift-and-add is free and
//! the weight scale merges into the partial-sum scale per column,
//! **column-wise weights add no overhead beyond column-wise partial sums**
//! (Fig. 4(d)), and any scheme with layer-wise partial sums collapses to
//! the granularity forced by the weight scales.

use crate::TilingPlan;
use cq_quant::Granularity;

/// Number of dequantization multiplications per layer for a weight/psum
/// granularity pair (the x-axis of the paper's Fig. 8).
///
/// Derivation, matching every count stated in the paper:
///
/// * Partial sums at `Layer` need 1 multiplication point; at `Array`,
///   `n_array · n_oc` (per output channel per array, Fig. 4(b)); at
///   `Column`, `n_split · n_array · n_oc` (per physical column, Fig. 4(c)).
/// * Weight scales at `Array`/`Column` force at least per-(array, output
///   channel) multiplication (`n_array · n_oc`) because psums scaled by
///   different `s_w` cannot be accumulated first. Column-wise weight scales
///   are shared across a logical column's bit-splits, so they never force
///   the `n_split` factor — that is the paper's central overhead claim.
/// * The layer's overhead is the finer (larger) of the two requirements.
pub fn dequant_mults(plan: &TilingPlan, w_gran: Granularity, p_gran: Granularity) -> usize {
    let per_array_oc = plan.num_row_tiles * plan.out_ch;
    let w_level = match w_gran {
        Granularity::Layer => 1,
        Granularity::Array | Granularity::Column => per_array_oc,
    };
    let p_level = match p_gran {
        Granularity::Layer => 1,
        Granularity::Array => per_array_oc,
        Granularity::Column => plan.num_splits * per_array_oc,
    };
    w_level.max(p_level)
}

/// The three overhead classes of Fig. 8, coarse to fine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OverheadClass {
    /// One multiplication per layer (layer/layer only).
    PerLayer,
    /// `n_array · n_oc` multiplications.
    PerArrayChannel,
    /// `n_split · n_array · n_oc` multiplications.
    PerColumn,
}

/// Classifies a granularity pair into its Fig. 8 overhead bucket.
pub fn overhead_class(w_gran: Granularity, p_gran: Granularity) -> OverheadClass {
    match (w_gran, p_gran) {
        (Granularity::Layer, Granularity::Layer) => OverheadClass::PerLayer,
        (_, Granularity::Column) => OverheadClass::PerColumn,
        _ => OverheadClass::PerArrayChannel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CimConfig;
    use Granularity::{Array, Column, Layer};

    fn plan() -> TilingPlan {
        // 2 row tiles, 1 col tile, 3 splits, 8 output channels.
        TilingPlan::new(&CimConfig::cifar10(), 16, 8, 3, 3)
    }

    #[test]
    fn paper_stated_counts() {
        let p = plan();
        let na_noc = 2 * 8;
        // Fig. 4(a): layer/layer -> 1.
        assert_eq!(dequant_mults(&p, Layer, Layer), 1);
        // Fig. 4(b): layer weights, array psums -> n_array * n_oc.
        assert_eq!(dequant_mults(&p, Layer, Array), na_noc);
        // Fig. 4(c): layer weights, column psums -> n_split * n_array * n_oc.
        assert_eq!(dequant_mults(&p, Layer, Column), 3 * na_noc);
        // Fig. 4(d): column/column -> SAME as (c). The paper's key claim.
        assert_eq!(dequant_mults(&p, Column, Column), 3 * na_noc);
    }

    #[test]
    fn column_weights_never_add_overhead_over_column_psums() {
        let p = plan();
        for w in Granularity::ALL {
            assert_eq!(
                dequant_mults(&p, w, Column),
                dequant_mults(&p, Layer, Column),
                "weight granularity {w} changed column-psum overhead"
            );
        }
    }

    #[test]
    fn nine_combos_fall_into_three_classes() {
        use OverheadClass::*;
        let mut counts = std::collections::HashMap::new();
        for w in Granularity::ALL {
            for pg in Granularity::ALL {
                *counts.entry(overhead_class(w, pg)).or_insert(0usize) += 1;
            }
        }
        assert_eq!(counts[&PerLayer], 1); // L/L
        assert_eq!(counts[&PerArrayChannel], 5); // L/A, A/L, A/A, C/L, C/A
        assert_eq!(counts[&PerColumn], 3); // L/C, A/C, C/C
    }

    #[test]
    fn class_matches_mult_ordering() {
        let p = plan();
        for w in Granularity::ALL {
            for pg in Granularity::ALL {
                let class = overhead_class(w, pg);
                let m = dequant_mults(&p, w, pg);
                match class {
                    OverheadClass::PerLayer => assert_eq!(m, 1),
                    OverheadClass::PerArrayChannel => assert_eq!(m, 16),
                    OverheadClass::PerColumn => assert_eq!(m, 48),
                }
            }
        }
    }
}
