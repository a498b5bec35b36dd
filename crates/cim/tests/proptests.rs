//! Property-based tests for the CIM hardware model: tiling invariants,
//! crossbar MAC correctness, and overhead-model monotonicity.
//!
//! Cases are generated by the workspace's own deterministic [`CqRng`]
//! (the external `proptest` crate is not vendored); every assertion
//! carries its case seed for replay.

use cq_cim::{dequant_mults, CimConfig, Crossbar, TilingPlan};
use cq_quant::Granularity;
use cq_tensor::CqRng;

const CASES: u64 = 64;

/// Kernel-intact tiling: every input channel lands in exactly one row
/// tile, whole kernels never straddle tiles, and padding never exceeds
/// one tile's worth of channels.
#[test]
fn tiling_partitions_channels() {
    for case in 0..CASES {
        let mut rng = CqRng::new(0x711E + case);
        let in_ch = 1 + rng.below(199);
        let out_ch = 1 + rng.below(95);
        let k = 1 + rng.below(5);
        let rows_pow = 5 + rng.below(4);
        let mut cfg = CimConfig::cifar10();
        cfg.array_rows = 1 << rows_pow;
        cfg.array_cols = 1 << rows_pow;
        if k * k > cfg.array_rows {
            continue;
        }
        let p = TilingPlan::new(&cfg, in_ch, out_ch, k, k);
        let mut seen = vec![0usize; in_ch];
        for g in 0..p.num_row_tiles {
            for c in p.channels_of_row_tile(g) {
                seen[c] += 1;
                assert_eq!(p.row_tile_of_channel(c), g, "case {case}");
            }
        }
        assert!(
            seen.iter().all(|&s| s == 1),
            "case {case}: channels covered exactly once"
        );
        assert!(
            p.padded_in_ch >= in_ch && p.padded_in_ch - in_ch < p.ch_per_array,
            "case {case}: padding bound"
        );
        assert!(p.rows_used <= cfg.array_rows, "case {case}");
        // Output channels partition across column tiles.
        let mut oc_seen = vec![0usize; out_ch];
        for t in 0..p.num_col_tiles {
            for oc in p.outputs_of_col_tile(t) {
                oc_seen[oc] += 1;
                assert_eq!(p.col_tile_of_output(oc), t, "case {case}");
            }
        }
        assert!(oc_seen.iter().all(|&s| s == 1), "case {case}");
    }
}

/// Crossbar MAC equals the dense matrix-vector product.
#[test]
fn crossbar_mac_is_gemv() {
    for case in 0..CASES {
        let mut rng = CqRng::new(0x6E3A + case);
        let rows = 1 + rng.below(23);
        let cols = 1 + rng.below(15);
        let mut xb = Crossbar::new(rows, cols);
        let mut cells = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                let v = rng.below(9) as f32 - 4.0;
                cells[r * cols + c] = v;
                xb.program(r, c, v);
            }
        }
        let input: Vec<f32> = (0..rows).map(|_| rng.below(9) as f32).collect();
        let got = xb.mac(&input);
        for c in 0..cols {
            let want: f32 = (0..rows).map(|r| input[r] * cells[r * cols + c]).sum();
            assert_eq!(got[c], want, "case {case}: col {c}");
        }
    }
}

/// Overhead is monotone in both granularities and column weights never
/// exceed the column-psum cost.
#[test]
fn overhead_monotone() {
    for case in 0..CASES {
        let mut rng = CqRng::new(0x0E4 + case);
        let in_ch = 1 + rng.below(127);
        let out_ch = 1 + rng.below(63);
        let cfg = CimConfig::cifar100();
        let p = TilingPlan::new(&cfg, in_ch, out_ch, 3, 3);
        use Granularity::*;
        for w in Granularity::ALL {
            assert!(
                dequant_mults(&p, w, Layer) <= dequant_mults(&p, w, Array),
                "case {case}"
            );
            assert!(
                dequant_mults(&p, w, Array) <= dequant_mults(&p, w, Column),
                "case {case}"
            );
        }
        for pg in Granularity::ALL {
            assert!(
                dequant_mults(&p, Layer, pg) <= dequant_mults(&p, Column, pg),
                "case {case}"
            );
        }
        // The headline claim: C/C costs the same as L/C.
        assert_eq!(
            dequant_mults(&p, Column, Column),
            dequant_mults(&p, Layer, Column),
            "case {case}"
        );
    }
}

/// Weight group maps are consistent with the tiling: elements of one
/// logical column (same row tile, same oc) always share a group.
#[test]
fn weight_layout_consistent() {
    for case in 0..CASES {
        let mut rng = CqRng::new(0x1A1 + case);
        let in_ch = 1 + rng.below(63);
        let out_ch = 1 + rng.below(31);
        let cfg = CimConfig::cifar10();
        let p = TilingPlan::new(&cfg, in_ch, out_ch, 3, 3);
        let l = p.weight_layout(Granularity::Column);
        for oc in 0..out_ch {
            for cin in 0..in_ch {
                let ch = oc * in_ch + cin;
                let g = p.row_tile_of_channel(cin);
                assert_eq!(
                    l.group_of_channel(ch),
                    g * out_ch + oc,
                    "case {case}: oc={oc} cin={cin}"
                );
            }
        }
        assert_eq!(
            l.num_groups(),
            p.weight_group_count(Granularity::Column),
            "case {case}"
        );
    }
}
