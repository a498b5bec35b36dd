//! Program a trained, quantized convolution onto explicit crossbar arrays
//! and run it column by column: ADCs referenced to the learned scale
//! factors, shift-and-add over bit-splits, merged `s_w·s_p` dequantization.
//! Demonstrates (1) bit-exactness against the fast training-time emulation
//! and (2) the effect of per-cell device variation.
//!
//! Run with `cargo run --release --example crossbar_inference`.

use column_quant::tensor::CqRng;
use column_quant::{CimConfig, CimConv2d, CrossbarLayer, Granularity, Layer, Mode};

fn main() {
    let cfg = CimConfig::tiny(); // 32×32 arrays, 3b weights on 1b cells
    let mut rng = CqRng::new(42);

    // A quantized conv layer: 7 input channels -> 3 row tiles of 3
    // channels each (kernel-intact tiling), 5 output channels.
    let mut layer = CimConv2d::new(
        7,
        5,
        3,
        1,
        1,
        cfg,
        Granularity::Column,
        Granularity::Column,
        false,
        &mut rng,
    );
    let x = rng.normal_tensor(&[1, 7, 8, 8], 1.0).map(|v| v.max(0.0));

    // Fast emulation path (what QAT trains through).
    let fast = layer.forward(&x, Mode::Eval);

    // Export to the hardware-shaped engine and program the arrays.
    let desc = layer.to_quantized_conv();
    let plan = desc.plan.clone();
    let engine = CrossbarLayer::new(desc);
    println!(
        "programmed {} arrays ({} row tiles × {} col tiles), {} cells, {} splits/weight",
        engine.arrays().len(),
        plan.num_row_tiles,
        plan.num_col_tiles,
        engine.programmed_cells(),
        plan.num_splits,
    );

    // Drive the engine with the same quantized activations.
    let a_int = layer.quantize_activations(&x);
    let slow = engine.forward(&a_int);
    assert_eq!(
        fast, slow,
        "crossbar engine must be bit-exact at zero variation"
    );
    println!("bit-exact: fast emulation == crossbar engine ✓");

    // The frozen serving path: weight slices repacked once at freeze and
    // run on the default backend chain (the integer kernels when the
    // slices are integer-exact, as they are without variation).
    layer.freeze();
    let frozen = layer.forward(&x, Mode::Eval);
    let backend = layer.active_backend().expect("frozen layer").name();
    assert_eq!(
        frozen, slow,
        "frozen {backend} kernels must match the crossbar engine"
    );
    println!("bit-exact: frozen {backend} kernels == crossbar engine ✓");

    // Now with per-cell log-normal variation (paper Eq. 5).
    for sigma in [0.05f32, 0.15, 0.25] {
        let mut noisy = CrossbarLayer::new(layer.to_quantized_conv());
        noisy.apply_variation(sigma, &mut CqRng::new(7));
        let y = noisy.forward(&a_int);
        println!(
            "σ = {sigma:.2}: max |Δoutput| = {:.4} (relative {:.1}%)",
            y.max_abs_diff(&fast),
            100.0 * y.max_abs_diff(&fast) / fast.max_abs()
        );
    }
}
