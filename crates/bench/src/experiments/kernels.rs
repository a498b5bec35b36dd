//! **Kernel micro-benchmark** — every execution backend on the
//! partial-sum front-end per shape: the scalar reference oracle
//! (`ScalarRef`), the blocked f32 kernels (`SimdF32`, via
//! [`PsumPipeline::grouped_psums_into`]), and the integer `i8`/`i32`
//! panel kernels (`IntPanels`, via
//! [`PsumPipeline::grouped_psums_int_into`]) — plus an end-to-end
//! frozen-engine comparison (forced f32 chain vs the auto chain's
//! integer selection) on the serving model.
//!
//! Every timed backend is first checked **bit-identical** against the
//! others — backend choice is a pure speed change, never a numerics
//! change — and results are written to `BENCH_kernels.json` (consumed by
//! CI as an artifact). The effective thread count (`CQ_THREADS` or
//! machine parallelism) is recorded in the JSON.

use crate::{markdown_table, ExperimentSetting, Scale};
use cq_cim::{CimConfig, IntPanels, PsumPipeline, ScalarRef, SimdF32, TilingPlan};
use cq_core::{build_cim_resnet, BackendSet, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode};
use cq_tensor::{max_threads, CqRng, Tensor};
use std::time::Instant;

/// One measured psum front-end shape.
#[derive(Debug, Clone)]
pub struct KernelPoint {
    /// Shape label.
    pub label: String,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels (logical columns per row tile).
    pub out_ch: usize,
    /// Square activation height/width.
    pub hw: usize,
    /// Batch size.
    pub batch: usize,
    /// Bit-split slice count of the config.
    pub splits: usize,
    /// Row tiles (grouped-conv groups) of the plan.
    pub row_tiles: usize,
    /// Best wall-clock of the scalar reference backend (ms).
    pub scalar_ms: f64,
    /// Best wall-clock of the f32 kernels (ms).
    pub f32_ms: f64,
    /// Best wall-clock of the integer kernels (ms).
    pub int_ms: f64,
    /// `f32_ms / int_ms`.
    pub speedup: f64,
}

/// Full result of the kernel micro-benchmark.
#[derive(Debug, Clone)]
pub struct KernelsResult {
    /// Experiment size.
    pub scale: Scale,
    /// Effective thread cap during the run.
    pub threads: usize,
    /// Per-shape front-end timings.
    pub shapes: Vec<KernelPoint>,
    /// Single-image requests in the end-to-end engine comparison.
    pub engine_requests: usize,
    /// Frozen engine throughput with kernels forced to f32 (images/sec).
    pub engine_f32_ips: f64,
    /// Frozen engine throughput under `Auto` integer selection.
    pub engine_int_ips: f64,
    /// `engine_int_ips / engine_f32_ips`.
    pub engine_speedup: f64,
    /// Frozen convs running the integer kernels under `Auto`.
    pub integer_convs: usize,
    /// Total frozen convs in the engine model.
    pub total_convs: usize,
}

impl KernelsResult {
    /// Renders the machine-readable report (hand-rolled JSON; the
    /// workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str("  \"shapes\": [\n");
        for (i, p) in self.shapes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"label\": \"{}\", \"in_ch\": {}, \"out_ch\": {}, \"hw\": {}, \
                 \"batch\": {}, \"splits\": {}, \"row_tiles\": {}, \
                 \"backends\": {{\"scalar_ms\": {:.3}, \"simd_f32_ms\": {:.3}, \
                 \"int_panels_ms\": {:.3}}}}}{}\n",
                p.label,
                p.in_ch,
                p.out_ch,
                p.hw,
                p.batch,
                p.splits,
                p.row_tiles,
                p.scalar_ms,
                p.f32_ms,
                p.int_ms,
                if i + 1 < self.shapes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"engine\": {\n");
        s.push_str(&format!("    \"requests\": {},\n", self.engine_requests));
        s.push_str(&format!(
            "    \"f32_images_per_sec\": {:.3},\n",
            self.engine_f32_ips
        ));
        s.push_str(&format!(
            "    \"int_images_per_sec\": {:.3},\n",
            self.engine_int_ips
        ));
        s.push_str(&format!(
            "    \"speedup_int_vs_f32\": {:.3},\n",
            self.engine_speedup
        ));
        s.push_str(&format!(
            "    \"integer_convs\": {},\n    \"total_convs\": {}\n",
            self.integer_convs, self.total_convs
        ));
        s.push_str("  }\n}\n");
        s
    }
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds.
fn measure_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best * 1e3
}

/// Times one psum front-end shape on both kernel families, asserting the
/// outputs bit-identical first.
fn bench_shape(
    cfg: &CimConfig,
    label: &str,
    in_ch: usize,
    out_ch: usize,
    hw: usize,
    batch: usize,
    reps: usize,
) -> KernelPoint {
    let plan = TilingPlan::new(cfg, in_ch, out_ch, 3, 3);
    let scales: Vec<f32> = (0..plan.num_row_tiles * out_ch)
        .map(|i| 0.02 + 0.001 * i as f32)
        .collect();
    let pl = PsumPipeline::new(plan, cfg.bit_split(), 1, 1, 0.05, scales, None);
    let p = pl.plan().clone();

    let mut rng = CqRng::new(4077);
    let w_int = rng
        .uniform_tensor(&[out_ch, in_ch, 3, 3], -4.0, 4.0)
        .map(|v| v.floor().clamp(-4.0, 3.0));
    let grouped = pl.split_grouped_weights(&w_int);
    let int_weights = pl
        .split_grouped_weights_int(&grouped, 127.0)
        .expect("unperturbed slices are integer-eligible");
    // Channel-padded integer activations (the padding lanes carry values
    // here; both kernels see the same tensor, so equality still pins).
    let a_pad = rng
        .uniform_tensor(&[batch, p.padded_in_ch, hw, hw], 0.0, 8.0)
        .map(f32::floor);

    let mut ps_s: Vec<Tensor> = Vec::new();
    let mut ps_f: Vec<Tensor> = Vec::new();
    let mut col: Vec<f32> = Vec::new();
    let mut ps_i: Vec<Tensor> = Vec::new();
    // Warm every backend once and pin bit-identity before timing.
    pl.grouped_psums_into(&ScalarRef, &a_pad, &grouped, &mut ps_s, &mut col);
    pl.grouped_psums_into(&SimdF32, &a_pad, &grouped, &mut ps_f, &mut col);
    pl.grouped_psums_int_into(
        &IntPanels,
        &a_pad,
        &int_weights,
        0..p.num_row_tiles,
        &mut ps_i,
    );
    assert_eq!(ps_s, ps_f, "{label}: scalar and f32 backends diverged");
    assert_eq!(ps_f, ps_i, "{label}: f32 and integer backends diverged");

    let scalar_ms = measure_ms(reps, || {
        pl.grouped_psums_into(&ScalarRef, &a_pad, &grouped, &mut ps_s, &mut col);
        std::hint::black_box(&ps_s);
    });
    let f32_ms = measure_ms(reps, || {
        pl.grouped_psums_into(&SimdF32, &a_pad, &grouped, &mut ps_f, &mut col);
        std::hint::black_box(&ps_f);
    });
    let int_ms = measure_ms(reps, || {
        pl.grouped_psums_int_into(
            &IntPanels,
            &a_pad,
            &int_weights,
            0..p.num_row_tiles,
            &mut ps_i,
        );
        std::hint::black_box(&ps_i);
    });
    KernelPoint {
        label: label.to_string(),
        in_ch,
        out_ch,
        hw,
        batch,
        splits: p.num_splits,
        row_tiles: p.num_row_tiles,
        scalar_ms,
        f32_ms,
        int_ms,
        speedup: f32_ms / int_ms.max(1e-9),
    }
}

/// One benchmark shape row: `(label, in_ch, out_ch, hw, batch)`.
type ShapeRow = (&'static str, usize, usize, usize, usize);

/// Measures every shape plus the end-to-end engine comparison.
pub fn measure(scale: Scale) -> KernelsResult {
    // Shape table per scale; the first row is the serving model's
    // dominant mid-stage shape, the rest stress channel width (more row
    // tiles) and spatial size (longer GEMM columns).
    let (shapes, reps, engine_requests, engine_reps): (&[ShapeRow], _, _, _) = match scale {
        Scale::Ci => (
            &[
                ("stage_8x8", 16, 16, 8, 2),
                ("wide_8x8", 32, 32, 8, 2),
                ("spatial_16x16", 16, 16, 16, 2),
            ],
            3,
            16,
            2,
        ),
        Scale::Quick => (
            &[
                ("stage_8x8", 16, 16, 8, 4),
                ("wide_8x8", 64, 64, 8, 4),
                ("spatial_16x16", 32, 32, 16, 4),
                ("deep_4x4", 128, 128, 4, 4),
            ],
            5,
            64,
            3,
        ),
        Scale::Full => (
            &[
                ("stage_8x8", 16, 16, 8, 8),
                ("wide_8x8", 64, 64, 8, 8),
                ("spatial_32x32", 32, 32, 32, 8),
                ("deep_4x4", 256, 256, 4, 8),
            ],
            7,
            192,
            3,
        ),
    };
    let cfg = CimConfig::cifar10();
    let points: Vec<KernelPoint> = shapes
        .iter()
        .map(|&(label, ic, oc, hw, b)| bench_shape(&cfg, label, ic, oc, hw, b, reps))
        .collect();

    // End-to-end: the throughput benchmark's serving model with kernels
    // forced to f32 vs `Auto` integer selection, same coalescing cap.
    let setting = ExperimentSetting::cifar10(scale, 400);
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let mut net = build_cim_resnet(
        setting.model.clone(),
        &setting.cim,
        &QuantScheme::ours(),
        401,
    );
    let warm = CqRng::new(402)
        .normal_tensor(&[2, c, hw, hw], 1.0)
        .map(|v| v.max(0.0));
    let _ = net.forward(&warm, Mode::Eval);
    let rng = &mut CqRng::new(403);
    let requests: Vec<Tensor> = (0..engine_requests)
        .map(|_| rng.normal_tensor(&[1, c, hw, hw], 1.0).map(|v| v.max(0.0)))
        .collect();
    let mut pm = PreparedCimModel::new(Box::new(net));
    pm.set_max_batch(Some(8));
    let engine_ips = |pm: &mut PreparedCimModel, backends: BackendSet| {
        pm.set_backends(backends)
            .expect("benchmark backend chain rejected");
        let mut best = f64::INFINITY;
        for _ in 0..engine_reps {
            let t0 = Instant::now();
            std::hint::black_box(pm.infer_batch(&requests));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        engine_requests as f64 / best.max(1e-9)
    };
    let engine_f32_ips = engine_ips(&mut pm, BackendSet::f32());
    let engine_int_ips = engine_ips(&mut pm, BackendSet::auto());
    let (integer_convs, total_convs) = pm.count_integer_kernels();

    KernelsResult {
        scale,
        threads: max_threads(),
        shapes: points,
        engine_requests,
        engine_f32_ips,
        engine_int_ips,
        engine_speedup: engine_int_ips / engine_f32_ips.max(1e-9),
        integer_convs,
        total_convs,
    }
}

/// Runs the experiment, writes `BENCH_kernels.json`, and returns the
/// markdown report.
pub fn run(scale: Scale) -> String {
    let r = measure(scale);
    std::fs::write("BENCH_kernels.json", r.to_json()).expect("write BENCH_kernels.json");

    let rows: Vec<Vec<String>> = r
        .shapes
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{}→{}·{}²·b{}", p.in_ch, p.out_ch, p.hw, p.batch),
                format!("{}", p.row_tiles),
                format!("{:.2}", p.scalar_ms),
                format!("{:.2}", p.f32_ms),
                format!("{:.2}", p.int_ms),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    let mut out = String::from("## Psum kernels — scalar vs f32 vs integer i8/i32 backends\n\n");
    out.push_str(&format!(
        "Bit-identical outputs checked before every timing; {} threads ({:?} scale).\n\n",
        r.threads, r.scale
    ));
    out.push_str(&markdown_table(
        &[
            "shape",
            "dims",
            "row tiles",
            "scalar ms",
            "f32 ms",
            "int ms",
            "speedup",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\nEnd-to-end frozen engine ({} single-image requests, max_batch=8): \
         {:.1} → {:.1} images/sec, **{:.2}x** with the integer kernels active \
         in {}/{} convs (written to `BENCH_kernels.json`).\n",
        r.engine_requests,
        r.engine_f32_ips,
        r.engine_int_ips,
        r.engine_speedup,
        r.integer_convs,
        r.total_convs
    ));
    out
}
