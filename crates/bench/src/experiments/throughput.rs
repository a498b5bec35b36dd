//! **Serving throughput** — images/sec of the frozen, batched inference
//! engine (`cq_core::PreparedCimModel`) against the unprepared per-call
//! path, over a stream of single-image requests.
//!
//! The unprepared baseline is what a naive server would do: one
//! `forward(Mode::Eval)` per request, re-quantizing and re-splitting the
//! weights of every CIM layer each call. The prepared engine freezes the
//! weight-side work once at load and coalesces requests into micro-batch
//! sweeps (swept at several `max_batch` settings).
//!
//! Results are returned as markdown and also written to
//! `BENCH_throughput.json` (consumed by CI as an artifact). The effective
//! thread count (`CQ_THREADS` or machine parallelism) is recorded in the
//! JSON; sweep it by re-running the binary under different `CQ_THREADS`
//! values — the cap is read once per process.

use crate::{markdown_table, ExperimentSetting, Scale};
use cq_core::{build_cim_resnet, BackendKind, PreparedCimModel, QuantScheme};
use cq_nn::{Layer, Mode};
use cq_tensor::{exec, max_threads, CqRng, Tensor};
use std::time::Instant;

/// One measured serving configuration.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Coalescing cap (images per sweep).
    pub max_batch: usize,
    /// Serving rate over the whole request stream.
    pub images_per_sec: f64,
}

/// One executor configuration of the A/B comparison (fixed `max_batch`).
#[derive(Debug, Clone)]
pub struct ExecutorPoint {
    /// `pooled` (persistent pool, pipelining off) or `pooled_pipelined`
    /// (persistent pool + cross-layer wave pipelining — the serving
    /// default).
    pub mode: &'static str,
    /// Serving rate over the whole request stream.
    pub images_per_sec: f64,
    /// OS threads created during the measured sweeps (after warm-up).
    /// Asserted `0`.
    pub spawned_threads: usize,
}

/// Full result of the throughput experiment.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Experiment size.
    pub scale: Scale,
    /// Effective thread cap during the run.
    pub threads: usize,
    /// Number of single-image requests served per measurement.
    pub requests: usize,
    /// Image shape `[C, H, W]`.
    pub image: [usize; 3],
    /// Unprepared per-request baseline.
    pub unprepared_ips: f64,
    /// Prepared engine at each coalescing cap.
    pub prepared: Vec<ThroughputPoint>,
    /// Executor A/B at the largest coalescing cap: pooled vs pooled +
    /// pipelined.
    pub executor: Vec<ExecutorPoint>,
    /// Active frozen convolutions per execution backend (indexed by
    /// [`BackendKind::index`]) in the prepared engine's default chain.
    pub backend_layers: [usize; 3],
    /// Best prepared rate / unprepared rate.
    pub speedup: f64,
}

impl ThroughputResult {
    /// Renders the machine-readable report (hand-rolled JSON; the
    /// workspace is dependency-free).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"scale\": \"{:?}\",\n", self.scale));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!(
            "  \"image\": [{}, {}, {}],\n",
            self.image[0], self.image[1], self.image[2]
        ));
        s.push_str(&format!(
            "  \"unprepared_images_per_sec\": {:.3},\n",
            self.unprepared_ips
        ));
        s.push_str("  \"prepared\": [\n");
        for (i, p) in self.prepared.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"max_batch\": {}, \"images_per_sec\": {:.3}}}{}\n",
                p.max_batch,
                p.images_per_sec,
                if i + 1 < self.prepared.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"executor\": [\n");
        for (i, e) in self.executor.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"images_per_sec\": {:.3}, \"spawned_threads\": {}}}{}\n",
                e.mode,
                e.images_per_sec,
                e.spawned_threads,
                if i + 1 < self.executor.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"backends\": [\n");
        for (i, kind) in BackendKind::ALL.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"backend\": \"{}\", \"active_layers\": {}}}{}\n",
                kind.name(),
                self.backend_layers[kind.index()],
                if i + 1 < BackendKind::ALL.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"speedup_vs_unprepared\": {:.3}\n",
            self.speedup
        ));
        s.push('}');
        s.push('\n');
        s
    }
}

/// Best-of-`reps` serving rate for `f`, which serves `images` images.
fn measure_ips(images: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    images as f64 / best.max(1e-9)
}

/// Measures throughput and returns the structured result.
pub fn measure(scale: Scale) -> ThroughputResult {
    let setting = ExperimentSetting::cifar10(scale, 400);
    let (num_requests, reps, batches): (usize, usize, &[usize]) = match scale {
        Scale::Ci => (24, 2, &[1, 4, 8]),
        Scale::Quick => (96, 3, &[1, 2, 4, 8, 16, 32]),
        Scale::Full => (256, 3, &[1, 4, 16, 64, 256]),
    };
    let (c, hw) = (setting.data.channels, setting.data.image_size);

    let mut net = build_cim_resnet(
        setting.model.clone(),
        &setting.cim,
        &QuantScheme::ours(),
        401,
    );
    // One warm-up forward initializes every lazy quantizer scale.
    let warm = CqRng::new(402)
        .normal_tensor(&[2, c, hw, hw], 1.0)
        .map(|v| v.max(0.0));
    let _ = net.forward(&warm, Mode::Eval);

    let rng = &mut CqRng::new(403);
    let requests: Vec<Tensor> = (0..num_requests)
        .map(|_| rng.normal_tensor(&[1, c, hw, hw], 1.0).map(|v| v.max(0.0)))
        .collect();

    // Unprepared baseline: one full per-call forward per request.
    let unprepared_ips = measure_ips(num_requests, reps, || {
        for r in &requests {
            std::hint::black_box(net.forward(r, Mode::Eval));
        }
    });

    // Prepared engine: weight-side work frozen once, micro-batch sweeps.
    let mut pm = PreparedCimModel::new(Box::new(net));
    let mut prepared = Vec::new();
    for &b in batches {
        pm.set_max_batch(Some(b));
        let ips = measure_ips(num_requests, reps, || {
            std::hint::black_box(pm.infer_batch(&requests));
        });
        prepared.push(ThroughputPoint {
            max_batch: b,
            images_per_sec: ips,
        });
    }
    // Executor A/B at the largest cap: the persistent pool alone, and the
    // pool with cross-layer wave pipelining (the serving default). Outputs
    // are bit-identical across both — only the schedule differs.
    pm.set_max_batch(Some(*batches.last().unwrap()));
    let mut executor = Vec::new();
    for (mode, depth) in [("pooled", 1usize), ("pooled_pipelined", 2)] {
        pm.set_pipeline_depth(depth);
        // Warm-up sweep: lazily creates the global pool; the measured
        // sweeps after it must spawn nothing.
        std::hint::black_box(pm.infer_batch(&requests));
        let spawned_before = exec::os_threads_spawned();
        let ips = measure_ips(num_requests, reps, || {
            std::hint::black_box(pm.infer_batch(&requests));
        });
        let spawned_threads = exec::os_threads_spawned() - spawned_before;
        assert_eq!(
            spawned_threads, 0,
            "pooled serving must spawn zero OS threads per sweep"
        );
        executor.push(ExecutorPoint {
            mode,
            images_per_sec: ips,
            spawned_threads,
        });
    }
    pm.set_pipeline_depth(2);

    let best = prepared
        .iter()
        .map(|p| p.images_per_sec)
        .fold(0.0f64, f64::max);
    let backend_layers = pm.backend_layer_counts();
    ThroughputResult {
        scale,
        threads: max_threads(),
        requests: num_requests,
        image: [c, hw, hw],
        unprepared_ips,
        prepared,
        executor,
        backend_layers,
        speedup: best / unprepared_ips.max(1e-9),
    }
}

/// Runs the experiment, writes `BENCH_throughput.json`, and returns the
/// markdown report.
pub fn run(scale: Scale) -> String {
    let r = measure(scale);
    std::fs::write("BENCH_throughput.json", r.to_json()).expect("write BENCH_throughput.json");

    let mut rows = vec![vec![
        "unprepared (per request)".to_string(),
        format!("{:.1}", r.unprepared_ips),
        "1.00x".to_string(),
    ]];
    for p in &r.prepared {
        rows.push(vec![
            format!("prepared, max_batch={}", p.max_batch),
            format!("{:.1}", p.images_per_sec),
            format!("{:.2}x", p.images_per_sec / r.unprepared_ips.max(1e-9)),
        ]);
    }
    let mut out = String::from("## Serving throughput — frozen engine vs per-call path\n\n");
    out.push_str(&format!(
        "Stream of {} single-image requests ({}×{}×{}), {} threads ({:?} scale).\n\n",
        r.requests, r.image[0], r.image[1], r.image[2], r.threads, r.scale
    ));
    out.push_str(&markdown_table(&["path", "images/sec", "speedup"], &rows));
    out.push_str(&format!(
        "\nBest prepared throughput is **{:.2}x** the unprepared per-call path \
         (written to `BENCH_throughput.json`).\n",
        r.speedup
    ));

    let base = r.executor.first().map(|e| e.images_per_sec).unwrap_or(0.0);
    let exec_rows: Vec<Vec<String>> = r
        .executor
        .iter()
        .map(|e| {
            vec![
                e.mode.to_string(),
                format!("{:.1}", e.images_per_sec),
                format!("{:.2}x", e.images_per_sec / base.max(1e-9)),
                e.spawned_threads.to_string(),
            ]
        })
        .collect();
    out.push_str(&format!(
        "\n### Executor comparison (max_batch={})\n\n",
        r.prepared.last().map(|p| p.max_batch).unwrap_or(0)
    ));
    out.push_str(&markdown_table(
        &["executor", "images/sec", "vs pooled", "threads spawned"],
        &exec_rows,
    ));
    out.push_str(
        "\nBoth rows spawn **zero** OS threads across the measured sweeps \
         (asserted at run time).\n",
    );
    out
}
