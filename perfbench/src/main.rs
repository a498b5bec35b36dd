//! The repository benchmark. One command runs one seeded workload against
//! the workspace crates, checks its outputs, and prints its metrics:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload engine-resnet20 --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `engine-resnet20`, `serve-open` (see
//! `perfbench/README.md`). `--trace 0` reports the end-to-end metrics;
//! `--trace 1` is a separate traced run reporting the per-layer metrics,
//! measured from outside by timing calls into each crate's public
//! functions, plus the tracing overhead. The last stdout line is the JSON
//! result; a failed correctness check exits non-zero without one.

mod common;
mod engine;
mod frozen;
mod probe;
mod serve;
mod stats;
mod trace;
mod train;

use common::{provenance, Args, Report};
use trace::Tracer;

/// Workload names, in report order.
const WORKLOADS: [&str; 2] = ["engine-resnet20", "serve-open"];

/// The end-to-end metrics every untraced run reports.
fn end_to_end() -> Vec<(String, &'static str)> {
    [
        ("setup_s", "s"),
        ("images_per_s", "img/s"),
        ("latency_p50_ms", "ms"),
        ("peak_rss_mb", "MB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}

/// The per-layer metrics every traced run reports. A layer the workload
/// never enters reports 0 and is named in the run's notes.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |n: &str, u| out.push((n.to_string(), u));
    for n in ["im2col_ms", "widen_ms", "igemm_ms", "epilogue_ms"] {
        add(&format!("tensor.{n}"), "ms");
    }
    add("tensor.igemm_gmacs_per_s", "GMAC/s");
    add("tensor.os_threads_spawned", "count");
    add("tensor.arena_peak_mb", "MB");
    for n in ["actq_ms", "pad_ms", "frontend_ms", "reduce_ms"] {
        add(&format!("cim.{n}"), "ms");
    }
    add("cim.adc_conversions_per_image", "count");
    add("cim.psum_clip_ratio", "ratio");
    for s in 0..3 {
        add(&format!("cim.psum_clip_ratio.s{s}"), "ratio");
    }
    add("cim.psum_zero_ratio", "ratio");
    for conv in frozen::resnet20_conv_names() {
        add(&format!("cim.{conv}.frontend_ms"), "ms");
        add(&format!("cim.{conv}.reduce_ms"), "ms");
        add(&format!("cim.{conv}.clip_ratio"), "ratio");
    }
    for n in [
        "freeze_ms",
        "sweep_ms.p50",
        "sweep_ms.p99",
        "conv_ms",
        "nonconv_ms",
    ] {
        add(&format!("core.{n}"), "ms");
    }
    for (n, u) in [
        ("submit_us.p50", "us"),
        ("submit_us.p99", "us"),
        ("server_p50_us", "us"),
        ("server_p99_us", "us"),
        ("rows_per_sweep", "count"),
        ("sweeps", "count"),
        ("queue_depth.mean", "count"),
        ("queue_depth.peak", "count"),
        ("rejected", "count"),
        ("gen_lag_ms.max", "ms"),
        ("shutdown_ms", "ms"),
        ("slo_rate_rps", "req/s"),
        ("latency_p99_ms", "ms"),
    ] {
        add(&format!("serve.{n}"), u);
    }
    add("train.images_per_s", "img/s");
    for n in [
        "forward_ms",
        "backward_ms",
        "sgd_ms",
        "cim_forward_ms",
        "cim_backward_ms",
    ] {
        add(&format!("train.{n}"), "ms");
    }
    add("trace.overhead_pct", "%");
    add("trace.stage_coverage", "ratio");
    add("trace.spans", "count");
    out
}

/// Orders the report by `catalog`, filling metrics the workload did not
/// measure with 0, and rejects any metric outside the catalog.
fn conform(mut rep: Report, catalog: &[(String, &'static str)]) -> Report {
    for n in rep.names() {
        assert!(
            catalog.iter().any(|(c, _)| c == n),
            "metric {n} is not in the benchmark's catalog"
        );
    }
    let mut out = Report::default();
    out.attempted = rep.attempted;
    out.failed = rep.failed;
    out.notes = std::mem::take(&mut rep.notes);
    let mut absent = Vec::new();
    for (name, unit) in catalog {
        match rep.get(name) {
            Some(v) => out.put(name.clone(), v, unit),
            None => {
                absent.push(name.as_str());
                out.put(name.clone(), 0.0, unit);
            }
        }
    }
    if !absent.is_empty() {
        out.note(format!(
            "not exercised by this workload (reported as 0): {}",
            absent.join(", ")
        ));
    }
    out
}

/// Kernel threads the benchmark pins (`CQ_THREADS`). On a shared host of a
/// few cores, how many of them are free swings from run to run, and a
/// fork-join kernel waits for its slowest thread: with two threads the
/// same code read anywhere from 1x to 1.4x the one-thread speed. One
/// thread per kernel measures the code, not the neighbours.
const KERNEL_THREADS: &str = "1";

fn main() {
    // Set before anything reads it (the thread count is cached on first
    // use) and while the process has no other thread.
    std::env::set_var("CQ_THREADS", KERNEL_THREADS);
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) if WORKLOADS.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {} (use {})",
                a.workload,
                WORKLOADS.join(", ")
            );
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("{e}\nusage: perfbench --workload W --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&args));
    let tracer = Tracer::new(args.trace);
    let mut rep = match args.workload.as_str() {
        "engine-resnet20" => engine::run(&args, &tracer),
        _ => serve::run(&args, &tracer),
    };
    let catalog = if args.trace {
        rep.put("trace.spans", tracer.len() as f64, "count");
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).expect("write the span file");
        rep.note(format!("spans written to {}", path.display()));
        per_layer()
    } else {
        end_to_end()
    };
    let rep = conform(rep, &catalog);
    for line in rep.notes.iter().chain(&rep.lines()) {
        println!("# {line}");
    }
    println!("{}", rep.to_json());
}
