//! Shared pieces: command-line arguments, seeded models and inputs, the
//! metric report, and process-level measurements.

use crate::stats::median;
use cq_bench::ExperimentSetting;
use cq_core::{build_cim_resnet, QuantScheme};
use cq_nn::{Layer, Mode, ResNet};
use cq_tensor::{CqRng, Tensor};
use std::fmt::Write as _;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stops the run when a correctness check fails: the process exits
/// non-zero and prints no result.
#[macro_export]
macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            panic!("correctness check failed: {}", format!($($msg)+));
        }
    };
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A usage message on a missing or malformed argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |flag: &str| format!("bad value for {flag}");
        let seconds: f64 = get("--seconds")?.parse().map_err(|_| bad("--seconds"))?;
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err(bad("--seconds"));
        }
        Ok(Args {
            workload: get("--workload")?,
            seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
            seconds,
            trace: match get("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                _ => return Err(bad("--trace")),
            },
        })
    }

    /// The measured span.
    pub fn span(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// `n` seeded single-image requests `[1, c, hw, hw]`.
pub fn images(rng: &mut CqRng, n: usize, c: usize, hw: usize) -> Vec<Tensor> {
    (0..n)
        .map(|_| rng.normal_tensor(&[1, c, hw, hw], 1.0))
        .collect()
}

/// Concatenates single-image requests into one batch.
pub fn batch_of(requests: &[Tensor]) -> Tensor {
    Tensor::concat_outer(&requests.iter().collect::<Vec<_>>())
}

/// Builds the paper-scheme CIM ResNet of `setting` and runs one eval
/// forward on a seeded batch, which initializes every lazy activation and
/// partial-sum scale (the warm-up a model needs before it can freeze).
pub fn build_warm_model(setting: &ExperimentSetting, seed: u64) -> ResNet {
    let mut net = build_cim_resnet(
        setting.model.clone(),
        &setting.cim,
        &QuantScheme::ours(),
        seed,
    );
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let warm = CqRng::new(seed ^ 0x5741_524d).normal_tensor(&[4, c, hw, hw], 1.0);
    let _ = net.forward(&warm, Mode::Eval);
    net
}

/// Milliseconds between two instants.
pub fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Peak resident memory of this process, MB (Linux `VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb * 1024.0 / 1e6
}

/// The probe's fixed kernel: signed i32 add/sub row updates over an
/// L2-sized operand (like the integer front-end) and an f32 multiply-add
/// row update (like the reduce).
struct ProbeKernel {
    b: Vec<i32>,
    c: Vec<i32>,
    x: Vec<f32>,
    y: Vec<f32>,
    signs: Vec<i8>,
}

impl ProbeKernel {
    const K: usize = 64;
    const N: usize = 512;
    const ROWS: usize = 16;
    const REPS: usize = 24;

    fn new() -> ProbeKernel {
        let mut rng = CqRng::new(0x7072_6f62);
        let signs = (0..Self::K * Self::ROWS)
            .map(|_| if rng.below(2) == 0 { 1 } else { -1 })
            .collect();
        ProbeKernel {
            b: (0..Self::K * Self::N)
                .map(|i| (i % 97) as i32 - 48)
                .collect(),
            c: vec![0; Self::ROWS * Self::N],
            x: (0..Self::N).map(|i| (i % 13) as f32 * 0.25).collect(),
            y: vec![0.0; Self::N],
            signs,
        }
    }

    fn run(&mut self) {
        for _ in 0..Self::REPS {
            self.c.iter_mut().for_each(|v| *v = 0);
            for (kk, brow) in self.b.chunks_exact(Self::N).enumerate() {
                for (r, crow) in self.c.chunks_exact_mut(Self::N).enumerate() {
                    if self.signs[kk * Self::ROWS + r] > 0 {
                        crow.iter_mut().zip(brow).for_each(|(c, b)| *c += b);
                    } else {
                        crow.iter_mut().zip(brow).for_each(|(c, b)| *c -= b);
                    }
                }
            }
            for crow in self.c.chunks_exact(Self::N) {
                for ((y, &x), &c) in self.y.iter_mut().zip(&self.x).zip(crow) {
                    *y = *y * 0.5 + x * c as f32;
                }
            }
            std::hint::black_box((&self.c, &self.y));
        }
    }
}

/// Measures how fast the host runs right now with a fixed kernel of the
/// benchmark's own code, run fork-join on the calling thread and one
/// helper thread, as wide as a frozen-model sweep (the caller plus the
/// one `CQ_THREADS=1` pool worker). The program never runs the kernel, so
/// no change to the program moves it; its time moves only with the host:
/// clock speed, a busy sibling hardware thread, or a second core taken by
/// a neighbour.
///
/// On the shared 2-core tuning host the same sweep ran 1.0x to 1.9x its
/// best time from one minute to the next, mostly as a neighbour took the
/// second core, which is more than any bound a metric may have. A sweep
/// time `t` measured right after the probe read `p` is therefore reported
/// at the reference speed, `t / p × REF_MS`. Over runs in one stretch
/// there, the median sweep time moved 115–122 ms and its reference-speed
/// figure 1.3%; with a process of ours streaming memory on the second
/// core the sweep slowed 1.5x and the reference-speed figure moved 10%.
pub struct HostProbe {
    kernel: ProbeKernel,
    go: Option<mpsc::Sender<()>>,
    done: mpsc::Receiver<()>,
    helper: Option<std::thread::JoinHandle<()>>,
}

impl HostProbe {
    /// The probe's median time on the 2-core tuning host, ms.
    pub const REF_MS: f64 = 2.2;

    /// Builds the kernel's fixed operands and starts the helper thread.
    pub fn new() -> HostProbe {
        let (go, go_rx) = mpsc::channel::<()>();
        let (done_tx, done) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let mut kernel = ProbeKernel::new();
            while go_rx.recv().is_ok() {
                kernel.run();
                if done_tx.send(()).is_err() {
                    return;
                }
            }
        });
        HostProbe {
            kernel: ProbeKernel::new(),
            go: Some(go),
            done,
            helper: Some(helper),
        }
    }

    /// A reading of the host's speed: the median of three probe times, ms
    /// (a single time now and then reads several times too slow, as when
    /// the helper thread is slow to wake).
    pub fn read_ms(&mut self) -> f64 {
        median(&[self.time_ms(), self.time_ms(), self.time_ms()])
    }

    /// Runs the kernel once on both threads; returns the wall time until
    /// both are done, ms.
    ///
    /// # Panics
    ///
    /// Panics if the helper thread has died.
    fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        self.go
            .as_ref()
            .and_then(|g| g.send(()).ok())
            .expect("probe helper alive");
        self.kernel.run();
        self.done.recv().expect("probe helper alive");
        ms(t0, Instant::now())
    }
}

impl Drop for HostProbe {
    fn drop(&mut self) {
        // Closing the channel ends the helper's loop.
        drop(self.go.take());
        if let Some(h) = self.helper.take() {
            let _ = h.join();
        }
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Requests (or images, or steps) the run attempted.
    pub attempted: u64,
    /// Of those, failed, refused or unresolved.
    pub failed: u64,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Metric names in report order.
    pub fn names(&self) -> Vec<&str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite metric value.
    pub fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let _ = write!(
                m,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.attempted, self.failed
        )
    }

    /// Human-readable metric lines (`name = value unit`).
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|(n, v, u)| format!("{n} = {v} {u}"))
            .collect()
    }
}

/// Provenance of a run: seed, machine parallelism, the effective
/// `CQ_THREADS` and `CQ_BACKEND`, and the commit when the checkout is a git
/// repository.
pub fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend: Vec<&str> = cq_tensor::BackendSet::standard()
        .kinds()
        .iter()
        .map(|k| k.name())
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"cq_threads\": {}, \"cq_backend\": \"{}\", \"commit\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        cq_tensor::max_threads(),
        backend.join(","),
        git_commit()
    )
}

/// The checked-out commit, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
