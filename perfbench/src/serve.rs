//! `serve-open`: open-loop Poisson load from one client thread against a
//! `CimServer` session holding one resident ResNet-8 (width 6, 12×12
//! inputs, 32×32 arrays) with `workers(1)`, `max_batch` 8 and Reject
//! admission. Rounds of a nominal fixed rate and a fixed overload phase
//! well above capacity, then a ladder of fixed rates. The traced run also
//! probes the same model geometry in training.

use crate::check;
use crate::common::{build_warm_model, images, ms, peak_rss_mb, Args, Report};
use crate::frozen::probe_frozen;
use crate::stats::{due_latency, median, poisson_offsets, slo_rate, sorted, tail, Rung};
use crate::trace::{SpanId, Tracer};
use crate::train;
use cq_bench::{ExperimentSetting, Scale};
use cq_core::{freeze_model, PreparedCimModel};
use cq_serve::{
    Admission, CimServer, Completed, CompletionSet, ModelRegistry, Request, ServeConfig,
    ServeSession, SubmitError,
};
use cq_tensor::{exec, CqRng, Tensor};
use std::time::{Duration, Instant};

const MODEL: &str = "resnet8";
/// Distinct seeded request images.
const POOL: usize = 256;
/// Set-ups timed per run (`setup_s` is their median).
const SETUP_REPS: usize = 21;
/// The pause before each set-up, so that each starts from an idle process
/// as a one-off set-up does rather than from a hot loop of 5 ms set-ups.
/// On the tuning host, back-to-back set-ups flipped between two speeds
/// 1.5x apart from run to run; paused ones spread less (10 runs in one
/// stretch read 5.6–6.6 ms).
const SETUP_GAP: Duration = Duration::from_millis(50);
/// The nominal offered rate: about 6% of the one-worker capacity on a
/// 2-core host (3.1–3.9k img/s), so requests rarely queue behind one
/// another. At 800 req/s a request's single-row sweep kept the worker busy
/// enough that queueing amplified the host's own speed swings: ten runs'
/// p50 spread 0.36 of its median (1.05–1.76 ms).
const NOMINAL_RPS: f64 = 200.0;
/// The SLO ladder's fixed rates, all below that capacity so that no rung
/// sheds requests.
const LADDER_RPS: [f64; 4] = [600.0, 900.0, 1300.0, 1800.0];
/// The overload phase's offered rate (well above capacity).
const OVERLOAD_RPS: f64 = 9000.0;
/// Alternating nominal / overload rounds per run.
const ROUNDS: usize = 4;
/// The ladder's tail-latency limit.
const SLO_LIMIT_MS: f64 = 10.0;
/// Queue slots: deep enough that no rate below capacity ever sheds.
const QUEUE_CAPACITY: usize = 256;
/// A rung whose backlog at its last arrival exceeds this has not kept up.
const BACKLOG_LIMIT: usize = 64;
/// Every this-many-th request's output is checked against a direct infer.
const SAMPLE_EVERY: u64 = 37;
/// `latency_p99_ms` is the median of per-window p99s over windows this
/// long (seconds).
const LATENCY_WINDOW_S: f64 = 1.0;
/// Capacity is the median completion rate over windows this long (s).
const CAPACITY_WINDOW_S: f64 = 0.25;
/// An in-flight ticket unresolved after this long counts as lost.
const STALL: Duration = Duration::from_secs(20);

/// One fixed-rate phase's outcome.
struct PhaseOut {
    rate: f64,
    offered: u64,
    refused: u64,
    /// `(due offset in s, due → complete latency in ms)` of every offered
    /// request; refused requests count as missing every limit (`∞`).
    samples: Vec<(f64, f64)>,
    done_at: Vec<Instant>,
    submit_us: Vec<f64>,
    max_lag_ms: f64,
    backlog_end: usize,
    start: Instant,
    span: Duration,
}

impl PhaseOut {
    /// Latencies of the served requests, ms.
    fn served_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.1)
            .filter(|v| v.is_finite())
            .collect()
    }

    /// Each `window`-long slice's p99 (slices by due time; one slice when
    /// the phase is shorter) as `(percentile used, value)`; a slice whose
    /// p99 falls on a refusal reads `∞`.
    fn window_p99s(&self, window: f64) -> Vec<(f64, f64)> {
        let window = window.min(self.span.as_secs_f64());
        let n = (self.span.as_secs_f64() / window).floor() as usize;
        let mut slices = vec![Vec::new(); n];
        for &(off, lat) in &self.samples {
            if let Some(s) = slices.get_mut((off / window) as usize) {
                s.push(lat);
            }
        }
        slices
            .iter()
            .filter_map(|s| tail(&sorted(s), 0.99))
            .collect()
    }

    /// Images completed per second in each `window`-long slice, from a
    /// quarter into the phase (once the queue has filled) to its end.
    fn window_rates(&self, window: f64) -> Vec<f64> {
        let from = self.start + self.span / 4;
        let window = window.min(self.span.as_secs_f64() * 0.75);
        let n = ((self.span.as_secs_f64() * 0.75) / window).floor() as usize;
        let mut counts = vec![0usize; n];
        for d in &self.done_at {
            if *d >= from {
                if let Some(c) = counts.get_mut(((*d - from).as_secs_f64() / window) as usize) {
                    *c += 1;
                }
            }
        }
        counts.iter().map(|&c| c as f64 / window).collect()
    }

    fn rung(&self) -> Rung {
        let all = sorted(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>());
        Rung {
            rate: self.rate,
            tail_ms: tail(&all, 0.99).map(|(_, v)| v).filter(|v| v.is_finite()),
            drained: self.backlog_end <= BACKLOG_LIMIT,
        }
    }
}

/// Per-run client state.
struct Client<'a> {
    session: &'a ServeSession,
    pool: &'a [Tensor],
    tracer: &'a Tracer,
    next_id: u64,
    /// `(pool index, served output)` of sampled requests.
    samples: Vec<(usize, Tensor)>,
}

/// What the client remembers about one admitted request.
struct Pending {
    due: Instant,
    submitted: Instant,
    pool_index: usize,
    id: u64,
}

impl Client<'_> {
    fn complete(&mut self, p: &Pending, c: Completed, out: &mut PhaseOut, phase: SpanId) {
        let done = p.submitted + c.latency;
        let lat = due_latency(p.due, p.submitted, c.latency).as_secs_f64() * 1e3;
        out.samples.push(((p.due - out.start).as_secs_f64(), lat));
        out.done_at.push(done);
        self.tracer
            .record("serve.request", phase, Some(p.id), p.due, done);
        if p.id.is_multiple_of(SAMPLE_EVERY) {
            self.samples.push((p.pool_index, c.output));
        }
    }

    /// Offers seeded Poisson arrivals at `rate` for `span`, draining
    /// completions between arrivals, then waits for every admitted ticket.
    fn phase(&mut self, name: &str, rate: f64, span: Duration, rng: &mut CqRng) -> PhaseOut {
        let offsets = poisson_offsets(rate, span, rng);
        let mut set = CompletionSet::new();
        let mut pending: Vec<Pending> = Vec::with_capacity(offsets.len());
        let start = Instant::now() + Duration::from_millis(1);
        let mut out = PhaseOut {
            rate,
            offered: 0,
            refused: 0,
            samples: Vec::with_capacity(offsets.len()),
            done_at: Vec::with_capacity(offsets.len()),
            submit_us: Vec::with_capacity(offsets.len()),
            max_lag_ms: 0.0,
            backlog_end: 0,
            start,
            span,
        };
        let ph = self.tracer.open(name, Tracer::root(), None);
        for off in offsets {
            let due = start + off;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if set.is_empty() {
                    std::thread::sleep(due - now);
                    break;
                }
                if let Some((key, c)) = set.wait_any_timeout(due - now) {
                    self.complete(&pending[key.index()], c, &mut out, ph);
                }
            }
            let idx = rng.below(self.pool.len());
            let id = self.next_id;
            self.next_id += 1;
            let s0 = Instant::now();
            out.max_lag_ms = out.max_lag_ms.max(ms(due, s0));
            let res = self
                .session
                .submit(Request::to(MODEL).batch(self.pool[idx].clone()));
            let s1 = Instant::now();
            out.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
            self.tracer.record("serve.submit", ph, Some(id), s0, s1);
            out.offered += 1;
            match res {
                Ok(t) => {
                    pending.push(Pending {
                        due,
                        submitted: t.submitted_at(),
                        pool_index: idx,
                        id,
                    });
                    set.insert(t);
                }
                Err(SubmitError::QueueFull(_)) => {
                    out.refused += 1;
                    out.samples.push((off.as_secs_f64(), f64::INFINITY));
                }
                Err(e) => panic!("correctness check failed: submit failed: {e:?}"),
            }
        }
        out.backlog_end = set.len();
        while !set.is_empty() {
            let Some((key, c)) = set.wait_any_timeout(STALL) else {
                panic!(
                    "correctness check failed: {} tickets lost (unresolved after {STALL:?})",
                    set.len()
                );
            };
            self.complete(&pending[key.index()], c, &mut out, ph);
        }
        self.tracer.close(ph);
        out
    }
}

fn config() -> ServeConfig {
    ServeConfig::builder()
        .workers(1)
        .max_batch(Some(8))
        .admission(Admission::Reject)
        .queue_capacity(QUEUE_CAPACITY)
        .build()
        .expect("valid serve config")
}

/// Builds, warms and freezes the model, starts a session and serves one
/// request — `SETUP_REPS` times; returns the last session with the set-up
/// and freeze times (ms).
fn setup(
    setting: &ExperimentSetting,
    seed: u64,
    pool: &[Tensor],
) -> (ServeSession, Vec<f64>, Vec<f64>) {
    let (mut setup_ms, mut freeze_ms) = (Vec::new(), Vec::new());
    let mut last: Option<ServeSession> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            let _ = s.shutdown();
        }
        std::thread::sleep(SETUP_GAP);
        let t0 = Instant::now();
        let net = build_warm_model(setting, seed);
        let t1 = Instant::now();
        let pm = PreparedCimModel::new(Box::new(net));
        let t2 = Instant::now();
        let mut registry = ModelRegistry::new();
        registry.register(MODEL, pm);
        let session = CimServer::new(registry, config()).start();
        let warm = session
            .submit(Request::to(MODEL).batch(pool[0].clone()))
            .expect("warm request admitted");
        let _ = warm.wait();
        setup_ms.push(ms(t0, Instant::now()));
        freeze_ms.push(ms(t1, t2));
        last = Some(session);
    }
    (last.expect("at least one set-up"), setup_ms, freeze_ms)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let setting = ExperimentSetting::cifar10(Scale::Quick, args.seed);
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let mut rng = CqRng::new(args.seed);
    let pool = images(&mut rng, POOL, c, hw);
    let mut rep = Report::default();

    let (session, setup_ms, freeze_ms) = setup(&setting, args.seed, &pool);
    let mut client = Client {
        session: &session,
        pool: &pool,
        tracer,
        next_id: 0,
        samples: Vec::new(),
    };
    let s = args.span().as_secs_f64();
    let secs = |f: f64| Duration::from_secs_f64(s * f);
    // Warm-up at the nominal rate (spawns the exec pool's tasks), then the
    // steady-state thread baseline.
    let _ = client.phase(
        "warm",
        NOMINAL_RPS,
        Duration::from_secs(1),
        &mut rng.fork(1),
    );
    let threads0 = exec::os_threads_spawned();

    // Nominal and overload phases alternate over ROUNDS rounds, so each
    // figure samples the host at several points of the run. A traced run
    // also serves the nominal rate with spans off in every round, so it can
    // report what its spans cost, and leaves a quarter of its time for the
    // frozen-model probe.
    let off = Tracer::new(false);
    let mut quiet = Client {
        session: &session,
        pool: &pool,
        tracer: &off,
        next_id: 1 << 40,
        samples: Vec::new(),
    };
    let f = if args.trace { 0.6 } else { 1.0 };
    let (mut plain, mut nominal, mut overload) = (Vec::new(), Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        let span = |share: f64| secs(share * f / ROUNDS as f64);
        let seed = 10 + 2 * r as u64;
        if args.trace {
            let rng = &mut rng.fork(30 + r as u64);
            plain.push(quiet.phase("nominal-untraced", NOMINAL_RPS, span(0.25), rng));
        }
        nominal.push(client.phase("nominal", NOMINAL_RPS, span(0.5), &mut rng.fork(seed)));
        overload.push(client.phase("overload", OVERLOAD_RPS, span(0.2), &mut rng.fork(seed + 1)));
    }
    let ladder: Vec<PhaseOut> = LADDER_RPS
        .iter()
        .enumerate()
        .map(|(i, &r)| client.phase("ladder", r, secs(0.075 * f), &mut rng.fork(4 + i as u64)))
        .collect();
    let spawned = exec::os_threads_spawned() - threads0;
    check!(spawned == 0, "measured window spawned {spawned} OS threads");
    let mut samples = std::mem::take(&mut client.samples);
    samples.append(&mut quiet.samples);

    let t = Instant::now();
    let (stats, mut models) = session.shutdown();
    let shutdown_ms = ms(t, Instant::now());
    // The peak is read before the checking copy below is built.
    let peak_mb = peak_rss_mb();

    // Served outputs must equal a direct infer on an independently built
    // copy of the model.
    let mut direct = PreparedCimModel::new(Box::new(build_warm_model(&setting, args.seed)));
    for (idx, out) in &samples {
        check!(
            direct.infer(&pool[*idx]) == *out,
            "served output for request image {idx} differs from PreparedCimModel::infer"
        );
    }
    check!(
        samples.len() >= 10,
        "too few sampled outputs ({})",
        samples.len()
    );

    let capacity = median(
        &overload
            .iter()
            .flat_map(|p| p.window_rates(CAPACITY_WINDOW_S))
            .collect::<Vec<_>>(),
    );
    let nominal_ms: Vec<f64> = nominal.iter().flat_map(PhaseOut::served_ms).collect();
    let p99s: Vec<(f64, f64)> = nominal
        .iter()
        .flat_map(|p| p.window_p99s(LATENCY_WINDOW_S))
        .collect();
    let p99 = median(&p99s.iter().map(|t| t.1).collect::<Vec<_>>());
    let q = p99s.iter().map(|t| t.0).fold(1.0, f64::min);
    let rungs: Vec<Rung> = ladder.iter().map(PhaseOut::rung).collect();
    let slo = slo_rate(&rungs, SLO_LIMIT_MS);
    let below: Vec<&PhaseOut> = plain.iter().chain(&nominal).chain(&ladder).collect();
    let measured: Vec<&PhaseOut> = below.iter().copied().chain(&overload).collect();
    let attempted: u64 = measured.iter().map(|p| p.offered).sum();
    // Shedding in the overload phase is by design; refusals below capacity
    // are failures.
    let failed: u64 = below.iter().map(|p| p.refused).sum();
    rep.attempted = attempted;
    rep.failed = failed;
    let max_lag = measured.iter().map(|p| p.max_lag_ms).fold(0.0, f64::max);
    rep.note(format!(
        "capacity_ips = {capacity} img/s; slo_rate_rps = {slo} req/s (p99 <= {SLO_LIMIT_MS} ms); \
         fail_ratio = {}; generator lag max {max_lag:.3} ms",
        failed as f64 / attempted as f64,
    ));
    rep.note(format!(
        "latency = due -> complete at {NOMINAL_RPS} req/s over {} requests; latency_p99_ms = \
         {p99} ms, the median over {} windows (up to {LATENCY_WINDOW_S} s) of each window's p{:.1}",
        nominal_ms.len(),
        p99s.len(),
        100.0 * q
    ));
    for p in &ladder {
        let r = p.rung();
        rep.note(format!(
            "ladder {} req/s: p99 {:?} ms, refused {}, backlog at end {}",
            p.rate, r.tail_ms, p.refused, p.backlog_end
        ));
    }

    if !args.trace {
        rep.put("setup_s", median(&setup_ms) / 1e3, "s");
        rep.put("images_per_s", capacity, "img/s");
        rep.put("latency_p50_ms", median(&nominal_ms), "ms");
        rep.put("peak_rss_mb", peak_mb, "MB");
        return rep;
    }

    let submit_us: Vec<f64> = measured
        .iter()
        .flat_map(|p| p.submit_us.iter().copied())
        .collect();
    let su = sorted(&submit_us);
    rep.put("serve.submit_us.p50", median(&submit_us), "us");
    rep.put(
        "serve.submit_us.p99",
        tail(&su, 0.99).map_or(f64::NAN, |t| t.1),
        "us",
    );
    let mut hist = stats.bulk_hist.clone();
    hist.merge(&stats.latency_hist);
    let us = |q: f64| hist.quantile(q).map_or(0.0, |d| d.as_secs_f64() * 1e6);
    rep.put("serve.server_p50_us", us(0.5), "us");
    rep.put("serve.server_p99_us", us(0.99), "us");
    rep.put(
        "serve.rows_per_sweep",
        stats.rows_swept as f64 / stats.batches.max(1) as f64,
        "count",
    );
    rep.put("serve.sweeps", stats.batches as f64, "count");
    rep.put("serve.queue_depth.mean", stats.mean_queue_depth, "count");
    rep.put(
        "serve.queue_depth.peak",
        stats.peak_queue_depth as f64,
        "count",
    );
    rep.put("serve.rejected", stats.rejected as f64, "count");
    rep.put("serve.gen_lag_ms.max", max_lag, "ms");
    rep.put("serve.shutdown_ms", shutdown_ms, "ms");
    rep.put("serve.slo_rate_rps", slo, "req/s");
    rep.put("serve.latency_p99_ms", p99, "ms");
    rep.put("core.freeze_ms", median(&freeze_ms), "ms");
    rep.put("tensor.os_threads_spawned", spawned as f64, "count");
    let plain_ms: Vec<f64> = plain.iter().flat_map(PhaseOut::served_ms).collect();
    rep.put(
        "trace.overhead_pct",
        100.0 * (median(&nominal_ms) / median(&plain_ms) - 1.0),
        "%",
    );

    // The served model comes back from shutdown; probe it from outside.
    let (_, mut pm) = models.pop().expect("the resident model");
    let mut twin = build_warm_model(&setting, args.seed);
    freeze_model(&mut twin);
    let until = Instant::now() + secs(0.25);
    let stage_total = probe_frozen(&mut pm, &mut twin, &pool, until, tracer, &mut rep);
    let sweep = rep
        .get("core.sweep_ms.p50")
        .expect("probe reports sweep time");
    rep.put("trace.stage_coverage", stage_total / sweep, "ratio");

    // The same model geometry in training (the `cq-train` layer).
    train::probe_qat(&setting, args.seed, secs(0.25), tracer, &mut rep);
    rep
}
