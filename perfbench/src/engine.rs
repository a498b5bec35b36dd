//! `engine-resnet20`: closed-loop offline batch inference on the paper's
//! ResNet-20 geometry (32×32 inputs, 128×128 arrays, 3-bit weights on
//! 1-bit cells, 1-bit psums, `QuantScheme::ours()`), frozen by
//! `PreparedCimModel::new`; single-image requests go through
//! `infer_batch` with the sweep cap fixed at 8.

use crate::check;
use crate::common::{batch_of, build_warm_model, images, ms, peak_rss_mb, Args, HostProbe, Report};
use crate::frozen::{probe_frozen, SWEEP_ROWS};
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use cq_bench::{ExperimentSetting, Scale};
use cq_core::{freeze_model, PreparedCimModel};
use cq_nn::{Layer, Mode};
use cq_tensor::{exec, CqRng, Tensor};
use std::time::Instant;

/// Distinct seeded requests, cycled 8 at a time.
const POOL: usize = 64;
/// Set-ups timed per run (`setup_s` is their median).
const SETUP_REPS: usize = 11;

/// A frozen model ready to serve plus the unfrozen reference outputs of
/// the first sweep's requests.
struct Ready {
    pm: PreparedCimModel,
    want: Tensor,
}

/// Sweep times, each paired with the host probe read right before it.
#[derive(Default)]
struct Timed {
    ms: Vec<f64>,
    probe_ms: Vec<f64>,
}

impl Timed {
    /// The median sweep time at the reference host speed, ms: the median
    /// of `ms[i] / probe_ms[i] × HostProbe::REF_MS`.
    fn at_ref(&self) -> f64 {
        let scaled: Vec<f64> = self
            .ms
            .iter()
            .zip(&self.probe_ms)
            .map(|(t, p)| t / p * HostProbe::REF_MS)
            .collect();
        median(&scaled)
    }
}

/// Builds, warms and freezes the model `SETUP_REPS` times; returns the
/// last one with the set-up and freeze times (ms).
fn setup(setting: &ExperimentSetting, seed: u64, pool: &[Tensor]) -> (Ready, Vec<f64>, Vec<f64>) {
    let (mut setup_ms, mut freeze_ms) = (Vec::new(), Vec::new());
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        // The previous model goes before the next is built, so the peak
        // memory holds one model.
        drop(ready.take());
        let t0 = Instant::now();
        let mut net = build_warm_model(setting, seed);
        let t1 = Instant::now();
        // Reference outputs of the unfrozen eval forward (untimed).
        let want = net.forward(&batch_of(&pool[..SWEEP_ROWS]), Mode::Eval);
        let t2 = Instant::now();
        let mut pm = PreparedCimModel::new(Box::new(net));
        pm.set_max_batch(Some(SWEEP_ROWS));
        let t3 = Instant::now();
        setup_ms.push(ms(t0, t1) + ms(t2, t3));
        freeze_ms.push(ms(t2, t3));
        ready = Some(Ready { pm, want });
    }
    (ready.expect("at least one set-up"), setup_ms, freeze_ms)
}

/// Frozen outputs must equal the unfrozen forward bit for bit.
fn check_reference(pm: &mut PreparedCimModel, pool: &[Tensor], want: &Tensor) {
    let outs = pm.infer_batch(&pool[..SWEEP_ROWS]);
    for (k, o) in outs.iter().enumerate() {
        check!(
            *o == want.slice_outer(k, k + 1),
            "frozen output {k} differs from the unfrozen forward(Mode::Eval)"
        );
    }
}

/// Sweeps until `until`, timing the host probe before each sweep. Every
/// output must equal the first output seen for the same request.
fn sweep_loop(
    pm: &mut PreparedCimModel,
    pool: &[Tensor],
    seen: &mut [Option<Tensor>],
    until: Instant,
    tracer: &Tracer,
    probe: &mut HostProbe,
) -> Timed {
    let mut out = Timed::default();
    let mut i = 0usize;
    while Instant::now() < until {
        out.probe_ms.push(probe.read_ms());
        let lo = (i * SWEEP_ROWS) % pool.len();
        let sp = tracer.open("core.sweep", Tracer::root(), None);
        let t = Instant::now();
        let outs = pm.infer_batch(&pool[lo..lo + SWEEP_ROWS]);
        let end = Instant::now();
        tracer.close(sp);
        out.ms.push(ms(t, end));
        for (k, o) in outs.into_iter().enumerate() {
            match &seen[lo + k] {
                Some(prev) => check!(
                    *prev == o,
                    "request {} served two different outputs",
                    lo + k
                ),
                None => seen[lo + k] = Some(o),
            }
        }
        i += 1;
    }
    out
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let setting = ExperimentSetting::cifar10(Scale::Full, args.seed);
    let (c, hw) = (setting.data.channels, setting.data.image_size);
    let pool = images(&mut CqRng::new(args.seed), POOL, c, hw);
    let mut rep = Report::default();

    let (Ready { mut pm, want }, setup_ms, freeze_ms) = setup(&setting, args.seed, &pool);
    // The reference check is also the warm sweep that spawns pool tasks, so
    // the steady-state thread baseline is read after it.
    check_reference(&mut pm, &pool, &want);
    let threads0 = exec::os_threads_spawned();
    let mut seen: Vec<Option<Tensor>> = vec![None; POOL];
    let mut probe = HostProbe::new();
    let start = Instant::now();

    if !args.trace {
        let sweeps = sweep_loop(
            &mut pm,
            &pool,
            &mut seen,
            start + args.span(),
            tracer,
            &mut probe,
        );
        rep.put("peak_rss_mb", peak_rss_mb(), "MB");
        let n = sweeps.ms.len();
        check!(n > 20, "run too short: {n} sweeps");
        let sweep_ms = sweeps.at_ref();
        let sw = sorted(&sweeps.ms);
        let (q, p99) = tail(&sw, 0.99).expect("enough sweeps for a tail percentile");
        rep.put("setup_s", median(&setup_ms) / 1e3, "s");
        rep.put("images_per_s", SWEEP_ROWS as f64 * 1e3 / sweep_ms, "img/s");
        rep.put("latency_p50_ms", sweep_ms, "ms");
        rep.note(format!(
            "as measured: {:.2} img/s, sweep p50 {:.2} ms; host probe p50 {:.3} ms \
             (reference {} ms)",
            (n * SWEEP_ROWS) as f64 * 1e3 / sweeps.ms.iter().sum::<f64>(),
            median(&sweeps.ms),
            median(&sweeps.probe_ms),
            HostProbe::REF_MS
        ));
        rep.note(format!(
            "latency = sweep completion of a request over {n} sweeps of {SWEEP_ROWS}; \
             latency_p99_ms = {p99} ms as measured (p{:.1})",
            100.0 * q
        ));
        rep.attempted = (n * SWEEP_ROWS) as u64;
    } else {
        // Tracing overhead: the same sweep loop with spans off, then on.
        let quarter = args.span() / 4;
        let off = Tracer::new(false);
        let plain = sweep_loop(&mut pm, &pool, &mut seen, start + quarter, &off, &mut probe);
        let traced = sweep_loop(
            &mut pm,
            &pool,
            &mut seen,
            start + 2 * quarter,
            tracer,
            &mut probe,
        );
        let mut twin = build_warm_model(&setting, args.seed);
        freeze_model(&mut twin);
        let stage_total = probe_frozen(
            &mut pm,
            &mut twin,
            &pool,
            start + args.span(),
            tracer,
            &mut rep,
        );
        rep.put("core.freeze_ms", median(&freeze_ms), "ms");
        rep.put(
            "trace.overhead_pct",
            100.0 * (traced.at_ref() / plain.at_ref() - 1.0),
            "%",
        );
        let sweep = rep
            .get("core.sweep_ms.p50")
            .expect("probe reports sweep time");
        rep.put("trace.stage_coverage", stage_total / sweep, "ratio");
        rep.attempted = ((plain.ms.len() + traced.ms.len()) * SWEEP_ROWS) as u64;
    }

    check_reference(&mut pm, &pool, &want);
    let spawned = exec::os_threads_spawned() - threads0;
    check!(spawned == 0, "measured window spawned {spawned} OS threads");
    if args.trace {
        rep.put("tensor.os_threads_spawned", spawned as f64, "count");
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_ref_scales_each_sweep_by_its_own_probe() {
        let t = Timed {
            ms: vec![10.0, 20.0, 40.0, 90.0],
            probe_ms: vec![1.0, 2.0, 4.0, 3.0],
        };
        assert_eq!(t.at_ref(), 10.0 * HostProbe::REF_MS);
    }
}
