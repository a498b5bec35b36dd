//! The traced probe of a frozen model, shared by `engine-resnet20` and
//! `serve-open`: `cq-tensor` kernel time, `cq-cim` stage time and psum
//! health, and `cq-core` sweep / conv / between-conv time, all measured
//! from outside on the model's real activations.

use crate::check;
use crate::common::{batch_of, ms, Report};
use crate::probe::{interpret, psum_stats, ConvProbe, PsumStats};
use crate::stats::{median, sorted, tail};
use crate::trace::{TimedIntPanels, Tracer};
use cq_core::{for_each_cim_conv, PreparedCimModel};
use cq_nn::{Layer, Mode, ResNet};
use cq_tensor::{arena, Tensor};
use std::time::Instant;

/// Rows per probed sweep (the workloads' `max_batch`).
pub const SWEEP_ROWS: usize = 8;

/// Names of the 20 CIM convs of the paper's ResNet-20 (`s{stage}b{block}`
/// as the model builder names them); the ResNet-8 of `serve-open` has the
/// `b0` subset.
pub fn resnet20_conv_names() -> Vec<String> {
    let mut out = Vec::new();
    for si in 0..3 {
        for bi in 0..3 {
            out.push(format!("s{si}b{bi}.conv1"));
            out.push(format!("s{si}b{bi}.conv2"));
            if si > 0 && bi == 0 {
                out.push(format!("s{si}b{bi}.shortcut"));
            }
        }
    }
    out
}

/// Probes `twin` (an identically built, frozen copy of the model `pm`
/// serves) until `until`, sweeping `SWEEP_ROWS`-image batches drawn from
/// `pool`, and reports the `tensor.*`, `cim.*` and `core.*` metrics
/// (`core.sweep_ms` over every `core.sweep` span `tracer` holds).
/// Returns the median stage total per sweep (ms).
pub fn probe_frozen(
    pm: &mut PreparedCimModel,
    twin: &mut ResNet,
    pool: &[Tensor],
    until: Instant,
    tracer: &Tracer,
    rep: &mut Report,
) -> f64 {
    let serial = |m: &ResNet, x: &Tensor| {
        m.forward_shared(x)
            .expect("frozen model serves through shared state")
    };

    // Conv names in visit order, then one stage probe per conv.
    let first = batch_of(&pool[..SWEEP_ROWS]);
    let mut names = Vec::new();
    let y0 = interpret(twin, &first, &mut |name, l, x| {
        if let Some(n) = name {
            names.push(n.to_string());
        }
        l.forward_shared(x).expect("frozen layer")
    });
    check!(
        y0 == serial(twin, &first),
        "layer-by-layer replay diverged from the model's forward_shared"
    );
    let mut probes = Vec::new();
    for_each_cim_conv(twin, |c| {
        probes.push(ConvProbe::new(&names[probes.len()], c));
    });
    check!(probes.len() == names.len(), "conv count vs replay");

    // Psum health from the captured integer partial sums of a real batch.
    for_each_cim_conv(twin, |c| c.set_psum_capture(true));
    let y_cap = twin.forward(&first, Mode::Eval);
    check!(
        y_cap == y0,
        "psum-capturing forward diverged from the frozen forward"
    );
    let mut per_conv_psums: Vec<PsumStats> = Vec::new();
    for_each_cim_conv(twin, |c| {
        let psums = c.take_captured_psums().expect("captured psums");
        per_conv_psums.push(psum_stats(probes[per_conv_psums.len()].desc(), &psums));
        c.set_psum_capture(false);
    });

    let timed = TimedIntPanels::default();
    let (mut conv_ms, mut nonconv_ms, mut stage_ms) = (vec![], vec![], vec![]);
    let mut per_conv: Vec<(Vec<f64>, Vec<f64>)> = vec![(vec![], vec![]); probes.len()];
    let mut iters = 0usize;
    while iters == 0 || Instant::now() < until {
        let lo = (iters * SWEEP_ROWS) % pool.len();
        let requests = &pool[lo..lo + SWEEP_ROWS];
        let batch = batch_of(requests);
        let root = tracer.open("probe", Tracer::root(), None);

        // cq-core: the serial model forward replayed layer by layer, every
        // leaf's forward_shared timed (CIM convs vs everything between).
        let y = serial(twin, &batch);
        let mut calls: Vec<(Tensor, Tensor)> = Vec::with_capacity(probes.len());
        let (mut conv_total, mut other_total) = (0.0, 0.0);
        let sp = tracer.open("core.replay", root, None);
        let y_replay = interpret(twin, &batch, &mut |name, l, x| {
            let t = Instant::now();
            let out = l.forward_shared(x).expect("frozen layer");
            let end = Instant::now();
            match name {
                Some(n) => {
                    tracer.record(&format!("conv:{n}"), sp, None, t, end);
                    conv_total += ms(t, end);
                    calls.push((x.clone(), out.clone()));
                }
                None => other_total += ms(t, end),
            }
            out
        });
        tracer.close(sp);
        check!(y_replay == y, "layer-by-layer replay diverged");
        conv_ms.push(conv_total);
        nonconv_ms.push(other_total);

        // cq-cim: each conv's serving stages, on its real input.
        let mut stages = [0.0f64; 4];
        for (i, (probe, (x, want))) in probes.iter().zip(&calls).enumerate() {
            let sp = tracer.open(&format!("stages:{}", probe.name), root, None);
            let (st, out) = probe.run_stages(x, &timed);
            tracer.close(sp);
            check!(
                &out == want,
                "{}: staged conv diverged from forward_shared",
                probe.name
            );
            check!(
                out == probe.infer(x),
                "{}: staged conv diverged from PreparedConv::infer",
                probe.name
            );
            for (a, b) in stages.iter_mut().zip(st) {
                *a += b;
            }
            per_conv[i].0.push(st[2]);
            per_conv[i].1.push(st[3]);
        }
        stage_ms.push(stages);

        // The real sweep: single-image requests through infer_batch.
        let sp = tracer.open("core.sweep", root, None);
        let outs = pm.infer_batch(requests);
        tracer.close(sp);
        for (k, o) in outs.iter().enumerate() {
            check!(
                *o == y.slice_outer(k, k + 1),
                "served sweep diverged from the serial forward"
            );
        }
        tracer.close(root);
        iters += 1;
    }

    // cq-tensor: kernel busy time per sweep, summed over pool threads.
    let ([im2col, widen, igemm, epilogue], macs) = timed.snapshot();
    let per = iters as f64;
    rep.put("tensor.im2col_ms", im2col / per, "ms");
    rep.put("tensor.widen_ms", widen / per, "ms");
    rep.put("tensor.igemm_ms", igemm / per, "ms");
    rep.put("tensor.epilogue_ms", epilogue / per, "ms");
    rep.put(
        "tensor.igemm_gmacs_per_s",
        macs as f64 / (igemm * 1e6),
        "GMAC/s",
    );
    rep.put(
        "tensor.arena_peak_mb",
        arena::global_peak_bytes() as f64 / 1e6,
        "MB",
    );

    // cq-cim: stage time per sweep, then per conv, then psum health.
    let stage = |k: usize| median(&stage_ms.iter().map(|s| s[k]).collect::<Vec<_>>());
    rep.put("cim.actq_ms", stage(0), "ms");
    rep.put("cim.pad_ms", stage(1), "ms");
    rep.put("cim.frontend_ms", stage(2), "ms");
    rep.put("cim.reduce_ms", stage(3), "ms");
    let mut all = PsumStats::default();
    for ((probe, (fe, red)), ps) in probes.iter().zip(&per_conv).zip(&per_conv_psums) {
        rep.put(format!("cim.{}.frontend_ms", probe.name), median(fe), "ms");
        rep.put(format!("cim.{}.reduce_ms", probe.name), median(red), "ms");
        rep.put(
            format!("cim.{}.clip_ratio", probe.name),
            ratio(ps.clipped, ps.conversions),
            "ratio",
        );
        all.merge(ps);
    }
    rep.put(
        "cim.adc_conversions_per_image",
        all.conversions as f64 / all.images.max(1) as f64,
        "count",
    );
    rep.put(
        "cim.psum_clip_ratio",
        ratio(all.clipped, all.conversions),
        "ratio",
    );
    for (s, (c, n)) in all.per_split.iter().enumerate() {
        rep.put(format!("cim.psum_clip_ratio.s{s}"), ratio(*c, *n), "ratio");
    }
    rep.put(
        "cim.psum_zero_ratio",
        ratio(all.zero, all.conversions),
        "ratio",
    );

    // cq-core: sweep latency over every traced sweep of the run (the
    // workload's own and the probe's), conv time, and the time between
    // convs.
    let sw = sorted(&tracer.durations_ms("core.sweep"));
    rep.put("core.sweep_ms.p50", median(&sw), "ms");
    let (q, p99) = tail(&sw, 0.99).unwrap_or((1.0, sw[sw.len() - 1]));
    rep.put("core.sweep_ms.p99", p99, "ms");
    rep.put("core.conv_ms", median(&conv_ms), "ms");
    rep.put("core.nonconv_ms", median(&nonconv_ms), "ms");
    rep.note(format!(
        "probe: {iters} sweeps of {SWEEP_ROWS}; core.sweep_ms tail is p{:.1} of {} sweeps",
        100.0 * q,
        sw.len()
    ));
    median(
        &stage_ms
            .iter()
            .map(|s| s.iter().sum())
            .collect::<Vec<f64>>(),
    )
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
