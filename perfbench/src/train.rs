//! The QAT probe of `serve-open`'s traced run: one-stage QAT of the same
//! ResNet-8 on the synthetic CIFAR-10 stand-in, batch 16, measured from
//! outside. Training runs the `cq-cim`/`cq-quant`/`cq-tensor` code another
//! way (f32 grouped psums, weight quantization on every call, the LSQ
//! straight-through backward) and never touches the frozen integer path,
//! so an engine speed-up that slows training shows in its `train.*`
//! metrics.

use crate::check;
use crate::common::{ms, Report};
use crate::probe::interpret;
use crate::stats::median;
use crate::trace::Tracer;
use cq_bench::ExperimentSetting;
use cq_core::{
    build_cim_resnet, set_psum_quant_enabled, set_quant_enabled, CimConv2d, QuantScheme,
};
use cq_data::{generate, shuffled_batches, Augment, Batch, Dataset};
use cq_nn::{softmax_cross_entropy, Layer, Mode, ResNet, Sgd};
use cq_tensor::{CqRng, Tensor};
use cq_train::{evaluate, train_epochs, TrainConfig, TrainResult};
use std::time::{Duration, Instant};

/// How far the last epoch's mean loss may end above the first epoch's.
const LOSS_SLACK: f32 = 0.05;
/// One-step epochs of the fixed-batch fit check.
const FIT_STEPS: usize = 40;
/// How far the fit check must bring its batch's loss down.
const FIT_DROP: f32 = 0.05;

/// A model in training with its data and optimizer.
struct Trainer {
    net: ResNet,
    train: Dataset,
    test: Dataset,
    cfg: TrainConfig,
    opt: Sgd,
    result: TrainResult,
}

impl Trainer {
    /// Generates the data, builds the model with every quantizer on
    /// (one-stage QAT), and evaluates it once on the held-out set, which
    /// initializes its lazy scales.
    fn new(setting: &ExperimentSetting, seed: u64) -> Trainer {
        let (train, test) = generate(&setting.data);
        let mut net = build_cim_resnet(
            setting.model.clone(),
            &setting.cim,
            &QuantScheme::ours(),
            seed,
        );
        set_quant_enabled(&mut net, true);
        set_psum_quant_enabled(&mut net, true);
        let cfg = setting.train.clone();
        let _ = evaluate(&mut net, &test, cfg.batch_size);
        Trainer {
            net,
            train,
            test,
            opt: Sgd::new(cfg.lr.lr_at(0), cfg.momentum, cfg.weight_decay),
            cfg,
            result: TrainResult::default(),
        }
    }

    /// Trains one epoch through `train_epochs`, each epoch on its own
    /// shuffle; returns its wall time (ms), which covers batch preparation
    /// and the held-out evaluation `train_epochs` runs after the epoch.
    fn epoch(&mut self) -> f64 {
        let cfg = TrainConfig {
            epochs: 1,
            seed: self.cfg.seed.wrapping_add(self.result.history.len() as u64),
            ..self.cfg.clone()
        };
        let t = Instant::now();
        train_epochs(
            &mut self.net,
            &self.train,
            &self.test,
            &cfg,
            &mut self.opt,
            &mut self.result,
        );
        ms(t, Instant::now())
    }
}

/// The run's loss stays finite and its last epoch ends no more than
/// `LOSS_SLACK` above its first. A strict decrease is no gate here: this
/// binary-psum model often settles near the chance-level loss ln 10 from
/// a first epoch only just above it; [`check_fits`] shows it learns.
fn check_loss(epoch_loss: &[f32]) {
    check!(
        epoch_loss.iter().all(|l| l.is_finite()),
        "non-finite training loss"
    );
    let (first, last) = (epoch_loss[0], epoch_loss[epoch_loss.len() - 1]);
    check!(
        epoch_loss.len() >= 2 && last <= first + LOSS_SLACK,
        "loss diverged over {} epochs (first-epoch mean {first}, last {last})",
        epoch_loss.len()
    );
}

/// Training must learn: a freshly built model, trained through
/// `train_epochs` for `FIT_STEPS` one-step epochs on one fixed,
/// unaugmented batch, must bring that batch's loss at some step at least
/// `FIT_DROP` below its first. A backward that returns zero gradients or
/// an optimizer step that does nothing leaves the loss flat. Returns the
/// first and the lowest later loss.
fn check_fits(setting: &ExperimentSetting, seed: u64) -> (f32, f32) {
    let mut t = Trainer::new(setting, seed);
    let n = t.cfg.batch_size;
    let batch = Dataset {
        images: t.train.images.slice_outer(0, n),
        labels: t.train.labels[..n].to_vec(),
    };
    let cfg = TrainConfig {
        epochs: FIT_STEPS,
        augment: Augment::none(),
        ..t.cfg.clone()
    };
    let mut result = TrainResult::default();
    train_epochs(&mut t.net, &batch, &batch, &cfg, &mut t.opt, &mut result);
    let h = &result.history;
    let before = h[0].train_loss;
    let after = h[1..]
        .iter()
        .map(|r| r.train_loss)
        .fold(f32::INFINITY, f32::min);
    let learned = after <= before - FIT_DROP;
    check!(
        learned,
        "training did not fit one fixed batch in {FIT_STEPS} steps (loss {before} -> {after})"
    );
    (before, after)
}

/// Per-step phase times of the hand-written step loop, ms.
struct StepMs {
    forward: Vec<f64>,
    backward: Vec<f64>,
    sgd: Vec<f64>,
}

/// Steps `t` by hand over shuffled, augmented full batches until `until`
/// (at least one step), timing each phase of a step. Returns the phase
/// times and every step's loss.
fn steps_until(t: &mut Trainer, until: Instant, tracer: &Tracer) -> (StepMs, Vec<f32>) {
    let mut rng = CqRng::new(t.cfg.seed ^ 0x7374_6570);
    let mut queue: Vec<Batch> = Vec::new();
    let mut out = StepMs {
        forward: Vec::new(),
        backward: Vec::new(),
        sgd: Vec::new(),
    };
    let mut losses = Vec::new();
    while losses.is_empty() || Instant::now() < until {
        // Batches pop in epoch order; a short last batch starts the next
        // epoch.
        let Some(batch) = queue.pop().filter(|b| b.labels.len() == t.cfg.batch_size) else {
            queue = shuffled_batches(&t.train, t.cfg.batch_size, &mut rng, t.cfg.augment);
            queue.reverse();
            continue;
        };
        let sp = tracer.open("train.step", Tracer::root(), None);
        let f = tracer.open("train.forward", sp, None);
        let t0 = Instant::now();
        let logits = t.net.forward(&batch.images, Mode::Train);
        let loss = softmax_cross_entropy(&logits, &batch.labels);
        let t1 = Instant::now();
        tracer.close(f);
        let b = tracer.open("train.backward", sp, None);
        t.net.zero_grads();
        let _ = t.net.backward(&loss.grad);
        let t2 = Instant::now();
        tracer.close(b);
        let s = tracer.open("train.sgd", sp, None);
        t.opt.step(&mut t.net);
        let t3 = Instant::now();
        tracer.close(s);
        tracer.close(sp);
        losses.push(loss.loss);
        out.forward.push(ms(t0, t1));
        out.backward.push(ms(t1, t2));
        out.sgd.push(ms(t2, t3));
    }
    (out, losses)
}

/// Times standalone train-mode `CimConv2d` forward/backward calls on the
/// model's real conv inputs until `until`; returns per-step sums (ms).
fn cim_train_probe(
    net: &mut ResNet,
    batch: &Tensor,
    seed: u64,
    setting: &ExperimentSetting,
    until: Instant,
) -> (Vec<f64>, Vec<f64>) {
    // Each CIM conv's geometry and its real input on a training batch.
    let mut convs: Vec<(CimConv2d, Tensor)> = Vec::new();
    let mut rng = CqRng::new(seed ^ 0x7261_696e);
    let _ = interpret(net, batch, &mut |name, l, x| {
        if name.is_some() {
            let c = l
                .as_any_mut()
                .downcast_mut::<CimConv2d>()
                .expect("named layers are CIM convs");
            let q = c.to_quantized_conv();
            let p = c.plan();
            let fresh = CimConv2d::with_scheme(
                p.in_ch,
                p.out_ch,
                p.kh,
                q.stride,
                q.pad,
                setting.cim,
                &QuantScheme::ours(),
                false,
                &mut rng,
            );
            convs.push((fresh, x.clone()));
        }
        l.forward(x, Mode::Eval)
    });
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    let mut first = true;
    while first || fwd.is_empty() || Instant::now() < until {
        let (mut f, mut b) = (0.0, 0.0);
        for (conv, x) in convs.iter_mut() {
            let t0 = Instant::now();
            let y = conv.forward(x, Mode::Train);
            let t1 = Instant::now();
            let _ = conv.backward(&y);
            let t2 = Instant::now();
            f += ms(t0, t1);
            b += ms(t1, t2);
        }
        // The first pass initializes the lazy scales; it is not timed.
        if !first {
            fwd.push(f);
            bwd.push(b);
        }
        first = false;
    }
    (fwd, bwd)
}

/// Trains the model of `setting` for about `span`: half through
/// `train_epochs` one epoch at a time (`train.images_per_s`), a quarter
/// with the hand-written step loop (`train.{forward,backward,sgd}_ms`), a
/// quarter with standalone CIM convs (`train.cim_{forward,backward}_ms`).
/// Then checks the loss and that training learns.
pub fn probe_qat(
    setting: &ExperimentSetting,
    seed: u64,
    span: Duration,
    tracer: &Tracer,
    rep: &mut Report,
) {
    let mut t = Trainer::new(setting, seed);
    let start = Instant::now();
    let mut epoch_ms = Vec::new();
    while epoch_ms.len() < 2 || Instant::now() < start + span / 2 {
        epoch_ms.push(t.epoch());
    }
    let images = t.train.len() as f64;
    rep.put(
        "train.images_per_s",
        median(
            &epoch_ms
                .iter()
                .map(|e| images * 1e3 / e)
                .collect::<Vec<_>>(),
        ),
        "img/s",
    );
    let (steps, losses) = steps_until(&mut t, start + span * 3 / 4, tracer);
    rep.put("train.forward_ms", median(&steps.forward), "ms");
    rep.put("train.backward_ms", median(&steps.backward), "ms");
    rep.put("train.sgd_ms", median(&steps.sgd), "ms");
    let batch = t.train.images.slice_outer(0, t.cfg.batch_size);
    let until = (start + span).max(Instant::now() + Duration::from_millis(200));
    let (fwd, bwd) = cim_train_probe(&mut t.net, &batch, seed, setting, until);
    rep.put("train.cim_forward_ms", median(&fwd), "ms");
    rep.put("train.cim_backward_ms", median(&bwd), "ms");

    let mut epoch_loss: Vec<f32> = t.result.history.iter().map(|r| r.train_loss).collect();
    epoch_loss.push(losses.iter().sum::<f32>() / losses.len() as f32);
    check_loss(&epoch_loss);
    let (fit0, fit1) = check_fits(setting, seed);
    rep.note(format!(
        "qat probe: {} train_epochs epochs, {} hand steps; epoch mean loss {:.3} -> {:.3}; \
         fixed-batch fit loss {fit0:.3} -> {fit1:.3}",
        epoch_ms.len(),
        losses.len(),
        epoch_loss[0],
        epoch_loss[epoch_loss.len() - 1],
    ));
}
