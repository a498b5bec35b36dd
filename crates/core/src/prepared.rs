//! The **frozen, batched inference engine**: a whole trained CIM model
//! prepared for serving.
//!
//! [`PreparedCimModel`] freezes every [`CimConv2d`](crate::CimConv2d) in
//! the network once at load — weights quantized, bit-split, and grouped
//! into the crossbar layout, device variation baked in — so repeated
//! `infer`/`infer_batch` calls do none of the training-time weight-side
//! work. Outputs are **bit-identical** to the unprepared per-call path
//! (`prepared_inference` integration tests pin the full psq × granularity
//! × digitizer matrix).
//!
//! [`PreparedCimModel::infer_batch`] additionally **coalesces micro
//! batches**: many small requests are concatenated into one batch and
//! swept through the network in one forward pass, then split back per
//! request. Every layer in this workspace processes batch elements
//! independently with a fixed f32 operation order, so coalescing is also
//! bit-exact per sample.
//!
//! A prepared model serves through shared state (`&self`), so one model
//! can serve many threads at once without a lock. Its one policy setter,
//! `set_max_batch`, takes `&mut self` and applies before the model is
//! shared. Each frozen convolution's execution backend is fixed when it
//! freezes (see [`CimConv2d::set_backends`](crate::CimConv2d::set_backends)
//! to choose one before preparation).
//!
//! Sweeps are additionally **cross-layer pipelined** (see
//! [`PreparedCimModel::infer`]): a sweep's batch rows are split into two
//! contiguous waves that travel the network concurrently as tasks on the
//! shared [`cq_tensor::exec`] pool, so one wave's late layers
//! (digitize/shift-add/reduce) overlap the other wave's early layers
//! (im2col/pack/GEMM). Because the waves are exactly the chunked-sweep
//! decomposition, outputs stay bit-identical at every pool width —
//! pipelining reschedules work, never arithmetic.

use crate::{for_each_cim_conv, load_cim_checkpoint, CimConv2d};
use cq_cim::BackendKind;
use cq_nn::{Conv2d, Layer};
use cq_tensor::{exec, Tensor};
use std::num::{NonZeroU32, NonZeroUsize};
use std::ops::Range;
use std::path::Path;

/// Freezes every CIM convolution in `model` for serving (see
/// [`CimConv2d::freeze`](crate::CimConv2d::freeze)).
///
/// # Panics
///
/// Panics if any CIM layer has quantization disabled or uninitialized
/// scales (run one eval forward, or restore a trained checkpoint, first).
pub fn freeze_model(model: &mut dyn Layer) {
    for_each_cim_conv(model, |c| c.freeze());
}

/// Drops the frozen serving state of every CIM convolution in `model`.
pub fn unfreeze_model(model: &mut dyn Layer) {
    for_each_cim_conv(model, |c| c.unfreeze());
}

/// Concurrent waves a multi-row sweep is split into (see
/// [`PreparedCimModel::infer`]): the two-stage software pipeline.
const PIPELINE_WAVES: usize = 2;

/// A trained model frozen for batched serving (see module docs).
pub struct PreparedCimModel {
    model: Box<dyn Layer>,
    /// Upper bound on coalesced rows per forward sweep (`None` = merge
    /// everything into one sweep).
    max_batch: Option<NonZeroUsize>,
    /// The scheme name (see [`PreparedCimModel::scheme`]), fixed at
    /// preparation.
    scheme: Box<str>,
    /// Frozen CIM layers per resolved backend, fixed at preparation.
    /// `u32` counts and channels keep the model, and the serving errors
    /// that hand one back, small.
    backend_layers: [u32; 3],
    /// Input channels of the first convolution (see
    /// [`PreparedCimModel::in_channels`]), fixed at preparation.
    in_channels: Option<NonZeroU32>,
}

/// Input channels of `model`'s first convolution in
/// [`Layer::apply`] order, full-precision or CIM (`None` without one).
fn first_conv_in_channels(model: &mut dyn Layer) -> Option<NonZeroU32> {
    let mut found = None;
    model.apply(&mut |l| {
        if found.is_none() {
            let l = l.as_any_mut();
            let channels = match l.downcast_mut::<Conv2d>() {
                Some(conv) => Some(conv.weight().dim(1)),
                None => l.downcast_mut::<CimConv2d>().map(|c| c.plan().in_ch),
            };
            found = channels.and_then(|c| NonZeroU32::new(c.try_into().ok()?));
        }
    });
    found
}

/// Counts `model`'s frozen CIM layers by resolved backend, indexed by
/// [`BackendKind::index`]; unfrozen layers count nowhere.
fn backend_layer_counts(model: &mut dyn Layer) -> [u32; 3] {
    let mut counts = [0u32; 3];
    for_each_cim_conv(model, |c| {
        if let Some(kind) = c.active_backend() {
            counts[kind.index()] += 1;
        }
    });
    counts
}

impl PreparedCimModel {
    /// Prepares a trained model: every CIM convolution is frozen once.
    ///
    /// # Panics
    ///
    /// Panics if any CIM layer has quantization disabled or uninitialized
    /// scales.
    pub fn new(mut model: Box<dyn Layer>) -> Self {
        freeze_model(model.as_mut());
        let mut scheme: Option<Box<str>> = None;
        for_each_cim_conv(model.as_mut(), |c| {
            if scheme.is_none() {
                scheme = c.scheme_name().map(Box::from);
            }
        });
        let backend_layers = backend_layer_counts(model.as_mut());
        let in_channels = first_conv_in_channels(model.as_mut());
        Self {
            model,
            max_batch: None,
            scheme: scheme.unwrap_or_else(|| "custom".into()),
            backend_layers,
            in_channels,
        }
    }

    /// Restores a trained checkpoint into `model` (which supplies the
    /// architecture) and prepares it — the load-once entry point of the
    /// serving flow.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and checkpoint-format violations.
    pub fn restore(mut model: Box<dyn Layer>, path: impl AsRef<Path>) -> std::io::Result<Self> {
        load_cim_checkpoint(model.as_mut(), path)?;
        Ok(Self::new(model))
    }

    /// Caps how many images one coalesced forward sweep may carry
    /// (`None` = unbounded). Chunking changes wall-clock behaviour only —
    /// per-sample outputs stay bit-identical.
    pub fn set_max_batch(&mut self, max_batch: Option<usize>) {
        self.max_batch =
            max_batch.map(|n| NonZeroUsize::new(n).expect("max_batch must be positive"));
    }

    /// The active sweep cap (`None` = unbounded) — the introspection
    /// counterpart of [`set_max_batch`](PreparedCimModel::set_max_batch).
    /// Note the `cq-serve` front-end installs its own `ServeConfig`
    /// cap on every resident model, so after a serving round-trip this
    /// reflects the last server's policy, not the pre-registration value.
    pub fn max_batch(&self) -> Option<usize> {
        self.max_batch.map(NonZeroUsize::get)
    }

    /// Input channels the model's first convolution expects (`C` of a
    /// `[B, C, H, W]` input), recorded at preparation; `None` for a model
    /// without a convolution. A serving front-end checks requests against
    /// it before they reach a sweep, where a mismatch would panic.
    pub fn in_channels(&self) -> Option<usize> {
        self.in_channels.map(|c| c.get() as usize)
    }

    /// Serves one already-batched tensor `[B, C, H, W]` through shared
    /// state (`&self`): several threads may call this concurrently on one
    /// prepared model. A single row is one shared-eval forward; more rows
    /// are split into two contiguous **waves** that run that forward
    /// concurrently as pool tasks, so one wave's reduce overlaps the
    /// other's im2col/pack. Waves are exactly the chunked-sweep
    /// decomposition every layer already guarantees bit-exact, so the
    /// output is bit-identical to the unprepared eval forward at every
    /// pool width; it does **not** apply `max_batch` chunking (see
    /// [`infer_batch`](Self::infer_batch)).
    ///
    /// # Panics
    ///
    /// Panics if any layer cannot serve through shared state (cannot
    /// happen for models built by this workspace: every CIM conv is
    /// frozen at preparation and every other layer is stateless in eval).
    pub fn infer(&self, images: &Tensor) -> Tensor {
        let b = images.dim(0);
        let waves = PIPELINE_WAVES.min(b).max(1);
        if waves == 1 {
            return self
                .model
                .forward_shared(images)
                .expect("prepared model has a layer without shared-eval support");
        }
        // Contiguous waves; wave w+1's early layers overlap wave w's late
        // layers on the pool. Rejoined by concatenation in row order, so
        // this is exactly the (bit-exact) chunked-sweep decomposition.
        let per = b.div_ceil(waves);
        let mut outs: Vec<Option<Tensor>> = (0..waves).map(|_| None).collect();
        exec::scope(|sc| {
            for (wi, out) in outs.iter_mut().enumerate() {
                let (lo, hi) = (wi * per, ((wi + 1) * per).min(b));
                if lo >= hi {
                    continue;
                }
                let model = self.model.as_ref();
                sc.spawn(move || {
                    let wave = images.slice_outer(lo, hi);
                    *out = Some(
                        model
                            .forward_shared(&wave)
                            .expect("prepared model has a layer without shared-eval support"),
                    );
                });
            }
        });
        let parts: Vec<Tensor> = outs.into_iter().flatten().collect();
        if parts.len() == 1 {
            parts.into_iter().next().unwrap()
        } else {
            Tensor::concat_outer(&parts.iter().collect::<Vec<_>>())
        }
    }

    /// The quantization-scheme name of the model's CIM layers: the first
    /// layer's recorded scheme ([`crate::CimConv2d::scheme_name`]), or
    /// `"custom"` when no layer records one (models built straight from
    /// granularities). The serving registry attributes per-model images
    /// under this key.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Counts `(layers dispatching to the integer kernels, total CIM
    /// layers)` — the observability hook tests and benchmarks use to
    /// assert which kernel actually ran.
    pub fn count_integer_kernels(&self) -> (usize, usize) {
        let counts = self.backend_layer_counts();
        (counts[BackendKind::IntPanels.index()], counts.iter().sum())
    }

    /// Counts frozen CIM layers by resolved backend, indexed by
    /// [`BackendKind::index`] — the per-backend observability hook behind
    /// `ServeStats`.
    pub fn backend_layer_counts(&self) -> [usize; 3] {
        self.backend_layers.map(|n| n as usize)
    }

    /// The backend serving the most frozen layers (`None` when no layer
    /// is frozen); ties prefer `IntPanels`, then `SimdF32`, then
    /// `Scalar` — the order of increasing generality.
    pub fn primary_backend(&self) -> Option<BackendKind> {
        let counts = self.backend_layer_counts();
        // `max_by_key` keeps the last of equally-maximal entries, so
        // iterating in increasing preference implements the tie-break.
        [
            BackendKind::Scalar,
            BackendKind::SimdF32,
            BackendKind::IntPanels,
        ]
        .into_iter()
        .filter(|k| counts[k.index()] > 0)
        .max_by_key(|k| counts[k.index()])
    }

    /// Serves many independent requests (each `[b_i, C, H, W]`, typically
    /// `b_i = 1`): requests are coalesced into sweeps of at most
    /// `max_batch` images, each sweep runs one parallel forward, and the
    /// outputs are split back per request. A single request **larger** than
    /// `max_batch` is chunked into ≤ cap sweeps and its output slices are
    /// concatenated, so the cap bounds every sweep regardless of request
    /// sizes. Every layer processes batch elements independently with a
    /// fixed f32 operation order, so both coalescing and chunking are
    /// bit-exact per sample.
    ///
    /// # Panics
    ///
    /// Panics if requests disagree on the non-batch dimensions.
    pub fn infer_batch(&self, requests: &[Tensor]) -> Vec<Tensor> {
        let cap = self.max_batch.map_or(usize::MAX, NonZeroUsize::get);
        // One (request, row-range) segment per sweep contribution; an
        // oversized request spans several sweeps.
        let mut sweep: Vec<(usize, Range<usize>)> = Vec::new();
        let mut rows = 0usize;
        let mut parts: Vec<Vec<Tensor>> = (0..requests.len()).map(|_| Vec::new()).collect();
        for (i, req) in requests.iter().enumerate() {
            assert_eq!(req.rank(), 4, "request must be [B,C,H,W]");
            let b = req.dim(0);
            if b == 0 {
                // An empty request still yields a (batch-0) output tensor.
                sweep.push((i, 0..0));
                continue;
            }
            let mut start = 0;
            while start < b {
                if rows == cap {
                    self.run_sweep(requests, &mut sweep, &mut parts);
                    rows = 0;
                }
                let take = (b - start).min(cap - rows);
                sweep.push((i, start..start + take));
                rows += take;
                start += take;
            }
        }
        self.run_sweep(requests, &mut sweep, &mut parts);
        parts
            .into_iter()
            .map(|mut p| {
                if p.len() == 1 {
                    p.pop().unwrap()
                } else {
                    Tensor::concat_outer(&p.iter().collect::<Vec<_>>())
                }
            })
            .collect()
    }

    /// Runs one coalesced forward over the `sweep` segments and appends
    /// each segment's output slice to its request's parts; drains `sweep`.
    fn run_sweep(
        &self,
        requests: &[Tensor],
        sweep: &mut Vec<(usize, Range<usize>)>,
        parts: &mut [Vec<Tensor>],
    ) {
        if sweep.is_empty() {
            return;
        }
        // Whole-request segments borrow the request; partial (chunked)
        // segments need an owned slice to concatenate.
        let owned: Vec<Option<Tensor>> = sweep
            .iter()
            .map(|(i, r)| {
                let req = &requests[*i];
                if *r == (0..req.dim(0)) {
                    None
                } else {
                    Some(req.slice_outer(r.start, r.end))
                }
            })
            .collect();
        let inputs: Vec<&Tensor> = sweep
            .iter()
            .zip(&owned)
            .map(|((i, _), o)| o.as_ref().unwrap_or(&requests[*i]))
            .collect();
        let merged = if inputs.len() == 1 {
            self.infer(inputs[0])
        } else {
            let coalesced = Tensor::concat_outer(&inputs);
            self.infer(&coalesced)
        };
        let mut start = 0;
        for (i, r) in sweep.iter() {
            let b = r.end - r.start;
            parts[*i].push(merged.slice_outer(start, start + b));
            start += b;
        }
        sweep.clear();
    }

    /// Unfreezes and returns the underlying model.
    pub fn into_inner(mut self) -> Box<dyn Layer> {
        unfreeze_model(self.model.as_mut());
        self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_cim_resnet, save_cim_checkpoint, QuantScheme};
    use cq_cim::CimConfig;
    use cq_nn::{Mode, ResNet, ResNetSpec};
    use cq_tensor::CqRng;

    /// A small CIM ResNet with all lazy scales initialized.
    fn warmed_net(seed: u64) -> ResNet {
        let mut net = build_cim_resnet(
            ResNetSpec::resnet8(4, 4),
            &CimConfig::tiny(),
            &QuantScheme::ours(),
            seed,
        );
        let x = CqRng::new(seed + 100).normal_tensor(&[2, 3, 12, 12], 1.0);
        let _ = net.forward(&x, Mode::Eval);
        net
    }

    #[test]
    fn prepared_model_matches_unprepared_bitwise() {
        let mut net = warmed_net(1);
        let x = CqRng::new(2).normal_tensor(&[3, 3, 12, 12], 1.0);
        let want = net.forward(&x, Mode::Eval);
        let pm = PreparedCimModel::new(Box::new(net));
        assert_eq!(pm.infer(&x), want, "prepared forward diverged");
        assert_eq!(pm.infer(&x), want, "second prepared forward diverged");
    }

    #[test]
    fn coalescing_and_chunking_are_bit_exact_per_request() {
        let mut net = warmed_net(3);
        let rng = &mut CqRng::new(4);
        let requests: Vec<Tensor> = (0..5)
            .map(|_| rng.normal_tensor(&[1, 3, 12, 12], 1.0))
            .collect();
        let want: Vec<Tensor> = requests
            .iter()
            .map(|r| net.forward(r, Mode::Eval))
            .collect();
        let mut pm = PreparedCimModel::new(Box::new(net));
        for max_batch in [None, Some(1), Some(2), Some(64)] {
            pm.set_max_batch(max_batch);
            let got = pm.infer_batch(&requests);
            assert_eq!(got, want, "max_batch={max_batch:?}");
        }
        assert!(pm.infer_batch(&[]).is_empty());
    }

    /// Regression: a single request larger than `max_batch` must still be
    /// served in ≤ cap sweeps, and the rejoined output must equal the
    /// uncapped path bit-for-bit.
    #[test]
    fn oversized_request_is_chunked_bit_exactly() {
        let mut net = warmed_net(9);
        let big = CqRng::new(10).normal_tensor(&[7, 3, 12, 12], 1.0);
        let want = net.forward(&big, Mode::Eval);
        let mut pm = PreparedCimModel::new(Box::new(net));
        for cap in [1usize, 2, 3, 5, 7, 8] {
            pm.set_max_batch(Some(cap));
            let got = pm.infer_batch(std::slice::from_ref(&big));
            assert_eq!(got.len(), 1);
            assert_eq!(got[0], want, "max_batch={cap}");
        }
        // Mixed stream: oversized requests interleaved with small ones.
        let reqs = [
            CqRng::new(11).normal_tensor(&[3, 3, 12, 12], 1.0),
            big.clone(),
            CqRng::new(12).normal_tensor(&[1, 3, 12, 12], 1.0),
        ];
        pm.set_max_batch(None);
        let want: Vec<Tensor> = pm.infer_batch(&reqs);
        pm.set_max_batch(Some(2));
        assert_eq!(pm.infer_batch(&reqs), want, "mixed stream diverged");
    }

    /// Cross-layer pipelined waves must be bit-identical to the plain
    /// unprepared forward at every executor pool width, for an odd batch
    /// (uneven waves) and a single row (no waves).
    #[test]
    fn pipelined_waves_are_bit_exact_across_pool_widths() {
        let mut net = warmed_net(13);
        let x = CqRng::new(14).normal_tensor(&[5, 3, 12, 12], 1.0);
        let row = x.slice_outer(0, 1);
        let want = net.forward(&x, Mode::Eval);
        let want_row = net.forward(&row, Mode::Eval);
        let pm = PreparedCimModel::new(Box::new(net));
        for width in [1usize, 2, 4] {
            let pool = cq_tensor::exec::ExecPool::with_threads(width);
            pool.install(|| {
                assert_eq!(pm.infer(&x), want, "width={width}");
                assert_eq!(pm.infer(&row), want_row, "width={width} single row");
            });
        }
    }

    /// `infer` through `&self` must equal the unprepared forward
    /// bit-for-bit under concurrent callers on one model.
    #[test]
    fn shared_inference_matches_exclusive_path() {
        let mut net = warmed_net(11);
        let x = CqRng::new(12).normal_tensor(&[3, 3, 12, 12], 1.0);
        let want = net.forward(&x, Mode::Eval);
        let pm = &PreparedCimModel::new(Box::new(net));
        std::thread::scope(|sc| {
            for _ in 0..3 {
                sc.spawn(|| assert_eq!(pm.infer(&x), want, "shared path diverged"));
            }
        });
    }

    #[test]
    fn restore_prepares_a_checkpointed_model() {
        let mut a = warmed_net(5);
        let x = CqRng::new(6).normal_tensor(&[1, 3, 12, 12], 1.0);
        let want = a.forward(&x, Mode::Eval);
        let dir = std::env::temp_dir().join("cq_prepared_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cqnn");
        save_cim_checkpoint(&mut a, &path).unwrap();

        let fresh = build_cim_resnet(
            ResNetSpec::resnet8(4, 4),
            &CimConfig::tiny(),
            &QuantScheme::ours(),
            999,
        );
        let pm = PreparedCimModel::restore(Box::new(fresh), &path).unwrap();
        assert_eq!(pm.infer(&x), want, "restored prepared model diverged");
        std::fs::remove_file(&path).ok();
    }

    /// `restore` refuses a corrupt checkpoint with `Err`: a declared
    /// length of 2⁴⁰ or `usize::MAX` values (which must not be
    /// allocated), and a saved checkpoint cut at every line boundary.
    #[test]
    fn restore_rejects_corrupt_checkpoints() {
        let dir = std::env::temp_dir().join("cq_prepared_corrupt_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.cqnn");
        save_cim_checkpoint(&mut warmed_net(15), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut corrupt: Vec<String> = [1u64 << 40, usize::MAX as u64]
            .iter()
            .map(|len| format!("CQNN1\nx weight {len}\n00000000\n"))
            .collect();
        corrupt.push(String::new());
        corrupt.extend(
            text.match_indices('\n')
                .map(|(i, _)| text[..=i].to_string())
                .filter(|cut| cut.len() < text.len()),
        );
        for bad in &corrupt {
            std::fs::write(&path, bad).unwrap();
            let fresh = build_cim_resnet(
                ResNetSpec::resnet8(4, 4),
                &CimConfig::tiny(),
                &QuantScheme::ours(),
                999,
            );
            assert!(
                PreparedCimModel::restore(Box::new(fresh), &path).is_err(),
                "corrupt checkpoint of {} bytes restored",
                bad.len()
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn into_inner_unfreezes() {
        let net = warmed_net(7);
        let pm = PreparedCimModel::new(Box::new(net));
        let mut model = pm.into_inner();
        let mut any_frozen = false;
        for_each_cim_conv(model.as_mut(), |c| any_frozen |= c.is_frozen());
        assert!(!any_frozen, "into_inner must unfreeze");
    }

    #[test]
    #[should_panic(expected = "max_batch must be positive")]
    fn zero_max_batch_rejected() {
        let net = warmed_net(8);
        let mut pm = PreparedCimModel::new(Box::new(net));
        pm.set_max_batch(Some(0));
    }
}
