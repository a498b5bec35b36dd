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
//! swept through the network in a single `batch × row-tile` parallel pass,
//! then split back per request. Every layer in this workspace processes
//! batch elements independently with a fixed f32 operation order, so
//! coalescing is also bit-exact per sample.
//!
//! Sweeps are additionally **cross-layer pipelined** (see
//! [`PreparedCimModel::set_pipeline_depth`]): a sweep's batch rows are
//! split into contiguous waves that travel the network concurrently as
//! tasks on the shared [`cq_tensor::exec`] pool, so one wave's late
//! layers (digitize/shift-add/reduce) overlap the next wave's early
//! layers (im2col/pack/GEMM). Because the waves are exactly the
//! chunked-sweep decomposition, outputs stay bit-identical at every
//! depth and pool width — pipelining reschedules work, never arithmetic.

use crate::{for_each_cim_conv, load_cim_checkpoint};
use cq_cim::{BackendError, BackendKind, BackendSet};
use cq_nn::{Layer, Mode};
use cq_tensor::{exec, Tensor};
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

/// A trained model frozen for batched serving (see module docs).
pub struct PreparedCimModel {
    model: Box<dyn Layer>,
    /// Upper bound on coalesced rows per forward sweep (`None` = merge
    /// everything into one sweep).
    max_batch: Option<usize>,
    /// Number of concurrent waves a multi-row sweep is split into (see
    /// [`PreparedCimModel::set_pipeline_depth`]); `1` disables pipelining.
    pipeline_depth: usize,
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
        Self {
            model,
            max_batch: None,
            pipeline_depth: 2,
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
        assert!(max_batch != Some(0), "max_batch must be positive");
        self.max_batch = max_batch;
    }

    /// The active sweep cap (`None` = unbounded) — the introspection
    /// counterpart of [`set_max_batch`](PreparedCimModel::set_max_batch).
    /// Note the `cq-serve` front-end installs its own `ServeConfig`
    /// cap on every resident model, so after a serving round-trip this
    /// reflects the last server's policy, not the pre-registration value.
    pub fn max_batch(&self) -> Option<usize> {
        self.max_batch
    }

    /// Sets how many concurrent **waves** a multi-row sweep is split into
    /// (default `2`, the two-stage software pipeline; `1` disables
    /// pipelining). Waves are contiguous row chunks that travel the whole
    /// network concurrently as shared-eval tasks on the
    /// [`cq_tensor::exec`] pool, so one wave's reduce overlaps the next
    /// wave's im2col/pack. Waves are exactly the chunked-sweep
    /// decomposition every layer already guarantees bit-exact, so outputs
    /// are bit-identical at every depth and pool width.
    ///
    /// # Panics
    ///
    /// Panics on depth `0`.
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        assert!(depth >= 1, "pipeline depth must be positive");
        self.pipeline_depth = depth;
    }

    /// The active wave count — the introspection counterpart of
    /// [`set_pipeline_depth`](PreparedCimModel::set_pipeline_depth).
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }

    /// Serves one already-batched tensor `[B, C, H, W]`, cross-layer
    /// pipelined per [`set_pipeline_depth`](Self::set_pipeline_depth).
    pub fn infer(&mut self, images: &Tensor) -> Tensor {
        if self.pipeline_depth > 1 && images.dim(0) > 1 {
            self.infer_shared(images)
        } else {
            self.model.forward(images, Mode::Eval)
        }
    }

    /// Serves one batch through **shared state** (`&self`): several
    /// threads may call this concurrently on one prepared model. It is
    /// also the body of the cross-layer pipeline: multi-row batches are
    /// split into waves per [`set_pipeline_depth`](Self::set_pipeline_depth)
    /// and each wave runs this shared-eval forward as a pool task.
    /// Bit-identical to [`PreparedCimModel::infer`] (pinned by tests); it
    /// does **not** apply `max_batch` chunking.
    ///
    /// # Panics
    ///
    /// Panics if any layer cannot serve through shared state (cannot
    /// happen for models built by this workspace: every CIM conv is
    /// frozen at preparation and every other layer is stateless in eval).
    pub fn infer_shared(&self, images: &Tensor) -> Tensor {
        let b = images.dim(0);
        let depth = self.pipeline_depth.min(b).max(1);
        if depth <= 1 {
            return self
                .model
                .forward_shared(images)
                .expect("prepared model has a layer without shared-eval support");
        }
        // Contiguous waves; wave w+1's early layers overlap wave w's late
        // layers on the pool. Rejoined by concatenation in row order, so
        // this is exactly the (bit-exact) chunked-sweep decomposition.
        let per = b.div_ceil(depth);
        let mut outs: Vec<Option<Tensor>> = (0..depth).map(|_| None).collect();
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

    /// Selects the execution-backend chain of every frozen CIM
    /// convolution (see [`crate::CimConv2d::set_backends`]): each layer
    /// resolves the first chain entry whose capability probe accepts it
    /// (e.g. [`BackendSet::auto`] runs the repacked `i8×i8→i32` panel
    /// kernels when a layer's frozen slices are integer-exact and the f32
    /// kernels otherwise). Outputs are bit-identical on every backend —
    /// the choice is pure speed.
    ///
    /// # Errors
    ///
    /// The first [`BackendError`] encountered when a layer rejects the
    /// chain (e.g. [`BackendSet::int`] with variation-perturbed slices).
    /// Layers visited before the failing one keep the new chain; callers
    /// treating the error as fatal should re-apply a known-good chain.
    pub fn set_backends(&mut self, backends: BackendSet) -> Result<(), BackendError> {
        let mut err = None;
        for_each_cim_conv(self.model.as_mut(), |c| {
            if let Err(e) = c.set_backends(backends.clone()) {
                err.get_or_insert(e);
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The quantization-scheme name of the model's CIM layers: the first
    /// layer's recorded scheme ([`crate::CimConv2d::scheme_name`]), or
    /// `"custom"` when no layer records one (models built straight from
    /// granularities). The serving registry attributes per-model images
    /// under this key.
    pub fn scheme(&mut self) -> String {
        let mut found: Option<String> = None;
        for_each_cim_conv(self.model.as_mut(), |c| {
            if found.is_none() {
                if let Some(s) = c.scheme_name() {
                    found = Some(s.to_string());
                }
            }
        });
        found.unwrap_or_else(|| "custom".into())
    }

    /// Counts `(layers dispatching to the integer kernels, total CIM
    /// layers)` — the observability hook tests and benchmarks use to
    /// assert which kernel actually ran.
    pub fn count_integer_kernels(&mut self) -> (usize, usize) {
        let (mut active, mut total) = (0usize, 0usize);
        for_each_cim_conv(self.model.as_mut(), |c| {
            total += 1;
            active += c.integer_kernel_active() as usize;
        });
        (active, total)
    }

    /// Counts frozen CIM layers by resolved backend, indexed by
    /// [`BackendKind::index`] — the per-backend observability hook behind
    /// `ServeStats` and the serving benches. Unfrozen layers count
    /// nowhere.
    pub fn backend_layer_counts(&mut self) -> [usize; 3] {
        let mut counts = [0usize; 3];
        for_each_cim_conv(self.model.as_mut(), |c| {
            if let Some(kind) = c.active_backend() {
                counts[kind.index()] += 1;
            }
        });
        counts
    }

    /// The backend serving the most frozen layers (`None` when no layer
    /// is frozen); ties prefer `IntPanels`, then `SimdF32`, then
    /// `Scalar` — the order of increasing generality.
    pub fn primary_backend(&mut self) -> Option<BackendKind> {
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
    pub fn infer_batch(&mut self, requests: &[Tensor]) -> Vec<Tensor> {
        let cap = self.max_batch.unwrap_or(usize::MAX);
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
        &mut self,
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

    /// Mutable access to the underlying model (e.g. for re-freezing after
    /// a variation sweep).
    pub fn model_mut(&mut self) -> &mut dyn Layer {
        self.model.as_mut()
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
    use cq_nn::{ResNet, ResNetSpec};
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
        let mut pm = PreparedCimModel::new(Box::new(net));
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
    /// (depth-1) forward at every pipeline depth — including depths above
    /// the batch — and every executor pool width.
    #[test]
    fn pipelined_waves_are_bit_exact_across_pool_widths() {
        let mut net = warmed_net(13);
        let x = CqRng::new(14).normal_tensor(&[5, 3, 12, 12], 1.0);
        let want = net.forward(&x, Mode::Eval);
        let mut pm = PreparedCimModel::new(Box::new(net));
        for width in [1usize, 2, 4] {
            let pool = cq_tensor::exec::ExecPool::with_threads(width);
            pool.install(|| {
                for depth in [1usize, 2, 3, 8] {
                    pm.set_pipeline_depth(depth);
                    assert_eq!(pm.pipeline_depth(), depth);
                    assert_eq!(pm.infer(&x), want, "width={width} depth={depth}");
                    assert_eq!(
                        pm.infer_shared(&x),
                        want,
                        "shared width={width} depth={depth}"
                    );
                }
            });
        }
    }

    /// The shared (`&self`) path must equal the exclusive path bit-for-bit,
    /// including under concurrent callers.
    #[test]
    fn shared_inference_matches_exclusive_path() {
        let mut net = warmed_net(11);
        let x = CqRng::new(12).normal_tensor(&[3, 3, 12, 12], 1.0);
        let want = net.forward(&x, Mode::Eval);
        let mut pm = PreparedCimModel::new(Box::new(net));
        assert_eq!(pm.infer(&x), want);
        let pm = &pm;
        std::thread::scope(|sc| {
            for _ in 0..3 {
                sc.spawn(|| assert_eq!(pm.infer_shared(&x), want, "shared path diverged"));
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
        let mut pm = PreparedCimModel::restore(Box::new(fresh), &path).unwrap();
        assert_eq!(pm.infer(&x), want, "restored prepared model diverged");
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
