//! The prepared serving path must be **bit-identical** to the per-call
//! engine over the full scheme matrix — partial-sum quantization {off, on}
//! × weight granularity × psum granularity × digitizer {ideal ADC bypass,
//! behavioural ADC, weight-side device variation} — and idempotent across
//! repeated `infer_batch` calls on one `PreparedCimModel`.
//!
//! The one way a frozen sweep runs in parallel — pool-scheduled kernel
//! work items plus cross-layer wave pipelining — is pinned here too: every
//! backend chain × executor pool width reproduces the same bits.

use cq_cim::CimConfig;
use cq_core::{
    build_cim_resnet, for_each_cim_conv, set_psum_quant_enabled, set_variation, BackendSet,
    CimConv2d, PreparedCimModel, QuantScheme, VariationCfg, VariationMode,
};
use cq_nn::{Layer, Mode, ResNetSpec};
use cq_quant::Granularity;
use cq_tensor::{CqRng, Tensor};

fn relu_input(seed: u64, shape: &[usize]) -> Tensor {
    CqRng::new(seed)
        .normal_tensor(shape, 1.0)
        .map(|v| v.max(0.0))
}

/// One digitizer regime of the equivalence matrix.
#[derive(Clone, Copy, Debug)]
enum Digitizer {
    /// Partial-sum quantization off (ideal infinite-precision converter).
    Ideal,
    /// Behavioural ADC on the trained psum scales.
    Adc,
    /// ADC plus weight-side log-normal device variation.
    Variation(VariationMode),
}

fn check_cell(w_gran: Granularity, p_gran: Granularity, dig: Digitizer, seed: u64) {
    let mut rng = CqRng::new(seed);
    let mut layer = CimConv2d::new(
        7,
        5,
        3,
        1,
        1,
        CimConfig::tiny(),
        w_gran,
        p_gran,
        true,
        &mut rng,
    );
    match dig {
        Digitizer::Ideal => layer.set_psum_quant_enabled(false),
        Digitizer::Adc => {}
        Digitizer::Variation(mode) => layer.set_variation(Some(VariationCfg {
            mode,
            sigma: 0.15,
            seed: 77,
        })),
    }
    let x = relu_input(seed + 1, &[2, 7, 6, 6]);
    // Unprepared per-call path (also initializes lazy scales).
    let want = layer.forward(&x, Mode::Eval);
    // Frozen path: weight quantization/splitting/grouping (and variation
    // baking) done once, then served twice to also check idempotence.
    layer.freeze();
    assert!(layer.is_frozen());
    let got1 = layer.forward(&x, Mode::Eval);
    let got2 = layer.forward(&x, Mode::Eval);
    assert_eq!(
        want, got1,
        "prepared mismatch at w={w_gran} p={p_gran} dig={dig:?}"
    );
    assert_eq!(
        got1, got2,
        "not idempotent at w={w_gran} p={p_gran} dig={dig:?}"
    );
    // Unfreezing returns to the identical per-call result.
    layer.unfreeze();
    assert_eq!(want, layer.forward(&x, Mode::Eval));
}

/// Builds one frozen matrix cell and serves it once (deterministic:
/// layer init, scale warm-up, variation baking are all seeded).
fn frozen_cell_output(
    w_gran: Granularity,
    p_gran: Granularity,
    dig: Digitizer,
    seed: u64,
) -> Tensor {
    let mut rng = CqRng::new(seed);
    let mut layer = CimConv2d::new(
        7,
        5,
        3,
        1,
        1,
        CimConfig::tiny(),
        w_gran,
        p_gran,
        true,
        &mut rng,
    );
    match dig {
        Digitizer::Ideal => layer.set_psum_quant_enabled(false),
        Digitizer::Adc => {}
        Digitizer::Variation(mode) => layer.set_variation(Some(VariationCfg {
            mode,
            sigma: 0.15,
            seed: 77,
        })),
    }
    let x = relu_input(seed + 1, &[2, 7, 6, 6]);
    let _ = layer.forward(&x, Mode::Eval);
    layer.freeze();
    layer.forward(&x, Mode::Eval)
}

/// The pooled executor must be bit-identical at every pool width over
/// the full scheme matrix: widths 2 and the machine's parallelism must
/// reproduce the single-worker pool's output for every cell.
#[test]
fn pooled_executor_is_bit_exact_across_widths() {
    use cq_tensor::exec::ExecPool;
    let mut cells = Vec::new();
    let mut seed = 900;
    for w_gran in Granularity::ALL {
        for p_gran in Granularity::ALL {
            for dig in [
                Digitizer::Ideal,
                Digitizer::Adc,
                Digitizer::Variation(VariationMode::PerWeight),
                Digitizer::Variation(VariationMode::PerCell),
            ] {
                cells.push((w_gran, p_gran, dig, seed));
                seed += 10;
            }
        }
    }
    // Reference: one worker, so every work item runs in sequence.
    let want: Vec<Tensor> = ExecPool::with_threads(1).install(|| {
        cells
            .iter()
            .map(|&(w, p, d, s)| frozen_cell_output(w, p, d, s))
            .collect()
    });
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for width in [2, ncpu] {
        let pool = ExecPool::with_threads(width);
        pool.install(|| {
            for (&(w, p, d, s), want) in cells.iter().zip(&want) {
                assert_eq!(
                    &frozen_cell_output(w, p, d, s),
                    want,
                    "pool width {width} diverged at w={w} p={p} dig={d:?}"
                );
            }
        });
    }
}

/// psq {off,on} × weight granularity × psum granularity × digitizer.
#[test]
fn prepared_equivalence_full_matrix() {
    let mut seed = 100;
    for w_gran in Granularity::ALL {
        for p_gran in Granularity::ALL {
            for dig in [
                Digitizer::Ideal,
                Digitizer::Adc,
                Digitizer::Variation(VariationMode::PerWeight),
                Digitizer::Variation(VariationMode::PerCell),
            ] {
                check_cell(w_gran, p_gran, dig, seed);
                seed += 10;
            }
        }
    }
}

/// A `Mode::Train` forward invalidates the frozen state, and the next
/// freeze picks up the updated weights (no stale serving).
#[test]
fn training_invalidates_frozen_state() {
    let mut rng = CqRng::new(5);
    let mut layer = CimConv2d::new(
        7,
        5,
        3,
        1,
        1,
        CimConfig::tiny(),
        Granularity::Column,
        Granularity::Column,
        false,
        &mut rng,
    );
    let x = relu_input(6, &[1, 7, 6, 6]);
    let _ = layer.forward(&x, Mode::Eval);
    layer.freeze();
    assert!(layer.is_frozen());
    let y = layer.forward(&x, Mode::Train);
    assert!(!layer.is_frozen(), "Train forward must drop frozen state");
    // Nudge the weights as an optimizer step would, then compare a fresh
    // freeze against the per-call path.
    let _ = layer.backward(&y.scale(1e-2));
    let mut opt = cq_nn::Sgd::new(0.05, 0.9, 0.0);
    opt.step(&mut layer);
    let want = layer.forward(&x, Mode::Eval);
    layer.freeze();
    assert_eq!(want, layer.forward(&x, Mode::Eval), "stale weights served");
}

/// Whole-model serving: two `infer_batch` calls on one `PreparedCimModel`
/// agree bit-for-bit, and coalesced micro-batches match per-request
/// unprepared forwards exactly.
#[test]
fn prepared_model_idempotent_and_coalescing_exact() {
    let mut net = build_cim_resnet(
        cq_nn::ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::ours(),
        11,
    );
    let warm = relu_input(12, &[2, 3, 12, 12]);
    let _ = net.forward(&warm, Mode::Eval);

    let rng = &mut CqRng::new(13);
    let requests: Vec<Tensor> = (0..6)
        .map(|i| rng.normal_tensor(&[1 + (i % 2), 3, 12, 12], 1.0))
        .collect();
    let want: Vec<Tensor> = requests
        .iter()
        .map(|r| net.forward(r, Mode::Eval))
        .collect();

    let mut pm = PreparedCimModel::new(Box::new(net));
    let frozen_layers: usize = pm.backend_layer_counts().iter().sum();
    assert_eq!(frozen_layers, 8, "every CIM conv frozen");

    let first = pm.infer_batch(&requests);
    let second = pm.infer_batch(&requests);
    assert_eq!(first, second, "infer_batch not idempotent");
    assert_eq!(first, want, "coalesced serving diverged from per-call path");

    // Chunked coalescing (micro-batch cap) is equally exact.
    pm.set_max_batch(Some(3));
    assert_eq!(pm.infer_batch(&requests), want, "chunked sweep diverged");
}

/// A whole CIM ResNet-8 frozen for serving on the `backends` chain: psq
/// on/off, one granularity for weights and psums, optionally with
/// per-cell device variation baked into the frozen weights, every lazy
/// scale initialized.
fn prepared_model(
    psq: bool,
    gran: Granularity,
    variation: bool,
    seed: u64,
    backends: &BackendSet,
) -> PreparedCimModel {
    let mut net = build_cim_resnet(
        ResNetSpec::resnet8(4, 4),
        &CimConfig::tiny(),
        &QuantScheme::custom(gran, gran),
        seed,
    );
    if !psq {
        set_psum_quant_enabled(&mut net, false);
    }
    if variation {
        set_variation(&mut net, Some(0.15), VariationMode::PerCell, 77);
    }
    let warm = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
    let _ = net.forward(&warm, Mode::Eval);
    // The chain is resolved as each layer freezes inside `new`.
    for_each_cim_conv(&mut net, |c| c.set_backends(backends.clone()).unwrap());
    PreparedCimModel::new(Box::new(net))
}

/// A small and an oversized request: with `max_batch = 3` the second is
/// chunked, so pipelining composes with the coalescing/chunking path.
fn mixed_requests(seed: u64) -> [Tensor; 2] {
    let rng = &mut CqRng::new(seed);
    [
        rng.normal_tensor(&[1, 3, 12, 12], 1.0),
        rng.normal_tensor(&[7, 3, 12, 12], 1.0),
    ]
}

/// psq {off, on} × granularity × {clean, variation} × backend chain:
/// every cell of the pipelined whole-model engine must equal the
/// unpipelined forced-f32 oracle (one single-row forward per row)
/// bit-for-bit, on the coalescing `infer_batch` and on the single-tensor
/// `infer`. Under the `auto` chain clean cells run the integer panels in
/// every conv and variation cells fall back to f32 in every conv.
#[test]
fn pipelined_model_matrix_is_bit_exact_on_every_backend() {
    let mut seed = 9000;
    for psq in [false, true] {
        for gran in Granularity::ALL {
            for variation in [false, true] {
                let ctx = format!("psq={psq} gran={gran} variation={variation}");
                let requests = mixed_requests(seed + 2000);
                let oracle = prepared_model(psq, gran, variation, seed, &BackendSet::f32());
                let want: Vec<Tensor> = requests
                    .iter()
                    .map(|r| {
                        let rows: Vec<Tensor> = (0..r.dim(0))
                            .map(|i| oracle.infer(&r.slice_outer(i, i + 1)))
                            .collect();
                        Tensor::concat_outer(&rows.iter().collect::<Vec<_>>())
                    })
                    .collect();
                for backends in [BackendSet::f32(), BackendSet::auto(), BackendSet::scalar()] {
                    let mut pm = prepared_model(psq, gran, variation, seed, &backends);
                    pm.set_max_batch(Some(3));
                    let (active, total) = pm.count_integer_kernels();
                    assert!(total > 0, "{ctx}: no frozen convs counted");
                    let expect = if backends == BackendSet::auto() && !variation {
                        total
                    } else {
                        0
                    };
                    assert_eq!(active, expect, "{ctx} {backends:?}: integer-kernel count");
                    let ctx = format!("{ctx} {backends:?}");
                    assert_eq!(pm.infer_batch(&requests), want, "{ctx}: infer_batch");
                    for (req, w) in requests.iter().zip(&want) {
                        assert_eq!(&pm.infer(req), w, "{ctx}: infer");
                    }
                }
                seed += 100;
            }
        }
    }
}

/// A representative pipelined cell must be bit-identical across executor
/// pool widths 1, 2 and the machine parallelism: kernel work items and
/// pipeline waves reschedule with the pool, the bits never move.
#[test]
fn pipelined_cell_is_bit_exact_at_every_pool_width() {
    let requests = mixed_requests(31416);
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut outputs: Vec<(usize, Vec<Tensor>)> = Vec::new();
    for width in [1, 2, ncpu] {
        let pool = cq_tensor::exec::ExecPool::with_threads(width);
        let got = pool.install(|| {
            // Rebuilt per width: construction is deterministic per seed.
            let mut pm = prepared_model(
                true,
                Granularity::Column,
                false,
                31415,
                &BackendSet::standard(),
            );
            pm.set_max_batch(Some(3));
            let got = pm.infer_batch(&requests);
            assert_eq!(
                got,
                pm.infer_batch(&requests),
                "width {width}: not idempotent"
            );
            got
        });
        outputs.push((width, got));
    }
    let (w0, base) = &outputs[0];
    for (w, got) in &outputs[1..] {
        assert_eq!(got, base, "pool width {w} diverged from width {w0}");
    }
}
