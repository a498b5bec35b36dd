//! The load-bearing cross-check of the whole reproduction: the fast
//! group-convolution emulation (`cq_core::CimConv2d`), the explicit
//! column-by-column crossbar engine (`cq_cim::CrossbarLayer`), and the
//! **prepared serving path** (`cq_cim::PreparedConv` and the frozen
//! `CimConv2d`) must produce **identical** outputs at zero device
//! variation, for every granularity combination, with and without
//! partial-sum quantization — on **all three execution backends**
//! (`ScalarRef` loop-nest oracle, `SimdF32`, `IntPanels`).

use cq_cim::{BackendKind, BackendSet, CimConfig, CrossbarLayer, PreparedConv};
use cq_core::CimConv2d;
use cq_nn::{Layer, Mode};
use cq_quant::Granularity;
use cq_tensor::{CqRng, Tensor};

fn relu_input(seed: u64, shape: &[usize]) -> Tensor {
    CqRng::new(seed)
        .normal_tensor(shape, 1.0)
        .map(|v| v.max(0.0))
}

fn check_equivalence(cfg: CimConfig, in_ch: usize, out_ch: usize, stride: usize, psq: bool) {
    for w_gran in Granularity::ALL {
        for p_gran in Granularity::ALL {
            let mut rng = CqRng::new(7 + in_ch as u64 + out_ch as u64);
            let mut layer = CimConv2d::new(
                in_ch, out_ch, 3, stride, 1, cfg, w_gran, p_gran, true, &mut rng,
            );
            layer.set_psum_quant_enabled(psq);
            // Give the layer a nonzero bias to exercise that path too.
            layer.visit_params("", &mut |p| {
                if p.kind == cq_nn::ParamKind::Bias {
                    for (i, v) in p.value.iter_mut().enumerate() {
                        *v = 0.01 * i as f32 - 0.02;
                    }
                }
            });
            let x = relu_input(11, &[2, in_ch, 6, 6]);
            let fast = layer.forward(&x, Mode::Eval);

            let desc = layer.to_quantized_conv();
            let engine = CrossbarLayer::new(desc);
            let a_int = layer.quantize_activations(&x);
            let slow = engine.forward(&a_int);

            assert_eq!(
                fast,
                slow,
                "mismatch at w={w_gran} p={p_gran} psq={psq} in={in_ch} out={out_ch} \
                 (max diff {})",
                fast.max_abs_diff(&slow)
            );

            // Prepared path #1: a standalone PreparedConv built from the
            // exported description serves raw activations bit-identically —
            // on **all three** backends. Every cell of this matrix has
            // integer-exact slices, so forcing the integer backend must
            // succeed and match the f32 oracle bit-for-bit, and both fast
            // backends must match the scalar loop-nest reference.
            let mut prepared = PreparedConv::new(layer.to_quantized_conv());
            prepared.set_backends(BackendSet::f32()).unwrap();
            assert!(!prepared.integer_kernel_active());
            assert_eq!(prepared.active_backend(), BackendKind::SimdF32);
            let served_f32 = prepared.infer(&x);
            assert_eq!(
                fast, served_f32,
                "PreparedConv f32 mismatch at w={w_gran} p={p_gran} psq={psq}"
            );
            prepared.set_backends(BackendSet::int()).unwrap();
            assert!(prepared.integer_kernel_active());
            assert_eq!(prepared.active_backend(), BackendKind::IntPanels);
            let served_int = prepared.infer(&x);
            assert_eq!(
                fast, served_int,
                "PreparedConv integer-kernel mismatch at w={w_gran} p={p_gran} psq={psq}"
            );
            prepared.set_backends(BackendSet::scalar()).unwrap();
            assert!(!prepared.integer_kernel_active());
            assert_eq!(prepared.active_backend(), BackendKind::Scalar);
            assert_eq!(prepared.backends(), &BackendSet::scalar());
            let served_scalar = prepared.infer(&x);
            assert_eq!(
                fast, served_scalar,
                "PreparedConv scalar-reference mismatch at w={w_gran} p={p_gran} psq={psq}"
            );

            // Prepared path #2: the frozen layer itself (weight-side work
            // done once) must stay bit-identical across repeated serves,
            // again on every backend chain.
            for (backends, kind) in [
                (BackendSet::f32(), BackendKind::SimdF32),
                (BackendSet::int(), BackendKind::IntPanels),
                (BackendSet::scalar(), BackendKind::Scalar),
            ] {
                layer.set_backends(backends).unwrap();
                layer.freeze();
                assert_eq!(
                    layer.active_backend(),
                    Some(kind),
                    "backend selection did not reach the frozen executor"
                );
                assert_eq!(
                    layer.integer_kernel_active(),
                    kind == BackendKind::IntPanels,
                    "integer-kernel flag disagrees with the active backend"
                );
                let frozen1 = layer.forward(&x, Mode::Eval);
                let frozen2 = layer.forward(&x, Mode::Eval);
                assert_eq!(
                    fast, frozen1,
                    "frozen forward mismatch at w={w_gran} p={p_gran} psq={psq} {kind:?}"
                );
                assert_eq!(frozen1, frozen2, "frozen forward not idempotent");
            }
        }
    }
}

#[test]
fn bit_exact_with_psum_quantization() {
    // tiny cfg: 32-row arrays, 3 splits, multi row tiles for 7 channels.
    check_equivalence(CimConfig::tiny(), 7, 5, 1, true);
}

#[test]
fn bit_exact_without_psum_quantization() {
    check_equivalence(CimConfig::tiny(), 7, 5, 1, false);
}

#[test]
fn bit_exact_strided_conv() {
    check_equivalence(CimConfig::tiny(), 6, 4, 2, true);
}

#[test]
fn bit_exact_single_array_layer() {
    // 3 channels fit one array; exercises the no-tiling corner.
    check_equivalence(CimConfig::tiny(), 3, 4, 1, true);
}

#[test]
fn bit_exact_multi_col_tile() {
    // Force column tiling: tiny cfg has 32 cols, 3 splits -> 10 oc per
    // tile; 12 output channels need 2 column tiles.
    check_equivalence(CimConfig::tiny(), 5, 12, 1, true);
}

#[test]
fn bit_exact_cifar100_style_two_splits() {
    // 4b weights on 2b cells (2 splits), 3b psums, bigger arrays.
    let mut cfg = CimConfig::cifar100();
    cfg.array_rows = 64; // shrink so multiple row tiles appear at 9 channels
    cfg.array_cols = 64;
    check_equivalence(cfg, 9, 6, 1, true);
}

#[test]
fn bit_exact_single_split_imagenet_style() {
    // 3b weights in 3b cells: one split only.
    let mut cfg = CimConfig::imagenet();
    cfg.array_rows = 32;
    cfg.array_cols = 32;
    check_equivalence(cfg, 7, 5, 1, true);
}

#[test]
fn binary_psum_bit_exact() {
    // CIFAR-10 style binary ADC.
    let mut cfg = CimConfig::cifar10();
    cfg.array_rows = 32;
    cfg.array_cols = 32;
    check_equivalence(cfg, 7, 5, 1, true);
}

/// The full scheme matrix the paper ablates, pinned in one sweep:
/// psum quantization {off, on} × weight granularity {layer, array, column}
/// × psum granularity {layer, array, column} (inside `check_equivalence`)
/// × row-wise tiling shape {single array, multi row tile, multi col tile,
/// multi row+col tile}. Every cell must agree **bit-exactly** between the
/// fast grouped-conv emulation and the explicit crossbar engine — the
/// refactored shared `PsumPipeline` is exercised on every scheme.
#[test]
fn full_matrix_psq_granularity_tiling() {
    // tiny cfg (32×32, 3 splits): ch_per_array = 3, oc_per_col_tile = 10.
    let shapes = [
        (3usize, 4usize, "single array"),
        (7, 5, "multi row tile"),
        (5, 12, "multi col tile"),
        (8, 12, "multi row+col tile"),
    ];
    for psq in [false, true] {
        for (in_ch, out_ch, label) in shapes {
            eprintln!("matrix cell: psq={psq} tiling={label}");
            check_equivalence(CimConfig::tiny(), in_ch, out_ch, 1, psq);
        }
    }
}

/// The engine equivalence matrix must hold on executor pools of width 1,
/// 2, and the machine parallelism, and a representative output must be
/// bit-identical **across** those widths — pool size schedules work, it
/// never changes the bits.
#[test]
fn engine_matrix_holds_at_every_pool_width() {
    let ncpu = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut outputs: Vec<(usize, Tensor)> = Vec::new();
    for width in [1, 2, ncpu] {
        let pool = cq_tensor::exec::ExecPool::with_threads(width);
        let y = pool.install(|| {
            for psq in [false, true] {
                check_equivalence(CimConfig::tiny(), 7, 5, 1, psq);
            }
            // Representative multi-row-tile forward for the cross-width pin
            // (construction and input are deterministic per seed).
            let mut rng = CqRng::new(99);
            let mut layer = CimConv2d::new(
                7,
                5,
                3,
                1,
                1,
                CimConfig::tiny(),
                Granularity::Column,
                Granularity::Column,
                true,
                &mut rng,
            );
            let x = relu_input(100, &[2, 7, 6, 6]);
            layer.forward(&x, Mode::Eval)
        });
        outputs.push((width, y));
    }
    let (w0, base) = &outputs[0];
    for (w, y) in &outputs[1..] {
        assert_eq!(y, base, "pool width {w} diverged from width {w0}");
    }
}

/// The **scheme axis** of the matrix: paper LSQ column-wise, BWMA
/// (binary ±1 weights, degenerate single bit-split), and hybrid-ADC
/// (low-order splits carried digitally past the ADC) must all agree
/// bit-exactly between the fast emulation, the explicit crossbar engine,
/// the standalone `PreparedConv` on **forced** scalar and int-panels
/// chains, and the frozen layer on every backend chain.
#[test]
fn scheme_axis_bit_exact_across_engines_and_backends() {
    use cq_core::QuantScheme;
    for scheme in [
        QuantScheme::ours(),
        QuantScheme::bwma(),
        QuantScheme::hybrid_adc(),
    ] {
        let name = scheme.name.as_str();
        let mut rng = CqRng::new(31);
        let mut layer =
            CimConv2d::with_scheme(7, 5, 3, 1, 1, CimConfig::tiny(), &scheme, true, &mut rng);
        layer.visit_params("", &mut |p| {
            if p.kind == cq_nn::ParamKind::Bias {
                for (i, v) in p.value.iter_mut().enumerate() {
                    *v = 0.01 * i as f32 - 0.02;
                }
            }
        });
        if scheme.is_binary_weight() {
            assert_eq!(layer.plan().num_splits, 1, "{name}: binary = one split");
        }
        if name == "hybrid-adc" {
            assert!(
                layer.digital_splits() > 0,
                "{name}: low-order splits must bypass the ADC"
            );
        }
        let x = relu_input(32, &[2, 7, 6, 6]);
        let fast = layer.forward(&x, Mode::Eval);

        let engine = CrossbarLayer::new(layer.to_quantized_conv());
        let slow = engine.forward(&layer.quantize_activations(&x));
        assert_eq!(
            fast,
            slow,
            "{name}: crossbar engine diverged (max diff {})",
            fast.max_abs_diff(&slow)
        );

        // Forced-scalar and forced-int-panels serving legs, with the
        // active backend pinned — never trust the chain silently.
        let mut prepared = PreparedConv::new(layer.to_quantized_conv());
        prepared.set_backends(BackendSet::scalar()).unwrap();
        assert_eq!(prepared.active_backend(), BackendKind::Scalar);
        assert!(!prepared.integer_kernel_active());
        assert_eq!(fast, prepared.infer(&x), "{name}: scalar leg diverged");
        prepared.set_backends(BackendSet::int()).unwrap();
        assert_eq!(prepared.active_backend(), BackendKind::IntPanels);
        assert!(
            prepared.integer_kernel_active(),
            "{name}: every scheme cell here is integer-eligible"
        );
        assert_eq!(fast, prepared.infer(&x), "{name}: int-panels leg diverged");

        for (backends, kind) in [
            (BackendSet::f32(), BackendKind::SimdF32),
            (BackendSet::int(), BackendKind::IntPanels),
            (BackendSet::scalar(), BackendKind::Scalar),
        ] {
            layer.set_backends(backends).unwrap();
            layer.freeze();
            assert_eq!(layer.active_backend(), Some(kind), "{name}: {kind:?}");
            let frozen = layer.forward(&x, Mode::Eval);
            assert_eq!(fast, frozen, "{name}: frozen {kind:?} diverged");
        }
    }
}

/// **Mixed-scheme multi-model serving**: one resident model per scheme
/// (paper LSQ column-wise, BWMA, hybrid-ADC) in a single two-worker
/// session. Every request — small and oversized — must come back
/// bit-identical to the standalone whole-model forward of the scheme that
/// served it, and the final stats must attribute images to all three
/// schemes.
#[test]
fn mixed_scheme_multi_model_serve_matches_whole_model() {
    use cq_core::{build_cim_resnet, PreparedCimModel, QuantScheme};
    use cq_nn::ResNetSpec;
    use cq_serve::{CimServer, ModelRegistry, Request, ServeConfig};

    let schemes = [
        QuantScheme::ours(),
        QuantScheme::bwma(),
        QuantScheme::hybrid_adc(),
    ];
    let build = |scheme: &QuantScheme, seed: u64| {
        let mut net = build_cim_resnet(ResNetSpec::resnet8(4, 4), &CimConfig::tiny(), scheme, seed);
        let warm = CqRng::new(seed + 1000).normal_tensor(&[2, 3, 12, 12], 1.0);
        let _ = net.forward(&warm, Mode::Eval);
        net
    };
    let mut refs = Vec::new();
    let mut registry = ModelRegistry::new();
    for (i, scheme) in schemes.iter().enumerate() {
        let seed = 6100 + 10 * i as u64;
        // Construction is deterministic per seed: the reference net and
        // the served twin are bit-identical models.
        refs.push(build(scheme, seed));
        registry.register(
            scheme.name.clone(),
            PreparedCimModel::new(Box::new(build(scheme, seed))),
        );
    }
    let session = CimServer::new(
        registry,
        ServeConfig::builder()
            .workers(2)
            .max_batch(Some(3))
            .build()
            .unwrap(),
    )
    .start();

    let rng = &mut CqRng::new(6200);
    let mut tickets = Vec::new();
    for batch in [1usize, 7] {
        for (i, scheme) in schemes.iter().enumerate() {
            let x = rng.normal_tensor(&[batch, 3, 12, 12], 1.0);
            let t = session
                .submit(Request::to(scheme.name.as_str()).batch(x.clone()))
                .unwrap();
            tickets.push((i, x, t));
        }
    }
    for (i, x, t) in tickets {
        let want = refs[i].forward(&x, Mode::Eval);
        assert_eq!(
            t.wait().output,
            want,
            "scheme '{}' diverged from its whole-model forward under \
             mixed-scheme serving",
            schemes[i].name
        );
    }

    let (stats, _models) = session.shutdown();
    let by_scheme = stats.images_by_scheme();
    for scheme in &schemes {
        let images = by_scheme
            .iter()
            .find(|(s, _)| s == &scheme.name)
            .map(|(_, n)| *n)
            .unwrap_or(0);
        assert_eq!(images, 8, "scheme '{}' image attribution", scheme.name);
    }
}
