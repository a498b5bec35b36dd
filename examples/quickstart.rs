//! Quickstart: train a small ResNet with column-wise weight and
//! partial-sum quantization (the paper's scheme) on a synthetic
//! CIFAR-like task, then report accuracy and dequantization overhead —
//! and run a non-paper scheme from the zoo (BWMA, binary ±1 weights)
//! through the same QAT → freeze → serve path.
//!
//! Run with `cargo run --release --example quickstart`.

use column_quant::core::{model_dequant_mults, PreparedCimModel};
use column_quant::data::generate;
use column_quant::nn::{Layer, Mode};
use column_quant::tensor::CqRng;
use column_quant::{
    build_cim_resnet, train_with_scheme, CimConfig, QuantScheme, ResNetSpec, SyntheticSpec,
    TrainConfig,
};

fn main() {
    // 1. A CIM macro: 32×32 arrays, 3-bit weights on 1-bit cells
    //    (3 bit-splits), 3-bit activations, 3-bit ADCs.
    let cim = CimConfig::tiny();

    // 2. A synthetic 10-class dataset standing in for CIFAR-10.
    let spec = SyntheticSpec {
        num_classes: 10,
        image_size: 12,
        train_per_class: 24,
        test_per_class: 12,
        ..SyntheticSpec::cifar10_like(24, 12, 7)
    };
    let (train_ds, test_ds) = generate(&spec);

    // 3. The paper's scheme: column-wise weights AND partial sums,
    //    one-stage QAT, learnable scale factors everywhere.
    let scheme = QuantScheme::ours();
    let mut net = build_cim_resnet(ResNetSpec::resnet8(10, 6), &cim, &scheme, 1);

    println!("scheme: {} ({})", scheme.label, scheme.method);
    println!(
        "dequantization multiplications across CIM layers: {}",
        model_dequant_mults(&mut net)
    );

    // 4. Train. Small batches give this tiny dataset enough SGD updates
    //    per epoch for the quantized pipeline to converge.
    let mut cfg = TrainConfig::quick(12, 2);
    cfg.batch_size = 8;
    let result = train_with_scheme(&mut net, &scheme, &train_ds, &test_ds, &cfg);
    for rec in &result.history {
        println!(
            "epoch {:>2}  loss {:.3}  train {:.1}%  test {:.1}%  ({:.1}s)",
            rec.epoch,
            rec.train_loss,
            100.0 * rec.train_acc,
            100.0 * rec.test_acc,
            rec.cumulative_seconds
        );
    }
    println!(
        "final top-1: {:.2}% (chance = {:.1}%)",
        100.0 * result.final_test_acc(),
        100.0 / 10.0
    );
    assert!(
        result.best_test_acc > 0.25,
        "training should clearly beat 10% chance"
    );

    // 5. A non-paper scheme from the zoo, end-to-end: BWMA quantizes
    //    weights to a single ±1 bit-split (always integer-eligible at
    //    freeze time), trains through the same one-stage QAT, and serves
    //    through the frozen engine bit-identically to the live forward.
    let scheme = QuantScheme::bwma();
    let mut net = build_cim_resnet(ResNetSpec::resnet8(10, 6), &cim, &scheme, 2);
    println!("\nscheme: {} ({})", scheme.label, scheme.method);
    let result = train_with_scheme(&mut net, &scheme, &train_ds, &test_ds, &cfg);
    println!(
        "BWMA final top-1: {:.2}% after {} epochs",
        100.0 * result.final_test_acc(),
        result.history.len()
    );
    let probe = CqRng::new(42)
        .normal_tensor(&[1, 3, 12, 12], 1.0)
        .map(|v| v.max(0.0));
    let want = net.forward(&probe, Mode::Eval);
    let served = PreparedCimModel::new(Box::new(net));
    assert_eq!(
        served.infer(&probe),
        want,
        "frozen BWMA engine must match the live forward bit-for-bit"
    );
    let (int_convs, total_convs) = served.count_integer_kernels();
    println!(
        "BWMA frozen engine: bit-exact vs live forward, integer kernels \
         active in {int_convs}/{total_convs} convs"
    );
}
