//! Model construction and surgery: a [`ConvFactory`] that installs
//! [`CimConv2d`] layers per a [`QuantScheme`], plus whole-model helpers
//! for stage toggling, variation injection, calibration, and overhead
//! accounting.

use crate::{CimConv2d, QuantScheme, VariationCfg, VariationMode};
use cq_cim::CimConfig;
use cq_nn::{Conv2d, ConvFactory, ConvRole, Layer, Mode, ParamKind, ParamView, ResNet, ResNetSpec};
use cq_tensor::{CqRng, Tensor};

/// Builds [`CimConv2d`] body convolutions (and optionally shortcuts) at
/// the scheme's granularities; the stem stays full precision by default,
/// following common practice in the partial-sum quantization literature.
pub struct CimConvFactory {
    cfg: CimConfig,
    scheme: QuantScheme,
    /// Quantize the stem convolution too (default false).
    pub quantize_stem: bool,
    /// Quantize 1×1 projection shortcuts (default true).
    pub quantize_shortcut: bool,
    rng: CqRng,
}

impl CimConvFactory {
    /// Creates a factory for the given hardware config and scheme. The
    /// scheme's weight-quantizer family is applied to the macro config per
    /// layer (binary weights force the 1-bit single-split layout), its
    /// digitization strategy is resolved against each layer's split
    /// count, and its name is recorded on every CIM layer for serving
    /// attribution.
    pub fn new(cfg: CimConfig, scheme: &QuantScheme, seed: u64) -> Self {
        Self {
            cfg,
            scheme: scheme.clone(),
            quantize_stem: false,
            quantize_shortcut: true,
            rng: CqRng::new(seed),
        }
    }
}

impl ConvFactory for CimConvFactory {
    fn conv(
        &mut self,
        _name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        role: ConvRole,
    ) -> Box<dyn Layer> {
        let quantize = match role {
            ConvRole::Stem => self.quantize_stem,
            ConvRole::Shortcut => self.quantize_shortcut,
            ConvRole::Body => true,
        };
        if quantize {
            Box::new(CimConv2d::with_scheme(
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
                self.cfg,
                &self.scheme,
                false,
                &mut self.rng,
            ))
        } else {
            Box::new(Conv2d::new(
                in_ch,
                out_ch,
                kernel,
                stride,
                pad,
                false,
                &mut self.rng,
            ))
        }
    }
}

/// Builds a ResNet whose body convolutions run through the CIM pipeline
/// configured by `scheme`.
pub fn build_cim_resnet(
    spec: ResNetSpec,
    cfg: &CimConfig,
    scheme: &QuantScheme,
    seed: u64,
) -> ResNet {
    let mut factory = CimConvFactory::new(*cfg, scheme, seed);
    ResNet::build(spec, &mut factory, seed.wrapping_add(0x5EED))
}

/// Calls `f` on every [`CimConv2d`] in the model (depth-first order).
pub fn for_each_cim_conv(model: &mut dyn Layer, mut f: impl FnMut(&mut CimConv2d)) {
    model.apply(&mut |l| {
        if let Some(conv) = l.as_any_mut().downcast_mut::<CimConv2d>() {
            f(conv);
        }
    });
}

/// Number of CIM convolution layers in the model.
pub fn count_cim_convs(model: &mut dyn Layer) -> usize {
    let mut n = 0;
    for_each_cim_conv(model, |_| n += 1);
    n
}

/// Enables/disables weight+activation quantization on every CIM layer
/// (disabled = full-precision passthrough, the PTQ pre-training phase).
pub fn set_quant_enabled(model: &mut dyn Layer, enabled: bool) {
    for_each_cim_conv(model, |c| c.set_quant_enabled(enabled));
}

/// Enables/disables partial-sum quantization on every CIM layer (the
/// two-stage QAT toggle).
pub fn set_psum_quant_enabled(model: &mut dyn Layer, enabled: bool) {
    for_each_cim_conv(model, |c| c.set_psum_quant_enabled(enabled));
}

/// Installs inference-time device variation with per-layer derived seeds
/// (`None` σ clears it).
pub fn set_variation(model: &mut dyn Layer, sigma: Option<f32>, mode: VariationMode, seed: u64) {
    let mut idx = 0u64;
    for_each_cim_conv(model, |c| {
        c.set_variation(sigma.map(|s| VariationCfg {
            mode,
            sigma: s,
            seed: seed.wrapping_add(idx.wrapping_mul(0x9E3779B97F4A7C15)),
        }));
        idx += 1;
    });
}

/// Total dequantization multiplications across all CIM layers (the model
/// row of the paper's Fig. 8 analysis).
pub fn model_dequant_mults(model: &mut dyn Layer) -> usize {
    let mut total = 0;
    for_each_cim_conv(model, |c| total += c.dequant_mults());
    total
}

/// Markdown report of how a model maps onto its CIM macros: per-layer
/// arrays, programmed-cell capacity, ADC conversions per output pixel,
/// dequantization multiplications, and row utilization of the
/// kernel-intact tiling, with totals.
pub fn accelerator_report(model: &mut dyn Layer) -> String {
    let mut rows = Vec::new();
    let mut totals = (0usize, 0usize, 0usize, 0usize);
    let mut idx = 0usize;
    for_each_cim_conv(model, |c| {
        let cost = c.cost();
        let p = c.plan();
        rows.push(format!(
            "| {} | {}→{} {}x{} | {} | {} | {} | {} | {:.0}% |",
            idx,
            p.in_ch,
            p.out_ch,
            p.kh,
            p.kw,
            cost.arrays,
            cost.cells,
            cost.adc_conversions_per_pixel,
            cost.dequant_mults,
            100.0 * cost.row_utilization,
        ));
        totals.0 += cost.arrays;
        totals.1 += cost.cells;
        totals.2 += cost.adc_conversions_per_pixel;
        totals.3 += cost.dequant_mults;
        idx += 1;
    });
    let mut out = String::from(
        "| layer | conv | arrays | cells | ADC conv/pixel | dequant mults | row util |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        out.push_str(&r);
        out.push('\n');
    }
    out.push_str(&format!(
        "| **total** | {idx} CIM layers | {} | {} | {} | {} | |\n",
        totals.0, totals.1, totals.2, totals.3
    ));
    out
}

/// Saves a CIM model checkpoint (parameters, quantizer scales, BatchNorm
/// running statistics) to a file.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_cim_checkpoint(
    model: &mut dyn Layer,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    cq_nn::save_params(model, path)
}

/// Loads a CIM model checkpoint saved by [`save_cim_checkpoint`] and marks
/// every quantizer initialized, so lazy scale initialization does not
/// overwrite the restored scale factors on the next forward pass.
///
/// Intended for fully-trained models (the normal use: train once, then
/// reuse for variation sweeps and crossbar export).
///
/// # Errors
///
/// Propagates I/O errors and checkpoint-format violations, and returns
/// [`std::io::ErrorKind::InvalidData`] when a restored value is not
/// finite or a quantizer scale is not positive — values no quantizer
/// or frozen engine can run on. After an error the model's parameters
/// may be partly overwritten.
pub fn load_cim_checkpoint(
    model: &mut dyn Layer,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    cq_nn::load_params(model, path)?;
    let mut bad = None;
    model.visit_params("", &mut |p: ParamView<'_>| {
        let scale = p.kind == ParamKind::Scale;
        if let Some(v) = p
            .value
            .iter()
            .find(|v| !v.is_finite() || (scale && **v <= 0.0))
        {
            bad.get_or_insert(format!("{} = {v}", p.name));
        }
    });
    if let Some(what) = bad {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("checkpoint value out of domain: {what}"),
        ));
    }
    for_each_cim_conv(model, |c| c.mark_scales_initialized());
    Ok(())
}

/// PTQ calibration (Kim \[5\] / Bai \[6\],\[7\] flow): re-fits weight scales
/// from the trained weights, resets activation/partial-sum scales, then
/// runs the calibration batches in eval mode so the lazy initializers fit
/// them from live statistics. No parameter is trained.
pub fn ptq_calibrate(model: &mut dyn Layer, calib_inputs: &[Tensor]) {
    assert!(
        !calib_inputs.is_empty(),
        "need at least one calibration batch"
    );
    for_each_cim_conv(model, |c| {
        c.set_quant_enabled(true);
        c.reinit_weight_scales();
        c.reset_data_scales();
    });
    for x in calib_inputs {
        let _ = model.forward(x, Mode::Eval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> CimConfig {
        CimConfig::tiny()
    }

    fn small_spec() -> ResNetSpec {
        ResNetSpec::resnet8(4, 4)
    }

    #[test]
    fn build_counts_cim_layers() {
        let mut net = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::ours(), 1);
        // resnet8: 3 blocks × 2 convs + 2 shortcuts = 8 quantized convs
        // (stem stays FP).
        assert_eq!(count_cim_convs(&mut net), 8);
        let x = CqRng::new(2).normal_tensor(&[1, 3, 16, 16], 1.0);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 4]);
    }

    #[test]
    fn quantize_stem_option() {
        let mut factory = CimConvFactory::new(small_cfg(), &QuantScheme::ours(), 3);
        factory.quantize_stem = true;
        let mut net = ResNet::build(small_spec(), &mut factory, 4);
        assert_eq!(count_cim_convs(&mut net), 9);
    }

    #[test]
    fn stage_toggles_reach_every_layer() {
        let mut net = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::saxena9(), 5);
        set_psum_quant_enabled(&mut net, false);
        let mut all_off = true;
        for_each_cim_conv(&mut net, |c| all_off &= !c.psum_quant_enabled());
        assert!(all_off);
        set_psum_quant_enabled(&mut net, true);
        let mut all_on = true;
        for_each_cim_conv(&mut net, |c| all_on &= c.psum_quant_enabled());
        assert!(all_on);
    }

    #[test]
    fn variation_changes_eval_logits_and_clears() {
        let mut net = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::ours(), 7);
        let x = CqRng::new(8).normal_tensor(&[1, 3, 16, 16], 1.0);
        let clean = net.forward(&x, Mode::Eval);
        set_variation(&mut net, Some(0.25), VariationMode::PerWeight, 42);
        let noisy = net.forward(&x, Mode::Eval);
        assert_ne!(clean, noisy);
        set_variation(&mut net, None, VariationMode::PerWeight, 42);
        assert_eq!(net.forward(&x, Mode::Eval), clean);
    }

    #[test]
    fn model_overhead_respects_scheme() {
        let mut ours = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::ours(), 9);
        let mut saxena9 = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::saxena9(), 9);
        let mut kim = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::kim5(), 9);
        // The paper's claim: ours (C/C) has the same overhead as [9] (L/C).
        assert_eq!(
            model_dequant_mults(&mut ours),
            model_dequant_mults(&mut saxena9)
        );
        // And L/L is enormously cheaper (1 per layer).
        assert_eq!(model_dequant_mults(&mut kim), count_cim_convs(&mut kim));
    }

    #[test]
    fn checkpoint_roundtrip_preserves_quantized_behaviour() {
        use cq_nn::Mode;
        let mut a = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::ours(), 30);
        let x = CqRng::new(31).normal_tensor(&[2, 3, 16, 16], 1.0);
        // Initialize all lazy scales and nudge weights via one train step.
        let _ = a.forward(&x, Mode::Train);
        let ya = a.forward(&x, Mode::Eval);

        let dir = std::env::temp_dir().join("cq_core_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cim.cqnn");
        save_cim_checkpoint(&mut a, &path).unwrap();

        let mut b = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::ours(), 777);
        load_cim_checkpoint(&mut b, &path).unwrap();
        // The loaded model must produce identical quantized outputs WITHOUT
        // any warm-up forward (scales must not lazily re-initialize).
        let yb = b.forward(&x, Mode::Eval);
        assert_eq!(ya, yb, "checkpoint restore must be bit-exact");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ptq_calibration_initializes_all_scales() {
        let mut net = build_cim_resnet(small_spec(), &small_cfg(), &QuantScheme::kim5(), 11);
        set_quant_enabled(&mut net, false); // FP "pre-training" state
        let x = CqRng::new(12).normal_tensor(&[2, 3, 16, 16], 1.0);
        let _ = net.forward(&x, Mode::Eval);
        ptq_calibrate(&mut net, std::slice::from_ref(&x));
        let mut ok = true;
        for_each_cim_conv(&mut net, |c| {
            ok &= c.act_quantizer().is_initialized();
            ok &= c.psum_quantizer().is_initialized();
            ok &= c.quant_enabled();
        });
        assert!(ok, "all quantizers calibrated");
        // Calibrated model still produces finite logits.
        let y = net.forward(&x, Mode::Eval);
        assert!(y.data().iter().all(|v| v.is_finite()));
    }
}
