//! # cq-bench
//!
//! The harness that regenerates every table and figure of the
//! ColumnQuant paper. Each experiment lives in [`experiments`] and is
//! exposed as a binary (`cargo run -p cq-bench --bin fig7a`); the `all`
//! binary regenerates every one in order. Performance of the serving
//! stack and the kernels is measured by the repository benchmark under
//! `perfbench/`, not here.
//!
//! Experiment sizes honor the `CQ_SCALE` environment variable:
//! `ci` (seconds, smoke), `quick` (default, minutes), `full`
//! (paper-shaped models and budgets; hours on a laptop).

#![warn(missing_docs)]

pub mod experiments;

use cq_cim::CimConfig;
use cq_data::{Augment, SyntheticSpec};
use cq_nn::{LrSchedule, ResNetSpec};
use cq_train::TrainConfig;

/// Experiment size selector (read from `CQ_SCALE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test size: a few seconds per experiment.
    Ci,
    /// Default size: minutes per experiment on a 2-vCPU container.
    Quick,
    /// Paper-shaped models and budgets (hours).
    Full,
}

impl Scale {
    /// Reads `CQ_SCALE` (defaults to `Quick`).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value.
    pub fn from_env() -> Scale {
        match std::env::var("CQ_SCALE").as_deref() {
            Ok("ci") => Scale::Ci,
            Ok("full") => Scale::Full,
            Ok("quick") | Err(_) => Scale::Quick,
            Ok(other) => panic!("unknown CQ_SCALE '{other}' (use ci|quick|full)"),
        }
    }
}

/// A complete experimental setting: hardware config, model, data, and
/// training budget — one column of the paper's Table II, scaled.
#[derive(Debug, Clone)]
pub struct ExperimentSetting {
    /// Human-readable name ("CIFAR-10 (synthetic)").
    pub name: String,
    /// CIM macro configuration.
    pub cim: CimConfig,
    /// Model architecture.
    pub model: ResNetSpec,
    /// Dataset specification.
    pub data: SyntheticSpec,
    /// Training budget.
    pub train: TrainConfig,
}

fn budget(
    scale: Scale,
    ci: (usize, usize),
    quick: (usize, usize),
    full: (usize, usize),
) -> (usize, usize) {
    match scale {
        Scale::Ci => ci,
        Scale::Quick => quick,
        Scale::Full => full,
    }
}

impl ExperimentSetting {
    /// Table II column 1: 3b weights (1b/cell), 3b activations, binary
    /// partial sums, ResNet-20 on CIFAR-10 (synthetic stand-in).
    pub fn cifar10(scale: Scale, seed: u64) -> Self {
        // Binary partial sums train slowly (the paper's hardest regime:
        // it uses 200 epochs on the real dataset); quick scale gets the
        // largest budget of the three settings.
        let (per_class, epochs) = budget(scale, (8, 2), (24, 40), (200, 80));
        let batch = if scale == Scale::Full { 32 } else { 16 };
        let mut cim = CimConfig::cifar10();
        let (model, data) = match scale {
            Scale::Full => (
                ResNetSpec::resnet20(10),
                SyntheticSpec::cifar10_like(per_class, per_class / 2, seed),
            ),
            _ => {
                // Shrink arrays with the model so multi-array tiling (the
                // thing granularity acts on) still occurs.
                cim.array_rows = 32;
                cim.array_cols = 32;
                (
                    ResNetSpec::resnet8(10, 6),
                    SyntheticSpec {
                        image_size: 12,
                        train_per_class: per_class,
                        test_per_class: (per_class / 2).max(4),
                        ..SyntheticSpec::cifar10_like(per_class, 8, seed)
                    },
                )
            }
        };
        Self {
            name: "CIFAR-10 (synthetic)".into(),
            cim,
            model,
            data,
            train: train_cfg(epochs, batch, seed),
        }
    }

    /// Table II column 2: 4b weights (2b/cell), 4b activations, 3b partial
    /// sums, ResNet-20 on CIFAR-100 (synthetic stand-in; class count
    /// scales down off-`full`).
    pub fn cifar100(scale: Scale, seed: u64) -> Self {
        let (per_class, epochs) = budget(scale, (8, 2), (16, 20), (100, 60));
        let batch = if scale == Scale::Full { 32 } else { 8 };
        let mut cim = CimConfig::cifar100();
        let (model, data) = match scale {
            Scale::Full => (
                ResNetSpec::resnet20(100),
                SyntheticSpec::cifar100_like(per_class, per_class / 2, seed),
            ),
            _ => {
                cim.array_rows = 32;
                cim.array_cols = 32;
                let classes = if scale == Scale::Ci { 4 } else { 16 };
                (
                    ResNetSpec::resnet8(classes, 6),
                    SyntheticSpec {
                        num_classes: classes,
                        image_size: 12,
                        train_per_class: per_class,
                        test_per_class: (per_class / 2).max(4),
                        ..SyntheticSpec::cifar100_like(per_class, 8, seed)
                    },
                )
            }
        };
        Self {
            name: "CIFAR-100 (synthetic)".into(),
            cim,
            model,
            data,
            train: train_cfg(epochs, batch, seed),
        }
    }

    /// Table II column 3: 3b weights (3b/cell), 3b activations, 2b partial
    /// sums, 256×256 arrays, ResNet-18 on ImageNet (synthetic stand-in).
    pub fn imagenet(scale: Scale, seed: u64) -> Self {
        let (per_class, epochs) = budget(scale, (6, 2), (14, 16), (60, 40));
        let batch = if scale == Scale::Full { 32 } else { 8 };
        let mut cim = CimConfig::imagenet();
        let (model, data) = match scale {
            Scale::Full => (
                ResNetSpec::resnet18_small_input(64),
                SyntheticSpec::imagenet_like(per_class, per_class / 2, seed),
            ),
            _ => {
                cim.array_rows = 32;
                cim.array_cols = 32;
                let classes = if scale == Scale::Ci { 4 } else { 8 };
                (
                    ResNetSpec::resnet18_small_input(classes).scaled_width(1, 16),
                    SyntheticSpec {
                        num_classes: classes,
                        image_size: 16,
                        train_per_class: per_class,
                        test_per_class: (per_class / 2).max(4),
                        channels: 3,
                        noise: 0.3,
                        max_shift: 2,
                        seed,
                    },
                )
            }
        };
        Self {
            name: "ImageNet (synthetic)".into(),
            cim,
            model,
            data,
            train: train_cfg(epochs, batch, seed),
        }
    }

    /// All three settings (the columns of Table II).
    pub fn all(scale: Scale, seed: u64) -> Vec<ExperimentSetting> {
        vec![
            Self::cifar10(scale, seed),
            Self::cifar100(scale, seed.wrapping_add(1)),
            Self::imagenet(scale, seed.wrapping_add(2)),
        ]
    }
}

fn train_cfg(epochs: usize, batch_size: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size,
        lr: LrSchedule::Cosine {
            base: 0.05,
            total_epochs: epochs,
        },
        momentum: 0.9,
        weight_decay: 5e-4,
        augment: Augment::standard(),
        seed: seed.wrapping_add(77),
    }
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut s = String::new();
    s.push('|');
    for h in headers {
        s.push_str(&format!(" {h} |"));
    }
    s.push('\n');
    s.push('|');
    for _ in headers {
        s.push_str("---|");
    }
    s.push('\n');
    for row in rows {
        s.push('|');
        for cell in row {
            s.push_str(&format!(" {cell} |"));
        }
        s.push('\n');
    }
    s
}

/// Formats an accuracy as a percentage string.
pub fn pct(acc: f32) -> String {
    format!("{:.2}%", 100.0 * acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_mirror_table2_bit_precisions() {
        let s10 = ExperimentSetting::cifar10(Scale::Ci, 0);
        assert_eq!(
            (
                s10.cim.weight_bits,
                s10.cim.act_bits,
                s10.cim.psum_bits,
                s10.cim.cell_bits
            ),
            (3, 3, 1, 1)
        );
        let s100 = ExperimentSetting::cifar100(Scale::Ci, 0);
        assert_eq!(
            (
                s100.cim.weight_bits,
                s100.cim.act_bits,
                s100.cim.psum_bits,
                s100.cim.cell_bits
            ),
            (4, 4, 3, 2)
        );
        let sin = ExperimentSetting::imagenet(Scale::Ci, 0);
        assert_eq!(
            (
                sin.cim.weight_bits,
                sin.cim.act_bits,
                sin.cim.psum_bits,
                sin.cim.cell_bits
            ),
            (3, 3, 2, 3)
        );
    }

    #[test]
    fn full_scale_uses_paper_models() {
        let s = ExperimentSetting::cifar10(Scale::Full, 0);
        assert_eq!(s.model.depth(), 20);
        assert_eq!(s.cim.array_rows, 128);
        let i = ExperimentSetting::imagenet(Scale::Full, 0);
        assert_eq!(i.model.depth(), 18);
        assert_eq!(i.cim.array_rows, 256);
    }

    #[test]
    fn markdown_table_renders() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9021), "90.21%");
    }
}
