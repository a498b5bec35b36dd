//! One module per paper table/figure, plus shared run helpers.
//!
//! Every `run(scale)` returns the report as a markdown string (and the
//! binaries print it), so `EXPERIMENTS.md` can be regenerated mechanically.

pub mod ablations;
pub mod fig10;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod schemes;
pub mod tables;

use crate::ExperimentSetting;
use cq_core::{build_cim_resnet, set_psum_quant_enabled, QuantScheme};
use cq_data::{generate, Dataset};
use cq_nn::ResNet;
use cq_quant::Granularity;
use cq_train::{train_with_scheme, TrainResult};

/// Result of one trained configuration.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// Scheme label.
    pub label: String,
    /// Weight granularity.
    pub w_gran: Granularity,
    /// Partial-sum granularity.
    pub p_gran: Granularity,
    /// Final quantized test accuracy.
    pub acc: f32,
    /// Wall-clock training seconds.
    pub seconds: f64,
}

/// Generates the setting's dataset (train, test).
pub fn setting_data(setting: &ExperimentSetting) -> (Dataset, Dataset) {
    generate(&setting.data)
}

/// Trains one scheme under a setting; returns the model and its history.
pub fn run_scheme(
    setting: &ExperimentSetting,
    scheme: &QuantScheme,
    seed: u64,
) -> (ResNet, TrainResult) {
    let (train_ds, test_ds) = setting_data(setting);
    let mut net = build_cim_resnet(setting.model.clone(), &setting.cim, scheme, seed);
    let result = train_with_scheme(&mut net, scheme, &train_ds, &test_ds, &setting.train);
    (net, result)
}

/// Trains a model with the given weight granularity but **no partial-sum
/// quantization** — the dashed "without PSQ" reference lines of Fig. 7.
pub fn run_no_psq(setting: &ExperimentSetting, w_gran: Granularity, seed: u64) -> TrainResult {
    let (train_ds, test_ds) = setting_data(setting);
    let scheme = QuantScheme::custom(w_gran, Granularity::Column);
    let mut net = build_cim_resnet(setting.model.clone(), &setting.cim, &scheme, seed);
    set_psum_quant_enabled(&mut net, false);
    let mut result = TrainResult::default();
    let mut opt = cq_nn::Sgd::new(
        setting.train.lr.lr_at(0),
        setting.train.momentum,
        setting.train.weight_decay,
    );
    cq_train::train_epochs(
        &mut net,
        &train_ds,
        &test_ds,
        &setting.train,
        &mut opt,
        &mut result,
    );
    result
}

/// Trains the full-precision reference model.
pub fn run_fp(setting: &ExperimentSetting, seed: u64) -> TrainResult {
    let (train_ds, test_ds) = setting_data(setting);
    let scheme = QuantScheme::ours();
    let mut net = build_cim_resnet(setting.model.clone(), &setting.cim, &scheme, seed);
    cq_core::set_quant_enabled(&mut net, false);
    let mut result = TrainResult::default();
    let mut opt = cq_nn::Sgd::new(
        setting.train.lr.lr_at(0),
        setting.train.momentum,
        setting.train.weight_decay,
    );
    cq_train::train_epochs(
        &mut net,
        &train_ds,
        &test_ds,
        &setting.train,
        &mut opt,
        &mut result,
    );
    result
}

/// Trains all nine weight×psum granularity combinations with one-stage
/// QAT (the sweep behind Fig. 7 and Fig. 8).
pub fn granularity_sweep(setting: &ExperimentSetting, seed: u64) -> Vec<SchemeRun> {
    let mut runs = Vec::new();
    for w in Granularity::ALL {
        for p in Granularity::ALL {
            let scheme = QuantScheme::custom(w, p);
            let (_, result) = run_scheme(setting, &scheme, seed);
            runs.push(SchemeRun {
                label: scheme.label.clone(),
                w_gran: w,
                p_gran: p,
                acc: result.final_test_acc(),
                seconds: result.total_seconds,
            });
        }
    }
    runs
}
