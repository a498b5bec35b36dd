//! **Fig. 6** — column-wise integer partial-sum distributions of an early
//! ResNet conv layer, comparing layer-wise vs column-wise weight
//! quantization. The paper's observation: column-wise weight scales give
//! the integer partial sums a larger dynamic range per column, i.e. more
//! representational headroom for the ADC.

use crate::experiments::{run_scheme, setting_data};
use crate::{markdown_table, ExperimentSetting, Scale};
use cq_core::{for_each_cim_conv, QuantScheme};
use cq_data::eval_batches;
use cq_quant::Granularity;
use cq_tensor::stats::summarize;

/// Runs the experiment and returns the markdown report.
pub fn run(scale: Scale) -> String {
    let setting = ExperimentSetting::cifar10(scale, 60);
    let mut out = String::from("## Fig. 6 — column-wise partial-sum distribution\n\n");
    out.push_str(&format!(
        "Setting: {} | {:?} scale\n\n",
        setting.name, scale
    ));

    let mut ranges = Vec::new();
    let mut per_gran_rows: Vec<Vec<String>> = Vec::new();
    for w_gran in [Granularity::Layer, Granularity::Column] {
        let scheme = QuantScheme::custom(w_gran, Granularity::Column);
        let (mut net, _result) = run_scheme(&setting, &scheme, 61);
        // Grab the integer partial sums of the layer-4-analogue conv
        // (the 4th quantized conv, matching the paper's "4th convolution
        // layer of ResNet-20").
        let (_, test_ds) = setting_data(&setting);
        let batch = eval_batches(&test_ds, 16).remove(0);

        let mut psum_columns: Vec<Vec<f32>> = Vec::new();
        let mut idx = 0usize;
        let target = 3usize;
        // A full eval forward with psum capture set on the target layer
        // records the psums of the input that really reaches it.
        let mut captured: Option<Vec<cq_tensor::Tensor>> = None;
        for_each_cim_conv(&mut net, |c| {
            if idx == target {
                c.set_psum_capture(true);
            }
            idx += 1;
        });
        let _ = cq_nn::Layer::forward(&mut net, &batch.images, cq_nn::Mode::Eval);
        idx = 0;
        for_each_cim_conv(&mut net, |c| {
            if idx == target {
                captured = c.take_captured_psums();
                c.set_psum_capture(false);
            }
            idx += 1;
        });
        let psums = captured.expect("target layer captured no psums");

        // Per physical column (split 0, row tile 0): distribution over
        // batch × spatial positions.
        let p0 = &psums[0];
        let (b, ch, oh, ow) = (p0.dim(0), p0.dim(1), p0.dim(2), p0.dim(3));
        let ncols = ch.min(40);
        for col in 0..ncols {
            let mut vals = Vec::with_capacity(b * oh * ow);
            for bi in 0..b {
                let base = (bi * ch + col) * oh * ow;
                vals.extend_from_slice(&p0.data()[base..base + oh * ow]);
            }
            psum_columns.push(vals);
        }

        let summaries: Vec<_> = psum_columns.iter().map(|v| summarize(v)).collect();
        let mean_range =
            summaries.iter().map(|s| s.range() as f64).sum::<f64>() / summaries.len() as f64;
        ranges.push(mean_range);
        for (ci, s) in summaries.iter().enumerate().take(8) {
            per_gran_rows.push(vec![
                format!("{w_gran}"),
                ci.to_string(),
                format!("{:.0}", s.min),
                format!("{:.0}", s.p25),
                format!("{:.0}", s.p50),
                format!("{:.0}", s.p75),
                format!("{:.0}", s.max),
            ]);
        }
    }

    out.push_str(&markdown_table(
        &[
            "weight gran",
            "column",
            "min",
            "p25",
            "median",
            "p75",
            "max",
        ],
        &per_gran_rows,
    ));
    out.push_str(&format!(
        "\nMean per-column integer dynamic range: layer-wise = {:.1}, column-wise = {:.1}\n",
        ranges[0], ranges[1]
    ));
    out.push_str(&format!(
        "Paper's qualitative claim (column-wise > layer-wise dynamic range): **{}**\n",
        if ranges[1] > ranges[0] {
            "reproduced"
        } else {
            "NOT reproduced at this scale"
        }
    ));
    out
}
