//! # cq-scheme
//!
//! The **quantization-scheme zoo**: a [`QuantScheme`] bundles everything a
//! scheme needs to ride the whole stack — QAT through freeze-time kernel
//! selection to per-model serving attribution:
//!
//! * a **weight quantizer** ([`WeightQuant`]): the paper's LSQ at any
//!   granularity, or BWMA-style **binary weights** (scaled ±1 codebooks,
//!   arXiv 2508.21524) whose bit-split degenerates to a single split and is
//!   always `IntPanels`-eligible;
//! * a **digitization strategy** ([`Digitization`]): the classic per-column
//!   ADC, or HCiM-style **ADC-less hybrid** digitization (arXiv 2403.13577)
//!   that carries the low-order bit-splits digitally and converts only the
//!   high-order splits;
//! * the Table-I axes inherited from the paper comparison: granularities,
//!   training method, learnable scales.
//!
//! Schemes are identified by a stable kebab-case [`QuantScheme::name`]
//! (the serving registry's per-model scheme key); [`QuantScheme::zoo`]
//! lists the three end-to-end wired schemes and [`QuantScheme::by_name`]
//! resolves any preset.
//!
//! ```
//! use cq_scheme::QuantScheme;
//!
//! let bwma = QuantScheme::by_name("bwma").unwrap();
//! assert!(bwma.is_binary_weight());
//! let cfg = bwma.apply_to_config(&cq_cim::CimConfig::tiny());
//! assert_eq!((cfg.weight_bits, cfg.cell_bits), (1, 1));
//! assert_eq!(cfg.bit_split().num_splits(), 1);
//! ```

#![warn(missing_docs)]

use cq_cim::CimConfig;
use cq_quant::Granularity;
use std::fmt;

/// How a scheme is trained (Table I's "train from scratch" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainMethod {
    /// Single QAT run from scratch with all quantizers active — the
    /// paper's method (enabled by granularity alignment, Sec. III-D).
    OneStageQat,
    /// Stage 1 trains with full-precision partial sums; stage 2 enables
    /// partial-sum quantization (Saxena et al. \[8\], \[9\]).
    TwoStageQat,
    /// Train full precision, then calibrate quantizer scales post hoc
    /// without further training (Kim \[5\], Bai \[6\], \[7\]).
    Ptq,
}

impl fmt::Display for TrainMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrainMethod::OneStageQat => "one-stage QAT",
            TrainMethod::TwoStageQat => "two-stage QAT",
            TrainMethod::Ptq => "PTQ",
        };
        f.write_str(s)
    }
}

/// The weight-quantizer family of a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightQuant {
    /// Learned Step Size Quantization at the scheme's weight granularity —
    /// the paper's quantizer at any bit width.
    Lsq,
    /// BWMA-style binary weights: a scaled ±1 codebook per scale group
    /// (LSQ with the binary format and a sign-STE), whose bit-split is the
    /// degenerate single split and strength-reduces to the ±1 add/sub
    /// integer fast path at freeze time.
    Binary,
}

impl fmt::Display for WeightQuant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WeightQuant::Lsq => "LSQ",
            WeightQuant::Binary => "binary ±1",
        })
    }
}

/// The partial-sum digitization strategy of a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Digitization {
    /// Every physical column's partial sum goes through the ADC model —
    /// the paper's path (or the ideal bypass when psum quantization is
    /// disabled).
    Adc,
    /// HCiM-style ADC-less hybrid digitization: the `digital_splits`
    /// low-order bit-splits are carried digitally (bit-exact, no
    /// conversion), only the high-order splits see the ADC. The effective
    /// count is clamped so at least one split stays analog — see
    /// [`QuantScheme::digital_splits_for`].
    Hybrid {
        /// Requested number of low-order splits carried digitally.
        digital_splits: usize,
    },
}

impl fmt::Display for Digitization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Digitization::Adc => f.write_str("ADC"),
            Digitization::Hybrid { digital_splits } => {
                write!(f, "hybrid (low {digital_splits} digital)")
            }
        }
    }
}

/// A complete quantization scheme: weight quantizer, digitization
/// strategy, granularities, training method, and which scale factors are
/// learnable (the Table-I axes plus the zoo extensions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantScheme {
    /// Stable kebab-case identifier — the registry key serving stats are
    /// attributed under ("paper-lsq-column", "bwma", "hybrid-adc", …).
    pub name: String,
    /// Display label ("Ours", "Kim \[5\]", "BWMA", …).
    pub label: String,
    /// Weight quantizer family.
    pub weight_quant: WeightQuant,
    /// Partial-sum digitization strategy.
    pub digitization: Digitization,
    /// Weight quantization granularity.
    pub w_gran: Granularity,
    /// Partial-sum quantization granularity.
    pub p_gran: Granularity,
    /// Training method.
    pub method: TrainMethod,
    /// Whether weight scale factors are learned during training.
    pub learnable_w_scale: bool,
    /// Whether partial-sum scale factors are learned during training.
    pub learnable_p_scale: bool,
}

impl QuantScheme {
    /// The paper's scheme: column-wise weights **and** partial sums,
    /// one-stage QAT, both scale factors learnable.
    pub fn ours() -> Self {
        Self {
            name: "paper-lsq-column".into(),
            label: "Ours".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran: Granularity::Column,
            p_gran: Granularity::Column,
            method: TrainMethod::OneStageQat,
            learnable_w_scale: true,
            learnable_p_scale: true,
        }
    }

    /// BWMA: **binary weights** (scaled ±1 codebook, column-wise scales),
    /// multi-bit activations, one-stage QAT. The bit-split degenerates to
    /// one split, so the frozen kernels run a single ±1 panel sweep —
    /// much cheaper than the paper scheme's `num_splits` sweeps.
    pub fn bwma() -> Self {
        Self {
            name: "bwma".into(),
            label: "BWMA".into(),
            weight_quant: WeightQuant::Binary,
            digitization: Digitization::Adc,
            w_gran: Granularity::Column,
            p_gran: Granularity::Column,
            method: TrainMethod::OneStageQat,
            learnable_w_scale: true,
            learnable_p_scale: true,
        }
    }

    /// ADC-less hybrid digitization (HCiM-style): the paper's column-wise
    /// LSQ weights, but the low-order bit-splits bypass the ADC and are
    /// accumulated digitally — fewer conversions per pixel at unchanged
    /// weight precision.
    pub fn hybrid_adc() -> Self {
        Self {
            name: "hybrid-adc".into(),
            label: "Hybrid-ADC".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Hybrid { digital_splits: 2 },
            w_gran: Granularity::Column,
            p_gran: Granularity::Column,
            method: TrainMethod::OneStageQat,
            learnable_w_scale: true,
            learnable_p_scale: true,
        }
    }

    /// Kim et al. \[5\]: layer-wise weights and partial sums, PTQ.
    pub fn kim5() -> Self {
        Self {
            name: "kim5".into(),
            label: "Kim [5]".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran: Granularity::Layer,
            p_gran: Granularity::Layer,
            method: TrainMethod::Ptq,
            learnable_w_scale: false,
            learnable_p_scale: true,
        }
    }

    /// Bai et al. \[6\], \[7\]: array-wise weights and partial sums, PTQ.
    pub fn bai67() -> Self {
        Self {
            name: "bai67".into(),
            label: "Bai [6], [7]".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran: Granularity::Array,
            p_gran: Granularity::Array,
            method: TrainMethod::Ptq,
            learnable_w_scale: false,
            learnable_p_scale: true,
        }
    }

    /// Saxena et al. \[8\]: layer-wise weights (QAT from scratch),
    /// array-wise partial sums (second-stage QAT).
    pub fn saxena8() -> Self {
        Self {
            name: "saxena8".into(),
            label: "Saxena [8]".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran: Granularity::Layer,
            p_gran: Granularity::Array,
            method: TrainMethod::TwoStageQat,
            learnable_w_scale: false,
            learnable_p_scale: true,
        }
    }

    /// Saxena & Roy \[9\]: layer-wise weights (QAT from scratch),
    /// column-wise partial sums (second-stage QAT) — the strongest prior.
    pub fn saxena9() -> Self {
        Self {
            name: "saxena9".into(),
            label: "Saxena [9]".into(),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran: Granularity::Layer,
            p_gran: Granularity::Column,
            method: TrainMethod::TwoStageQat,
            learnable_w_scale: true,
            learnable_p_scale: true,
        }
    }

    /// An ad-hoc one-stage QAT scheme with the given granularities (used
    /// for the 9-combination sweeps of Fig. 7/8).
    pub fn custom(w_gran: Granularity, p_gran: Granularity) -> Self {
        Self {
            name: "custom".into(),
            label: format!("{}/{}", w_gran.letter(), p_gran.letter()),
            weight_quant: WeightQuant::Lsq,
            digitization: Digitization::Adc,
            w_gran,
            p_gran,
            method: TrainMethod::OneStageQat,
            learnable_w_scale: true,
            learnable_p_scale: true,
        }
    }

    /// Variant of this scheme with a different training method (Fig. 9
    /// compares one- vs two-stage on fixed granularities).
    pub fn with_method(mut self, method: TrainMethod) -> Self {
        self.method = method;
        self
    }

    /// Whether weights are the binary ±1 codebook.
    pub fn is_binary_weight(&self) -> bool {
        self.weight_quant == WeightQuant::Binary
    }

    /// Applies the scheme's weight-quantizer family to a CIM macro
    /// configuration: binary weights force `weight_bits = cell_bits = 1`
    /// (the degenerate single-split layout); LSQ schemes keep the macro's
    /// configured precisions.
    pub fn apply_to_config(&self, cfg: &CimConfig) -> CimConfig {
        let mut cfg = *cfg;
        if self.is_binary_weight() {
            cfg.weight_bits = 1;
            cfg.cell_bits = 1;
        }
        cfg.validate();
        cfg
    }

    /// The effective number of low-order bit-splits carried digitally for
    /// a layer with `num_splits` splits: `0` for pure-ADC schemes, and the
    /// requested hybrid count clamped to `num_splits − 1` so at least one
    /// split always stays on the converter.
    pub fn digital_splits_for(&self, num_splits: usize) -> usize {
        match self.digitization {
            Digitization::Adc => 0,
            Digitization::Hybrid { digital_splits } => {
                digital_splits.min(num_splits.saturating_sub(1))
            }
        }
    }

    /// The three schemes wired end-to-end (QAT → freeze → serve): the
    /// paper's LSQ column-wise scheme, BWMA, and ADC-less hybrid
    /// digitization — the `schemes` bench comparison set.
    pub fn zoo() -> Vec<QuantScheme> {
        vec![Self::ours(), Self::bwma(), Self::hybrid_adc()]
    }

    /// Resolves a preset by its stable [`QuantScheme::name`].
    pub fn by_name(name: &str) -> Option<QuantScheme> {
        match name {
            "paper-lsq-column" => Some(Self::ours()),
            "bwma" => Some(Self::bwma()),
            "hybrid-adc" => Some(Self::hybrid_adc()),
            "kim5" => Some(Self::kim5()),
            "bai67" => Some(Self::bai67()),
            "saxena8" => Some(Self::saxena8()),
            "saxena9" => Some(Self::saxena9()),
            _ => None,
        }
    }

    /// The paper's five compared schemes, related works first, ours last —
    /// the legend order of Fig. 7/10 and Table III.
    pub fn all_compared() -> Vec<QuantScheme> {
        vec![
            Self::kim5(),
            Self::bai67(),
            Self::saxena8(),
            Self::saxena9(),
            Self::ours(),
        ]
    }

    /// One markdown row of Table I.
    pub fn table1_row(&self) -> String {
        let scratch = |yes: bool, m: TrainMethod| match (yes, m) {
            (true, _) => "yes".to_string(),
            (false, TrainMethod::Ptq) => "no (PTQ)".to_string(),
            (false, _) => "no (2-stage QAT)".to_string(),
        };
        let w_scratch =
            self.method == TrainMethod::OneStageQat || self.method == TrainMethod::TwoStageQat;
        let p_scratch = self.method == TrainMethod::OneStageQat;
        format!(
            "| {} | {} | {} | {} | {} | {} | {} |",
            self.label,
            self.w_gran,
            scratch(w_scratch, self.method),
            if self.learnable_w_scale { "yes" } else { "no" },
            self.p_gran,
            scratch(p_scratch, self.method),
            if self.learnable_p_scale { "yes" } else { "no" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_aligns_granularities_column_wise() {
        let s = QuantScheme::ours();
        assert_eq!(s.w_gran, Granularity::Column);
        assert_eq!(s.p_gran, Granularity::Column);
        assert_eq!(s.method, TrainMethod::OneStageQat);
        assert!(s.learnable_w_scale && s.learnable_p_scale);
        assert_eq!(s.weight_quant, WeightQuant::Lsq);
        assert_eq!(s.digitization, Digitization::Adc);
    }

    #[test]
    fn related_works_match_table1() {
        let all = QuantScheme::all_compared();
        assert_eq!(all.len(), 5);
        assert_eq!(all[0].label, "Kim [5]");
        assert_eq!(all[0].w_gran, Granularity::Layer);
        assert_eq!(all[1].w_gran, Granularity::Array);
        assert_eq!(all[1].p_gran, Granularity::Array);
        assert_eq!(all[2].p_gran, Granularity::Array);
        assert_eq!(all[3].p_gran, Granularity::Column);
        assert_eq!(all[3].w_gran, Granularity::Layer);
        assert_eq!(all[4].label, "Ours");
        // Only ours trains one-stage; only [5]-[7] are PTQ.
        assert_eq!(
            all.iter()
                .filter(|s| s.method == TrainMethod::OneStageQat)
                .count(),
            1
        );
        assert_eq!(
            all.iter().filter(|s| s.method == TrainMethod::Ptq).count(),
            2
        );
    }

    #[test]
    fn custom_label_uses_letters() {
        let s = QuantScheme::custom(Granularity::Array, Granularity::Column);
        assert_eq!(s.label, "A/C");
    }

    #[test]
    fn table1_rows_render() {
        for s in QuantScheme::all_compared() {
            let row = s.table1_row();
            assert!(row.starts_with('|') && row.ends_with('|'));
            assert_eq!(row.matches('|').count(), 8);
        }
    }

    #[test]
    fn zoo_names_resolve_round_trip() {
        let zoo = QuantScheme::zoo();
        assert_eq!(zoo.len(), 3);
        for s in &zoo {
            let resolved = QuantScheme::by_name(&s.name).expect("zoo name resolves");
            assert_eq!(&resolved, s, "{} round-trips", s.name);
        }
        assert!(QuantScheme::by_name("no-such-scheme").is_none());
        let names: Vec<&str> = zoo.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["paper-lsq-column", "bwma", "hybrid-adc"]);
    }

    #[test]
    fn bwma_forces_binary_single_split_config() {
        let s = QuantScheme::bwma();
        assert!(s.is_binary_weight());
        let cfg = s.apply_to_config(&CimConfig::tiny());
        assert_eq!((cfg.weight_bits, cfg.cell_bits), (1, 1));
        assert_eq!(cfg.bit_split().num_splits(), 1);
        // LSQ schemes leave the macro untouched.
        let same = QuantScheme::ours().apply_to_config(&CimConfig::tiny());
        assert_eq!(same, CimConfig::tiny());
    }

    #[test]
    fn hybrid_digital_splits_clamp_keeps_one_adc_split() {
        let s = QuantScheme::hybrid_adc();
        assert_eq!(s.digital_splits_for(3), 2);
        assert_eq!(s.digital_splits_for(2), 1);
        assert_eq!(s.digital_splits_for(1), 0, "single split stays analog");
        assert_eq!(QuantScheme::ours().digital_splits_for(3), 0);
        assert_eq!(QuantScheme::bwma().digital_splits_for(1), 0);
    }
}
