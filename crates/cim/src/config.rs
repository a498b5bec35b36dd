//! CIM macro configuration: array geometry, cell capability, converter
//! resolutions. The three presets mirror the paper's Table II.

use cq_quant::{BitSplit, QuantFormat};

/// Configuration of one bit-scalable CIM macro (paper Fig. 2(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CimConfig {
    /// Wordlines (rows) per array.
    pub array_rows: usize,
    /// Bitlines (columns) per array.
    pub array_cols: usize,
    /// Weight precision in bits (signed).
    pub weight_bits: u32,
    /// Activation precision in bits (unsigned, post-ReLU). A multi-bit
    /// DAC drives the whole activation onto the wordlines at once.
    pub act_bits: u32,
    /// Partial-sum / ADC precision in bits (signed; 1 = binary).
    pub psum_bits: u32,
    /// Bits stored per memory cell.
    pub cell_bits: u32,
}

impl CimConfig {
    /// Paper Table II, CIFAR-10 column: 3b weights (1b/cell), 3b
    /// activations, **binary** partial sums, 128×128 arrays.
    pub fn cifar10() -> Self {
        Self {
            array_rows: 128,
            array_cols: 128,
            weight_bits: 3,
            act_bits: 3,
            psum_bits: 1,
            cell_bits: 1,
        }
    }

    /// Paper Table II, CIFAR-100 column: 4b weights (2b/cell), 4b
    /// activations, 3b partial sums, 128×128 arrays.
    pub fn cifar100() -> Self {
        Self {
            array_rows: 128,
            array_cols: 128,
            weight_bits: 4,
            act_bits: 4,
            psum_bits: 3,
            cell_bits: 2,
        }
    }

    /// Paper Table II, ImageNet column: 3b weights (3b/cell), 3b
    /// activations, 2b partial sums, 256×256 arrays.
    pub fn imagenet() -> Self {
        Self {
            array_rows: 256,
            array_cols: 256,
            weight_bits: 3,
            act_bits: 3,
            psum_bits: 2,
            cell_bits: 3,
        }
    }

    /// A small configuration for unit tests and quick examples.
    pub fn tiny() -> Self {
        Self {
            array_rows: 32,
            array_cols: 32,
            weight_bits: 3,
            act_bits: 3,
            psum_bits: 3,
            cell_bits: 1,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or inconsistent bit widths.
    pub fn validate(&self) {
        assert!(self.array_rows > 0 && self.array_cols > 0, "empty array");
        assert!(
            self.weight_bits >= 1 && self.weight_bits <= 16,
            "weight bits"
        );
        assert!(self.act_bits >= 1 && self.act_bits <= 16, "act bits");
        assert!(self.psum_bits >= 1 && self.psum_bits <= 16, "psum bits");
        assert!(
            self.cell_bits >= 1 && self.cell_bits <= self.weight_bits,
            "cell bits {} vs weight bits {}",
            self.cell_bits,
            self.weight_bits
        );
    }

    /// The bit-split geometry implied by weight and cell precision.
    pub fn bit_split(&self) -> BitSplit {
        BitSplit::new(self.weight_bits, self.cell_bits)
    }

    /// Number of bit-splits (`n_split`, physical columns per logical
    /// column).
    pub fn num_splits(&self) -> usize {
        self.bit_split().num_splits()
    }

    /// Weight quantization format (signed).
    pub fn weight_format(&self) -> QuantFormat {
        QuantFormat::signed(self.weight_bits)
    }

    /// Activation quantization format (unsigned, post-ReLU).
    pub fn act_format(&self) -> QuantFormat {
        QuantFormat::unsigned(self.act_bits)
    }

    /// Partial-sum / ADC format (signed; 1 bit means binary ±1).
    pub fn psum_format(&self) -> QuantFormat {
        QuantFormat::signed(self.psum_bits)
    }
}

impl Default for CimConfig {
    fn default() -> Self {
        Self::cifar10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table2() {
        let c10 = CimConfig::cifar10();
        assert_eq!(
            (c10.weight_bits, c10.act_bits, c10.psum_bits, c10.cell_bits),
            (3, 3, 1, 1)
        );
        assert_eq!((c10.array_rows, c10.array_cols), (128, 128));
        assert_eq!(c10.num_splits(), 3);
        assert!(c10.psum_format().is_binary());

        let c100 = CimConfig::cifar100();
        assert_eq!(
            (
                c100.weight_bits,
                c100.act_bits,
                c100.psum_bits,
                c100.cell_bits
            ),
            (4, 4, 3, 2)
        );
        assert_eq!(c100.num_splits(), 2);

        let inet = CimConfig::imagenet();
        assert_eq!((inet.array_rows, inet.array_cols), (256, 256));
        assert_eq!(inet.num_splits(), 1);
        for c in [c10, c100, inet] {
            c.validate();
        }
    }

    #[test]
    #[should_panic(expected = "cell bits")]
    fn invalid_cell_bits_panics() {
        let mut c = CimConfig::cifar10();
        c.cell_bits = 5;
        c.validate();
    }

    #[test]
    fn formats_are_consistent() {
        let c = CimConfig::cifar100();
        assert_eq!(c.weight_format().qp(), 7.0);
        assert_eq!(c.act_format().qp(), 15.0);
        assert_eq!(c.psum_format().qn(), 4.0);
    }
}
