//! Integer quantization formats: bit width, signedness, and the derived
//! clamping range `[-Qn, Qp]`.

/// An integer quantization target.
///
/// * signed `b`-bit: range `[-2^(b-1), 2^(b-1) - 1]`
/// * unsigned `b`-bit: range `[0, 2^b - 1]`
/// * signed 1-bit is the special **binary** format `{-1, +1}` used for the
///   near-ADC-less partial sums of the paper's CIFAR-10 setting (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantFormat {
    bits: u32,
    signed: bool,
}

impl QuantFormat {
    /// Signed format with the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16 (partial sums and weights in
    /// CIM never exceed this; wider would break exact `f32` arithmetic).
    pub fn signed(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "unsupported signed width {bits}");
        Self { bits, signed: true }
    }

    /// Unsigned format with the given bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn unsigned(bits: u32) -> Self {
        assert!(
            (1..=16).contains(&bits),
            "unsupported unsigned width {bits}"
        );
        Self {
            bits,
            signed: false,
        }
    }

    /// Bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether this is the binary `{-1, +1}` format (signed, 1 bit).
    pub fn is_binary(&self) -> bool {
        self.signed && self.bits == 1
    }

    /// Magnitude of the most negative level (`Qn` in LSQ notation).
    pub fn qn(&self) -> f32 {
        if !self.signed {
            0.0
        } else if self.is_binary() {
            1.0
        } else {
            (1u32 << (self.bits - 1)) as f32
        }
    }

    /// Most positive level (`Qp` in LSQ notation).
    pub fn qp(&self) -> f32 {
        if !self.signed {
            ((1u64 << self.bits) - 1) as f32
        } else if self.is_binary() {
            1.0
        } else {
            ((1u32 << (self.bits - 1)) - 1) as f32
        }
    }

    /// Number of representable levels.
    pub fn levels(&self) -> usize {
        if self.is_binary() {
            2
        } else {
            (self.qp() + self.qn()) as usize + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_ranges() {
        let f = QuantFormat::signed(3);
        assert_eq!(f.qn(), 4.0);
        assert_eq!(f.qp(), 3.0);
        assert_eq!(f.levels(), 8);
        let f = QuantFormat::signed(8);
        assert_eq!(f.qn(), 128.0);
        assert_eq!(f.qp(), 127.0);
        assert_eq!(f.levels(), 256);
    }

    #[test]
    fn unsigned_ranges() {
        let f = QuantFormat::unsigned(4);
        assert_eq!(f.qn(), 0.0);
        assert_eq!(f.qp(), 15.0);
        assert_eq!(f.levels(), 16);
        assert!(!f.is_binary());
    }

    #[test]
    fn binary_format() {
        let f = QuantFormat::signed(1);
        assert!(f.is_binary());
        assert_eq!(f.qn(), 1.0);
        assert_eq!(f.qp(), 1.0);
        assert_eq!(f.levels(), 2);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn zero_bits_panics() {
        QuantFormat::signed(0);
    }
}
