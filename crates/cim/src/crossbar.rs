//! A behavioural crossbar array: programmable cells, analog
//! multiply-accumulate along bitlines, and per-cell variation injection.
//!
//! Cell values are the signed integers produced by bit-splitting (the top
//! slice's sign is realized in hardware by a differential pair; the model
//! simply allows negative conductance). Analog currents are represented as
//! exact integers in `f32` — all partial sums in this workspace stay far
//! below the 2²⁴ exactness limit.

use cq_tensor::CqRng;

/// One CIM array of `rows × cols` programmable cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cells: Vec<f32>,
}

impl Crossbar {
    /// Creates an all-zero array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "empty crossbar {rows}x{cols}");
        Self {
            rows,
            cols,
            cells: vec![0.0; rows * cols],
        }
    }

    /// Number of wordlines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bitlines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn cell(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of bounds"
        );
        self.cells[row * self.cols + col]
    }

    /// Programs one cell.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn program(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row},{col}) out of bounds"
        );
        self.cells[row * self.cols + col] = value;
    }

    /// Analog MAC: drives `input` on the wordlines and returns the bitline
    /// currents `out[c] = Σ_r input[r] · cell[r][c]`.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() > rows`.
    pub fn mac(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.cols];
        self.mac_into(input, &mut out);
        out
    }

    /// Like [`Crossbar::mac`] but accumulating into a caller buffer (which
    /// is zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if `input.len() > rows` or `out.len() != cols`.
    pub fn mac_into(&self, input: &[f32], out: &mut [f32]) {
        assert!(input.len() <= self.rows, "input longer than wordlines");
        assert_eq!(out.len(), self.cols, "output buffer size");
        out.fill(0.0);
        for (r, &x) in input.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            let row = &self.cells[r * self.cols..(r + 1) * self.cols];
            for (o, &c) in out.iter_mut().zip(row) {
                *o += x * c;
            }
        }
    }

    /// Applies log-normal device variation to every programmed (non-zero)
    /// cell: `g ← g · e^θ`, `θ ~ N(0, σ)` (paper Eq. (5)).
    pub fn apply_variation(&mut self, sigma: f32, rng: &mut CqRng) {
        assert!(sigma >= 0.0, "negative sigma");
        if sigma == 0.0 {
            return;
        }
        for c in &mut self.cells {
            if *c != 0.0 {
                *c *= rng.lognormal_factor(sigma);
            }
        }
    }

    /// Number of non-zero (programmed) cells.
    pub fn programmed_cells(&self) -> usize {
        self.cells.iter().filter(|&&c| c != 0.0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_is_matrix_vector_product() {
        let mut xb = Crossbar::new(3, 2);
        // cells = [[1, 2], [3, 4], [5, 6]]
        xb.program(0, 0, 1.0);
        xb.program(0, 1, 2.0);
        xb.program(1, 0, 3.0);
        xb.program(1, 1, 4.0);
        xb.program(2, 0, 5.0);
        xb.program(2, 1, 6.0);
        let out = xb.mac(&[1.0, 2.0, 3.0]);
        assert_eq!(out, vec![1.0 + 6.0 + 15.0, 2.0 + 8.0 + 18.0]);
    }

    #[test]
    fn short_input_drives_top_rows_only() {
        let mut xb = Crossbar::new(4, 1);
        for r in 0..4 {
            xb.program(r, 0, 1.0);
        }
        assert_eq!(xb.mac(&[2.0, 3.0]), vec![5.0]);
    }

    #[test]
    fn variation_only_touches_programmed_cells() {
        let mut xb = Crossbar::new(8, 8);
        xb.program(3, 3, 2.0);
        xb.program(5, 1, -4.0);
        let mut rng = CqRng::new(1);
        xb.apply_variation(0.2, &mut rng);
        assert_eq!(xb.programmed_cells(), 2);
        assert!(xb.cell(3, 3) > 0.0 && xb.cell(3, 3) != 2.0);
        assert!(xb.cell(5, 1) < 0.0 && xb.cell(5, 1) != -4.0);
        assert_eq!(xb.cell(0, 0), 0.0);
    }

    #[test]
    fn zero_sigma_variation_is_identity() {
        let mut xb = Crossbar::new(2, 2);
        xb.program(0, 0, 3.0);
        let before = xb.clone();
        xb.apply_variation(0.0, &mut CqRng::new(9));
        assert_eq!(xb, before);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_program_panics() {
        Crossbar::new(2, 2).program(2, 0, 1.0);
    }
}
