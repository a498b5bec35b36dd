//! Memory-cell variation (paper Sec. IV-E, Eq. (5), after Charan et al.
//! [11]): programmed values are perturbed multiplicatively by a log-normal
//! factor, `w_var = w · e^θ`, `θ ~ N(0, σ)`.
//!
//! The crossbar engine applies it per programmed cell with
//! [`Crossbar::apply_variation`](crate::Crossbar::apply_variation); the
//! fast emulation and the frozen engine bake it into the bit-split weight
//! slices through `cq_core::VariationCfg`.

/// The standard-deviation sweep used in the paper's Fig. 10.
pub const FIG10_SIGMAS: [f32; 6] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25];

#[cfg(test)]
mod tests {
    use crate::Crossbar;
    use cq_tensor::CqRng;

    /// A `rows × cols` crossbar with every cell programmed to `values[i]`,
    /// cycling.
    fn programmed(rows: usize, cols: usize, values: &[f32]) -> Crossbar {
        let mut xb = Crossbar::new(rows, cols);
        for i in 0..rows * cols {
            xb.program(i / cols, i % cols, values[i % values.len()]);
        }
        xb
    }

    fn cells(xb: &Crossbar) -> Vec<f32> {
        (0..xb.rows() * xb.cols())
            .map(|i| xb.cell(i / xb.cols(), i % xb.cols()))
            .collect()
    }

    #[test]
    fn sigma_zero_is_identity() {
        let mut xb = programmed(1, 3, &[1.0, -2.0, 3.5]);
        let before = xb.clone();
        xb.apply_variation(0.0, &mut CqRng::new(1));
        assert_eq!(xb, before);
    }

    #[test]
    fn preserves_sign_and_zero() {
        let values = [-4.0, 0.0, 4.0, -1.0, 1.0, 0.0];
        let mut xb = programmed(1, 6, &values);
        xb.apply_variation(0.25, &mut CqRng::new(2));
        for (a, b) in values.iter().zip(cells(&xb)) {
            assert_eq!(a.signum(), b.signum(), "{a} -> {b}");
            if *a == 0.0 {
                assert_eq!(b, 0.0, "zero cells stay zero");
            } else {
                assert_ne!(*a, b, "programmed cells are perturbed");
            }
        }
    }

    #[test]
    fn noise_magnitude_scales_with_sigma() {
        let dev = |sigma: f32| {
            let mut xb = programmed(50, 100, &[1.0]);
            xb.apply_variation(sigma, &mut CqRng::new(3));
            let c = cells(&xb);
            c.iter().map(|v| (v - 1.0).abs() as f64).sum::<f64>() / c.len() as f64
        };
        let (small, large) = (dev(0.05), dev(0.25));
        assert!(large > 3.0 * small, "{large} vs {small}");
    }

    #[test]
    fn deterministic_under_seed() {
        let values: Vec<f32> = (0..32).map(|i| i as f32).collect();
        let mut a = programmed(4, 8, &values);
        let mut b = a.clone();
        a.apply_variation(0.1, &mut CqRng::new(7));
        b.apply_variation(0.1, &mut CqRng::new(7));
        assert_eq!(a, b);
        let mut c = programmed(4, 8, &values);
        c.apply_variation(0.1, &mut CqRng::new(8));
        assert_ne!(a, c, "another seed draws other factors");
    }
}
