//! Deterministic random-number utilities shared by every crate in the
//! workspace.
//!
//! A self-contained xoshiro256++ generator (seeded through splitmix64, the
//! reference seeding procedure) with the distributions the workspace needs:
//! Gaussian via Box–Muller and log-normal for the device variation model of
//! Eq. (5). No external crates — the workspace builds fully offline.

use crate::Tensor;

/// xoshiro256++ core state (Blackman & Vigna). Deterministic, portable,
/// and plenty for initialization / synthetic data / variation injection —
/// nothing here is cryptographic.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with splitmix64.
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        Self {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Seeded random source for initialization, synthetic data, and device
/// variation.
///
/// # Examples
///
/// ```
/// use cq_tensor::CqRng;
/// let mut a = CqRng::new(7);
/// let mut b = CqRng::new(7);
/// assert_eq!(a.normal(), b.normal());
/// ```
#[derive(Debug, Clone)]
pub struct CqRng {
    inner: Xoshiro256pp,
    spare_normal: Option<f32>,
}

impl CqRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: Xoshiro256pp::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // Top 24 bits give every representable f32 step in [0, 1).
        (self.inner.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_in(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform_in range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Multiply-shift range reduction (Lemire); bias is < 2⁻⁶⁴·n,
        // irrelevant for simulation workloads.
        ((self.inner.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fair coin flip.
    pub fn coin(&mut self) -> bool {
        self.inner.next_u64() & 1 == 1
    }

    /// Standard normal sample (Box–Muller, with spare caching).
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal multiplicative factor `e^θ`, `θ ~ N(0, sigma)` — the
    /// memory-cell variation model of the paper's Eq. (5).
    pub fn lognormal_factor(&mut self, sigma: f32) -> f32 {
        (sigma * self.normal()).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Tensor of i.i.d. `N(0, std²)` samples.
    pub fn normal_tensor(&mut self, shape: &[usize], std: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| self.normal() * std).collect();
        Tensor::from_vec(data, shape)
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| self.uniform_in(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Derives an independent child generator (for per-worker streams).
    pub fn fork(&mut self, stream: u64) -> CqRng {
        let s = self.inner.next_u64() ^ stream.wrapping_mul(0x9E3779B97F4A7C15);
        CqRng::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_from_seed() {
        let mut a = CqRng::new(42);
        let mut b = CqRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
        assert_ne!(CqRng::new(1).uniform(), CqRng::new(2).uniform());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = CqRng::new(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean: f32 = samples.iter().sum::<f32>() / n as f32;
        let var: f32 = samples.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_factor_properties() {
        let mut rng = CqRng::new(9);
        // sigma = 0 must be exactly 1 (no variation).
        assert_eq!(rng.lognormal_factor(0.0), 1.0);
        let n = 20_000;
        let mean_ln: f32 = (0..n).map(|_| rng.lognormal_factor(0.2).ln()).sum::<f32>() / n as f32;
        assert!(mean_ln.abs() < 0.01, "log-mean {mean_ln} should be ~0");
        assert!((0..100).all(|_| rng.lognormal_factor(0.25) > 0.0));
    }

    #[test]
    fn below_and_shuffle_cover_range() {
        let mut rng = CqRng::new(3);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[rng.below(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        let mut v: Vec<usize> = (0..16).collect();
        let orig = v.clone();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig, "shuffle is a permutation");
    }

    #[test]
    fn tensors_have_right_shape_and_spread() {
        let mut rng = CqRng::new(11);
        let t = rng.normal_tensor(&[8, 8], 2.0);
        assert_eq!(t.shape(), &[8, 8]);
        let u = rng.uniform_tensor(&[100], -1.0, 1.0);
        assert!(u.min() >= -1.0 && u.max() < 1.0);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = CqRng::new(5);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let xa: Vec<f32> = (0..8).map(|_| a.uniform()).collect();
        let xb: Vec<f32> = (0..8).map(|_| b.uniform()).collect();
        assert_ne!(xa, xb);
    }
}
