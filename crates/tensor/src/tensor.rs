//! The dense, contiguous, row-major `f32` tensor at the heart of the
//! workspace.
//!
//! The type is deliberately simple: a `Vec<f32>` plus a shape. All views are
//! materialized (no stride tricks), which keeps every kernel in this
//! workspace easy to audit — an explicit goal for a hardware-simulation
//! codebase where bit-exactness matters more than zero-copy cleverness.

use std::fmt;

/// A dense row-major `f32` tensor of arbitrary rank.
///
/// # Examples
///
/// ```
/// use cq_tensor::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor from a flat buffer and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            numel,
            "buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; numel],
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let numel: usize = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; numel],
        }
    }

    /// Creates a rank-1 tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Self {
            shape: vec![n],
            data: (0..n).map(|i| i as f32).collect(),
        }
    }

    /// The shape as a slice, outermost dimension first.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn dim(&self, i: usize) -> usize {
        self.shape[i]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable access to the flat row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape (same number of elements).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(self.data.clone(), shape)
    }

    /// Flat index of a 4-D coordinate in an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 (debug assertions also check
    /// bounds).
    #[inline]
    pub fn idx4(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 4);
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && h < self.shape[2] && w < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + h) * self.shape[3] + w
    }

    /// Element at a full multi-index. Intended for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a full multi-index. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&ix, &d)) in index.iter().zip(&self.shape).enumerate() {
            assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            flat = flat * d + ix;
        }
        flat
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        self.assert_same_shape(other);
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn assert_same_shape(&self, other: &Tensor) {
        assert_eq!(
            self.shape, other.shape,
            "shape mismatch: {:?} vs {:?}",
            self.shape, other.shape
        );
    }

    /// Element-wise sum.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// In-place element-wise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        self.assert_same_shape(other);
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Returns `self * alpha` element-wise.
    pub fn scale(&self, alpha: f32) -> Tensor {
        self.map(|v| v * alpha)
    }

    /// In-place scalar multiply.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Fills the tensor with a constant.
    pub fn fill(&mut self, value: f32) {
        for v in &mut self.data {
            *v = value;
        }
    }

    /// Sum of all elements (f64 accumulator for stability).
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32
    }

    /// Arithmetic mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Mean of absolute values (used for LSQ scale initialization).
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn abs_mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        let s: f64 = self.data.iter().map(|&v| v.abs() as f64).sum();
        (s / self.data.len() as f64) as f32
    }

    /// Largest element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Largest absolute value (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data
            .iter()
            .copied()
            .fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Sum of squares.
    pub fn sq_sum(&self) -> f32 {
        self.data
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>() as f32
    }

    /// Index of the maximum element of a rank-1 tensor, or of each row of a
    /// rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics for ranks other than 1 or 2.
    pub fn argmax_rows(&self) -> Vec<usize> {
        match self.rank() {
            1 => vec![argmax_slice(&self.data)],
            2 => {
                let (rows, cols) = (self.shape[0], self.shape[1]);
                (0..rows)
                    .map(|r| argmax_slice(&self.data[r * cols..(r + 1) * cols]))
                    .collect()
            }
            r => panic!("argmax_rows supports rank 1 or 2, got {r}"),
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.rank(), 2, "transpose2 requires rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor {
            shape: vec![n, m],
            data: out,
        }
    }

    /// Copies rows `[start, end)` along the outermost dimension.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end` exceeds the outermost dimension.
    pub fn slice_outer(&self, start: usize, end: usize) -> Tensor {
        assert!(
            start <= end && end <= self.shape[0],
            "slice [{start},{end}) of {:?}",
            self.shape
        );
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Tensor {
            shape,
            data: self.data[start * inner..end * inner].to_vec(),
        }
    }

    /// Stacks tensors along a new outermost dimension.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or shapes differ.
    pub fn stack_outer(items: &[Tensor]) -> Tensor {
        assert!(!items.is_empty(), "stack_outer of empty list");
        let inner_shape = items[0].shape.clone();
        let mut data = Vec::with_capacity(items.len() * items[0].numel());
        for t in items {
            assert_eq!(t.shape, inner_shape, "stack_outer shape mismatch");
            data.extend_from_slice(&t.data);
        }
        let mut shape = vec![items.len()];
        shape.extend_from_slice(&inner_shape);
        Tensor { shape, data }
    }

    /// Concatenates tensors along the outermost dimension.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty or inner shapes differ.
    pub fn concat_outer(items: &[&Tensor]) -> Tensor {
        assert!(!items.is_empty(), "concat_outer of empty list");
        let inner = &items[0].shape[1..];
        let mut outer = 0;
        let mut data = Vec::new();
        for t in items {
            assert_eq!(&t.shape[1..], inner, "concat_outer inner-shape mismatch");
            outer += t.shape[0];
            data.extend_from_slice(&t.data);
        }
        let mut shape = vec![outer];
        shape.extend_from_slice(inner);
        Tensor { shape, data }
    }

    /// Maximum absolute element-wise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        self.assert_same_shape(other);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// `true` when every element differs from `other` by at most `tol`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

fn argmax_slice(s: &[f32]) -> usize {
    let mut best = 0;
    let mut bestv = f32::NEG_INFINITY;
    for (i, &v) in s.iter().enumerate() {
        if v > bestv {
            bestv = v;
            best = i;
        }
    }
    best
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.numel() <= 16 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{} elements, mean {:.4}, min {:.4}, max {:.4}]",
                self.numel(),
                self.mean(),
                self.min(),
                self.max()
            )
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.at(&[0, 0]), 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], &[2, 3]);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[3, 2]).sum(), 0.0);
        assert_eq!(Tensor::ones(&[3, 2]).sum(), 6.0);
        assert_eq!(Tensor::full(&[4], 2.5).sum(), 10.0);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        let _ = a.add(&b);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-2.0, 1.0, 3.0, -4.0], &[2, 2]);
        assert_eq!(t.sum(), -2.0);
        assert_eq!(t.mean(), -0.5);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -4.0);
        assert_eq!(t.max_abs(), 4.0);
        assert_eq!(t.abs_mean(), 2.5);
        assert_eq!(t.sq_sum(), 4.0 + 1.0 + 9.0 + 16.0);
    }

    #[test]
    fn empty_tensor_reductions_are_defined() {
        let t = Tensor::zeros(&[0]);
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.abs_mean(), 0.0);
        assert_eq!(t.max_abs(), 0.0);
    }

    #[test]
    fn transpose2_is_involution() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let tt = t.transpose2();
        assert_eq!(tt.shape(), &[4, 3]);
        assert_eq!(tt.at(&[1, 2]), t.at(&[2, 1]));
        assert_eq!(tt.transpose2(), t);
    }

    #[test]
    fn argmax_rows_rank1_and_rank2() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5], &[3]);
        assert_eq!(t.argmax_rows(), vec![1]);
        let m = Tensor::from_vec(vec![1.0, 2.0, 3.0, 9.0, 8.0, 7.0], &[2, 3]);
        assert_eq!(m.argmax_rows(), vec![2, 0]);
    }

    #[test]
    fn slice_and_stack_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), &[4, 3, 2]);
        let a = t.slice_outer(0, 2);
        let b = t.slice_outer(2, 4);
        assert_eq!(a.shape(), &[2, 3, 2]);
        let parts: Vec<Tensor> = (0..4)
            .map(|i| {
                let s = t.slice_outer(i, i + 1);
                s.reshape(&[3, 2])
            })
            .collect();
        let restacked = Tensor::stack_outer(&parts);
        assert_eq!(restacked, t);
        assert_eq!(b.at(&[0, 0, 0]), 12.0);
    }

    #[test]
    fn idx4_matches_at() {
        let t = Tensor::from_vec((0..120).map(|i| i as f32).collect(), &[2, 3, 4, 5]);
        assert_eq!(t.data()[t.idx4(1, 2, 3, 4)], t.at(&[1, 2, 3, 4]));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(6);
        let r = t.reshape(&[2, 3]);
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn concat_outer_stacks_batches() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = Tensor::concat_outer(&[&a, &b]);
        assert_eq!(c.shape(), &[3, 2]);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner-shape mismatch")]
    fn concat_outer_rejects_mismatch() {
        let a = Tensor::zeros(&[1, 2]);
        let b = Tensor::zeros(&[1, 3]);
        let _ = Tensor::concat_outer(&[&a, &b]);
    }

    #[test]
    fn allclose_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.01, 1.995], &[2]);
        assert!(a.allclose(&b, 0.011));
        assert!(!a.allclose(&b, 0.005));
        assert!((a.max_abs_diff(&b) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn debug_is_never_empty() {
        let t = Tensor::zeros(&[0]);
        assert!(!format!("{t:?}").is_empty());
        let big = Tensor::zeros(&[100]);
        assert!(format!("{big:?}").contains("elements"));
    }
}
