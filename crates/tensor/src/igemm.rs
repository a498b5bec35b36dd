//! Integer GEMM kernels for exact small-integer arithmetic carried in
//! `i8 × i8 → i32`, plus the freeze-time panel repacking they stream
//! through.
//!
//! The CIM partial-sum front-end multiplies tiny integers — a bit-split
//! weight slice (a couple of bits) by a quantized activation — yet the
//! f32 path pays full-width float multiply-accumulate for it. This module
//! provides the integer alternative:
//!
//! * [`PackedPanels`] — a weight matrix repacked **once** into
//!   fixed-width row panels of [`PANEL_ROWS`] rows, k-major interleaved
//!   (the CPU analogue of cuBLASLt's `COL32` ampere layouts): the inner
//!   kernel streams one contiguous panel while revisiting a register-band
//!   of output rows, and the layout is chosen at freeze time so serving
//!   never repacks.
//! * [`im2col_i8`] — the i8 twin of the f32 im2col used by
//!   [`conv2d_grouped`](crate::conv2d_grouped), quartering patch-matrix
//!   write traffic.
//! * [`widen_i8_to_i32`] — widens an i8 activation matrix to the i32
//!   operand the kernel streams (done once per image/group, shared by
//!   every bit-split's GEMM).
//! * [`igemm_into`] — the `i8 × i32 → i32` accumulation kernel itself, a
//!   plain axpy loop written so the autovectorizer emits SIMD
//!   multiply-add, with strength reduction for the `±1` weights that
//!   dominate low-bit slices.
//! * [`accum_to_f32`] / [`shift_add_into`] — the exact `i32 → f32`
//!   epilogues: psums are integers well inside f32's 24-bit mantissa, so
//!   converting (and optionally shift-adding across bit-splits) is
//!   bit-identical to having run the whole chain in f32.
//!
//! Everything here is plain safe Rust; the unit tests pin each piece
//! against the f32 kernels bit-for-bit.

use crate::conv::ConvShape;

/// Rows per weight panel (the register-blocking height `MR`).
pub const PANEL_ROWS: usize = 4;

/// A row-major `[rows, k]` integer weight matrix repacked into
/// [`PANEL_ROWS`]-row panels.
///
/// Panel `p` covers rows `[p·MR, min((p+1)·MR, rows))`; within a panel the
/// storage is **k-major**: for each `kk` the `MR` lane values
/// `a[(p·MR + lane), kk]` sit contiguously (tail lanes of a short final
/// panel are zero-padded). [`igemm_into`] streams this layout linearly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPanels {
    rows: usize,
    k: usize,
    max_abs: i32,
    data: Vec<i8>,
}

impl PackedPanels {
    /// Packs a row-major `[rows, k]` matrix of f32-carried integers.
    ///
    /// Returns `None` if any value is not an exact integer in
    /// `[-128, 127]` — the caller's cue to stay on the f32 path (e.g.
    /// when device variation has perturbed weight slices off-integer).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * k`.
    pub fn pack(rows: usize, k: usize, a: &[f32]) -> Option<Self> {
        assert_eq!(a.len(), rows * k, "panel source length");
        let num_panels = rows.div_ceil(PANEL_ROWS).max(1);
        let mut data = vec![0i8; num_panels * k * PANEL_ROWS];
        let mut max_abs = 0i32;
        for (i, &v) in a.iter().enumerate() {
            if v != v.round() || !(-128.0..=127.0).contains(&v) {
                return None;
            }
            let q = v as i32;
            max_abs = max_abs.max(q.abs());
            let (row, kk) = (i / k, i % k);
            let (p, lane) = (row / PANEL_ROWS, row % PANEL_ROWS);
            data[(p * k + kk) * PANEL_ROWS + lane] = q as i8;
        }
        Some(Self {
            rows,
            k,
            max_abs,
            data,
        })
    }

    /// Logical row count of the packed matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Inner (`k`) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Largest absolute packed value (for accumulator-range checks).
    pub fn max_abs(&self) -> i32 {
        self.max_abs
    }
}

/// Writes the i8 im2col matrix for channels `[c_start, c_start + c_len)`
/// of one image into `col` (shape `[c_len·kh·kw, out_h·out_w]`,
/// row-major) — the integer twin of the f32 im2col inside
/// [`conv2d_grouped`](crate::conv2d_grouped), producing the identical
/// patch matrix for integer-valued inputs.
///
/// `img` is the `[C, H, W]` slice of a single image whose values must be
/// exact integers in `[-128, 127]` (quantized activations are; debug
/// builds assert it).
///
/// Every patch row is a run of zeros, one in-bounds span, and zeros
/// again. The span `[lo, hi)` of output columns depends only on the
/// kernel column, so it is computed once per `kj`; the span is a
/// branch-free narrowing loop, unit-stride (which vectorizes) or a
/// strided gather.
pub fn im2col_i8(img: &[f32], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i8]) {
    let (h, w) = (s.in_h, s.in_w);
    let ohw = s.out_h * s.out_w;
    debug_assert_eq!(col.len(), c_len * s.kh * s.kw * ohw);
    // In-bounds output columns of kernel column `kj`: the `ow` with
    // `0 <= ow·stride + kj - pad < w`.
    let span = |kj: usize| {
        let lo = s.pad.saturating_sub(kj).div_ceil(s.stride).min(s.out_w);
        let hi = (w + s.pad)
            .saturating_sub(kj)
            .div_ceil(s.stride)
            .min(s.out_w);
        (lo, hi.max(lo))
    };
    let block = &img[c_start * h * w..(c_start + c_len) * h * w];
    for (c_local, ch) in block.chunks_exact(h * w).enumerate() {
        for ki in 0..s.kh {
            for kj in 0..s.kw {
                let (lo, hi) = span(kj);
                let row = ((c_local * s.kh + ki) * s.kw + kj) * ohw;
                for oh in 0..s.out_h {
                    let ih = (oh * s.stride + ki) as isize - s.pad as isize;
                    let dst = &mut col[row + oh * s.out_w..row + (oh + 1) * s.out_w];
                    if ih < 0 || ih as usize >= h || lo == hi {
                        dst.fill(0);
                        continue;
                    }
                    let src_row = &ch[ih as usize * w..(ih as usize + 1) * w];
                    // First in-bounds input column.
                    let iw0 = lo * s.stride + kj - s.pad;
                    dst[..lo].fill(0);
                    dst[hi..].fill(0);
                    let dst = &mut dst[lo..hi];
                    if s.stride == 1 {
                        for (d, &v) in dst.iter_mut().zip(&src_row[iw0..]) {
                            *d = narrow_i8(v);
                        }
                    } else {
                        let src = src_row[iw0..].iter().step_by(s.stride);
                        for (d, &v) in dst.iter_mut().zip(src) {
                            *d = narrow_i8(v);
                        }
                    }
                }
            }
        }
    }
}

/// Narrows an f32-carried integer in `[-128, 127]` to i8 with one add and
/// a truncation, no saturating float→int conversion: adding `1.5·2²³`
/// moves the value into the binade where the f32 spacing is 1, so the low
/// mantissa byte is its two's-complement i8.
#[inline(always)]
fn narrow_i8(v: f32) -> i8 {
    debug_assert!(
        v == v.round() && (-128.0..=127.0).contains(&v),
        "activation {v} is not an i8 integer"
    );
    (v + 12_582_912.0).to_bits() as i8
}

/// Widens an i8 matrix to the i32 operand [`igemm_into`] streams.
///
/// Done once per image/group and shared by every bit-split's GEMM, this
/// keeps the hot kernel free of lane-width conversions.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn widen_i8_to_i32(src: &[i8], dst: &mut [i32]) {
    assert_eq!(src.len(), dst.len(), "widen buffer length");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s as i32;
    }
}

/// `C[rows,n] += A · B` where `A` is a [`PackedPanels`] weight matrix and
/// `b` is the row-major `[k, n]` widened activation matrix.
///
/// Per panel the kernel walks the k-major lane quads and performs one
/// axpy over the contiguous output row per non-zero weight — long
/// unit-stride loops the autovectorizer turns into SIMD adds. The `±1`
/// weights (the bulk of low-bit slices) are strength-reduced to pure
/// add/sub axpys, which matters because packed i32 multiply is the one
/// SIMD op the x86-64 baseline lacks; wider magnitudes keep the scalar
/// multiply arm rather than more match arms, which benchmarked worse
/// (a 7-way dispatch mispredicts more than it saves).
///
/// The caller guarantees accumulators stay within i32 (see
/// [`PackedPanels::max_abs`]); all CIM psum configurations are orders of
/// magnitude inside the range.
///
/// # Panics
///
/// Panics if `b` or `c` lengths disagree with the panel geometry.
pub fn igemm_into(a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
    let (rows, k) = (a.rows, a.k);
    assert_eq!(b.len(), k * n, "B buffer length");
    assert_eq!(c.len(), rows * n, "C buffer length");
    for (p, panel) in a.data.chunks_exact(k * PANEL_ROWS).enumerate() {
        let r0 = p * PANEL_ROWS;
        let band = (rows - r0).min(PANEL_ROWS);
        for (kk, lanes) in panel.chunks_exact(PANEL_ROWS).enumerate() {
            let brow = &b[kk * n..(kk + 1) * n];
            for (lane, &wq) in lanes.iter().take(band).enumerate() {
                let w = wq as i32;
                if w == 0 {
                    continue;
                }
                let crow = &mut c[(r0 + lane) * n..(r0 + lane + 1) * n];
                match w {
                    1 => {
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += bv;
                        }
                    }
                    -1 => {
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv -= bv;
                        }
                    }
                    _ => {
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += w * bv;
                        }
                    }
                }
            }
        }
    }
}

/// Exact `i32 → f32` epilogue: overwrites `out` with the accumulator
/// values. Bit-identical to an f32 computation of the same sums for
/// accumulators inside the 24-bit mantissa (debug builds assert it).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn accum_to_f32(acc: &[i32], out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "epilogue buffer length");
    for (o, &v) in out.iter_mut().zip(acc) {
        debug_assert!(v.unsigned_abs() < 1 << 24, "psum {v} exceeds f32 exactness");
        *o = v as f32;
    }
}

/// Shift-add `i32 → f32` epilogue: `out[i] += (acc[i] as f32) · shift` —
/// folds one bit-split's accumulator into a running f32 output with its
/// `2^(cb·s)` shift weight. Exact under the same mantissa bound as
/// [`accum_to_f32`].
///
/// # Panics
///
/// Panics if lengths differ.
pub fn shift_add_into(acc: &[i32], shift: f32, out: &mut [f32]) {
    assert_eq!(acc.len(), out.len(), "epilogue buffer length");
    for (o, &v) in out.iter_mut().zip(acc) {
        debug_assert!(v.unsigned_abs() < 1 << 24, "psum {v} exceeds f32 exactness");
        *o += (v as f32) * shift;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_grouped, gemm_nn_acc, Tensor};

    fn int_filled(len: usize, seed: u64, lo: i32, hi: i32) -> Vec<f32> {
        let span = (hi - lo + 1) as u64;
        (0..len)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed);
                (lo + ((x >> 33) % span) as i32) as f32
            })
            .collect()
    }

    #[test]
    fn pack_roundtrips_layout() {
        // 5 rows × 3 cols: two panels, second one zero-padded.
        let a: Vec<f32> = (0..15).map(|i| (i as f32) - 7.0).collect();
        let p = PackedPanels::pack(5, 3, &a).unwrap();
        assert_eq!(p.rows(), 5);
        assert_eq!(p.k(), 3);
        assert_eq!(p.max_abs(), 7);
        for row in 0..5 {
            for kk in 0..3 {
                let (pi, lane) = (row / PANEL_ROWS, row % PANEL_ROWS);
                let got = p.data[(pi * 3 + kk) * PANEL_ROWS + lane] as f32;
                assert_eq!(got, a[row * 3 + kk], "row {row} kk {kk}");
            }
        }
        // Padding lanes of the tail panel stay zero.
        for kk in 0..3 {
            for lane in 1..PANEL_ROWS {
                assert_eq!(p.data[(3 + kk) * PANEL_ROWS + lane], 0);
            }
        }
    }

    #[test]
    fn pack_rejects_non_integer_and_out_of_range() {
        assert!(PackedPanels::pack(1, 2, &[1.0, 1.5]).is_none());
        assert!(PackedPanels::pack(1, 2, &[1.0, 129.0]).is_none());
        assert!(PackedPanels::pack(1, 2, &[-129.0, 0.0]).is_none());
        assert!(PackedPanels::pack(1, 2, &[-128.0, 127.0]).is_some());
    }

    #[test]
    fn igemm_matches_f32_gemm() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (8, 27, 25), (5, 9, 16)] {
            let a = int_filled(m * k, 1, -4, 3);
            let b = int_filled(k * n, 2, 0, 7);
            let mut want = vec![0.0f32; m * n];
            gemm_nn_acc(m, k, n, &a, &b, &mut want);
            let packed = PackedPanels::pack(m, k, &a).unwrap();
            let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
            let mut acc = vec![0i32; m * n];
            igemm_into(&packed, &b32, n, &mut acc);
            let mut got = vec![0.0f32; m * n];
            accum_to_f32(&acc, &mut got);
            assert_eq!(got, want, "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn igemm_accumulates() {
        let a = PackedPanels::pack(2, 2, &[1.0, 2.0, -1.0, 3.0]).unwrap();
        let b32 = vec![1i32, 1, 1, 1];
        let mut acc = vec![10i32; 4];
        igemm_into(&a, &b32, 2, &mut acc);
        assert_eq!(acc, vec![13, 13, 12, 12]);
    }

    /// The full integer chain — im2col-i8, widen, panel igemm, f32
    /// epilogue — reproduces the f32 grouped convolution bit-for-bit on
    /// integer data, including the geometries where im2col's in-bounds
    /// column span is clipped, strided or empty.
    #[test]
    fn integer_conv_chain_matches_f32_grouped_conv() {
        // (batch, groups, c/group, oc/group, in_h, in_w, k, stride, pad)
        for &(batch, groups, cg, ocg, in_h, in_w, kk, stride, pad) in &[
            (
                2usize, 3usize, 2usize, 4usize, 6usize, 6usize, 3usize, 1usize, 1usize,
            ),
            (1, 1, 3, 5, 5, 5, 3, 2, 1),
            (1, 2, 4, 2, 5, 5, 1, 1, 0),
            // 1×1 stride-2 pad-0: the ResNet shortcut, even and odd sizes.
            (2, 1, 4, 3, 8, 8, 1, 2, 0),
            (1, 2, 3, 2, 7, 7, 1, 2, 0),
            // Stride 2 with pad 1 on a non-square image.
            (1, 2, 3, 4, 8, 7, 3, 2, 1),
            // pad ≥ kw: border output columns see only padding ...
            (1, 1, 2, 2, 3, 3, 2, 1, 3),
            // ... and here the in-bounds input row 1 has an empty span.
            (1, 1, 2, 3, 3, 1, 1, 3, 2),
            // in_w < kw, at stride 1 and 2.
            (1, 2, 2, 3, 5, 2, 3, 1, 1),
            (1, 1, 2, 2, 6, 1, 3, 2, 1),
            // Four groups: im2col reads channel blocks at c_start = 3, 6, 9.
            (2, 4, 3, 2, 5, 6, 3, 1, 1),
        ] {
            let c = groups * cg;
            let x = Tensor::from_vec(
                int_filled(batch * c * in_h * in_w, 11, -8, 7),
                &[batch, c, in_h, in_w],
            );
            let w = Tensor::from_vec(
                int_filled(groups * ocg * cg * kk * kk, 13, -4, 3),
                &[groups * ocg, cg, kk, kk],
            );
            let want = conv2d_grouped(&x, &w, stride, pad, groups);
            let s = ConvShape::new(x.shape(), w.shape(), stride, pad, groups);
            let (cr, cc) = (s.col_rows(), s.col_cols());
            let mut col = vec![0i8; cr * cc];
            let mut b32 = vec![0i32; cr * cc];
            let mut acc = vec![0i32; ocg * cc];
            let mut got = Tensor::zeros(&[batch, s.out_ch, s.out_h, s.out_w]);
            let panels: Vec<PackedPanels> = (0..groups)
                .map(|g| {
                    PackedPanels::pack(ocg, cr, &w.data()[g * ocg * cr..(g + 1) * ocg * cr])
                        .unwrap()
                })
                .collect();
            let in_img = c * in_h * in_w;
            let out_img = s.out_ch * cc;
            for b in 0..batch {
                let img = &x.data()[b * in_img..(b + 1) * in_img];
                for (g, panel) in panels.iter().enumerate() {
                    col.fill(99); // every entry must be overwritten
                    im2col_i8(img, g * cg, cg, &s, &mut col);
                    widen_i8_to_i32(&col, &mut b32);
                    acc.fill(0);
                    igemm_into(panel, &b32, cc, &mut acc);
                    let out_g = &mut got.data_mut()
                        [b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
                    accum_to_f32(&acc, out_g);
                }
            }
            assert_eq!(
                got, want,
                "batch={batch} groups={groups} {in_h}×{in_w} k={kk} stride={stride} pad={pad}"
            );
        }
    }

    #[test]
    fn shift_add_epilogue_is_exact() {
        let acc = vec![3i32, -5, 0, 1 << 20];
        let mut out = vec![1.0f32; 4];
        shift_add_into(&acc, 4.0, &mut out);
        assert_eq!(out, vec![13.0, -19.0, 1.0, 4194305.0]);
    }
}
