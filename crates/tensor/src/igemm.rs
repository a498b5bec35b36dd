//! Integer GEMM kernels for exact small-integer arithmetic carried in
//! `i8 × i8 → i32`, plus the freeze-time weight repacking they stream
//! through.
//!
//! The CIM partial-sum front-end multiplies tiny integers — a bit-split
//! weight slice (a couple of bits) by a quantized activation — yet the
//! f32 path pays full-width float multiply-accumulate for it. This module
//! provides the integer alternative:
//!
//! * [`PackedPanels`] — a weight matrix repacked **once** at freeze into
//!   value-grouped row indices: for each output row, the `kk` positions of
//!   its nonzero weights bucketed by weight value. A 1-bit cell slice is
//!   `{0, 1}` (or `{-1, 0}` for the signed top slice), so each row is at
//!   most one group and the zeros — about half the entries — are gone
//!   before serving starts.
//! * [`im2col_i8`] — the i8 twin of the f32 im2col used by
//!   [`conv2d_grouped`](crate::conv2d_grouped), quartering patch-matrix
//!   write traffic.
//! * [`widen_i8_to_i32`] — widens an i8 activation matrix to the i32
//!   operand the kernel streams (done once per image/group, shared by
//!   every bit-split's GEMM).
//! * [`igemm_into`] — the `i8 × i32 → i32` accumulation kernel itself: a
//!   register-blocked, add-only sum of the B rows each value group
//!   selects, folded into C once per group.
//! * [`accum_to_f32`] / [`shift_add_into`] — the exact `i32 → f32`
//!   epilogues: psums are integers well inside f32's 24-bit mantissa, so
//!   converting (and optionally shift-adding across bit-splits) is
//!   bit-identical to having run the whole chain in f32.
//!
//! Everything here is plain safe Rust; the unit tests pin each piece
//! against the f32 kernels bit-for-bit.

use crate::conv::ConvShape;

/// One run of a row's nonzero weights that share a value: `idx[start..end]`
/// holds their `kk` positions, ascending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ValueGroup {
    value: i32,
    start: u32,
    end: u32,
}

/// A row-major `[rows, k]` integer weight matrix repacked into
/// value-grouped row indices for [`igemm_into`].
///
/// For each output row, the `kk` positions of its nonzero weights are
/// bucketed by weight value, ascending within a bucket. Row `r`'s
/// `(value, start, end)` groups are `groups[row_groups[r]..row_groups[r +
/// 1]]`, in ascending value order, and each points into the one flat
/// `u16` index vector `idx`, so `k` is capped at 2¹⁶. Zero weights are
/// not stored at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedPanels {
    rows: usize,
    k: usize,
    max_abs: i32,
    row_groups: Vec<u32>,
    groups: Vec<ValueGroup>,
    idx: Vec<u16>,
}

impl PackedPanels {
    /// Packs a row-major `[rows, k]` matrix of f32-carried integers.
    ///
    /// Returns `None` if any value is not an exact integer in
    /// `[-128, 127]` — the caller's cue to stay on the f32 path (e.g.
    /// when device variation has perturbed weight slices off-integer) —
    /// or if `k > 65536`, beyond what the `u16` indices address (or the
    /// matrix has more entries than `u32` group bounds address).
    ///
    /// Each row is bucketed by a counting pass, `O(k + 256)` per row with
    /// no per-row allocation.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != rows * k`.
    pub fn pack(rows: usize, k: usize, a: &[f32]) -> Option<Self> {
        assert_eq!(a.len(), rows * k, "panel source length");
        if k > 1 << 16 || a.len() > u32::MAX as usize {
            return None;
        }
        let mut max_abs = 0i32;
        let mut row_groups = Vec::with_capacity(rows + 1);
        row_groups.push(0u32);
        let (mut groups, mut idx) = (Vec::new(), Vec::new());
        // The current row as i8, and per value `v` (bucket `v + 128`, so
        // buckets ascend with the value) its count in the row, then the
        // next index position it writes. Only the buckets between the
        // row's smallest and largest value (and zero) are touched.
        let mut q = vec![0i8; k];
        let mut slot = [0u32; 256];
        for row in (0..rows).map(|r| &a[r * k..(r + 1) * k]) {
            let (mut exact, mut lo, mut hi) = (true, 0i8, 0i8);
            for (d, &v) in q.iter_mut().zip(row) {
                let t = v as i32;
                exact &= (-128..=127).contains(&t) & (t as f32 == v);
                *d = t as i8;
                max_abs = max_abs.max((*d as i32).abs());
                (lo, hi) = (lo.min(*d), hi.max(*d));
            }
            if !exact {
                return None;
            }
            let live = bucket(lo)..=bucket(hi);
            slot[live.clone()].fill(0);
            for &v in &q {
                slot[bucket(v)] += 1;
            }
            let mut end = idx.len() as u32;
            for b in live.filter(|&b| b != bucket(0)) {
                let count = slot[b];
                if count > 0 {
                    groups.push(ValueGroup {
                        value: b as i32 - 128,
                        start: end,
                        end: end + count,
                    });
                    slot[b] = end;
                    end += count;
                }
            }
            // Zeros all write one scratch slot past the row's indices and
            // never advance, so the scatter needs no branch.
            slot[bucket(0)] = end;
            idx.resize(end as usize + 1, 0);
            for (kk, &v) in q.iter().enumerate() {
                let s = &mut slot[bucket(v)];
                idx[*s as usize] = kk as u16;
                *s += (v != 0) as u32;
            }
            idx.truncate(end as usize);
            row_groups.push(groups.len() as u32);
        }
        groups.shrink_to_fit();
        idx.shrink_to_fit();
        Some(Self {
            rows,
            k,
            max_abs,
            row_groups,
            groups,
            idx,
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

    /// Row `r`'s value groups as `(value, kk indices)`.
    fn row(&self, r: usize) -> impl Iterator<Item = (i32, &[u16])> {
        let gs = &self.groups[self.row_groups[r] as usize..self.row_groups[r + 1] as usize];
        gs.iter()
            .map(|g| (g.value, &self.idx[g.start as usize..g.end as usize]))
    }
}

/// Counting-pass bucket of an i8 weight: buckets ascend with the value.
#[inline(always)]
fn bucket(v: i8) -> usize {
    (v as u8 ^ 0x80) as usize
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
/// The kernel walks the output columns in blocks of 32, then 8, then 1,
/// copying each block's B columns into one contiguous `[k, W]` panel.
/// Within a block, for each row and each of its value groups, it sums
/// the panel rows the group's indices select into a local `[i32; W]`
/// accumulator — a loop of loads and adds only, with no multiply, no
/// per-weight branch and no C traffic, which matters because packed i32
/// multiply is the one SIMD op the x86-64 baseline lacks. The
/// accumulator is folded into C once per group: added for `+1`,
/// subtracted for `-1`, multiplied once for any other value. Zero
/// weights were dropped at pack time and cost nothing.
///
/// The caller guarantees accumulators stay within i32 (see
/// [`PackedPanels::max_abs`]); all CIM psum configurations are orders of
/// magnitude inside the range.
///
/// # Panics
///
/// Panics if `b` or `c` lengths disagree with the packed geometry.
pub fn igemm_into(a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
    assert_eq!(b.len(), a.k * n, "B buffer length");
    assert_eq!(c.len(), a.rows * n, "C buffer length");
    // A plain allocation, not arena scratch: one more arena checkout per
    // call makes the arena's high-water trim drop and re-allocate buffers
    // far more often, which raised peak memory.
    let mut panel = vec![0i32; a.k * n.min(32)];
    let mut j = 0;
    while j + 32 <= n {
        igemm_block::<32>(a, b, n, j, &mut panel, c);
        j += 32;
    }
    while j + 8 <= n {
        igemm_block::<8>(a, b, n, j, &mut panel, c);
        j += 8;
    }
    while j < n {
        igemm_block::<1>(a, b, n, j, &mut panel, c);
        j += 1;
    }
}

/// Output columns `[j, j + W)` of [`igemm_into`] for every row.
///
/// The block's B columns are copied into `panel` first. Read in place,
/// each B row segment sits `n` elements after the previous one, and for
/// the usual power-of-two conv outputs that stride maps all of them onto
/// the same few L1 cache sets.
fn igemm_block<const W: usize>(
    a: &PackedPanels,
    b: &[i32],
    n: usize,
    j: usize,
    panel: &mut [i32],
    c: &mut [i32],
) {
    let panel = &mut panel[..a.k * W];
    for (dst, brow) in panel.chunks_exact_mut(W).zip(b.chunks_exact(n)) {
        dst.copy_from_slice(&brow[j..j + W]);
    }
    for r in 0..a.rows {
        let crow: &mut [i32; W] = (&mut c[r * n + j..r * n + j + W]).try_into().unwrap();
        for (value, kks) in a.row(r) {
            let acc = sum_rows::<W>(panel, kks);
            match value {
                1 => crow.iter_mut().zip(&acc).for_each(|(cv, &s)| *cv += s),
                -1 => crow.iter_mut().zip(&acc).for_each(|(cv, &s)| *cv -= s),
                v => crow.iter_mut().zip(&acc).for_each(|(cv, &s)| *cv += v * s),
            }
        }
    }
}

/// `Σ panel[kk]` over the selected `[W]` rows of a B panel: loads and
/// adds only, the accumulator held in registers.
#[inline(always)]
fn sum_rows<const W: usize>(panel: &[i32], kks: &[u16]) -> [i32; W] {
    let mut acc = [0i32; W];
    for &kk in kks {
        let seg: &[i32; W] = panel[kk as usize * W..][..W].try_into().unwrap();
        for (s, &bv) in acc.iter_mut().zip(seg) {
            *s += bv;
        }
    }
    acc
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

    /// Every `(row, kk, v)` of the packed groups, checking the layout
    /// invariants on the way: nonzero values, ascending buckets, and
    /// ascending `kk` within a bucket.
    fn unpack(p: &PackedPanels) -> Vec<(usize, usize, i32)> {
        let mut out = Vec::new();
        for r in 0..p.rows() {
            let mut prev_value = i32::MIN;
            for (value, kks) in p.row(r) {
                assert_ne!(value, 0, "row {r}: zeros must not be stored");
                assert!(value > prev_value, "row {r}: buckets out of order");
                assert!(!kks.is_empty(), "row {r}: empty group");
                assert!(kks.windows(2).all(|w| w[0] < w[1]), "row {r}: kk order");
                prev_value = value;
                out.extend(kks.iter().map(|&kk| (r, kk as usize, value)));
            }
        }
        out.sort_unstable();
        out
    }

    fn nonzeros(rows: usize, k: usize, a: &[f32]) -> Vec<(usize, usize, i32)> {
        (0..rows * k)
            .filter(|&i| a[i] != 0.0)
            .map(|i| (i / k, i % k, a[i] as i32))
            .collect()
    }

    #[test]
    fn pack_roundtrips_layout() {
        for &(rows, k, lo, hi) in &[
            (5usize, 3usize, -7, 7),
            (9, 40, 0, 1),
            (4, 33, -1, 0),
            (3, 17, -1, 1),
            (6, 300, -128, 127),
        ] {
            let a = int_filled(rows * k, 7, lo, hi);
            let p = PackedPanels::pack(rows, k, &a).unwrap();
            assert_eq!((p.rows(), p.k()), (rows, k));
            assert_eq!(
                unpack(&p),
                nonzeros(rows, k, &a),
                "{rows}×{k} in [{lo}, {hi}]"
            );
            let want_max = a.iter().map(|&v| (v as i32).abs()).max().unwrap();
            assert_eq!(p.max_abs(), want_max);
        }
        // The i8 extremes set `max_abs`, and each lands in its own bucket.
        let p = PackedPanels::pack(1, 3, &[127.0, 0.0, -128.0]).unwrap();
        assert_eq!(p.max_abs(), 128);
        assert_eq!(unpack(&p), vec![(0, 0, 127), (0, 2, -128)]);
        let p = PackedPanels::pack(2, 2, &[127.0, 1.0, 0.0, -3.0]).unwrap();
        assert_eq!(p.max_abs(), 127);
        // The largest addressable `k` stores its last index; one more is
        // refused.
        let mut a = vec![0.0f32; 1 << 16];
        a[(1 << 16) - 1] = 2.0;
        let p = PackedPanels::pack(1, 1 << 16, &a).unwrap();
        assert_eq!(unpack(&p), vec![(0, (1 << 16) - 1, 2)]);
        assert!(PackedPanels::pack(1, (1 << 16) + 1, &vec![0.0; (1 << 16) + 1]).is_none());
    }

    #[test]
    fn pack_and_igemm_handle_empty_shapes() {
        let b = vec![1i32; 4 * 5];
        // No rows.
        let p = PackedPanels::pack(0, 4, &[]).unwrap();
        assert_eq!((p.rows(), p.max_abs()), (0, 0));
        igemm_into(&p, &b, 5, &mut []);
        // k = 0: nothing to accumulate, C keeps its values.
        let p = PackedPanels::pack(3, 0, &[]).unwrap();
        assert!(unpack(&p).is_empty());
        let mut c = vec![7i32; 3 * 5];
        igemm_into(&p, &[], 5, &mut c);
        assert_eq!(c, vec![7; 15]);
        // All-zero weights store nothing and leave C untouched.
        let p = PackedPanels::pack(2, 4, &[0.0; 8]).unwrap();
        assert!(p.idx.is_empty() && p.groups.is_empty());
        let mut c = vec![-3i32; 2 * 5];
        igemm_into(&p, &b, 5, &mut c);
        assert_eq!(c, vec![-3; 10]);
    }

    #[test]
    fn pack_rejects_non_integer_and_out_of_range() {
        assert!(PackedPanels::pack(1, 2, &[1.0, 1.5]).is_none());
        assert!(PackedPanels::pack(1, 2, &[1.0, 129.0]).is_none());
        assert!(PackedPanels::pack(1, 2, &[-129.0, 0.0]).is_none());
        for bad in [f32::NAN, f32::INFINITY, -3e9, 3e9] {
            assert!(PackedPanels::pack(1, 2, &[0.0, bad]).is_none(), "{bad}");
        }
        assert!(PackedPanels::pack(1, 2, &[-128.0, 127.0]).is_some());
    }

    /// Seeded differential test against the f32 GEMM: every weight value
    /// set the CIM schemes produce (1-bit cell slices, BWMA's `±1`, wider
    /// cells, full i8), 1–9 rows, and widths `n` that hit every
    /// column-block tail, on a C pre-filled with nonzero values so the
    /// `C += A·B` contract is pinned.
    #[test]
    fn igemm_matches_f32_gemm() {
        let value_sets: [&[i32]; 7] = [
            &[0, 1],
            &[-1, 0],
            &[-1, 1],
            &[0, 1, 2, 3],
            &[-2, -1, 0, 1],
            &[-4, -3, -2, -1, 0, 1, 2, 3],
            &[],
        ];
        let mut rng = crate::CqRng::new(0x15);
        for values in value_sets {
            for rows in 1..=9usize {
                for &n in &[1usize, 7, 8, 31, 32, 33, 64, 100, 1024] {
                    let k = 1 + rng.below(48);
                    let a: Vec<f32> = (0..rows * k)
                        .map(|_| match values {
                            [] => rng.below(256) as f32 - 128.0,
                            vs => vs[rng.below(vs.len())] as f32,
                        })
                        .collect();
                    let b: Vec<f32> = (0..k * n).map(|_| rng.below(256) as f32 - 128.0).collect();
                    let c0: Vec<f32> = (0..rows * n)
                        .map(|_| rng.below(2001) as f32 - 1000.0)
                        .collect();
                    let mut want = c0.clone();
                    gemm_nn_acc(rows, k, n, &a, &b, &mut want);
                    let packed = PackedPanels::pack(rows, k, &a).unwrap();
                    let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
                    let mut acc: Vec<i32> = c0.iter().map(|&v| v as i32).collect();
                    igemm_into(&packed, &b32, n, &mut acc);
                    let mut got = vec![0.0f32; rows * n];
                    accum_to_f32(&acc, &mut got);
                    assert_eq!(got, want, "values {values:?} rows={rows} k={k} n={n}");
                }
            }
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
