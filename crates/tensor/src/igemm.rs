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
//!   write traffic. It narrows each channel once into a zero-bordered i8
//!   plane and copies every patch row out of it, and it reads only the
//!   channels it is given, so a row tile's zero-padding channels (whose
//!   packed weights were dropped at freeze) are never touched.
//! * [`widen_i8_to_i32`] — widens an i8 activation matrix to the i32
//!   operand the kernel takes (done once per image/group, shared by
//!   every bit-split's GEMM).
//! * [`igemm_into`] — the `i8 × i32 → i32` accumulation kernel itself: it
//!   narrows each block of 64, 32 or 8 output columns of B to one i16
//!   panel, sums the panel rows each value group selects in i16 lanes
//!   (chunks of at most 255 entries, so no sum can wrap while B stays in
//!   `[-128, 128]`), and widens each chunk's sum once as it folds into
//!   the i32 C.
//! * [`accum_to_f32`] — the exact `i32 → f32` epilogue: psums are
//!   integers well inside f32's 24-bit mantissa, so converting is
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
/// Each channel is narrowed **once** into a zero-bordered
/// `(H+2·pad)×(W+2·pad)` i8 plane, so every input value is converted
/// once instead of `kh·kw` times and the border needs no per-row fills.
/// Every patch row `(c, ki, kj, oh)` is then one run of `out_w` plane
/// bytes: a `copy_from_slice` at stride 1, a strided gather otherwise.
/// Only the `c_len` channels asked for are read, so a caller can skip a
/// row tile's zero-padding channels by passing just its real ones.
pub fn im2col_i8(img: &[f32], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i8]) {
    let (h, w) = (s.in_h, s.in_w);
    let (ow, wp) = (s.out_w, w + 2 * s.pad);
    let ohw = s.out_h * ow;
    debug_assert_eq!(col.len(), c_len * s.kh * s.kw * ohw);
    if ohw == 0 {
        return;
    }
    // A plain allocation, not arena scratch (see `igemm_blocks`). Only
    // the interior is rewritten per channel, so the border stays zero.
    let mut plane = vec![0i8; (h + 2 * s.pad) * wp];
    let block = &img[c_start * h * w..(c_start + c_len) * h * w];
    let rows_per_ch = s.kh * s.kw * ohw;
    for (ch, rows) in block
        .chunks_exact(h * w)
        .zip(col.chunks_exact_mut(rows_per_ch))
    {
        let interior = plane[s.pad * wp..].chunks_exact_mut(wp);
        for (dst, src) in interior.zip(ch.chunks_exact(w)) {
            for (d, &v) in dst[s.pad..s.pad + w].iter_mut().zip(src) {
                *d = narrow_i8(v);
            }
        }
        for (r, row) in rows.chunks_exact_mut(ohw).enumerate() {
            let (ki, kj) = (r / s.kw, r % s.kw);
            for (oh, dst) in row.chunks_exact_mut(ow).enumerate() {
                let src = &plane[(oh * s.stride + ki) * wp + kj..];
                if s.stride == 1 {
                    dst.copy_from_slice(&src[..ow]);
                } else {
                    for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s.stride)) {
                        *d = v;
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
/// Done once per image/group and shared by every bit-split's GEMM. Its
/// output is always inside `[-128, 127]`, so it meets [`igemm_into`]'s
/// B-range contract by construction.
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

/// Largest B magnitude [`igemm_into`] accepts.
const B_MAX_ABS: i32 = 128;

/// Most entries one i16 group sum takes before it folds into C:
/// `255 · 128 < 2¹⁵`, so no partial sum can wrap.
const CHUNK: usize = (i16::MAX as i32 / B_MAX_ABS) as usize;

/// `C[rows,n] += A · B` where `A` is a [`PackedPanels`] weight matrix and
/// `b` is the row-major `[k, n]` widened activation matrix.
///
/// **B-range contract:** every entry of `b` must lie in `[-128, 128]`.
/// [`widen_i8_to_i32`] only produces such entries, and the freeze gate
/// (`act_max_abs ≤ 127`) keeps the integer chain on it. Debug builds
/// assert it; release builds do not check, and an out-of-range entry
/// saturates to i16 and gives wrong sums.
///
/// The kernel walks the output columns in blocks of `W` = 64, then 32,
/// then 8; the last partial block is zero-padded to 8 columns and writes
/// only its valid columns. Each block's B columns are narrowed to i16
/// into one contiguous `[k][W]` panel (a saturating narrow, one pack
/// instruction per vector). Within a block, for each row and each of its
/// value groups, it sums the panel rows the group's indices select into a
/// local `[i16; W]` accumulator — twice the lanes per register of i32, in
/// a loop of loads and adds only, with no multiply, no per-weight branch
/// and no C traffic. A group is summed in chunks of at most 255 entries,
/// so no i16 sum can wrap (`255 · 128 < 2¹⁵`). Each chunk's sum widens to
/// i32 once, when it folds into C: added for `+1`, subtracted for `-1`,
/// multiplied once for any other value. Zero weights were dropped at pack
/// time and cost nothing.
///
/// The caller guarantees C stays within i32 (see
/// [`PackedPanels::max_abs`]); all CIM psum configurations are orders of
/// magnitude inside the range.
///
/// # Panics
///
/// Panics if `b` or `c` lengths disagree with the packed geometry.
pub fn igemm_into(a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
    assert_eq!(b.len(), a.k * n, "B buffer length");
    assert_eq!(c.len(), a.rows * n, "C buffer length");
    debug_assert!(
        b.iter().all(|v| (-B_MAX_ABS..=B_MAX_ABS).contains(v)),
        "B entry outside [-128, 128]"
    );
    let n64 = n / 64 * 64;
    let n32 = n64 + (n - n64) / 32 * 32;
    igemm_blocks::<64>(a, b, n, 0..n64, c);
    igemm_blocks::<32>(a, b, n, n64..n32, c);
    igemm_blocks::<8>(a, b, n, n32..n, c);
}

/// Output columns `cols` of [`igemm_into`] for every row, in blocks of `W`
/// columns; a last partial block is zero-padded to `W` lanes and writes
/// only its valid columns.
///
/// Each block's B columns are narrowed into one contiguous `[k][W]` i16
/// panel first. Read in place, each B row segment sits `n` elements after
/// the previous one, and for the usual power-of-two conv outputs that
/// stride maps all of them onto the same few L1 cache sets.
fn igemm_blocks<const W: usize>(
    a: &PackedPanels,
    b: &[i32],
    n: usize,
    cols: std::ops::Range<usize>,
    c: &mut [i32],
) {
    if cols.is_empty() {
        return;
    }
    // A plain per-call allocation, not arena scratch: the panel is small
    // (`k` rows of `W` i16).
    let mut panel = vec![[0i16; W]; a.k];
    for j in cols.clone().step_by(W) {
        let width = W.min(cols.end - j);
        // Full blocks narrow fixed-width rows: one dynamic-width copy for
        // both cases ran ~1.5× slower on 144-column layers (2-core x86-64
        // Xeon).
        if width == W {
            for (dst, brow) in panel.iter_mut().zip(b.chunks_exact(n)) {
                narrow_i16(dst, &brow[j..j + W]);
            }
        } else {
            for (dst, brow) in panel.iter_mut().zip(b.chunks_exact(n)) {
                *dst = [0; W];
                narrow_i16(&mut dst[..width], &brow[j..]);
            }
        }
        for r in 0..a.rows {
            let crow = &mut c[r * n + j..r * n + j + width];
            if let Ok(crow) = <&mut [i32; W]>::try_from(&mut *crow) {
                add_row(a, r, &panel, crow);
            } else {
                let mut row = [0i32; W];
                add_row(a, r, &panel, &mut row);
                crow.iter_mut().zip(&row).for_each(|(cv, &s)| *cv += s);
            }
        }
    }
}

/// `crow += A[r] · panel` for one block: every value group of row `r`,
/// summed in i16 chunks of at most [`CHUNK`] entries, each widened once
/// as it folds in.
#[inline(always)]
fn add_row<const W: usize>(a: &PackedPanels, r: usize, panel: &[[i16; W]], crow: &mut [i32; W]) {
    for (value, kks) in a.row(r) {
        for chunk in kks.chunks(CHUNK) {
            let acc = sum_rows(panel, chunk);
            let lanes = crow.iter_mut().zip(acc);
            match value {
                1 => lanes.for_each(|(cv, s)| *cv += i32::from(s)),
                -1 => lanes.for_each(|(cv, s)| *cv -= i32::from(s)),
                v => lanes.for_each(|(cv, s)| *cv += v * i32::from(s)),
            }
        }
    }
}

/// Saturating `i32 → i16` narrow of one B row segment (one pack
/// instruction per vector).
#[inline(always)]
fn narrow_i16(dst: &mut [i16], src: &[i32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.clamp(i16::MIN as i32, i16::MAX as i32) as i16;
    }
}

/// `Σ panel[kk]` over the selected rows of an i16 B panel: loads and adds
/// only, the accumulator held in registers. At most [`CHUNK`] rows of
/// entries in `[-128, 128]`, so the sum cannot wrap.
///
/// Kept out of line: inlined into the fold, the 8-lane loop was split
/// into half-width vector and scalar adds on the x86-64 baseline, which
/// made 8-wide blocks slower than the i32 kernel they replace.
#[inline(never)]
fn sum_rows<const W: usize>(panel: &[[i16; W]], kks: &[u16]) -> [i16; W] {
    debug_assert!(kks.len() <= CHUNK);
    let mut acc = [0i16; W];
    for &kk in kks {
        for (s, &bv) in acc.iter_mut().zip(&panel[kk as usize]) {
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
    /// cells, full i8), 1–9 rows, B over the whole contract range
    /// `[-128, 128]`, and every width `n` from 1 to 80 plus 100, 144 and
    /// 1024 — each mix of 64-, 32- and 8-wide blocks and every
    /// zero-padded tail width — on a C pre-filled with nonzero values so
    /// the `C += A·B` contract is pinned.
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
                for n in (1..=80).chain([100, 144, 1024]) {
                    let k = 1 + rng.below(48);
                    let a: Vec<f32> = (0..rows * k)
                        .map(|_| match values {
                            [] => rng.below(256) as f32 - 128.0,
                            vs => vs[rng.below(vs.len())] as f32,
                        })
                        .collect();
                    let b: Vec<f32> = (0..k * n).map(|_| rng.below(257) as f32 - 128.0).collect();
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

    /// One value group longer than the 255-entry i16 chunk, at the B
    /// extremes the contract allows (`-128`, `127`, `128`) and for the
    /// weights `+1`, `-1` and `3`: a chunk of 256 would wrap at `128`.
    /// `k = 1024` is checked against the f32 GEMM on widths that run
    /// every block size and the padded tail; the `k = 2¹⁶` row, whose
    /// sums leave f32's exact range, against the exact `k · w · b`.
    #[test]
    fn igemm_long_value_groups_stay_exact() {
        for w in [1i32, -1, 3] {
            for bv in [-128i32, 127, 128] {
                let k = 1024;
                let a = vec![w as f32; 2 * k];
                let packed = PackedPanels::pack(2, k, &a).unwrap();
                for n in [1usize, 9, 104] {
                    let b = vec![bv; k * n];
                    let mut want = vec![5.0f32; 2 * n];
                    gemm_nn_acc(2, k, n, &a, &vec![bv as f32; k * n], &mut want);
                    let mut got = vec![5i32; 2 * n];
                    igemm_into(&packed, &b, n, &mut got);
                    let got: Vec<f32> = got.iter().map(|&v| v as f32).collect();
                    assert_eq!(got, want, "w={w} b={bv} k={k} n={n}");
                }
                let k = 1 << 16;
                let packed = PackedPanels::pack(1, k, &vec![w as f32; k]).unwrap();
                let n = 9;
                let mut got = vec![-7i32; n];
                igemm_into(&packed, &vec![bv; k * n], n, &mut got);
                let want = -7 + k as i32 * w * bv;
                assert_eq!(got, vec![want; n], "w={w} b={bv} k={k}");
            }
        }
    }

    /// The B-range contract is a debug assertion, like the epilogue's
    /// 2²⁴ bound.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside [-128, 128]")]
    fn igemm_asserts_the_b_range_in_debug_builds() {
        let a = PackedPanels::pack(1, 1, &[1.0]).unwrap();
        igemm_into(&a, &[129], 1, &mut [0]);
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
    /// integer data, including the geometries where a patch row is
    /// clipped by padding, strided or all padding.
    ///
    /// Each case packs only the first `live` of its `c/group` channels,
    /// the rest of whose weights are zero — a trimmed last row tile — and
    /// im2cols just those channels. Calls run back to back on one `col`,
    /// poisoned once per case, so every call must overwrite what the
    /// previous one (another image or channel block) left there.
    #[test]
    fn integer_conv_chain_matches_f32_grouped_conv() {
        // (batch, groups, c/group, live, oc/group, in_h, in_w, k, stride, pad)
        for &(batch, groups, cg, live, ocg, in_h, in_w, kk, stride, pad) in &[
            (
                2usize, 3usize, 2usize, 2usize, 4usize, 6usize, 6usize, 3usize, 1usize, 1usize,
            ),
            (1, 1, 3, 3, 5, 5, 5, 3, 2, 1),
            (1, 2, 4, 4, 2, 5, 5, 1, 1, 0),
            // 1×1 stride-2 pad-0: the ResNet shortcut, even and odd sizes.
            (2, 1, 4, 4, 3, 8, 8, 1, 2, 0),
            (1, 2, 3, 3, 2, 7, 7, 1, 2, 0),
            // Stride 2 with pad 1 on a non-square image.
            (1, 2, 3, 3, 4, 8, 7, 3, 2, 1),
            // pad ≥ kw: border output columns see only padding ...
            (1, 1, 2, 2, 2, 3, 3, 2, 1, 3),
            // ... and here the in-bounds input row 1 has an empty span.
            (1, 1, 2, 2, 3, 3, 1, 1, 3, 2),
            // in_w < kw, at stride 1 and 2.
            (1, 2, 2, 2, 3, 5, 2, 3, 1, 1),
            (1, 1, 2, 2, 2, 6, 1, 3, 2, 1),
            // Four groups: im2col reads channel blocks at c_start = 3, 6, 9.
            (2, 4, 3, 3, 2, 5, 6, 3, 1, 1),
            // pad = 2, at stride 1 and 2.
            (2, 2, 3, 3, 2, 6, 5, 3, 1, 2),
            (1, 1, 2, 2, 3, 7, 7, 3, 2, 2),
            // Trimmed tiles: c_len < c/group at c_start > 0, 3×3 stride 1
            // and 2, and a 1×1 stride-2 shortcut.
            (2, 3, 4, 2, 3, 6, 6, 3, 1, 1),
            (2, 2, 5, 1, 2, 7, 6, 3, 2, 1),
            (1, 2, 6, 4, 2, 8, 8, 1, 2, 0),
        ] {
            let c = groups * cg;
            let x = Tensor::from_vec(
                int_filled(batch * c * in_h * in_w, 11, -8, 7),
                &[batch, c, in_h, in_w],
            );
            let mut w = Tensor::from_vec(
                int_filled(groups * ocg * cg * kk * kk, 13, -4, 3),
                &[groups * ocg, cg, kk, kk],
            );
            let (cr, k) = (cg * kk * kk, live * kk * kk);
            for row in w.data_mut().chunks_exact_mut(cr) {
                row[k..].fill(0.0);
            }
            let want = conv2d_grouped(&x, &w, stride, pad, groups);
            let s = ConvShape::new(x.shape(), w.shape(), stride, pad, groups);
            let cc = s.col_cols();
            let mut col = vec![99i8; k * cc]; // every entry must be overwritten
            let mut b32 = vec![0i32; k * cc];
            let mut acc = vec![0i32; ocg * cc];
            let mut got = Tensor::zeros(&[batch, s.out_ch, s.out_h, s.out_w]);
            let panels: Vec<PackedPanels> = w
                .data()
                .chunks_exact(ocg * cr)
                .map(|wg| {
                    let rows: Vec<f32> =
                        wg.chunks_exact(cr).flat_map(|r| &r[..k]).copied().collect();
                    PackedPanels::pack(ocg, k, &rows).unwrap()
                })
                .collect();
            let in_img = c * in_h * in_w;
            let out_img = s.out_ch * cc;
            for b in 0..batch {
                let img = &x.data()[b * in_img..(b + 1) * in_img];
                for (g, panel) in panels.iter().enumerate() {
                    im2col_i8(img, g * cg, live, &s, &mut col);
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
                "batch={batch} groups={groups} live={live}/{cg} {in_h}×{in_w} k={kk} \
                 stride={stride} pad={pad}"
            );
        }
    }
}
