//! The **shared partial-sum pipeline** — the single implementation of the
//! paper's tile → bit-split → psum-quantize → shift-add → merged-dequant
//! loop (Fig. 3 / Fig. 4(d) / Fig. 5), used by *both* execution paths:
//!
//! * the fast group-convolution emulation (`cq_core::CimConv2d`), whose
//!   front-end produces per-split partial-sum tensors with
//!   [`PsumPipeline::grouped_psums`], and
//! * the explicit crossbar engine (`crate::CrossbarLayer`), whose
//!   front-end drives programmed [`Crossbar`] arrays with
//!   [`PsumPipeline::crossbar_psums`].
//!
//! Both front-ends emit the same intermediate representation — one tensor
//! of integer partial sums `[B, G·OC, OH, OW]` per bit-split, channel
//! `g·OC + oc` holding row tile `g`'s contribution to output channel `oc` —
//! and then share [`PsumPipeline::reduce`]: every physical column is
//! digitized by a [`ColumnDigitizer`], shift-and-added across bit-splits,
//! and dequantized with the merged `s_w · s_p` factor. Because the
//! digitize/shift-add/dequant arithmetic is one implementation with one
//! f32 operation order, the two paths agree **bit-exactly** at zero
//! variation (`engine_equivalence` integration tests pin this).
//!
//! Heavy loops are parallelized across `batch × row-tile` work items on the
//! persistent [`cq_tensor::exec`] pool, using the same
//! [`cq_tensor::threads_for`] policy (and `CQ_THREADS` override) as the GEMM
//! kernels; per-task integer scratch comes from the executing worker's
//! [`cq_tensor::arena`].

use crate::{Adc, Crossbar, TilingPlan};
use cq_quant::BitSplit;
use cq_tensor::{
    arena, conv2d_grouped, conv_out_dim, exec, threads_for, ConvShape, ExecBackend, PackedPanels,
    Tensor,
};
use std::ops::Range;

/// One bit-split's grouped weights repacked for the integer kernel: one
/// [`PackedPanels`] per row-tile group, holding the nonzero positions of
/// that group's `[OC, c_g·K·K]` slice grouped by weight value per output
/// channel, where `c_g = channels_of_row_tile(g).len()` counts the tile's
/// real channels: `c_pa` for every tile but a partial last one, whose
/// zero-padding channels are left out. Built once at freeze time by
/// [`PsumPipeline::split_grouped_weights_int`].
#[derive(Debug, Clone)]
pub struct IntGroupedWeights {
    panels: Vec<PackedPanels>,
}

impl IntGroupedWeights {
    /// The per-row-tile packed weights.
    pub fn panels(&self) -> &[PackedPanels] {
        &self.panels
    }
}

/// Digitizes one physical column's analog partial sum into its dequantized
/// value `p̂` (the ADC output multiplied back by the column's scale factor,
/// *before* the weight scale and bit-split shift are applied).
///
/// Implementations must be [`Sync`]: the pipeline calls them from scoped
/// worker threads.
pub trait ColumnDigitizer: Sync {
    /// Digitizes the analog current of physical column
    /// (`split`, `row_tile`, `oc`).
    fn digitize(&self, analog: f32, split: usize, row_tile: usize, oc: usize) -> f32;

    /// Digitizes one physical column's contiguous psum block and
    /// accumulates `(digitize(p) · sw) · shift` into `out` — the
    /// shift-and-add hot loop of [`PsumPipeline::reduce`].
    ///
    /// The provided body forwards to
    /// [`digitize`](ColumnDigitizer::digitize) per value, but it is
    /// monomorphized per implementor, so that call inlines: dynamic
    /// dispatch happens once per **column**, not once per value. The loop
    /// vectorizes only if `digitize` is straight-line, so [`AdcDigitizer`]
    /// overrides it to hoist its per-column work. Overrides must keep the
    /// exact multiply order (digitize, then `· sw`, then `· shift`) —
    /// outputs are pinned bit-exact across every execution path.
    #[allow(clippy::too_many_arguments)] // mirrors `digitize`'s column coordinates plus the two merged scales
    fn digitize_axpy(
        &self,
        psums: &[f32],
        split: usize,
        row_tile: usize,
        oc: usize,
        sw: f32,
        shift: f32,
        out: &mut [f32],
    ) {
        for (yv, &pv) in out.iter_mut().zip(psums) {
            *yv += (self.digitize(pv, split, row_tile, oc) * sw) * shift;
        }
    }
}

/// The ideal ADC bypass: partial sums pass through unquantized
/// (infinite-precision converter; the paper's "w/o psum quant" ablation).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealDigitizer;

impl ColumnDigitizer for IdealDigitizer {
    #[inline]
    fn digitize(&self, analog: f32, _split: usize, _row_tile: usize, _oc: usize) -> f32 {
        analog
    }
}

/// A real [`Adc`] referenced to a dense per-physical-column scale table
/// (`s_p` indexed `[(split · G + row_tile) · OC + oc]`): the column is
/// converted against its scale and immediately dequantized, `p̂ = code · s_p`.
///
/// The ADC's clamp-then-round grid is identical to the LSQ integer grid, so
/// this digitizer reproduces training-time partial-sum quantization
/// bit-exactly at every granularity (the table repeats shared scales).
#[derive(Debug, Clone)]
pub struct AdcDigitizer<'a> {
    adc: Adc,
    scales: &'a [f32],
    num_row_tiles: usize,
    out_ch: usize,
}

impl<'a> AdcDigitizer<'a> {
    /// Creates a digitizer from an ADC and a dense scale table.
    ///
    /// # Panics
    ///
    /// Panics if the table length is not
    /// `num_splits · num_row_tiles · out_ch`.
    pub fn new(adc: Adc, scales: &'a [f32], plan: &TilingPlan) -> Self {
        assert_eq!(
            scales.len(),
            plan.num_splits * plan.num_row_tiles * plan.out_ch,
            "psum scale table length vs plan"
        );
        Self {
            adc,
            scales,
            num_row_tiles: plan.num_row_tiles,
            out_ch: plan.out_ch,
        }
    }

    /// The psum scale `s_p` of physical column (`split`, `row_tile`, `oc`).
    #[inline]
    fn scale(&self, split: usize, row_tile: usize, oc: usize) -> f32 {
        self.scales[(split * self.num_row_tiles + row_tile) * self.out_ch + oc]
    }
}

impl ColumnDigitizer for AdcDigitizer<'_> {
    #[inline]
    fn digitize(&self, analog: f32, split: usize, row_tile: usize, oc: usize) -> f32 {
        let sp = self.scale(split, row_tile, oc);
        self.adc.convert(analog, sp) * sp
    }

    /// Looks `s_p` up once per column and converts the whole column with
    /// [`Adc::convert_axpy`], which keeps the per-value operation order.
    #[allow(clippy::too_many_arguments)]
    fn digitize_axpy(
        &self,
        psums: &[f32],
        split: usize,
        row_tile: usize,
        oc: usize,
        sw: f32,
        shift: f32,
        out: &mut [f32],
    ) {
        let sp = self.scale(split, row_tile, oc);
        self.adc.convert_axpy(psums, sp, sw, shift, out);
    }
}

/// HCiM-style ADC-less **hybrid digitization**: the `digital_splits`
/// low-order bit-splits (slice indices `0..digital_splits`, shift weights
/// `2^(cb·s)`) bypass the converter entirely — their partial sums are
/// carried digitally, bit-exact — while the high-order splits still go
/// through the wrapped digitizer (typically an [`AdcDigitizer`]).
///
/// `digital_splits == 0` is an exact pass-through to `inner`;
/// `digital_splits == num_splits` degenerates to [`IdealDigitizer`].
#[derive(Debug, Clone)]
pub struct HybridDigitizer<D> {
    inner: D,
    digital_splits: usize,
}

impl<D: ColumnDigitizer> HybridDigitizer<D> {
    /// Wraps `inner`, routing splits `< digital_splits` around it.
    pub fn new(inner: D, digital_splits: usize) -> Self {
        Self {
            inner,
            digital_splits,
        }
    }

    /// Number of low-order splits carried digitally.
    pub fn digital_splits(&self) -> usize {
        self.digital_splits
    }
}

impl<D: ColumnDigitizer> ColumnDigitizer for HybridDigitizer<D> {
    #[inline]
    fn digitize(&self, analog: f32, split: usize, row_tile: usize, oc: usize) -> f32 {
        if split < self.digital_splits {
            analog
        } else {
            self.inner.digitize(analog, split, row_tile, oc)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn digitize_axpy(
        &self,
        psums: &[f32],
        split: usize,
        row_tile: usize,
        oc: usize,
        sw: f32,
        shift: f32,
        out: &mut [f32],
    ) {
        // A whole column belongs to one split, so the branch is taken once
        // per column; both legs keep the pinned multiply order.
        if split < self.digital_splits {
            for (yv, &pv) in out.iter_mut().zip(psums) {
                *yv += (pv * sw) * shift;
            }
        } else {
            self.inner
                .digitize_axpy(psums, split, row_tile, oc, sw, shift, out);
        }
    }
}

/// The shared execution layer for one quantized convolution: owns the
/// tiling geometry, the bit-split shifts, and the merged dequantization
/// tables (activation scale, per-logical-column weight scales, bias), and
/// turns per-split partial sums into the layer output (see module docs).
#[derive(Debug, Clone)]
pub struct PsumPipeline {
    plan: TilingPlan,
    bit_split: BitSplit,
    stride: usize,
    pad: usize,
    act_scale: f32,
    weight_scales: Vec<f32>,
    bias: Option<Vec<f32>>,
}

impl PsumPipeline {
    /// Creates a pipeline.
    ///
    /// `weight_scales` is the dense per-logical-column table indexed
    /// `[g · OC + oc]` (layer-/array-wise schemes repeat shared values);
    /// `bias` is per output channel.
    ///
    /// # Panics
    ///
    /// Panics on table-length mismatches or a non-positive activation
    /// scale.
    pub fn new(
        plan: TilingPlan,
        bit_split: BitSplit,
        stride: usize,
        pad: usize,
        act_scale: f32,
        weight_scales: Vec<f32>,
        bias: Option<Vec<f32>>,
    ) -> Self {
        assert_eq!(
            weight_scales.len(),
            plan.num_row_tiles * plan.out_ch,
            "weight scale table length vs plan"
        );
        if let Some(b) = &bias {
            assert_eq!(b.len(), plan.out_ch, "bias length vs plan");
        }
        assert!(act_scale > 0.0, "activation scale must be positive");
        Self {
            plan,
            bit_split,
            stride,
            pad,
            act_scale,
            weight_scales,
            bias,
        }
    }

    /// The tiling plan.
    pub fn plan(&self) -> &TilingPlan {
        &self.plan
    }

    /// Weight scale of logical column (row tile `g`, output channel `oc`).
    #[inline]
    pub fn weight_scale(&self, g: usize, oc: usize) -> f32 {
        self.weight_scales[g * self.plan.out_ch + oc]
    }

    // ---- front-end: tile → bit-split -----------------------------------

    /// Rearranges one bit-split weight slice `[OC, Cin, K, K]` into the
    /// grouped-conv layout `[G·OC, c_pa, K, K]` (group = row tile / CIM
    /// array, Fig. 5 step #2). Padding channels stay zero.
    pub fn group_weight_slice(&self, slice: &Tensor) -> Tensor {
        let p = &self.plan;
        let (oc, kk) = (p.out_ch, p.kh * p.kw);
        let mut wg = Tensor::zeros(&[p.num_row_tiles * oc, p.ch_per_array, p.kh, p.kw]);
        for g in 0..p.num_row_tiles {
            for o in 0..oc {
                for (c_local, cin) in p.channels_of_row_tile(g).enumerate() {
                    let src = (o * p.in_ch + cin) * kk;
                    let dst = ((g * oc + o) * p.ch_per_array + c_local) * kk;
                    wg.data_mut()[dst..dst + kk].copy_from_slice(&slice.data()[src..src + kk]);
                }
            }
        }
        wg
    }

    /// Bit-splits integer weights `[OC, Cin, K, K]` and groups every slice:
    /// the complete tile→bit-split front-end for the fast path.
    pub fn split_grouped_weights(&self, w_int: &Tensor) -> Vec<Tensor> {
        (0..self.plan.num_splits)
            .map(|s| self.group_weight_slice(&self.bit_split.split_tensor(w_int, s)))
            .collect()
    }

    /// The integer sibling of [`PsumPipeline::split_grouped_weights`]:
    /// repacks already-grouped (and possibly variation-transformed) weight
    /// slices into per-row-tile value-grouped [`PackedPanels`] for
    /// [`PsumPipeline::grouped_psums_int_into`].
    ///
    /// Row tile `g`'s panels cover only its real channels, so their `k`
    /// is `channels_of_row_tile(g).len()·K·K`: a partial last tile drops
    /// the rows of its zero-padding channels, whose weights are zero by
    /// construction of [`PsumPipeline::group_weight_slice`] (debug builds
    /// assert it), and the front-end then never im2cols them.
    ///
    /// Returns `None` — the cue to stay on the f32 kernels — when any
    /// slice value is not an exact integer in i8 range (device variation),
    /// when a row tile spans more than 2¹⁶ crossbar rows (`c_pa·K·K`),
    /// when activations do not fit i8 (`act_max_abs > 127`), or when the
    /// worst-case column sum `max|w| · act_max_abs · c_pa·K·K` could leave
    /// the 2²⁴ window in which f32 carries integers exactly. Every
    /// unperturbed CIM configuration is orders of magnitude inside these
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `grouped_weights` disagrees with the plan.
    pub fn split_grouped_weights_int(
        &self,
        grouped_weights: &[Tensor],
        act_max_abs: f32,
    ) -> Option<Vec<IntGroupedWeights>> {
        let p = &self.plan;
        assert_eq!(
            grouped_weights.len(),
            p.num_splits,
            "one weight set per split"
        );
        if !(0.0..=127.0).contains(&act_max_abs) {
            return None;
        }
        let cr = p.ch_per_array * p.kh * p.kw;
        let mut max_abs = 0i32;
        let sets = grouped_weights
            .iter()
            .map(|wg| {
                debug_assert_eq!(
                    wg.shape(),
                    &[p.num_row_tiles * p.out_ch, p.ch_per_array, p.kh, p.kw],
                    "grouped weight shape vs plan"
                );
                let panels = (0..p.num_row_tiles)
                    .map(|g| {
                        // Only the tile's real channels: the padding
                        // channels' weights are zero by construction.
                        let k = p.channels_of_row_tile(g).len() * p.kh * p.kw;
                        let rows = &wg.data()[g * p.out_ch * cr..(g + 1) * p.out_ch * cr];
                        debug_assert!(
                            rows.chunks_exact(cr)
                                .all(|r| r[k..].iter().all(|&v| v == 0.0)),
                            "padding-channel weights of row tile {g} are nonzero"
                        );
                        let live: Vec<f32> = rows
                            .chunks_exact(cr)
                            .flat_map(|r| &r[..k])
                            .copied()
                            .collect();
                        let packed = PackedPanels::pack(p.out_ch, k, &live)?;
                        max_abs = max_abs.max(packed.max_abs());
                        Some(packed)
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(IntGroupedWeights { panels })
            })
            .collect::<Option<Vec<_>>>()?;
        let bound = max_abs as f64 * act_max_abs as f64 * cr as f64;
        (bound < (1u64 << 24) as f64).then_some(sets)
    }

    /// Computes every split's integer partial sums `[B, G·OC, OH, OW]` by
    /// group convolution over channel-padded integer activations — the
    /// fast emulation front-end (Fig. 5 step #3). `grouped_weights` comes
    /// from [`PsumPipeline::split_grouped_weights`] (possibly with
    /// variation applied to the slices first).
    pub fn grouped_psums(&self, a_pad: &Tensor, grouped_weights: &[Tensor]) -> Vec<Tensor> {
        assert_eq!(
            grouped_weights.len(),
            self.plan.num_splits,
            "one weight set per split"
        );
        grouped_weights
            .iter()
            .map(|wg| conv2d_grouped(a_pad, wg, self.stride, self.pad, self.plan.num_row_tiles))
            .collect()
    }

    /// Like [`PsumPipeline::grouped_psums`] but reusing caller-provided
    /// partial-sum tensors and an im2col scratch buffer — the prepared
    /// serving path calls this on every batch without reallocating the
    /// (large) per-split intermediates — and running the sweep on an
    /// execution `backend`'s f32 conv kernel. Bit-identical to
    /// [`PsumPipeline::grouped_psums`] for every backend.
    ///
    /// # Panics
    ///
    /// Panics if `grouped_weights` disagrees with the plan.
    pub fn grouped_psums_into(
        &self,
        backend: &dyn ExecBackend,
        a_pad: &Tensor,
        grouped_weights: &[Tensor],
        psums: &mut Vec<Tensor>,
        col: &mut Vec<f32>,
    ) {
        assert_eq!(
            grouped_weights.len(),
            self.plan.num_splits,
            "one weight set per split"
        );
        let shape = self.psum_shape(a_pad, self.plan.num_row_tiles);
        psums.resize_with(self.plan.num_splits, || Tensor::zeros(&shape));
        for (wg, ps) in grouped_weights.iter().zip(psums.iter_mut()) {
            backend.conv_grouped_into(
                a_pad,
                wg,
                self.stride,
                self.pad,
                self.plan.num_row_tiles,
                ps,
                col,
            );
            debug_assert_eq!(ps.shape(), shape, "per-split psum shape vs plan");
        }
    }

    /// Final `[B, groups·OC, OH, OW]` per-split psum shape for an
    /// activation tensor covering `groups` row tiles — so resized psum
    /// tensors are allocated at their final shape directly instead of
    /// through a placeholder.
    fn psum_shape(&self, a: &Tensor, groups: usize) -> [usize; 4] {
        let (b, h, w) = (a.dim(0), a.dim(2), a.dim(3));
        [
            b,
            groups * self.plan.out_ch,
            conv_out_dim(h, self.plan.kh, self.stride, self.pad),
            conv_out_dim(w, self.plan.kw, self.stride, self.pad),
        ]
    }

    /// The integer twin of [`PsumPipeline::grouped_psums_into`]: computes
    /// the partial sums of row tiles `tiles` from activations `a`
    /// (`[B, len·c_pa, H, W]` — the full padded tensor when `tiles` spans
    /// the plan, or that range's channel block of it) with the `i8×i8→i32`
    /// kernels, writing exact `i32→f32` conversions into `psums`.
    ///
    /// The im2col patch matrix is built **once per (image, row tile)** in
    /// i8, over only the tile's real channels (the `k` of its packed
    /// panels), widened once, and reused across every bit-split's GEMM —
    /// the f32 path re-runs im2col per split, over the channel-padded
    /// layout — and work is parallelized
    /// across `batch × row-tile` items like
    /// [`PsumPipeline::crossbar_psums`]. Output values are bit-identical
    /// to the f32 path (psums are exact integers inside f32's mantissa;
    /// the `engine_equivalence` tests pin the whole matrix).
    ///
    /// The integer chain (i8 im2col → widen → add-only GEMM → i32→f32
    /// epilogue) is routed through `backend`'s trait methods, so an
    /// integer-capable backend owns every arithmetic step of its sweep.
    ///
    /// # Panics
    ///
    /// Panics if `int_weights`, `tiles`, or the activation shape disagree
    /// with the plan.
    pub fn grouped_psums_int_into(
        &self,
        backend: &dyn ExecBackend,
        a: &Tensor,
        int_weights: &[IntGroupedWeights],
        tiles: Range<usize>,
        psums: &mut Vec<Tensor>,
    ) {
        let p = &self.plan;
        assert_eq!(int_weights.len(), p.num_splits, "one weight set per split");
        assert!(
            tiles.start < tiles.end && tiles.end <= p.num_row_tiles,
            "row-tile range {tiles:?} out of range"
        );
        let groups = tiles.len();
        let shape = self.psum_shape(a, groups);
        psums.resize_with(p.num_splits, || Tensor::zeros(&shape));
        for ps in psums.iter_mut() {
            if ps.shape() != shape {
                *ps = Tensor::zeros(&shape);
            }
        }
        let s = ConvShape::new(
            a.shape(),
            &[groups * p.out_ch, p.ch_per_array, p.kh, p.kw],
            self.stride,
            self.pad,
            groups,
        );
        let (batch, inner) = (shape[0], shape[2] * shape[3]);
        if batch == 0 || inner == 0 {
            return; // nothing to compute; empty tensors are correct
        }
        let (cr, cc) = (s.col_rows(), s.col_cols());
        let in_img = s.in_ch * s.in_h * s.in_w;

        // One work item per (batch element, row tile); each owns the
        // `[OC, inner]` channel block it writes in every split tensor.
        struct Item<'a> {
            bi: usize,
            g: usize,
            chunks: Vec<&'a mut [f32]>,
        }
        let block = p.out_ch * inner;
        let mut per_split: Vec<_> = psums
            .iter_mut()
            .map(|t| t.data_mut().chunks_mut(block))
            .collect();
        let mut items: Vec<Item<'_>> = Vec::with_capacity(batch * groups);
        for bi in 0..batch {
            for g in 0..groups {
                items.push(Item {
                    bi,
                    g,
                    chunks: per_split.iter_mut().map(|it| it.next().unwrap()).collect(),
                });
            }
        }
        let work = items.len() * p.num_splits * p.out_ch * cr * cc;
        let nt = threads_for(work).min(items.len()).max(1);
        let per = items.len().div_ceil(nt);
        exec::scope(|sc| {
            for group in items.chunks_mut(per) {
                sc.spawn(move || {
                    // Integer scratch from the executing worker's arena: the
                    // im2col patch matrix, its i32 widening, and the GEMM
                    // accumulator are recycled across tasks and layers.
                    let mut col = arena::take_i8(cr * cc);
                    let mut b32 = arena::take_i32(cr * cc);
                    let mut acc = arena::take_i32(p.out_ch * cc);
                    for item in group {
                        let img = &a.data()[item.bi * in_img..(item.bi + 1) * in_img];
                        // Every split packs the same `k`: the tile's real
                        // channels; its padding channels are never read.
                        let k = int_weights[0].panels[tiles.start + item.g].k();
                        let (col, b32) = (&mut col[..k * cc], &mut b32[..k * cc]);
                        backend.im2col_i8(img, item.g * p.ch_per_array, k / (p.kh * p.kw), &s, col);
                        backend.widen_i8_to_i32(col, b32);
                        for (iw, chunk) in int_weights.iter().zip(item.chunks.iter_mut()) {
                            acc.fill(0);
                            backend.igemm_into(&iw.panels[tiles.start + item.g], b32, cc, &mut acc);
                            backend.accum_to_f32(&acc, chunk);
                        }
                    }
                    arena::put_i8(col);
                    arena::put_i32(b32);
                    arena::put_i32(acc);
                });
            }
        });
    }

    /// Computes every split's integer partial sums `[B, G·OC, OH, OW]` by
    /// driving im2col patches through programmed crossbar arrays (indexed
    /// `[g · num_col_tiles + t]`) — the hardware-shaped front-end.
    ///
    /// Work is parallelized across `batch × row-tile` items: each item
    /// drives one row tile's arrays over all pixels of one image and owns
    /// a disjoint channel block of every split's output tensor.
    ///
    /// # Panics
    ///
    /// Panics if the input shape or array count mismatches the plan.
    pub fn crossbar_psums(&self, arrays: &[Crossbar], a_int: &Tensor) -> Vec<Tensor> {
        let p = &self.plan;
        assert_eq!(a_int.rank(), 4, "input must be [B,C,H,W]");
        assert_eq!(a_int.dim(1), p.in_ch, "input channels vs plan");
        assert_eq!(arrays.len(), p.num_arrays(), "array count vs plan");
        let (batch, h, w) = (a_int.dim(0), a_int.dim(2), a_int.dim(3));
        let oh = conv_out_dim(h, p.kh, self.stride, self.pad);
        let ow = conv_out_dim(w, p.kw, self.stride, self.pad);
        let inner = oh * ow;
        let gch = p.num_row_tiles * p.out_ch;
        let mut psums: Vec<Tensor> = (0..p.num_splits)
            .map(|_| Tensor::zeros(&[batch, gch, oh, ow]))
            .collect();
        if batch == 0 || inner == 0 {
            return psums; // nothing to drive; empty tensors are correct
        }

        // One work item per (batch element, row tile); each owns the
        // `[oc, inner]` channel block it writes in every split tensor.
        struct Item<'a> {
            bi: usize,
            g: usize,
            chunks: Vec<&'a mut [f32]>,
        }
        {
            let block = p.out_ch * inner;
            let mut per_split: Vec<_> = psums
                .iter_mut()
                .map(|t| t.data_mut().chunks_mut(block))
                .collect();
            let mut items: Vec<Item<'_>> = Vec::with_capacity(batch * p.num_row_tiles);
            for bi in 0..batch {
                for g in 0..p.num_row_tiles {
                    items.push(Item {
                        bi,
                        g,
                        chunks: per_split.iter_mut().map(|it| it.next().unwrap()).collect(),
                    });
                }
            }
            // MAC work per item: pixels × (rows driven × columns read).
            let cols_per_tile: usize = (0..p.num_col_tiles).map(|t| arrays[t].cols()).sum();
            let work = items.len() * inner * p.rows_used * cols_per_tile;
            let nt = threads_for(work).min(items.len()).max(1);
            let per = items.len().div_ceil(nt);
            exec::scope(|sc| {
                for group in items.chunks_mut(per) {
                    sc.spawn(move || {
                        let mut patch = vec![0.0; p.rows_used];
                        for item in group {
                            self.drive_row_tile(
                                arrays,
                                a_int,
                                item.bi,
                                item.g,
                                oh,
                                ow,
                                &mut patch,
                                &mut item.chunks,
                            );
                        }
                    });
                }
            });
        }
        psums
    }

    /// Drives one (batch element, row tile) work item: im2col patches
    /// through the row tile's arrays, scattering every physical column's
    /// current into its split's `[oc, inner]` block.
    #[allow(clippy::too_many_arguments)]
    fn drive_row_tile(
        &self,
        arrays: &[Crossbar],
        a_int: &Tensor,
        bi: usize,
        g: usize,
        oh: usize,
        ow: usize,
        patch: &mut [f32],
        chunks: &mut [&mut [f32]],
    ) {
        let p = &self.plan;
        let (h, w) = (a_int.dim(2), a_int.dim(3));
        let (ns, kk, inner) = (p.num_splits, p.kh * p.kw, oh * ow);
        let chans = p.channels_of_row_tile(g);
        let mut macs: Vec<Vec<f32>> = (0..p.num_col_tiles)
            .map(|t| vec![0.0f32; arrays[g * p.num_col_tiles + t].cols()])
            .collect();
        for ohi in 0..oh {
            for owi in 0..ow {
                patch.fill(0.0);
                for (c_local, cin) in chans.clone().enumerate() {
                    for ki in 0..p.kh {
                        for kj in 0..p.kw {
                            let ih = (ohi * self.stride + ki) as isize - self.pad as isize;
                            let iw = (owi * self.stride + kj) as isize - self.pad as isize;
                            if ih < 0 || iw < 0 || ih as usize >= h || iw as usize >= w {
                                continue;
                            }
                            patch[c_local * kk + ki * p.kw + kj] =
                                a_int.data()[a_int.idx4(bi, cin, ih as usize, iw as usize)];
                        }
                    }
                }
                let pix = ohi * ow + owi;
                for (t, mac) in macs.iter_mut().enumerate() {
                    arrays[g * p.num_col_tiles + t].mac_into(patch, mac);
                    for (local_oc, oc) in p.outputs_of_col_tile(t).enumerate() {
                        for (s, chunk) in chunks.iter_mut().enumerate() {
                            chunk[oc * inner + pix] = mac[local_oc * ns + s];
                        }
                    }
                }
            }
        }
    }

    // ---- shared back-end: digitize → shift-add → merged dequant --------

    /// [`reduce`](PsumPipeline::reduce) with the layer's digitizer chosen
    /// in one place: `adc` converts every column against its dense psum
    /// scale table (an [`AdcDigitizer`]), with the `digital_splits`
    /// low-order splits carried around it (a [`HybridDigitizer`]) when
    /// nonzero; `None` is the ideal bypass ([`IdealDigitizer`]).
    ///
    /// # Panics
    ///
    /// Panics if the scale table or `psums` disagrees with the plan.
    pub fn reduce_with_adc(
        &self,
        psums: &[Tensor],
        adc: Option<(Adc, &[f32])>,
        digital_splits: usize,
    ) -> Tensor {
        let Some((adc, scales)) = adc else {
            return self.reduce(psums, &IdealDigitizer);
        };
        let dig = AdcDigitizer::new(adc, scales, &self.plan);
        if digital_splits > 0 {
            self.reduce(psums, &HybridDigitizer::new(dig, digital_splits))
        } else {
            self.reduce(psums, &dig)
        }
    }

    /// The complete back-end: digitizes every physical column of the
    /// per-split partial sums, shift-and-adds across bit-splits and row
    /// tiles with the merged `s_w · s_p` dequantization, applies the
    /// activation scale and bias, and returns the output `[B, OC, OH, OW]`.
    ///
    /// Per output element the f32 accumulation order is fixed — split
    /// outer, row tile inner — regardless of thread count: work splits
    /// across batch elements only, so results are deterministic and the
    /// fast and crossbar paths agree bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `psums` disagrees with the plan.
    pub fn reduce(&self, psums: &[Tensor], digitizer: &dyn ColumnDigitizer) -> Tensor {
        let p = &self.plan;
        assert_eq!(psums.len(), p.num_splits, "one psum tensor per split");
        let (batch, oh, ow) = (psums[0].dim(0), psums[0].dim(2), psums[0].dim(3));
        let gch = p.num_row_tiles * p.out_ch;
        for ps in psums {
            assert_eq!(ps.shape(), &[batch, gch, oh, ow], "psum shape vs plan");
        }
        let mut out = Tensor::zeros(&[batch, p.out_ch, oh, ow]);
        let inner = oh * ow;
        let block = p.out_ch * inner;
        if batch > 0 && inner > 0 {
            let work = batch * p.num_splits * gch * inner;
            let nt = threads_for(work).min(batch).max(1);
            let per = batch.div_ceil(nt);
            exec::scope(|sc| {
                for (chunk_i, out_chunk) in out.data_mut().chunks_mut(per * block).enumerate() {
                    sc.spawn(move || {
                        let b0 = chunk_i * per;
                        for (bl, ob) in out_chunk.chunks_mut(block).enumerate() {
                            self.accumulate_one(psums, digitizer, b0 + bl, inner, ob);
                        }
                    });
                }
            });
        }
        self.finish(out)
    }

    /// Shift-and-add for one batch element into its `[OC, inner]` block.
    fn accumulate_one(
        &self,
        psums: &[Tensor],
        digitizer: &dyn ColumnDigitizer,
        bi: usize,
        inner: usize,
        out: &mut [f32],
    ) {
        let p = &self.plan;
        for (s, ps) in psums.iter().enumerate() {
            let shift = self.bit_split.shift_weight(s);
            for g in 0..p.num_row_tiles {
                for oc in 0..p.out_ch {
                    let sw = self.weight_scales[g * p.out_ch + oc];
                    let src = ((bi * p.num_row_tiles + g) * p.out_ch + oc) * inner;
                    let pd = &ps.data()[src..src + inner];
                    let ob = &mut out[oc * inner..(oc + 1) * inner];
                    digitizer.digitize_axpy(pd, s, g, oc, sw, shift, ob);
                }
            }
        }
    }

    /// Applies the layer-wise activation scale and the bias to an
    /// accumulated output — the last step of Eq. (3).
    fn finish(&self, mut acc: Tensor) -> Tensor {
        acc.scale_in_place(self.act_scale);
        if let Some(bias) = &self.bias {
            let (batch, oc) = (acc.dim(0), acc.dim(1));
            let inner = acc.dim(2) * acc.dim(3);
            for bi in 0..batch {
                for (o, &b) in bias.iter().enumerate().take(oc) {
                    let start = (bi * oc + o) * inner;
                    for v in &mut acc.data_mut()[start..start + inner] {
                        *v += b;
                    }
                }
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CimConfig;
    use cq_quant::QuantFormat;
    use cq_tensor::{CqRng, IntPanels, ScalarRef, SimdF32};

    fn small_pipeline() -> (PsumPipeline, Tensor) {
        pipeline(&CimConfig::tiny(), 7, 5, 3, 1) // 32×32, 3 splits
    }

    /// A `k`×`k` pipeline at `stride` (padding `k / 2`) under `cfg` with
    /// seeded 3-bit integer weights.
    fn pipeline(
        cfg: &CimConfig,
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
    ) -> (PsumPipeline, Tensor) {
        let plan = TilingPlan::new(cfg, in_ch, out_ch, k, k);
        let mut rng = CqRng::new(3);
        let w_int = rng
            .uniform_tensor(&[out_ch, in_ch, k, k], -4.0, 4.0)
            .map(|v| v.floor().clamp(-4.0, 3.0));
        let weight_scales: Vec<f32> = (0..plan.num_row_tiles * out_ch)
            .map(|i| 0.02 + 0.003 * i as f32)
            .collect();
        let pipeline = PsumPipeline::new(
            plan,
            cfg.bit_split(),
            stride,
            k / 2,
            0.05,
            weight_scales,
            None,
        );
        (pipeline, w_int)
    }

    /// The two front-ends must produce identical integer partial sums:
    /// grouped convolution vs programmed crossbar arrays.
    #[test]
    fn grouped_and_crossbar_psums_agree() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let mut rng = CqRng::new(5);
        let a_int = rng
            .uniform_tensor(&[2, p.in_ch, 6, 6], 0.0, 8.0)
            .map(f32::floor);

        // Fast front-end: pad channels, group, convolve.
        let (b, h, w) = (a_int.dim(0), a_int.dim(2), a_int.dim(3));
        let mut a_pad = Tensor::zeros(&[b, p.padded_in_ch, h, w]);
        for bi in 0..b {
            let chw = p.in_ch * h * w;
            let pchw = p.padded_in_ch * h * w;
            a_pad.data_mut()[bi * pchw..bi * pchw + chw]
                .copy_from_slice(&a_int.data()[bi * chw..(bi + 1) * chw]);
        }
        let fast = pl.grouped_psums(&a_pad, &pl.split_grouped_weights(&w_int));

        // Hardware front-end: program arrays column by column.
        let kk = p.kh * p.kw;
        let mut arrays = Vec::new();
        for g in 0..p.num_row_tiles {
            let chans = p.channels_of_row_tile(g);
            for t in 0..p.num_col_tiles {
                let ocs = p.outputs_of_col_tile(t);
                let mut xb = Crossbar::new(p.rows_used, ocs.len() * p.num_splits);
                for (local_oc, oc) in ocs.clone().enumerate() {
                    for s in 0..p.num_splits {
                        for (c_local, cin) in chans.clone().enumerate() {
                            for ki in 0..p.kh {
                                for kj in 0..p.kw {
                                    let wv = w_int.data()[w_int.idx4(oc, cin, ki, kj)];
                                    let v = pl.bit_split.split_value(wv as i32, s) as f32;
                                    xb.program(
                                        c_local * kk + ki * p.kw + kj,
                                        local_oc * p.num_splits + s,
                                        v,
                                    );
                                }
                            }
                        }
                    }
                }
                arrays.push(xb);
            }
        }
        let slow = pl.crossbar_psums(&arrays, &a_int);

        assert_eq!(fast.len(), slow.len());
        for (s, (f, sl)) in fast.iter().zip(&slow).enumerate() {
            assert_eq!(f, sl, "split {s} psums differ");
        }
    }

    /// The scratch-reusing front-end must match the allocating one
    /// bit-for-bit, even on dirty reused buffers.
    #[test]
    fn grouped_psums_into_matches_allocating_path() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let mut rng = CqRng::new(23);
        let a_int = rng
            .uniform_tensor(&[2, p.in_ch, 6, 6], 0.0, 8.0)
            .map(f32::floor);
        let mut a_pad = Tensor::zeros(&[2, p.padded_in_ch, 6, 6]);
        let chw = p.in_ch * 36;
        let pchw = p.padded_in_ch * 36;
        for bi in 0..2 {
            a_pad.data_mut()[bi * pchw..bi * pchw + chw]
                .copy_from_slice(&a_int.data()[bi * chw..(bi + 1) * chw]);
        }
        let weights = pl.split_grouped_weights(&w_int);
        let want = pl.grouped_psums(&a_pad, &weights);
        let mut psums = Vec::new();
        let mut col = Vec::new();
        pl.grouped_psums_into(&SimdF32, &a_pad, &weights, &mut psums, &mut col);
        assert_eq!(psums, want);
        // Reuse the (now dirty) scratch.
        pl.grouped_psums_into(&SimdF32, &a_pad, &weights, &mut psums, &mut col);
        assert_eq!(psums, want, "dirty-scratch call diverged");
    }

    /// All three backends must produce the same partial sums bit-for-bit
    /// on `batch` seeded 3-bit activation images of `hw`×`hw`: `ScalarRef`
    /// and `SimdF32` through the f32 grouped convolution, `IntPanels`
    /// through the repacked integer panels — for the full plan and for
    /// every single row tile, on dirty reused buffers.
    fn assert_backends_agree(pl: &PsumPipeline, w_int: &Tensor, batch: usize, hw: usize) {
        let p = pl.plan().clone();
        let area = hw * hw;
        let a_int = CqRng::new(29)
            .uniform_tensor(&[batch, p.in_ch, hw, hw], 0.0, 8.0)
            .map(f32::floor);
        let mut a_pad = Tensor::zeros(&[batch, p.padded_in_ch, hw, hw]);
        let chw = p.in_ch * area;
        let pchw = p.padded_in_ch * area;
        for bi in 0..batch {
            a_pad.data_mut()[bi * pchw..bi * pchw + chw]
                .copy_from_slice(&a_int.data()[bi * chw..(bi + 1) * chw]);
        }
        let weights = pl.split_grouped_weights(w_int);
        let int_weights = pl
            .split_grouped_weights_int(&weights, 7.0)
            .expect("3-bit slices are integer-eligible");
        let (mut want, mut psums, mut col) = (Vec::new(), Vec::new(), Vec::new());
        pl.grouped_psums_into(&ScalarRef, &a_pad, &weights, &mut want, &mut col);
        pl.grouped_psums_into(&SimdF32, &a_pad, &weights, &mut psums, &mut col);
        assert_eq!(psums, want, "SimdF32 diverged from ScalarRef");
        pl.grouped_psums_int_into(
            &IntPanels,
            &a_pad,
            &int_weights,
            0..p.num_row_tiles,
            &mut psums,
        );
        assert_eq!(psums, want, "IntPanels diverged from ScalarRef");
        // Dirty reuse must stay identical.
        pl.grouped_psums_int_into(
            &IntPanels,
            &a_pad,
            &int_weights,
            0..p.num_row_tiles,
            &mut psums,
        );
        assert_eq!(psums, want, "dirty-scratch call diverged");
        // Every single row tile, fed only its own channel block, must equal
        // its block of the full result.
        let c_blk = p.ch_per_array * area;
        let blk = p.out_ch * want[0].dim(2) * want[0].dim(3);
        let full_blk = p.num_row_tiles * blk;
        for g in 0..p.num_row_tiles {
            let mut a_tile = Tensor::zeros(&[batch, p.ch_per_array, hw, hw]);
            for bi in 0..batch {
                a_tile.data_mut()[bi * c_blk..(bi + 1) * c_blk]
                    .copy_from_slice(&a_pad.data()[bi * pchw + g * c_blk..][..c_blk]);
            }
            let mut tile_psums = Vec::new();
            pl.grouped_psums_int_into(&IntPanels, &a_tile, &int_weights, g..g + 1, &mut tile_psums);
            for (tp, full) in tile_psums.iter().zip(&want) {
                for bi in 0..batch {
                    assert_eq!(
                        &tp.data()[bi * blk..(bi + 1) * blk],
                        &full.data()[bi * full_blk + g * blk..][..blk],
                        "row tile {g} psums differ"
                    );
                }
            }
        }
    }

    /// The scalar, f32 and integer backends agree bit-for-bit on the tiny
    /// test geometry and on the paper's (Table II CIFAR-10 column: 128×128
    /// arrays, 3b weights in 1b cells, 3b activations) ResNet-20 stage
    /// shapes, the widest spanning ten row tiles — plus the stage
    /// transitions, whose integer panels are trimmed: the stride-2 3×3
    /// conv (last tile 2 of 14 channels) and the 1×1 stride-2 shortcut
    /// (one tile, 16 of 128 channels).
    #[test]
    fn integer_psums_match_f32_path() {
        let (pl, w_int) = small_pipeline();
        assert_backends_agree(&pl, &w_int, 2, 6);
        let cfg = CimConfig::cifar10();
        for (in_ch, out_ch, k, stride, hw) in [
            (16, 16, 3, 1, 8),
            (64, 64, 3, 1, 8),
            (128, 128, 3, 1, 4),
            (16, 32, 3, 2, 8),
            (16, 32, 1, 2, 8),
        ] {
            let (pl, w_int) = pipeline(&cfg, in_ch, out_ch, k, stride);
            assert_backends_agree(&pl, &w_int, 2, hw);
        }
    }

    /// Each row tile's packed panels cover only its real channels: `k` is
    /// `channels_of_row_tile(g).len() · K²` in every split, so a partial
    /// last tile drops its zero-padding rows and a full one keeps all.
    #[test]
    fn integer_panels_cover_only_real_channels() {
        let cfg = CimConfig::cifar10(); // 14 channels per 3×3 tile
        for (in_ch, want) in [
            (16, vec![126, 18]),
            (28, vec![126, 126]),
            (128, [vec![126; 9], vec![18]].concat()),
        ] {
            let (pl, w_int) = pipeline(&cfg, in_ch, in_ch, 3, 1);
            let p = pl.plan();
            let sets = pl
                .split_grouped_weights_int(&pl.split_grouped_weights(&w_int), 7.0)
                .expect("3-bit slices are integer-eligible");
            for iw in &sets {
                let ks: Vec<usize> = iw.panels().iter().map(PackedPanels::k).collect();
                assert_eq!(ks, want, "{in_ch} channels");
                for (g, &k) in ks.iter().enumerate() {
                    assert_eq!(k, p.channels_of_row_tile(g).len() * p.kh * p.kw);
                }
            }
        }
    }

    /// Integer repacking must refuse off-integer slices (the variation
    /// fallback), out-of-range activations, and accumulators that could
    /// leave the f32-exact window.
    #[test]
    fn integer_repack_eligibility_gates() {
        let (pl, w_int) = small_pipeline();
        let weights = pl.split_grouped_weights(&w_int);
        assert!(pl.split_grouped_weights_int(&weights, 7.0).is_some());
        // Variation-style perturbation makes slices off-integer.
        let perturbed: Vec<Tensor> = weights.iter().map(|w| w.scale(1.37)).collect();
        assert!(pl.split_grouped_weights_int(&perturbed, 7.0).is_none());
        // Activations beyond i8 cannot feed the i8 im2col.
        assert!(pl.split_grouped_weights_int(&weights, 255.0).is_none());
        // Integer slices too large for i8 are refused.
        let huge: Vec<Tensor> = weights.iter().map(|w| w.scale(200.0)).collect();
        assert!(pl.split_grouped_weights_int(&huge, 7.0).is_none());
    }

    /// reduce with the ideal digitizer equals the hand-written
    /// shift-add-dequant reference.
    #[test]
    fn reduce_matches_reference() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let mut rng = CqRng::new(7);
        let a_int = rng
            .uniform_tensor(&[1, p.in_ch, 5, 5], 0.0, 8.0)
            .map(f32::floor);
        let (h, w) = (5, 5);
        let mut a_pad = Tensor::zeros(&[1, p.padded_in_ch, h, w]);
        a_pad.data_mut()[..p.in_ch * h * w].copy_from_slice(a_int.data());
        let psums = pl.grouped_psums(&a_pad, &pl.split_grouped_weights(&w_int));
        let got = pl.reduce(&psums, &IdealDigitizer);

        let (oh, ow) = (psums[0].dim(2), psums[0].dim(3));
        let inner = oh * ow;
        let mut want = Tensor::zeros(&[1, p.out_ch, oh, ow]);
        for (s, ps) in psums.iter().enumerate() {
            let shift = pl.bit_split.shift_weight(s);
            for g in 0..p.num_row_tiles {
                for oc in 0..p.out_ch {
                    for i in 0..inner {
                        let pv = ps.data()[((g * p.out_ch) + oc) * inner + i];
                        want.data_mut()[oc * inner + i] += (pv * pl.weight_scale(g, oc)) * shift;
                    }
                }
            }
        }
        want.scale_in_place(0.05);
        assert_eq!(got, want);
    }

    /// Adc digitization through the pipeline clamps to the ADC range.
    #[test]
    fn adc_digitizer_saturates() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let a_int = Tensor::full(&[1, p.in_ch, 5, 5], 7.0);
        let mut a_pad = Tensor::zeros(&[1, p.padded_in_ch, 5, 5]);
        a_pad.data_mut()[..p.in_ch * 25].copy_from_slice(a_int.data());
        let psums = pl.grouped_psums(&a_pad, &pl.split_grouped_weights(&w_int));
        // Absurdly small scales force saturation everywhere.
        let scales = vec![1e-3f32; p.num_splits * p.num_row_tiles * p.out_ch];
        let adc = Adc::new(QuantFormat::signed(3));
        let dig = AdcDigitizer::new(adc, &scales, &p);
        let y = pl.reduce(&psums, &dig);
        assert!(
            y.max_abs() < 1.0,
            "saturated output should be tiny, got {}",
            y.max_abs()
        );
    }

    /// Hybrid digitization: `digital_splits == 0` is bit-exact the wrapped
    /// ADC; `digital_splits == num_splits` is bit-exact the ideal bypass;
    /// anything in between converts only the high-order splits.
    #[test]
    fn hybrid_digitizer_interpolates_between_adc_and_ideal() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let mut rng = CqRng::new(13);
        let a_int = rng
            .uniform_tensor(&[1, p.in_ch, 5, 5], 0.0, 8.0)
            .map(f32::floor);
        let mut a_pad = Tensor::zeros(&[1, p.padded_in_ch, 5, 5]);
        a_pad.data_mut()[..p.in_ch * 25].copy_from_slice(a_int.data());
        let psums = pl.grouped_psums(&a_pad, &pl.split_grouped_weights(&w_int));
        // Coarse scales so the ADC grid visibly quantizes.
        let scales = vec![0.5f32; p.num_splits * p.num_row_tiles * p.out_ch];
        let adc = Adc::new(QuantFormat::signed(4));
        let make = |ds: usize| HybridDigitizer::new(AdcDigitizer::new(adc, &scales, &p), ds);

        let full_adc = pl.reduce(&psums, &AdcDigitizer::new(adc, &scales, &p));
        let ideal = pl.reduce(&psums, &IdealDigitizer);
        assert_eq!(
            pl.reduce(&psums, &make(0)),
            full_adc,
            "0 digital splits must be the pure-ADC path"
        );
        assert_eq!(
            pl.reduce(&psums, &make(p.num_splits)),
            ideal,
            "all-digital must be the ideal bypass"
        );
        let hybrid = pl.reduce(&psums, &make(1));
        assert_ne!(hybrid, full_adc, "hybrid must skip ADC on low splits");
        assert_ne!(hybrid, ideal, "hybrid must still convert high splits");
        // Per column: the low split passes through, high splits hit the ADC.
        let dig = make(1);
        assert_eq!(dig.digital_splits(), 1);
        assert_eq!(dig.digitize(0.37, 0, 0, 0), 0.37);
        assert_eq!(
            dig.digitize(0.37, 1, 0, 0),
            AdcDigitizer::new(adc, &scales, &p).digitize(0.37, 1, 0, 0)
        );
    }

    /// Forwards only `digitize`, so `digitize_axpy` is the trait's
    /// per-value default body — the reference for column-at-once
    /// overrides.
    struct PerValue<D>(D);

    impl<D: ColumnDigitizer> ColumnDigitizer for PerValue<D> {
        fn digitize(&self, analog: f32, split: usize, row_tile: usize, oc: usize) -> f32 {
            self.0.digitize(analog, split, row_tile, oc)
        }
    }

    /// Psums that stress the converter: signed zeros, exact grid ties
    /// `k·s_p + s_p/2`, values far outside the range, and off-integer
    /// values like device variation produces.
    fn adversarial_psums(sp: f32, rng: &mut CqRng) -> Vec<f32> {
        let mut v = vec![0.0, -0.0, 1e6, -1e6, 3.0e4 * sp, -3.0e4 * sp];
        for k in -20..20 {
            let tie = k as f32 * sp + sp / 2.0;
            v.extend([tie, -tie, k as f32 * sp]);
        }
        for _ in 0..64 {
            let p = rng.uniform_in(-40.0, 40.0).round();
            v.push(p * rng.lognormal_factor(0.3));
        }
        v
    }

    /// `AdcDigitizer::digitize_axpy` converts a whole column at once; it
    /// must equal the per-value default body bit for bit, alone and inside
    /// a [`HybridDigitizer`], for binary, signed and unsigned converters.
    #[test]
    fn adc_column_axpy_matches_per_value_default() {
        let cfg = CimConfig::tiny();
        let p = TilingPlan::new(&cfg, 40, 3, 3, 3);
        let n = p.num_splits * p.num_row_tiles * p.out_ch;
        // Mixed scales: powers of two make the ties exact, the rest do not.
        let scales: Vec<f32> = (0..n)
            .map(|i| [0.5, 0.37, 2.0, 0.011, 1.0, 0.25][i % 6])
            .collect();
        let mut rng = CqRng::new(0xADC);
        for fmt in [
            QuantFormat::signed(1),
            QuantFormat::signed(3),
            QuantFormat::unsigned(4),
        ] {
            let adc = Adc::new(fmt);
            let dig = AdcDigitizer::new(adc, &scales, &p);
            let hybrid = HybridDigitizer::new(dig.clone(), 1);
            let cases: [(&dyn ColumnDigitizer, &dyn ColumnDigitizer); 2] = [
                (&dig, &PerValue(dig.clone())),
                (&hybrid, &PerValue(hybrid.clone())),
            ];
            for (fast, reference) in cases {
                for split in 0..p.num_splits {
                    for g in 0..p.num_row_tiles {
                        for oc in 0..p.out_ch {
                            let sp = scales[(split * p.num_row_tiles + g) * p.out_ch + oc];
                            let psums = adversarial_psums(sp, &mut rng);
                            let init: Vec<f32> =
                                (0..psums.len()).map(|i| 0.1 * i as f32 - 3.0).collect();
                            let (mut got, mut want) = (init.clone(), init);
                            fast.digitize_axpy(&psums, split, g, oc, 0.013, 4.0, &mut got);
                            reference.digitize_axpy(&psums, split, g, oc, 0.013, 4.0, &mut want);
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{fmt:?} split {split} tile {g} oc {oc}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// A non-positive column scale is a broken calibration: the column
    /// path must refuse it just like the per-value `Adc::convert`.
    #[test]
    #[should_panic(expected = "must be positive")]
    fn adc_column_axpy_rejects_nonpositive_scale() {
        let cfg = CimConfig::tiny();
        let p = TilingPlan::new(&cfg, 3, 2, 3, 3);
        let mut scales = vec![0.5f32; p.num_splits * p.num_row_tiles * p.out_ch];
        scales[1] = 0.0;
        let dig = AdcDigitizer::new(Adc::new(QuantFormat::signed(3)), &scales, &p);
        let mut out = vec![0.0f32; 4];
        dig.digitize_axpy(&[1.0, 2.0, 3.0, 4.0], 0, 0, 1, 1.0, 1.0, &mut out);
    }

    /// Bias and activation scale are applied exactly once, in the engine's
    /// operation order.
    #[test]
    fn finish_applies_scale_then_bias() {
        let cfg = CimConfig::tiny();
        let plan = TilingPlan::new(&cfg, 3, 2, 3, 3);
        let ws = vec![1.0; plan.num_row_tiles * 2];
        let pl = PsumPipeline::new(plan, cfg.bit_split(), 1, 1, 0.5, ws, Some(vec![1.0, -2.0]));
        let acc = Tensor::full(&[1, 2, 2, 2], 4.0);
        let y = pl.finish(acc);
        for i in 0..4 {
            assert_eq!(y.data()[i], 4.0 * 0.5 + 1.0);
            assert_eq!(y.data()[4 + i], 4.0 * 0.5 - 2.0);
        }
    }

    /// A batch of zero images must flow through both front-ends and the
    /// reduce without panicking (the parallel work split degrades to a
    /// no-op, like the old per-pixel loops did).
    #[test]
    fn empty_batch_is_a_noop() {
        let (pl, w_int) = small_pipeline();
        let p = pl.plan().clone();
        let a_pad = Tensor::zeros(&[0, p.padded_in_ch, 6, 6]);
        let psums = pl.grouped_psums(&a_pad, &pl.split_grouped_weights(&w_int));
        assert_eq!(psums[0].dim(0), 0);
        let y = pl.reduce(&psums, &IdealDigitizer);
        assert_eq!(y.shape(), &[0, p.out_ch, 6, 6]);
    }

    #[test]
    #[should_panic(expected = "weight scale table")]
    fn bad_weight_table_panics() {
        let cfg = CimConfig::tiny();
        let plan = TilingPlan::new(&cfg, 3, 2, 3, 3);
        let _ = PsumPipeline::new(plan, cfg.bit_split(), 1, 1, 1.0, vec![1.0], None);
    }
}
