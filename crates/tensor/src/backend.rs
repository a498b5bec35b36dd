//! **Pluggable execution backends** for the partial-sum front-end.
//!
//! [`ExecBackend`] owns the per-layer compute contract that the CIM
//! pipeline used to hardcode: the f32 grouped-convolution sweep (im2col +
//! GEMM) and the integer chain (i8 im2col, i8→i32 widening, panel GEMM,
//! exact i32→f32 epilogue). Three first-class implementations ship:
//!
//! * [`ScalarRef`] — a plain serial loop-nest **reference oracle** for
//!   differential testing. No threading inside the GEMM, no zero-skip, no
//!   blocking: the simplest auditable implementation of the arithmetic.
//! * [`SimdF32`] — the production f32 path: blocked, autovectorized,
//!   row-parallel GEMM kernels on the persistent [`exec`](crate::exec)
//!   pool.
//! * [`IntPanels`] — the `i8×i8→i32` panel kernels over freeze-time
//!   repacked weights ([`PackedPanels`]); applicable only when a layer's
//!   frozen slices are integer-eligible, which the capability probe
//!   [`ExecBackend::supports`] reports from a [`ConvProfile`].
//!
//! All backends are **bit-identical** where applicable: partial sums are
//! exact integers well inside f32's 24-bit mantissa, and the only latitude
//! the f32 paths have is the sign of a zero (skipping vs including
//! products with a `±0.0` factor), which no downstream operation — add,
//! multiply, clamp, round, compare — can amplify into an observable
//! difference under `f32` equality. The equivalence test matrices pin
//! this.
//!
//! [`BackendSet`] is an ordered fallback chain of backends; a layer
//! resolves the first chain entry that supports its profile. The
//! process-wide default chain is read once from the `CQ_BACKEND`
//! environment variable (`auto` | `f32` | `int` | `scalar`, default
//! `auto`) by [`BackendSet::standard`].

use crate::conv::{conv2d_grouped_into, im2col_image};
use crate::igemm::{accum_to_f32, igemm_into, im2col_i8, widen_i8_to_i32, PackedPanels};
use crate::{ConvShape, Tensor};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identity of an execution backend — the unit of fallback ordering and
/// per-backend serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Serial loop-nest reference oracle ([`ScalarRef`]).
    Scalar,
    /// Blocked/threaded f32 kernels ([`SimdF32`]).
    SimdF32,
    /// Integer `i8×i8→i32` panel kernels ([`IntPanels`]).
    IntPanels,
}

impl BackendKind {
    /// Every backend kind, in [`BackendKind::index`] order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::Scalar,
        BackendKind::SimdF32,
        BackendKind::IntPanels,
    ];

    /// Stable short name (used in bench JSON and `ServeStats`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::SimdF32 => "simd-f32",
            BackendKind::IntPanels => "int-panels",
        }
    }

    /// Dense index (for per-backend counter arrays).
    pub fn index(self) -> usize {
        match self {
            BackendKind::Scalar => 0,
            BackendKind::SimdF32 => 1,
            BackendKind::IntPanels => 2,
        }
    }
}

/// What a frozen convolution offers to the capability probe
/// [`ExecBackend::supports`].
///
/// `integer_eligible` reports whether the layer's frozen weight slices
/// actually repacked into integer panels at freeze time (exact i8 values,
/// activations in i8 range, worst-case column sums inside the 2²⁴ f32
/// window) — computed from the real pack outcome, so the probe can never
/// drift from the kernels' own eligibility rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvProfile {
    /// Frozen slices repacked into integer panels at freeze time.
    pub integer_eligible: bool,
}

/// Backend selection failure, mirroring the `ConfigError` convention:
/// recoverable configuration mistakes are reported, not panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// No backend in the chain supports the layer.
    NoBackend(Vec<BackendKind>),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let BackendError::NoBackend(kinds) = self;
        let names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        write!(
            f,
            "no backend in chain [{}] supports this layer \
             (frozen slices not integer-eligible?)",
            names.join(", ")
        )
    }
}

impl std::error::Error for BackendError {}

/// The per-layer compute contract of the partial-sum front-end.
///
/// The f32 entry point is [`conv_grouped_into`](ExecBackend::conv_grouped_into);
/// the integer chain (`im2col_i8` → `widen_i8_to_i32` → `igemm_into` →
/// `accum_to_f32`) is only driven when [`integer`](ExecBackend::integer)
/// is `true`, and its default methods forward to the free-function
/// kernels of this crate. Implementations must be `Send + Sync`: kernel
/// work items and pipeline waves call them from pooled worker threads.
pub trait ExecBackend: Send + Sync + fmt::Debug {
    /// This backend's identity.
    fn kind(&self) -> BackendKind;

    /// Stable short name (defaults to the kind's name).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Capability probe: can this backend execute a layer with `profile`?
    fn supports(&self, profile: &ConvProfile) -> bool;

    /// Whether sweeps on this backend run the integer chain (over
    /// freeze-time repacked panels) instead of the f32 grouped conv.
    fn integer(&self) -> bool {
        false
    }

    /// Grouped 2-D convolution into caller-provided output and im2col
    /// scratch — the f32 partial-sum sweep for one bit-split. `out` is
    /// resized and overwritten; `col` is grown as needed and left dirty.
    // The signature mirrors `conv2d_grouped_into` exactly so overrides
    // stay drop-in for the free-function kernel.
    #[allow(clippy::too_many_arguments)]
    fn conv_grouped_into(
        &self,
        input: &Tensor,
        weight: &Tensor,
        stride: usize,
        pad: usize,
        groups: usize,
        out: &mut Tensor,
        col: &mut Vec<f32>,
    ) {
        conv2d_grouped_into(input, weight, stride, pad, groups, out, col);
    }

    /// i8 im2col of one image's channel block (integer chain step 1).
    fn im2col_i8(&self, img: &[f32], c_start: usize, c_len: usize, s: &ConvShape, col: &mut [i8]) {
        im2col_i8(img, c_start, c_len, s, col);
    }

    /// Widens the i8 patch matrix to the i32 GEMM operand (step 2).
    fn widen_i8_to_i32(&self, src: &[i8], dst: &mut [i32]) {
        widen_i8_to_i32(src, dst);
    }

    /// `C += A · B` over packed weight panels (step 3).
    fn igemm_into(&self, a: &PackedPanels, b: &[i32], n: usize, c: &mut [i32]) {
        igemm_into(a, b, n, c);
    }

    /// Exact `i32 → f32` psum epilogue (step 4).
    fn accum_to_f32(&self, acc: &[i32], out: &mut [f32]) {
        accum_to_f32(acc, out);
    }
}

/// Serial single-accumulator `C += A·B` in ascending-`k` axpy order — the
/// same per-element accumulation order as the production f32 kernels, with
/// no threading, blocking, or zero-skip.
fn gemm_nn_scalar(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A buffer length");
    assert_eq!(b.len(), k * n, "B buffer length");
    assert_eq!(c.len(), m * n, "C buffer length");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row) {
                *cv += av * bv;
            }
        }
    }
}

/// The loop-nest reference backend: im2col + serial scalar GEMM, one
/// accumulator per output element, ascending-`k` order. Slow on purpose —
/// it exists so every optimized backend has a differential-testing oracle
/// that can never rot (CI runs the full test suite with
/// `CQ_BACKEND=scalar`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarRef;

impl ExecBackend for ScalarRef {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn supports(&self, _profile: &ConvProfile) -> bool {
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_grouped_into(
        &self,
        input: &Tensor,
        weight: &Tensor,
        stride: usize,
        pad: usize,
        groups: usize,
        out: &mut Tensor,
        col: &mut Vec<f32>,
    ) {
        let s = ConvShape::new(input.shape(), weight.shape(), stride, pad, groups);
        let out_shape = [s.batch, s.out_ch, s.out_h, s.out_w];
        if out.shape() != out_shape {
            *out = Tensor::zeros(&out_shape);
        } else {
            out.fill(0.0);
        }
        let (cr, cc) = (s.col_rows(), s.col_cols());
        if col.len() < cr * cc {
            col.resize(cr * cc, 0.0);
        }
        let col = &mut col[..cr * cc];
        let cg = s.ch_per_group();
        let ocg = s.out_per_group();
        let in_img = s.in_ch * s.in_h * s.in_w;
        let out_img = s.out_ch * s.out_h * s.out_w;
        for b in 0..s.batch {
            let img = &input.data()[b * in_img..(b + 1) * in_img];
            for g in 0..s.groups {
                im2col_image(img, g * cg, cg, &s, col);
                let w_g = &weight.data()[g * ocg * cr..(g + 1) * ocg * cr];
                let out_g = &mut out.data_mut()
                    [b * out_img + g * ocg * cc..b * out_img + (g + 1) * ocg * cc];
                gemm_nn_scalar(ocg, cr, cc, w_g, col, out_g);
            }
        }
    }
}

/// The production f32 backend: blocked, autovectorized, row-parallel GEMM
/// on the persistent executor pool (this crate's default kernels).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdF32;

impl ExecBackend for SimdF32 {
    fn kind(&self) -> BackendKind {
        BackendKind::SimdF32
    }

    fn supports(&self, _profile: &ConvProfile) -> bool {
        true
    }
}

/// The integer panel backend: freeze-time repacked `i8` weight panels
/// driven through `i8×i8→i32` GEMMs with exact `i32→f32` epilogues.
/// Applicable only to integer-eligible layers (the capability probe
/// replaces the scattered `Option<IntGroupedWeights>` checks it grew out
/// of).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntPanels;

impl ExecBackend for IntPanels {
    fn kind(&self) -> BackendKind {
        BackendKind::IntPanels
    }

    fn supports(&self, profile: &ConvProfile) -> bool {
        profile.integer_eligible
    }

    fn integer(&self) -> bool {
        true
    }
}

/// The shared instance of a backend kind (backends are stateless; weight
/// artifacts live with the frozen layer, keyed by the backend that owns
/// them).
pub fn backend_instance(kind: BackendKind) -> Arc<dyn ExecBackend> {
    static CELLS: OnceLock<[Arc<dyn ExecBackend>; 3]> = OnceLock::new();
    let cells = CELLS.get_or_init(|| [Arc::new(ScalarRef), Arc::new(SimdF32), Arc::new(IntPanels)]);
    cells[kind.index()].clone()
}

/// An ordered fallback chain of execution backends.
///
/// A layer resolves to the **first** chain entry whose capability probe
/// accepts its [`ConvProfile`]; resolution fails (a [`BackendError`], not
/// a panic) when no entry does. Equality compares the chain's
/// [`BackendKind`]s.
#[derive(Debug, Clone)]
pub struct BackendSet {
    chain: Vec<Arc<dyn ExecBackend>>,
}

impl BackendSet {
    /// A chain of the given kinds, in fallback order.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain.
    pub fn new(kinds: &[BackendKind]) -> Self {
        assert!(!kinds.is_empty(), "backend chain must not be empty");
        Self {
            chain: kinds.iter().map(|&k| backend_instance(k)).collect(),
        }
    }

    /// `[IntPanels, SimdF32]` — integer kernels with f32 fallback.
    pub fn auto() -> Self {
        Self::new(&[BackendKind::IntPanels, BackendKind::SimdF32])
    }

    /// `[SimdF32]` — always the f32 kernels.
    pub fn f32() -> Self {
        Self::new(&[BackendKind::SimdF32])
    }

    /// `[IntPanels]` — integer kernels with no fallback; resolution fails
    /// on layers that are not integer-eligible.
    pub fn int() -> Self {
        Self::new(&[BackendKind::IntPanels])
    }

    /// `[Scalar]` — the serial reference oracle.
    pub fn scalar() -> Self {
        Self::new(&[BackendKind::Scalar])
    }

    /// The process-wide default chain, read **once** from the
    /// `CQ_BACKEND` environment variable: `auto` (default), `f32`, `int`,
    /// or `scalar`. Explicit `set_backends` calls always override this
    /// default.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `CQ_BACKEND` value.
    pub fn standard() -> Self {
        static DEFAULT: OnceLock<BackendSet> = OnceLock::new();
        DEFAULT
            .get_or_init(|| match std::env::var("CQ_BACKEND") {
                Ok(v) => BackendSet::from_name(&v).unwrap_or_else(|| {
                    panic!("CQ_BACKEND must be one of auto|f32|int|scalar, got {v:?}")
                }),
                Err(_) => BackendSet::auto(),
            })
            .clone()
    }

    /// Parses a chain name as accepted by `CQ_BACKEND`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "auto" => Some(Self::auto()),
            "f32" => Some(Self::f32()),
            "int" => Some(Self::int()),
            "scalar" => Some(Self::scalar()),
            _ => None,
        }
    }

    /// The chain, in fallback order.
    pub fn chain(&self) -> &[Arc<dyn ExecBackend>] {
        &self.chain
    }

    /// The chain's kinds, in fallback order.
    pub fn kinds(&self) -> Vec<BackendKind> {
        self.chain.iter().map(|b| b.kind()).collect()
    }

    /// The first backend that supports `profile`, if any.
    pub fn resolve(&self, profile: &ConvProfile) -> Option<Arc<dyn ExecBackend>> {
        self.chain.iter().find(|b| b.supports(profile)).cloned()
    }
}

impl PartialEq for BackendSet {
    fn eq(&self, other: &Self) -> bool {
        self.kinds() == other.kinds()
    }
}

impl Eq for BackendSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conv2d_grouped, CqRng};

    /// The scalar oracle must equal the production f32 conv bit-for-bit
    /// (zero-sign latitude compares equal under f32 `==`), across batch,
    /// groups, stride, and padding.
    #[test]
    fn scalar_conv_matches_production_f32() {
        let mut rng = CqRng::new(5);
        for (b, groups, cin_g, oc_g, hw, k, stride, pad) in [
            (1, 1, 3, 4, 6, 3, 1, 1),
            (2, 3, 2, 5, 5, 3, 1, 1),
            (3, 2, 4, 4, 7, 3, 2, 0),
            (1, 4, 1, 2, 4, 1, 1, 0),
        ] {
            let x = rng.normal_tensor(&[b, groups * cin_g, hw, hw], 1.0);
            let w = rng
                .uniform_tensor(&[groups * oc_g, cin_g, k, k], -4.0, 4.0)
                .map(|v| v.floor());
            let want = conv2d_grouped(&x, &w, stride, pad, groups);
            let mut got = Tensor::zeros(&[1]);
            let mut col = Vec::new();
            ScalarRef.conv_grouped_into(&x, &w, stride, pad, groups, &mut got, &mut col);
            assert_eq!(got, want, "groups={groups} stride={stride} pad={pad}");
            // Dirty-scratch reuse must be bit-stable.
            ScalarRef.conv_grouped_into(&x, &w, stride, pad, groups, &mut got, &mut col);
            assert_eq!(got, want, "warm scratch diverged");
        }
    }

    #[test]
    fn chain_resolution_honors_capability_probe() {
        let eligible = ConvProfile {
            integer_eligible: true,
        };
        let ineligible = ConvProfile {
            integer_eligible: false,
        };
        assert_eq!(
            BackendSet::auto().resolve(&eligible).unwrap().kind(),
            BackendKind::IntPanels
        );
        assert_eq!(
            BackendSet::auto().resolve(&ineligible).unwrap().kind(),
            BackendKind::SimdF32
        );
        assert!(BackendSet::int().resolve(&ineligible).is_none());
        assert_eq!(
            BackendSet::scalar().resolve(&ineligible).unwrap().kind(),
            BackendKind::Scalar
        );
    }

    #[test]
    fn chain_names_parse_and_compare() {
        for name in ["auto", "f32", "int", "scalar"] {
            let set = BackendSet::from_name(name).unwrap();
            assert_eq!(set, set.clone());
        }
        assert!(BackendSet::from_name("gpu").is_none());
        assert_ne!(BackendSet::auto(), BackendSet::int());
        assert_eq!(
            BackendError::NoBackend(vec![BackendKind::IntPanels]).to_string(),
            "no backend in chain [int-panels] supports this layer \
             (frozen slices not integer-eligible?)"
        );
    }
}
