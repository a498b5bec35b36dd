//! Outside-in probes of a frozen CIM ResNet. Everything here drives the
//! workspace crates' public functions on a model's real activations:
//!
//! * [`interpret`] replays a ResNet layer by layer in `Layer::apply`
//!   order, so each layer's `forward_shared` can be timed on its real
//!   input; the result is checked against the model's own forward.
//! * [`ConvProbe`] rebuilds one conv as a `PreparedConv` and runs its
//!   serving stages one by one (activation quantization, channel pad,
//!   integer front-end, digitize/reduce), checked against
//!   `PreparedConv::infer`.
//! * [`psum_stats`] counts ADC conversions, clipped codes and zero psums
//!   from captured integer partial sums.

use cq_cim::{
    Adc, AdcDigitizer, ExecBackend, HybridDigitizer, IdealDigitizer, IntGroupedWeights,
    PreparedConv, QuantizedConv,
};
use cq_core::CimConv2d;
use cq_nn::{BasicBlock, Layer, Relu, ResNet};
use cq_tensor::{arena, conv_out_dim, Tensor};
use std::time::Instant;

/// A residual block being replayed.
struct BlockState {
    name: String,
    input: Tensor,
    pos: usize,
    shortcut: Option<Tensor>,
}

/// The program's name of residual block `k` (`s{stage}b{block}`).
fn block_name(blocks_per_stage: &[usize], mut k: usize) -> String {
    for (si, &n) in blocks_per_stage.iter().enumerate() {
        if k < n {
            return format!("s{si}b{k}");
        }
        k -= n;
    }
    panic!("block index beyond the spec");
}

/// Runs one leaf layer on its input; gets the CIM conv's name, if any.
pub type LeafRun<'a> = dyn FnMut(Option<&str>, &mut dyn Layer, &Tensor) -> Tensor + 'a;

/// Replays a [`ResNet`] on `x` leaf by leaf, in the order `Layer::apply`
/// visits it (stem, then each `BasicBlock`'s conv1, bn1, relu1, conv2,
/// bn2, optional shortcut conv + bn, output relu, then pool and fc),
/// reproducing the residual wiring of `BasicBlock::forward_shared`.
/// `run` executes one leaf on its input; it receives the CIM conv's name
/// (`stem`, `s1b0.conv1`, `s1b0.shortcut`, ...) for CIM convolutions and
/// `None` for every other layer.
pub fn interpret(model: &mut dyn Layer, x: &Tensor, run: &mut LeafRun<'_>) -> Tensor {
    let mut h = x.clone();
    let mut stages: Vec<usize> = Vec::new();
    let mut blocks = 0usize;
    let mut block: Option<BlockState> = None;
    model.apply(&mut |l: &mut dyn Layer| {
        let any = l.as_any_mut();
        if let Some(net) = any.downcast_ref::<ResNet>() {
            stages = net.spec().blocks_per_stage.clone();
            return;
        }
        if any.is::<BasicBlock>() {
            block = Some(BlockState {
                name: block_name(&stages, blocks),
                input: h.clone(),
                pos: 0,
                shortcut: None,
            });
            blocks += 1;
            return;
        }
        let is_cim = any.is::<CimConv2d>();
        let is_relu = any.is::<Relu>();
        let Some(b) = block.as_mut() else {
            h = run(is_cim.then_some("stem"), l, &h);
            return;
        };
        let pos = b.pos;
        b.pos += 1;
        let conv_name = |suffix: &str| is_cim.then(|| format!("{}.{suffix}", b.name));
        match pos {
            0 => h = run(conv_name("conv1").as_deref(), l, &h),
            3 => h = run(conv_name("conv2").as_deref(), l, &h),
            1 | 2 | 4 => h = run(None, l, &h),
            5 if !is_relu => {
                let s = run(conv_name("shortcut").as_deref(), l, &b.input);
                b.shortcut = Some(s);
            }
            6 if !is_relu => {
                let s = b.shortcut.take().expect("shortcut conv precedes its bn");
                b.shortcut = Some(run(None, l, &s));
            }
            _ => {
                let s = b.shortcut.take().unwrap_or_else(|| b.input.clone());
                h = run(None, l, &h.add(&s));
                block = None;
            }
        }
    });
    h
}

/// One conv rebuilt from its quantized description, with the integer
/// weight panels its front-end consumes.
pub struct ConvProbe {
    /// The program's conv name.
    pub name: String,
    prepared: PreparedConv,
    int_weights: Vec<IntGroupedWeights>,
}

/// Per-stage busy time of one conv call, ms:
/// `[act-quant, pad, front-end, reduce]`.
pub type StageMs = [f64; 4];

impl ConvProbe {
    /// Rebuilds `conv` as `PreparedConv::new(conv.to_quantized_conv())`
    /// and packs its integer panels.
    ///
    /// # Panics
    ///
    /// Panics if the conv is not integer-eligible.
    pub fn new(name: &str, conv: &mut CimConv2d) -> Self {
        let prepared = PreparedConv::new(conv.to_quantized_conv());
        let desc = prepared.desc();
        let pipe = prepared.pipeline();
        let grouped: Vec<Tensor> = (0..desc.plan.num_splits)
            .map(|s| pipe.group_weight_slice(&desc.bit_split.split_tensor(&desc.w_int, s)))
            .collect();
        let act = desc.act_format;
        let int_weights = pipe
            .split_grouped_weights_int(&grouped, act.qn().abs().max(act.qp()))
            .unwrap_or_else(|| panic!("{name}: conv is not integer-eligible"));
        Self {
            name: name.to_string(),
            prepared,
            int_weights,
        }
    }

    /// The frozen description.
    pub fn desc(&self) -> &QuantizedConv {
        self.prepared.desc()
    }

    /// Serves `x` stage by stage on `backend` and returns the per-stage
    /// times with the output. Scratch comes from the calling thread's
    /// arena, as in the serving path.
    pub fn run_stages(&self, x: &Tensor, backend: &dyn ExecBackend) -> (StageMs, Tensor) {
        let desc = self.prepared.desc();
        let pipe = self.prepared.pipeline();
        let p = &desc.plan;
        let (b, h, w) = (x.dim(0), x.dim(2), x.dim(3));
        let t0 = Instant::now();
        let a_int = self.prepared.quantize_activations(x);
        let t1 = Instant::now();
        let mut a_pad = arena::take_tensor(&[b, p.padded_in_ch, h, w]);
        p.pad_channels_into(&a_int, &mut a_pad);
        let t2 = Instant::now();
        let oh = conv_out_dim(h, p.kh, desc.stride, desc.pad);
        let ow = conv_out_dim(w, p.kw, desc.stride, desc.pad);
        let mut psums: Vec<Tensor> = (0..p.num_splits)
            .map(|_| arena::take_tensor(&[b, p.num_row_tiles * p.out_ch, oh, ow]))
            .collect();
        pipe.grouped_psums_int_into(
            backend,
            &a_pad,
            &self.int_weights,
            0..p.num_row_tiles,
            &mut psums,
        );
        let t3 = Instant::now();
        let y = if desc.psum_quant {
            let dig = AdcDigitizer::new(Adc::new(desc.psum_format), &desc.psum_scales, p);
            if desc.digital_splits > 0 {
                pipe.reduce(&psums, &HybridDigitizer::new(dig, desc.digital_splits))
            } else {
                pipe.reduce(&psums, &dig)
            }
        } else {
            pipe.reduce(&psums, &IdealDigitizer)
        };
        let t4 = Instant::now();
        for ps in psums {
            arena::put_tensor(ps);
        }
        arena::put_tensor(a_pad);
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        ([ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)], y)
    }

    /// `PreparedConv::infer` on `x` — the oracle the staged run must match.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.prepared.infer(x)
    }
}

/// Partial-sum health of one conv call.
#[derive(Debug, Clone, Default)]
pub struct PsumStats {
    /// Images in the batch.
    pub images: u64,
    /// Psums that went through the ADC (one conversion each).
    pub conversions: u64,
    /// Of those, psums whose scaled value lay beyond the ADC range before
    /// the clamp.
    pub clipped: u64,
    /// Of those, psums that were exactly zero.
    pub zero: u64,
    /// `(clipped, conversions)` per bit-split; digitally carried splits
    /// stay `(0, 0)`.
    pub per_split: Vec<(u64, u64)>,
}

impl PsumStats {
    /// Adds another call's counts.
    pub fn merge(&mut self, o: &PsumStats) {
        self.images = self.images.max(o.images);
        self.conversions += o.conversions;
        self.clipped += o.clipped;
        self.zero += o.zero;
        if self.per_split.len() < o.per_split.len() {
            self.per_split.resize(o.per_split.len(), (0, 0));
        }
        for (a, b) in self.per_split.iter_mut().zip(&o.per_split) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// Counts conversions, clipped codes and zero psums in one conv's captured
/// integer partial sums (`psums[s]` is `[B, G·OC, OH, OW]`), applying the
/// layer's dense `psum_scales` (`[(s·G + g)·OC + oc]`) and `psum_format`.
/// A value counts as clipped when `psum / scale` lies outside
/// `[-Qn, Qp]`, i.e. it saturates before the clamp; with 1-bit psums every
/// code sits on a rail, so rail codes alone would say nothing.
pub fn psum_stats(desc: &QuantizedConv, psums: &[Tensor]) -> PsumStats {
    let p = &desc.plan;
    let mut st = PsumStats {
        images: psums.first().map_or(0, |t| t.dim(0) as u64),
        per_split: vec![(0, 0); p.num_splits],
        ..PsumStats::default()
    };
    if !desc.psum_quant {
        return st;
    }
    let (lo, hi) = (-desc.psum_format.qn(), desc.psum_format.qp());
    let channels = p.num_row_tiles * p.out_ch;
    for (s, t) in psums.iter().enumerate().skip(desc.digital_splits) {
        let inner = t.dim(2) * t.dim(3);
        let (mut clipped, mut total) = (0u64, 0u64);
        for (blk, chunk) in t.data().chunks(inner).enumerate() {
            let scale = desc.psum_scales[s * channels + blk % channels];
            for &v in chunk {
                let vs = v / scale;
                clipped += u64::from(vs < lo || vs > hi);
                st.zero += u64::from(v == 0.0);
            }
            total += chunk.len() as u64;
        }
        st.per_split[s] = (clipped, total);
        st.clipped += clipped;
        st.conversions += total;
    }
    st
}
