//! Parameters, the layer trait, and the visitor protocol that connects
//! layers (including quantizer scales living inside them) to optimizers.

use cq_tensor::Tensor;

/// What a parameter is, which determines its optimizer treatment
/// (weight decay applies to `Weight` only, following standard QAT
/// practice; `Scale` parameters are clamped positive after each step).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Convolution / linear weights.
    Weight,
    /// Additive biases.
    Bias,
    /// BatchNorm scale (γ).
    Gamma,
    /// BatchNorm shift (β).
    Beta,
    /// Learnable quantizer step size (LSQ scale factor).
    Scale,
    /// Non-trainable state carried for checkpointing (e.g. BatchNorm
    /// running statistics). Optimizers must not update these; their
    /// gradients are always zero.
    RunningStat,
}

/// A borrowed view of one parameter handed to optimizers by
/// [`Layer::visit_params`].
pub struct ParamView<'a> {
    /// Unique, stable path name (e.g. `"stage2.block0.conv1.weight"`).
    pub name: String,
    /// Parameter kind.
    pub kind: ParamKind,
    /// Current values.
    pub value: &'a mut [f32],
    /// Accumulated gradient (same length as `value`).
    pub grad: &'a mut [f32],
}

/// A tensor parameter with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Gradient accumulator, same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }

    /// Hands a [`ParamView`] of this parameter to `f`.
    pub fn visit(&mut self, name: String, kind: ParamKind, f: &mut dyn FnMut(ParamView<'_>)) {
        f(ParamView {
            name,
            kind,
            value: self.value.data_mut(),
            grad: self.grad.data_mut(),
        });
    }
}

/// Forward/backward execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Caches activations for a subsequent backward pass; BatchNorm uses
    /// batch statistics and updates running averages.
    Train,
    /// No caching; BatchNorm uses running statistics.
    Eval,
}

/// A neural-network layer with explicit reverse-mode gradients.
///
/// Layers are stateful: `forward(Mode::Train)` caches whatever `backward`
/// needs; `backward` consumes that cache and returns `∂L/∂input` while
/// accumulating parameter gradients internally.
///
/// Layers are `Send + Sync` so whole models can move between (and be
/// served from) worker threads — e.g. the `cq-serve` front-end shares
/// each registered `PreparedCimModel` between its workers through an
/// `Arc`, and the frozen engine runs [`Layer::forward_shared`] from
/// several workers and pipeline waves at once. Every layer
/// in this workspace is plain owned data, so the bounds cost nothing.
pub trait Layer: std::any::Any + Send + Sync {
    /// Runs the layer on `x`.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Eval-mode forward through shared state (`&self`), for **concurrent
    /// serving**: several threads may call it on one layer at once (e.g.
    /// the concurrent waves of one pipelined sweep). Must be
    /// **bit-identical** to `forward(x, Mode::Eval)`.
    ///
    /// Returns `None` when this layer (or any descendant) cannot serve
    /// through shared state — the conservative default; stateless layers
    /// and frozen CIM convolutions override it.
    fn forward_shared(&self, _x: &Tensor) -> Option<Tensor> {
        None
    }

    /// Propagates `grad_out` (`∂L/∂output`) backward, returning
    /// `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Implementations panic if called without a preceding
    /// `forward(Mode::Train)`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Visits every parameter (weights, biases, BN affine, quantizer
    /// scales) with `prefix`-qualified stable names.
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>));

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        self.visit_params("", &mut |p: ParamView<'_>| {
            p.grad.iter_mut().for_each(|g| *g = 0.0);
        });
    }

    /// Calls `f` on this layer and every descendant (containers override
    /// to recurse). Used to toggle quantization stages, inject variation,
    /// or collect statistics from nested layers.
    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer));

    /// Downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |p: ParamView<'_>| n += p.value.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        w: Param,
    }

    impl Layer for Dummy {
        fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
            x.scale(self.w.value.data()[0])
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
            self.w.visit(format!("{prefix}w"), ParamKind::Weight, f);
        }
        fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
            f(self);
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn param_visit_and_zero() {
        let mut d = Dummy {
            w: Param::new(Tensor::from_vec(vec![2.0], &[1])),
        };
        d.w.grad.data_mut()[0] = 5.0;
        let mut seen = Vec::new();
        d.visit_params("layer.", &mut |p| seen.push((p.name.clone(), p.grad[0])));
        assert_eq!(seen, vec![("layer.w".to_string(), 5.0)]);
        d.zero_grads();
        assert_eq!(d.w.grad.data()[0], 0.0);
        assert_eq!(d.param_count(), 1);
    }

    #[test]
    fn apply_reaches_layer_and_downcast_works() {
        let mut d = Dummy {
            w: Param::new(Tensor::from_vec(vec![1.5], &[1])),
        };
        let mut hits = 0;
        let layer: &mut dyn Layer = &mut d;
        layer.apply(&mut |l| {
            if l.as_any_mut().downcast_mut::<Dummy>().is_some() {
                hits += 1;
            }
        });
        assert_eq!(hits, 1);
    }
}
