//! Full-precision 2-D convolution layer (used for stems/baselines and as
//! the reference against which quantized layers are compared).

use crate::{kaiming_conv_init, Layer, Mode, Param, ParamKind, ParamView};
use cq_tensor::{conv2d, conv2d_backward_input, conv2d_backward_weight, CqRng, Tensor};

/// A standard full-precision convolution with optional bias.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a Kaiming-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut CqRng,
    ) -> Self {
        assert!(
            in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0,
            "empty conv"
        );
        let weight = kaiming_conv_init(out_ch, in_ch, kernel, rng);
        Self {
            weight: Param::new(weight),
            bias: bias.then(|| Param::new(Tensor::zeros(&[out_ch]))),
            stride,
            pad,
            cached_input: None,
        }
    }

    /// The weight tensor `[OC, Cin, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight.value
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Padding.
    pub fn pad(&self) -> usize {
        self.pad
    }
}

/// Adds a per-output-channel bias in place to a `[B, OC, H, W]` tensor.
pub fn add_channel_bias(y: &mut Tensor, bias: &Tensor) {
    let (b, oc, h, w) = (y.dim(0), y.dim(1), y.dim(2), y.dim(3));
    let hw = h * w;
    for bi in 0..b {
        for c in 0..oc {
            let bv = bias.data()[c];
            let base = (bi * oc + c) * hw;
            for v in &mut y.data_mut()[base..base + hw] {
                *v += bv;
            }
        }
    }
}

/// Accumulates the bias gradient (sum over batch and spatial dims).
pub fn accumulate_bias_grad(grad_out: &Tensor, gbias: &mut Tensor) {
    let (b, oc, h, w) = (
        grad_out.dim(0),
        grad_out.dim(1),
        grad_out.dim(2),
        grad_out.dim(3),
    );
    let hw = h * w;
    for bi in 0..b {
        for c in 0..oc {
            let base = (bi * oc + c) * hw;
            let s: f32 = grad_out.data()[base..base + hw].iter().sum();
            gbias.data_mut()[c] += s;
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let y = self.forward_shared(x).expect("Conv2d is always shareable");
        self.cached_input = (mode == Mode::Train).then(|| x.clone());
        y
    }

    fn forward_shared(&self, x: &Tensor) -> Option<Tensor> {
        let mut y = conv2d(x, &self.weight.value, self.stride, self.pad);
        if let Some(b) = &self.bias {
            add_channel_bias(&mut y, &b.value);
        }
        Some(y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Conv2d::backward without cached forward");
        let dw = conv2d_backward_weight(
            grad_out,
            &x,
            self.weight.value.shape(),
            self.stride,
            self.pad,
            1,
        );
        self.weight.grad.add_assign(&dw);
        if let Some(b) = &mut self.bias {
            accumulate_bias_grad(grad_out, &mut b.grad);
        }
        conv2d_backward_input(
            grad_out,
            &self.weight.value,
            x.shape(),
            self.stride,
            self.pad,
            1,
        )
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
        self.weight
            .visit(format!("{prefix}weight"), ParamKind::Weight, f);
        if let Some(b) = &mut self.bias {
            b.visit(format!("{prefix}bias"), ParamKind::Bias, f);
        }
    }

    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = CqRng::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, true, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 8, 8], 1.0);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        // Setting the bias shifts the output uniformly per channel.
        let y0 = conv.forward(&x, Mode::Eval);
        conv.visit_params("", &mut |p| {
            if p.kind == ParamKind::Bias {
                p.value.iter_mut().for_each(|v| *v = 1.0);
            }
        });
        let y1 = conv.forward(&x, Mode::Eval);
        assert!(y1.sub(&y0).allclose(&Tensor::ones(y0.shape()), 1e-5));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = CqRng::new(2);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        let x = rng.normal_tensor(&[1, 2, 5, 5], 1.0);
        let pat = rng.normal_tensor(&[1, 3, 5, 5], 0.3);
        let y = conv.forward(&x, Mode::Train);
        let _ = y;
        let dx = conv.backward(&pat);

        let eps = 1e-2;
        // Check input gradient.
        for i in [0usize, 13, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lp = conv.forward(&xp, Mode::Eval).mul(&pat).sum();
            let lm = conv.forward(&xm, Mode::Eval).mul(&pat).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        // Check weight + bias gradients via visitor.
        let mut grads: Vec<(String, Vec<f32>)> = Vec::new();
        conv.visit_params("", &mut |p| grads.push((p.name.clone(), p.grad.to_vec())));
        let wgrad = &grads.iter().find(|(n, _)| n == "weight").unwrap().1;
        for i in [0usize, 10, 30] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, Mode::Eval).mul(&pat).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, Mode::Eval).mul(&pat).sum();
            conv.weight.value.data_mut()[i] = orig;
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - wgrad[i]).abs() < 2e-2,
                "dw[{i}]: {num} vs {}",
                wgrad[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_without_forward_panics() {
        let mut rng = CqRng::new(3);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, false, &mut rng);
        let _ = conv.backward(&Tensor::zeros(&[1, 1, 1, 1]));
    }
}
