//! ResNet models (He et al. [3]) assembled from a pluggable convolution
//! factory, so the same architecture code runs full-precision
//! ([`FpConvFactory`]) or through the CIM quantized convolution installed
//! by `cq-core`.

use crate::{BatchNorm2d, Conv2d, GlobalAvgPool, Layer, Linear, MaxPool2d, Mode, ParamView, Relu};
use cq_tensor::{CqRng, Tensor};

/// Where a convolution sits in the network — quantization schemes commonly
/// keep the stem (and classifier) at higher precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvRole {
    /// The first convolution of the network.
    Stem,
    /// A regular body convolution.
    Body,
    /// A 1×1 projection shortcut.
    Shortcut,
}

/// Produces the convolution layers of a model.
pub trait ConvFactory {
    /// Creates a convolution layer. `name` is the stable parameter-path
    /// prefix of the layer.
    #[allow(clippy::too_many_arguments)]
    fn conv(
        &mut self,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        role: ConvRole,
    ) -> Box<dyn Layer>;
}

/// Factory producing plain full-precision convolutions.
pub struct FpConvFactory {
    rng: CqRng,
}

impl FpConvFactory {
    /// Creates the factory with a seeded RNG for weight init.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: CqRng::new(seed),
        }
    }
}

impl ConvFactory for FpConvFactory {
    fn conv(
        &mut self,
        _name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        _role: ConvRole,
    ) -> Box<dyn Layer> {
        Box::new(Conv2d::new(
            in_ch,
            out_ch,
            kernel,
            stride,
            pad,
            false,
            &mut self.rng,
        ))
    }
}

/// Architecture description for the [`ResNet`] builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetSpec {
    /// Input image channels.
    pub in_channels: usize,
    /// Classifier outputs.
    pub num_classes: usize,
    /// Stem output width.
    pub stem_width: usize,
    /// Output width of each stage.
    pub stage_widths: Vec<usize>,
    /// Basic blocks per stage.
    pub blocks_per_stage: Vec<usize>,
    /// Stride of the first block of each stage.
    pub stage_strides: Vec<usize>,
    /// `true` = ImageNet stem (7×7 stride-2 conv + 3×3 stride-2 max pool);
    /// `false` = CIFAR stem (3×3 stride-1 conv).
    pub large_stem: bool,
}

impl ResNetSpec {
    /// ResNet-20 for 32×32 inputs (the paper's CIFAR-10/100 model).
    pub fn resnet20(num_classes: usize) -> Self {
        Self {
            in_channels: 3,
            num_classes,
            stem_width: 16,
            stage_widths: vec![16, 32, 64],
            blocks_per_stage: vec![3, 3, 3],
            stage_strides: vec![1, 2, 2],
            large_stem: false,
        }
    }

    /// ResNet-18 with the ImageNet stem (the paper's ImageNet model).
    pub fn resnet18(num_classes: usize) -> Self {
        Self {
            in_channels: 3,
            num_classes,
            stem_width: 64,
            stage_widths: vec![64, 128, 256, 512],
            blocks_per_stage: vec![2, 2, 2, 2],
            stage_strides: vec![1, 2, 2, 2],
            large_stem: true,
        }
    }

    /// ResNet-18 topology with a CIFAR-style stem for small inputs.
    pub fn resnet18_small_input(num_classes: usize) -> Self {
        Self {
            large_stem: false,
            ..Self::resnet18(num_classes)
        }
    }

    /// A shallow, narrow ResNet (one block per stage) for quick
    /// experiments and CI-sized benchmarks.
    pub fn resnet8(num_classes: usize, width: usize) -> Self {
        Self {
            in_channels: 3,
            num_classes,
            stem_width: width,
            stage_widths: vec![width, 2 * width, 4 * width],
            blocks_per_stage: vec![1, 1, 1],
            stage_strides: vec![1, 2, 2],
            large_stem: false,
        }
    }

    /// Scales all widths by `num/den` (minimum 1 channel).
    pub fn scaled_width(mut self, num: usize, den: usize) -> Self {
        let f = |w: usize| (w * num / den).max(1);
        self.stem_width = f(self.stem_width);
        for w in &mut self.stage_widths {
            *w = f(*w);
        }
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if stage arrays disagree or anything is zero.
    pub fn validate(&self) {
        assert!(self.in_channels > 0 && self.num_classes > 0 && self.stem_width > 0);
        assert!(!self.stage_widths.is_empty());
        assert_eq!(self.stage_widths.len(), self.blocks_per_stage.len());
        assert_eq!(self.stage_widths.len(), self.stage_strides.len());
        assert!(self.stage_widths.iter().all(|&w| w > 0));
        assert!(self.blocks_per_stage.iter().all(|&b| b > 0));
    }

    /// Total number of weighted layers (convs + fc), the "20" in
    /// ResNet-20.
    pub fn depth(&self) -> usize {
        1 + 2 * self.blocks_per_stage.iter().sum::<usize>() + 1
    }
}

/// A standard two-conv residual block with an optional projection
/// shortcut.
pub struct BasicBlock {
    conv1: Box<dyn Layer>,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Box<dyn Layer>,
    bn2: BatchNorm2d,
    shortcut: Option<(Box<dyn Layer>, BatchNorm2d)>,
    relu_out: Relu,
}

impl BasicBlock {
    /// Builds a block; a projection shortcut is inserted when the shape
    /// changes (stride ≠ 1 or channel growth).
    pub fn new(
        factory: &mut dyn ConvFactory,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        stride: usize,
    ) -> Self {
        let conv1 = factory.conv(
            &format!("{name}.conv1"),
            in_ch,
            out_ch,
            3,
            stride,
            1,
            ConvRole::Body,
        );
        let conv2 = factory.conv(
            &format!("{name}.conv2"),
            out_ch,
            out_ch,
            3,
            1,
            1,
            ConvRole::Body,
        );
        let shortcut = (stride != 1 || in_ch != out_ch).then(|| {
            (
                factory.conv(
                    &format!("{name}.shortcut"),
                    in_ch,
                    out_ch,
                    1,
                    stride,
                    0,
                    ConvRole::Shortcut,
                ),
                BatchNorm2d::new(out_ch),
            )
        });
        Self {
            conv1,
            bn1: BatchNorm2d::new(out_ch),
            relu1: Relu::new(),
            conv2,
            bn2: BatchNorm2d::new(out_ch),
            shortcut,
            relu_out: Relu::new(),
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = self.conv1.forward(x, mode);
        h = self.bn1.forward(&h, mode);
        h = self.relu1.forward(&h, mode);
        h = self.conv2.forward(&h, mode);
        h = self.bn2.forward(&h, mode);
        let s = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = conv.forward(x, mode);
                bn.forward(&t, mode)
            }
            None => x.clone(),
        };
        let sum = h.add(&s);
        self.relu_out.forward(&sum, mode)
    }

    fn forward_shared(&self, x: &Tensor) -> Option<Tensor> {
        let mut h = self.conv1.forward_shared(x)?;
        h = self.bn1.forward_shared(&h)?;
        h = self.relu1.forward_shared(&h)?;
        h = self.conv2.forward_shared(&h)?;
        h = self.bn2.forward_shared(&h)?;
        let s = match &self.shortcut {
            Some((conv, bn)) => bn.forward_shared(&conv.forward_shared(x)?)?,
            None => x.clone(),
        };
        self.relu_out.forward_shared(&h.add(&s))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.relu_out.backward(grad_out);
        // Main path.
        let mut gm = self.bn2.backward(&g);
        gm = self.conv2.backward(&gm);
        gm = self.relu1.backward(&gm);
        gm = self.bn1.backward(&gm);
        let mut gx = self.conv1.backward(&gm);
        // Shortcut path.
        let gs = match &mut self.shortcut {
            Some((conv, bn)) => {
                let t = bn.backward(&g);
                conv.backward(&t)
            }
            None => g,
        };
        gx.add_assign(&gs);
        gx
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
        self.conv1.visit_params(&format!("{prefix}conv1."), f);
        self.bn1.visit_params(&format!("{prefix}bn1."), f);
        self.conv2.visit_params(&format!("{prefix}conv2."), f);
        self.bn2.visit_params(&format!("{prefix}bn2."), f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_params(&format!("{prefix}shortcut."), f);
            bn.visit_params(&format!("{prefix}shortcut_bn."), f);
        }
    }

    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
        self.conv1.apply(f);
        self.bn1.apply(f);
        self.relu1.apply(f);
        self.conv2.apply(f);
        self.bn2.apply(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.apply(f);
            bn.apply(f);
        }
        self.relu_out.apply(f);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A ResNet classifier.
pub struct ResNet {
    spec: ResNetSpec,
    stem_conv: Box<dyn Layer>,
    stem_bn: BatchNorm2d,
    stem_relu: Relu,
    stem_pool: Option<MaxPool2d>,
    blocks: Vec<BasicBlock>,
    gap: GlobalAvgPool,
    fc: Linear,
}

impl ResNet {
    /// Builds a ResNet from a spec and a convolution factory. The
    /// classifier is always a full-precision [`Linear`] (seeded by
    /// `fc_seed`), matching the common practice of keeping the last layer
    /// unquantized.
    ///
    /// # Panics
    ///
    /// Panics if the spec is inconsistent.
    pub fn build(spec: ResNetSpec, factory: &mut dyn ConvFactory, fc_seed: u64) -> Self {
        spec.validate();
        let (stem_k, stem_s, stem_p) = if spec.large_stem {
            (7, 2, 3)
        } else {
            (3, 1, 1)
        };
        let stem_conv = factory.conv(
            "stem",
            spec.in_channels,
            spec.stem_width,
            stem_k,
            stem_s,
            stem_p,
            ConvRole::Stem,
        );
        let stem_pool = spec.large_stem.then(|| MaxPool2d::new(3, 2, 1));
        let mut blocks = Vec::new();
        let mut in_ch = spec.stem_width;
        for (si, (&width, &nblocks)) in spec
            .stage_widths
            .iter()
            .zip(&spec.blocks_per_stage)
            .enumerate()
        {
            for bi in 0..nblocks {
                let stride = if bi == 0 { spec.stage_strides[si] } else { 1 };
                let name = format!("s{si}b{bi}");
                blocks.push(BasicBlock::new(factory, &name, in_ch, width, stride));
                in_ch = width;
            }
        }
        let mut fc_rng = CqRng::new(fc_seed);
        let fc = Linear::new(in_ch, spec.num_classes, true, &mut fc_rng);
        Self {
            stem_bn: BatchNorm2d::new(spec.stem_width),
            stem_conv,
            stem_relu: Relu::new(),
            stem_pool,
            blocks,
            gap: GlobalAvgPool::new(),
            fc,
            spec,
        }
    }

    /// The architecture spec.
    pub fn spec(&self) -> &ResNetSpec {
        &self.spec
    }
}

impl Layer for ResNet {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut h = self.stem_conv.forward(x, mode);
        h = self.stem_bn.forward(&h, mode);
        h = self.stem_relu.forward(&h, mode);
        if let Some(p) = &mut self.stem_pool {
            h = p.forward(&h, mode);
        }
        for b in &mut self.blocks {
            h = b.forward(&h, mode);
        }
        let pooled = self.gap.forward(&h, mode);
        self.fc.forward(&pooled, mode)
    }

    fn forward_shared(&self, x: &Tensor) -> Option<Tensor> {
        let mut h = self.stem_conv.forward_shared(x)?;
        h = self.stem_bn.forward_shared(&h)?;
        h = self.stem_relu.forward_shared(&h)?;
        if let Some(p) = &self.stem_pool {
            h = p.forward_shared(&h)?;
        }
        for b in &self.blocks {
            h = b.forward_shared(&h)?;
        }
        let pooled = self.gap.forward_shared(&h)?;
        self.fc.forward_shared(&pooled)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.fc.backward(grad_out);
        g = self.gap.backward(&g);
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(&g);
        }
        if let Some(p) = &mut self.stem_pool {
            g = p.backward(&g);
        }
        g = self.stem_relu.backward(&g);
        g = self.stem_bn.backward(&g);
        self.stem_conv.backward(&g)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
        self.stem_conv.visit_params(&format!("{prefix}stem."), f);
        self.stem_bn.visit_params(&format!("{prefix}stem_bn."), f);
        for (i, b) in self.blocks.iter_mut().enumerate() {
            b.visit_params(&format!("{prefix}block{i}."), f);
        }
        self.fc.visit_params(&format!("{prefix}fc."), f);
    }

    fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
        f(self);
        self.stem_conv.apply(f);
        self.stem_bn.apply(f);
        self.stem_relu.apply(f);
        if let Some(p) = &mut self.stem_pool {
            p.apply(f);
        }
        for b in &mut self.blocks {
            b.apply(f);
        }
        self.gap.apply(f);
        self.fc.apply(f);
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax_cross_entropy;

    #[test]
    fn spec_depths() {
        assert_eq!(ResNetSpec::resnet20(10).depth(), 20);
        assert_eq!(ResNetSpec::resnet18(1000).depth(), 18);
        assert_eq!(ResNetSpec::resnet8(10, 8).depth(), 8);
    }

    #[test]
    fn scaled_width_floors_at_one() {
        let s = ResNetSpec::resnet20(10).scaled_width(1, 64);
        assert!(s.stage_widths.iter().all(|&w| w >= 1));
    }

    #[test]
    fn resnet20_forward_shapes() {
        let mut factory = FpConvFactory::new(1);
        let spec = ResNetSpec::resnet20(10).scaled_width(1, 4); // width 4 for speed
        let mut net = ResNet::build(spec, &mut factory, 2);
        let mut rng = CqRng::new(3);
        let x = rng.normal_tensor(&[2, 3, 32, 32], 1.0);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[2, 10]);
    }

    #[test]
    fn resnet18_large_stem_shapes() {
        let mut factory = FpConvFactory::new(4);
        let spec = ResNetSpec::resnet18(7).scaled_width(1, 16); // width 4
        let mut net = ResNet::build(spec, &mut factory, 5);
        let mut rng = CqRng::new(6);
        let x = rng.normal_tensor(&[1, 3, 64, 64], 1.0);
        let y = net.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 7]);
    }

    #[test]
    fn backward_produces_input_gradient_and_param_grads() {
        let mut factory = FpConvFactory::new(7);
        let spec = ResNetSpec::resnet8(5, 4);
        let mut net = ResNet::build(spec, &mut factory, 8);
        let mut rng = CqRng::new(9);
        let x = rng.normal_tensor(&[2, 3, 16, 16], 1.0);
        let y = net.forward(&x, Mode::Train);
        let out = softmax_cross_entropy(&y, &[1, 3]);
        let gx = net.backward(&out.grad);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.max_abs() > 0.0, "input gradient flows");
        let mut nonzero = 0usize;
        let mut total = 0usize;
        net.visit_params("", &mut |p| {
            if p.kind == crate::ParamKind::RunningStat {
                return; // non-trainable state, gradients always zero
            }
            total += 1;
            if p.grad.iter().any(|&g| g != 0.0) {
                nonzero += 1;
            }
        });
        assert!(total > 20, "resnet8 has many params, saw {total}");
        assert!(
            nonzero * 10 >= total * 9,
            "most parameters get gradient: {nonzero}/{total}"
        );
    }

    #[test]
    fn param_names_are_unique() {
        let mut factory = FpConvFactory::new(10);
        let mut net = ResNet::build(
            ResNetSpec::resnet20(10).scaled_width(1, 8),
            &mut factory,
            11,
        );
        let mut names = std::collections::HashSet::new();
        net.visit_params("", &mut |p| {
            assert!(names.insert(p.name.clone()), "duplicate name {}", p.name);
        });
        assert!(names.len() > 60);
    }

    #[test]
    fn tiny_resnet_overfits_noise_batch() {
        // Meaningful end-to-end check: a small ResNet + SGD must be able to
        // memorize a fixed batch of random images.
        let mut factory = FpConvFactory::new(12);
        let mut net = ResNet::build(ResNetSpec::resnet8(4, 4), &mut factory, 13);
        let mut rng = CqRng::new(14);
        let x = rng.normal_tensor(&[8, 3, 12, 12], 1.0);
        let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
        let mut opt = crate::Sgd::new(0.05, 0.9, 0.0);
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for it in 0..60 {
            let y = net.forward(&x, Mode::Train);
            let out = softmax_cross_entropy(&y, &labels);
            if it == 0 {
                first_loss = out.loss;
            }
            last_loss = out.loss;
            net.zero_grads();
            let _ = net.backward(&out.grad);
            opt.step(&mut net);
        }
        assert!(
            last_loss < first_loss * 0.5,
            "loss should halve: {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn apply_visits_all_nested_convs() {
        let mut factory = FpConvFactory::new(15);
        let mut net = ResNet::build(
            ResNetSpec::resnet20(10).scaled_width(1, 8),
            &mut factory,
            16,
        );
        let mut convs = 0;
        net.apply(&mut |l| {
            if l.as_any_mut().downcast_mut::<Conv2d>().is_some() {
                convs += 1;
            }
        });
        // stem + 18 body convs + 2 projection shortcuts = 21
        assert_eq!(convs, 21);
    }
}
