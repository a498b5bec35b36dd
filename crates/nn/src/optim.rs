//! SGD with momentum, selective weight decay, learning-rate schedules, and
//! the positive clamp that keeps LSQ scale factors sane.

use crate::{Layer, ParamKind, ParamView};
use std::collections::HashMap;

/// Stochastic gradient descent with momentum.
///
/// Weight decay is applied to [`ParamKind::Weight`] parameters only, and
/// [`ParamKind::Scale`] (LSQ step size) parameters are clamped to a small
/// positive floor after every update — both standard practice in the QAT
/// literature.
pub struct Sgd {
    /// Current learning rate (typically driven by an [`LrSchedule`]).
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay on `Weight` parameters.
    pub weight_decay: f32,
    velocity: HashMap<String, Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// Applies one update step to every parameter of `model`.
    pub fn step(&mut self, model: &mut dyn Layer) {
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        model.visit_params("", &mut |p: ParamView<'_>| {
            let v = velocity
                .entry(p.name.clone())
                .or_insert_with(|| vec![0.0; p.value.len()]);
            assert_eq!(v.len(), p.value.len(), "parameter {} changed size", p.name);
            let decay = if p.kind == ParamKind::Weight { wd } else { 0.0 };
            for (i, vi) in v.iter_mut().enumerate() {
                let g = p.grad[i] + decay * p.value[i];
                *vi = momentum * *vi + g;
                p.value[i] -= lr * *vi;
            }
            if p.kind == ParamKind::Scale {
                for s in p.value.iter_mut() {
                    if !s.is_finite() || *s < cq_quant::SCALE_EPS {
                        *s = cq_quant::SCALE_EPS;
                    }
                }
            }
        });
    }
}

/// Learning-rate schedules.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// Half-cosine decay from `base` to ~0 over `total_epochs`.
    Cosine {
        /// Initial learning rate.
        base: f32,
        /// Number of epochs over which to decay.
        total_epochs: usize,
    },
    /// Multiply by `gamma` at each milestone epoch.
    Step {
        /// Initial learning rate.
        base: f32,
        /// Epochs at which to decay.
        milestones: Vec<usize>,
        /// Multiplicative decay factor.
        gamma: f32,
    },
}

impl LrSchedule {
    /// Learning rate at the given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        match self {
            LrSchedule::Constant(lr) => *lr,
            LrSchedule::Cosine { base, total_epochs } => {
                let t = (epoch as f32 / (*total_epochs).max(1) as f32).min(1.0);
                0.5 * base * (1.0 + (std::f32::consts::PI * t).cos())
            }
            LrSchedule::Step {
                base,
                milestones,
                gamma,
            } => {
                let k = milestones.iter().filter(|&&m| epoch >= m).count();
                base * gamma.powi(k as i32)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, Param};
    use cq_tensor::Tensor;

    struct Quad {
        w: Param,
        s: Param,
    }

    impl Layer for Quad {
        fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, g: &Tensor) -> Tensor {
            g.clone()
        }
        fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(ParamView<'_>)) {
            self.w.visit(format!("{prefix}w"), ParamKind::Weight, f);
            self.s.visit(format!("{prefix}s"), ParamKind::Scale, f);
        }
        fn apply(&mut self, f: &mut dyn FnMut(&mut dyn Layer)) {
            f(self);
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        // L = 0.5 w², dL/dw = w.
        let mut m = Quad {
            w: Param::new(Tensor::from_vec(vec![4.0], &[1])),
            s: Param::new(Tensor::from_vec(vec![1.0], &[1])),
        };
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        for _ in 0..300 {
            m.zero_grads();
            let w = m.w.value.data()[0];
            m.w.grad.data_mut()[0] = w;
            opt.step(&mut m);
        }
        assert!(
            m.w.value.data()[0].abs() < 1e-3,
            "w = {}",
            m.w.value.data()[0]
        );
    }

    #[test]
    fn weight_decay_only_hits_weights() {
        let mut m = Quad {
            w: Param::new(Tensor::from_vec(vec![1.0], &[1])),
            s: Param::new(Tensor::from_vec(vec![1.0], &[1])),
        };
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        m.zero_grads();
        opt.step(&mut m);
        assert!(m.w.value.data()[0] < 1.0, "weight decayed");
        assert_eq!(m.s.value.data()[0], 1.0, "scale not decayed");
    }

    #[test]
    fn scales_clamped_positive() {
        let mut m = Quad {
            w: Param::new(Tensor::from_vec(vec![0.0], &[1])),
            s: Param::new(Tensor::from_vec(vec![0.01], &[1])),
        };
        let mut opt = Sgd::new(1.0, 0.0, 0.0);
        m.s.grad.data_mut()[0] = 10.0; // would drive scale to -9.99
        opt.step(&mut m);
        assert_eq!(m.s.value.data()[0], cq_quant::SCALE_EPS);
    }

    #[test]
    fn schedules_behave() {
        let c = LrSchedule::Cosine {
            base: 1.0,
            total_epochs: 10,
        };
        assert!((c.lr_at(0) - 1.0).abs() < 1e-6);
        assert!(c.lr_at(5) < c.lr_at(1));
        assert!(c.lr_at(10) < 1e-6);
        let s = LrSchedule::Step {
            base: 1.0,
            milestones: vec![3, 6],
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(2), 1.0);
        assert!((s.lr_at(3) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(7) - 0.01).abs() < 1e-8);
        assert_eq!(LrSchedule::Constant(0.3).lr_at(99), 0.3);
    }
}
