//! TinyResNet: the reproduction's stand-in for ResNet50.

use rand::Rng;
use taamr_tensor::Tensor;

use crate::layers::{BatchNorm2d, Conv2d, Dense, GlobalAvgPool, ReLU, ResidualBlock, Sequential};
use crate::loss::{feature_match_loss_into, softmax_cross_entropy_into};
use crate::{ImageClassifier, Layer, Mode, Param, Workspace};

/// Architecture of a [`TinyResNet`].
///
/// The network is `stem → stage₁ → stage₂ → … → global-avg-pool → dense`.
/// Stage `i` has `blocks_per_stage` residual blocks at `base_channels · 2^i`
/// channels; each stage after the first starts with a stride-2 block. The
/// global-average-pool output is the feature layer `e` whose dimension equals
/// the final stage's channel count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TinyResNetConfig {
    /// Input channels (3 for RGB product images).
    pub in_channels: usize,
    /// Channel count of the first stage.
    pub base_channels: usize,
    /// Residual blocks per stage.
    pub blocks_per_stage: usize,
    /// Number of stages (each doubles channels and halves resolution).
    pub stages: usize,
    /// Number of output classes.
    pub num_classes: usize,
}

impl TinyResNetConfig {
    /// The default catalog classifier: 3 stages of 16→32→64 channels,
    /// feature dimension 64 — shaped like a CIFAR ResNet.
    pub fn catalog_default(num_classes: usize) -> Self {
        TinyResNetConfig {
            in_channels: 3,
            base_channels: 16,
            blocks_per_stage: 1,
            stages: 3,
            num_classes,
        }
    }

    /// A deliberately small network for fast unit tests.
    pub fn tiny_for_tests(num_classes: usize) -> Self {
        TinyResNetConfig {
            in_channels: 3,
            base_channels: 4,
            blocks_per_stage: 1,
            stages: 2,
            num_classes,
        }
    }

    /// Feature dimension `D` of the global-average-pool layer.
    pub fn feature_dim(&self) -> usize {
        self.base_channels << (self.stages.saturating_sub(1))
    }
}

/// A small residual CNN with the same *interface* as the paper's ResNet50:
/// a convolutional trunk ending in global average pooling (the feature layer
/// `e`) followed by a single dense classification head.
///
/// # Example
///
/// ```
/// use taamr_nn::{ImageClassifier, TinyResNet, TinyResNetConfig};
/// use taamr_tensor::{seeded_rng, Tensor};
///
/// let mut net = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(5), &mut seeded_rng(0));
/// let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(1));
/// assert_eq!(net.features(&x).dims(), &[1, net.feature_dim()]);
/// assert_eq!(net.predict(&x).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TinyResNet {
    trunk: Sequential,
    head: Dense,
    config: TinyResNetConfig,
    /// Gradient of the loss with respect to the logits (or, on the feature
    /// path, the features), rewritten by every loss evaluation.
    loss_grad: Workspace<Tensor>,
}

impl TinyResNet {
    /// Builds a randomly initialised network.
    ///
    /// # Panics
    ///
    /// Panics if any config field is zero.
    pub fn new(config: &TinyResNetConfig, rng: &mut impl Rng) -> Self {
        assert!(config.stages > 0 && config.blocks_per_stage > 0, "empty architecture");
        assert!(
            config.in_channels > 0 && config.base_channels > 0 && config.num_classes > 0,
            "zero-sized architecture field"
        );
        let mut trunk = Sequential::new()
            .with(Conv2d::new(config.in_channels, config.base_channels, 3, 1, 1, rng))
            .with(BatchNorm2d::new(config.base_channels))
            .with(ReLU::new());
        let mut channels = config.base_channels;
        for stage in 0..config.stages {
            let out_channels = config.base_channels << stage;
            for block in 0..config.blocks_per_stage {
                let stride = if stage > 0 && block == 0 { 2 } else { 1 };
                trunk.push(Box::new(ResidualBlock::new(channels, out_channels, stride, rng)));
                channels = out_channels;
            }
        }
        trunk.push(Box::new(GlobalAvgPool::new()));
        let head = Dense::new(channels, config.num_classes, rng);
        TinyResNet { trunk, head, config: config.clone(), loss_grad: Workspace::default() }
    }

    /// The architecture this network was built from.
    pub fn config(&self) -> &TinyResNetConfig {
        &self.config
    }

    /// Total number of trainable scalars.
    pub fn param_count(&mut self) -> usize {
        self.trunk.param_count() + self.head.param_count()
    }

    /// Forward pass returning `(features, logits)` in the given mode,
    /// borrowed from the network's own output buffers.
    pub fn forward_full(&mut self, x: &Tensor, mode: Mode) -> (&Tensor, &Tensor) {
        let features = self.trunk.forward(x, mode);
        let logits = self.head.forward(features, mode);
        (features, logits)
    }

    /// Forward pass plus the cross-entropy loss; the logit gradient is left
    /// in `loss_grad`.
    fn forward_loss(&mut self, x: &Tensor, labels: &[usize], mode: Mode) -> f32 {
        let features = self.trunk.forward(x, mode);
        let logits = self.head.forward(features, mode);
        softmax_cross_entropy_into(logits, labels, &mut self.loss_grad)
    }

    /// Training step: forward in train mode, backprop the cross-entropy
    /// gradient, and return the batch loss. Parameter gradients accumulate.
    pub fn train_backward(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let loss = self.forward_loss(x, labels, Mode::Train);
        let grad_features = self.head.backward(&self.loss_grad);
        let _ = self.trunk.backward(grad_features);
        loss
    }

    /// Backpropagates an externally computed logit gradient (e.g. from a
    /// distillation loss) through the head and trunk, accumulating parameter
    /// gradients. Must follow a [`TinyResNet::forward_full`] call on the
    /// same batch.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass preceded this call or the gradient shape
    /// does not match the last logits.
    pub fn backward_from_logits(&mut self, grad_logits: &Tensor) {
        let grad_features = self.head.backward(grad_logits);
        let _ = self.trunk.backward(grad_features);
    }

    /// All trainable parameters (trunk then head).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.trunk.params_mut();
        p.extend(self.head.params_mut());
        p
    }

    /// Every tensor defining the network's persistent state, trunk then
    /// head: parameter values plus batch-norm running statistics. The order
    /// is stable, so [`TinyResNet::state_vec`] round-trips.
    fn state_tensors(&mut self) -> Vec<&mut Tensor> {
        let mut t = self.trunk.state_tensors();
        t.extend(self.head.state_tensors());
        t
    }

    /// Flattens the full persistent state (weights, biases, batch-norm
    /// running statistics) into one vector for checkpointing.
    pub fn state_vec(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        for t in self.state_tensors() {
            out.extend_from_slice(t.as_slice());
        }
        out
    }

    /// Restores state captured by [`TinyResNet::state_vec`] on a network of
    /// the same architecture. The inverse operation is exact: a restored
    /// network produces bitwise-identical forwards.
    ///
    /// # Errors
    ///
    /// Returns the expected length if `data` does not match this
    /// architecture's state size; the network is left unmodified.
    pub fn load_state_vec(&mut self, data: &[f32]) -> Result<(), usize> {
        let expected: usize = {
            let mut n = 0;
            for t in self.state_tensors() {
                n += t.len();
            }
            n
        };
        if data.len() != expected {
            return Err(expected);
        }
        let mut offset = 0;
        for t in self.state_tensors() {
            let n = t.len();
            t.as_mut_slice().copy_from_slice(&data[offset..offset + n]);
            offset += n;
        }
        Ok(())
    }

    /// Whether every parameter value is finite — the divergence guard's
    /// health check.
    pub fn is_finite_state(&mut self) -> bool {
        self.state_tensors().iter().all(|t| t.as_slice().iter().all(|v| v.is_finite()))
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.trunk.zero_grads();
        self.head.zero_grads();
    }
}

impl ImageClassifier for TinyResNet {
    fn num_classes(&self) -> usize {
        self.config.num_classes
    }

    fn feature_dim(&self) -> usize {
        self.config.feature_dim()
    }

    fn logits(&mut self, x: &Tensor) -> Tensor {
        self.forward_full(x, Mode::Eval).1.clone()
    }

    fn features(&mut self, x: &Tensor) -> Tensor {
        self.trunk.forward(x, Mode::Eval).clone()
    }

    fn loss_input_grad(&mut self, x: &Tensor, labels: &[usize]) -> (f32, &Tensor) {
        let loss = self.forward_loss(x, labels, Mode::Eval);
        let grad_features = self.head.backward_input(&self.loss_grad);
        (loss, self.trunk.backward_input(grad_features))
    }
}

impl crate::FeatureGradient for TinyResNet {
    fn feature_loss_input_grad(&mut self, x: &Tensor, target_features: &Tensor) -> (f32, &Tensor) {
        let features = self.trunk.forward(x, Mode::Eval);
        let loss = feature_match_loss_into(features, target_features, &mut self.loss_grad);
        (loss, self.trunk.backward_input(&self.loss_grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{feature_match_loss, softmax_cross_entropy};
    use taamr_tensor::seeded_rng;

    #[test]
    fn shapes_are_consistent() {
        let cfg = TinyResNetConfig::tiny_for_tests(5);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(0));
        assert_eq!(net.feature_dim(), 8); // 4 << 1
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(1));
        let f = net.features(&x);
        assert_eq!(f.dims(), &[2, 8]);
        let l = net.logits(&x);
        assert_eq!(l.dims(), &[2, 5]);
        assert_eq!(net.predict(&x).len(), 2);
    }

    #[test]
    fn catalog_default_feature_dim_is_64() {
        assert_eq!(TinyResNetConfig::catalog_default(10).feature_dim(), 64);
    }

    #[test]
    fn loss_input_grad_shape_matches_input() {
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(2));
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut seeded_rng(3));
        let (loss, grad) = net.loss_input_grad(&x, &[0, 2]);
        assert!(loss.is_finite() && loss > 0.0);
        assert_eq!(grad.dims(), x.dims());
        assert!(grad.all_finite());
        assert!(grad.norm_linf() > 0.0, "gradient must be non-trivial");
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        // End-to-end gradient check of the full net in eval mode.
        let cfg = TinyResNetConfig { in_channels: 1, base_channels: 2, blocks_per_stage: 1, stages: 2, num_classes: 2 };
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(4));
        let x = Tensor::rand_uniform(&[1, 1, 8, 8], 0.2, 0.8, &mut seeded_rng(5));
        let labels = [1usize];
        let analytic = net.loss_input_grad(&x, &labels).1.clone();
        let eps = 1e-2f32;
        // Full numeric gradient, compared by direction: individual pixels
        // near ReLU kinks are noisy under finite differences.
        let mut numeric = Tensor::zeros(x.dims());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = net.loss_input_grad(&xp, &labels).0;
            let lm = net.loss_input_grad(&xm, &labels).0;
            numeric.as_mut_slice()[i] = (lp - lm) / (2.0 * eps);
        }
        let cosine =
            analytic.dot(&numeric) / (analytic.norm_l2() * numeric.norm_l2()).max(1e-12);
        assert!(cosine > 0.97, "input-gradient cosine similarity {cosine}");
    }

    #[test]
    fn descending_target_gradient_raises_target_probability() {
        // One manual FGSM-like step must increase the target class prob:
        // this is the core mechanism the whole paper rests on.
        let cfg = TinyResNetConfig::tiny_for_tests(4);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(6));
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.1, 0.9, &mut seeded_rng(7));
        let target = 2usize;
        let p_before = net.probabilities(&x).at(&[0, target]);
        let (_, grad) = net.loss_input_grad(&x, &[target]);
        let x_adv = (&x - &grad.signum().scaled(0.03)).clamped(0.0, 1.0);
        let p_after = net.probabilities(&x_adv).at(&[0, target]);
        assert!(
            p_after > p_before,
            "target probability should rise: {p_before} -> {p_after}"
        );
    }

    #[test]
    fn feature_loss_is_zero_at_the_target() {
        use crate::FeatureGradient;
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(20));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(21));
        let target = net.features(&x);
        let (loss, grad) = net.feature_loss_input_grad(&x, &target);
        assert!(loss.abs() < 1e-10, "loss at target should vanish, got {loss}");
        assert!(grad.norm_linf() < 1e-6);
    }

    #[test]
    fn feature_gradient_step_reduces_feature_distance() {
        use crate::FeatureGradient;
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(22));
        let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.2, 0.8, &mut seeded_rng(23));
        let other = Tensor::rand_uniform(&[1, 3, 16, 16], 0.2, 0.8, &mut seeded_rng(24));
        let target = net.features(&other);
        let (loss_before, grad) = net.feature_loss_input_grad(&x, &target);
        assert!(loss_before > 0.0);
        // A signed-gradient descent step must reduce the matching loss.
        let x2 = (&x - &grad.signum().scaled(0.01)).clamped(0.0, 1.0);
        let (loss_after, _) = net.feature_loss_input_grad(&x2, &target);
        assert!(
            loss_after < loss_before,
            "feature loss should drop: {loss_before} -> {loss_after}"
        );
    }

    #[test]
    #[should_panic(expected = "one target feature row per batch element")]
    fn feature_gradient_validates_target_shape() {
        use crate::FeatureGradient;
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(25));
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let bad = Tensor::zeros(&[1, net.feature_dim()]);
        net.feature_loss_input_grad(&x, &bad);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// Gives every parameter a non-zero gradient and returns its bits.
    fn seed_grads(net: &mut TinyResNet) -> Vec<Vec<u32>> {
        for (k, p) in net.params_mut().into_iter().enumerate() {
            for (i, g) in p.grad.iter_mut().enumerate() {
                *g = 0.5 - (k * 17 + i) as f32 * 1e-4;
            }
        }
        net.params_mut().iter().map(|p| bits(&p.grad)).collect()
    }

    #[test]
    fn loss_input_grad_matches_the_full_backward_bitwise() {
        let cfg = TinyResNetConfig::catalog_default(5);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(30));
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(31));
        let labels = [4usize, 0, 2];
        // Reference: the training backward, which also accumulates weights.
        let mut full = net.clone();
        let (_, logits) = full.forward_full(&x, Mode::Eval);
        let (loss_full, grad_logits) = softmax_cross_entropy(logits, &labels);
        let grad_features = full.head.backward(&grad_logits);
        let dx_full = full.trunk.backward(grad_features);

        let (loss, dx) = net.loss_input_grad(&x, &labels);
        assert_eq!(loss.to_bits(), loss_full.to_bits());
        assert_eq!(bits(dx), bits(dx_full));
    }

    #[test]
    fn input_gradients_leave_parameter_gradients_untouched() {
        use crate::FeatureGradient;
        let cfg = TinyResNetConfig::tiny_for_tests(4);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(32));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(33));
        let before = seed_grads(&mut net);

        let (_, g) = net.loss_input_grad(&x, &[1, 3]);
        assert!(g.norm_linf() > 0.0);
        let after: Vec<Vec<u32>> = net.params_mut().iter().map(|p| bits(&p.grad)).collect();
        assert_eq!(after, before, "loss_input_grad moved a parameter gradient");

        let other = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(34));
        let target = net.features(&other);
        let (_, g) = net.feature_loss_input_grad(&x, &target);
        assert!(g.norm_linf() > 0.0);
        let after: Vec<Vec<u32>> = net.params_mut().iter().map(|p| bits(&p.grad)).collect();
        assert_eq!(after, before, "feature_loss_input_grad moved a parameter gradient");
    }

    #[test]
    fn feature_loss_matches_a_forward_only_probe_bitwise() {
        use crate::FeatureGradient;
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(35));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(36));
        let other = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(37));
        let target = net.features(&other);
        let (loss, _) = net.feature_loss_input_grad(&x, &target);
        let (probe, _) = feature_match_loss(&net.features(&x), &target);
        assert_eq!(loss.to_bits(), probe.to_bits());
    }

    #[test]
    fn deterministic_construction() {
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut a = TinyResNet::new(&cfg, &mut seeded_rng(9));
        let mut b = TinyResNet::new(&cfg, &mut seeded_rng(9));
        let x = Tensor::rand_uniform(&[1, 3, 8, 8], 0.0, 1.0, &mut seeded_rng(10));
        assert_eq!(a.logits(&x), b.logits(&x));
    }

    #[test]
    fn param_count_is_positive_and_stable() {
        let cfg = TinyResNetConfig::tiny_for_tests(3);
        let mut net = TinyResNet::new(&cfg, &mut seeded_rng(11));
        let n = net.param_count();
        assert!(n > 100);
        assert_eq!(n, net.param_count());
    }
}
