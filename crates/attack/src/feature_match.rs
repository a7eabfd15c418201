//! Item-to-item feature-matching attack (the paper's stated future work).

use rand::rngs::StdRng;
use rand::Rng;
use taamr_nn::loss::feature_match_loss;
use taamr_nn::FeatureGradient;
use taamr_tensor::{signum, Tensor};

use crate::Epsilon;

/// The result of a feature-matching attack.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMatchResult {
    /// The perturbed images, same NCHW shape as the input.
    pub images: Tensor,
    /// Mean feature-matching loss before the attack.
    pub loss_before: f32,
    /// Mean feature-matching loss after the attack.
    pub loss_after: f32,
}

impl FeatureMatchResult {
    /// Fraction of the initial feature distance removed by the attack
    /// (0 = no progress, 1 = features match exactly).
    pub fn distance_reduction(&self) -> f32 {
        if self.loss_before <= 0.0 {
            0.0
        } else {
            1.0 - self.loss_after / self.loss_before
        }
    }
}

/// A PGD-style attack on the *feature space* instead of the class logits:
/// perturb images so their layer-`e` features match a chosen victim item's
/// features, under the same `l∞` threat model as the classifier attacks.
///
/// This realises the paper's future-work idea of "a finer-grained visual
/// attack to address a single item even within the same category": instead
/// of moving a sock toward the *running-shoe class*, it moves one sock
/// toward *one specific other product*, inheriting that item's exact
/// standing with the recommender.
///
/// # Example
///
/// ```
/// use taamr_attack::{Epsilon, FeatureMatch};
/// use taamr_nn::{ImageClassifier, TinyResNet, TinyResNetConfig};
/// use taamr_tensor::{seeded_rng, Tensor};
///
/// let mut net = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(4), &mut seeded_rng(0));
/// let x = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(1));
/// let victim = Tensor::rand_uniform(&[1, 3, 16, 16], 0.0, 1.0, &mut seeded_rng(2));
/// let target = net.features(&victim);
///
/// let attack = FeatureMatch::new(Epsilon::from_255(8.0), 10);
/// let result = attack.perturb(&mut net, &x, &target, &mut seeded_rng(3));
/// assert!(result.loss_after <= result.loss_before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureMatch {
    epsilon: Epsilon,
    steps: usize,
    alpha: f32,
}

impl FeatureMatch {
    /// Creates a feature-matching attack with step size `α = 2.5·ε/steps`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn new(epsilon: Epsilon, steps: usize) -> Self {
        assert!(steps > 0, "step count must be positive");
        // Unlike a cross-entropy objective (where more budget always helps
        // cross the decision boundary), feature matching must *stop at* the
        // target, so use a finer step than classifier PGD.
        FeatureMatch { epsilon, steps, alpha: epsilon.as_fraction() / steps as f32 * 1.5 }
    }

    /// The `l∞` budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Number of gradient steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The feature-matching loss at `images` from a forward pass only; bitwise
    /// equal to the loss [`FeatureGradient::feature_loss_input_grad`] returns.
    fn probe_loss(model: &mut dyn FeatureGradient, images: &Tensor, target: &Tensor) -> f32 {
        feature_match_loss(&model.features(images), target).0
    }

    /// Perturbs `images` so their features approach `target_features`
    /// (row-major `[batch, feature_dim]`), staying within the ε-ball and the
    /// valid pixel range. Starts from a random point in the ball, like PGD.
    ///
    /// # Panics
    ///
    /// Panics if `images` is not rank-4 or the target shape is wrong.
    pub fn perturb(
        &self,
        model: &mut dyn FeatureGradient,
        images: &Tensor,
        target_features: &Tensor,
        rng: &mut StdRng,
    ) -> FeatureMatchResult {
        assert_eq!(images.rank(), 4, "FeatureMatch expects an NCHW batch");
        let eps = self.epsilon.as_fraction();
        let loss_before = Self::probe_loss(model, images, target_features);

        // Track the best iterate: the signed steps do not converge smoothly
        // on an MSE objective, and the clean image itself is a valid
        // fallback (so the attack never *increases* the distance).
        let mut best = images.clone();
        let mut best_loss = loss_before;
        let mut adv = images.clone();
        for v in adv.iter_mut() {
            *v = (*v + rng.gen_range(-eps..=eps)).clamp(0.0, 1.0);
        }
        taamr_obs::add(taamr_obs::Counter::AttackGradSteps, self.steps as u64);
        for _ in 0..self.steps {
            let (loss, grad) = model.feature_loss_input_grad(&adv, target_features);
            if loss < best_loss {
                best_loss = loss;
                best = adv.clone();
            }
            assert_eq!(grad.dims(), adv.dims(), "input gradient shape mismatch");
            for ((a, &g), &c) in adv.iter_mut().zip(grad.iter()).zip(images.iter()) {
                *a += -self.alpha * signum(g);
                *a = a.clamp(c - eps, c + eps).clamp(0.0, 1.0);
            }
        }
        let final_loss = Self::probe_loss(model, &adv, target_features);
        if final_loss < best_loss {
            best_loss = final_loss;
            best = adv;
        }
        FeatureMatchResult { images: best, loss_before, loss_after: best_loss }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taamr_nn::{ImageClassifier, TinyResNet, TinyResNetConfig};
    use taamr_tensor::seeded_rng;

    fn setup() -> (TinyResNet, Tensor, Tensor) {
        let mut net = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(4), &mut seeded_rng(0));
        let x = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut seeded_rng(1));
        let victim = Tensor::rand_uniform(&[2, 3, 16, 16], 0.1, 0.9, &mut seeded_rng(2));
        let target = net.features(&victim);
        (net, x, target)
    }

    #[test]
    fn reduces_feature_distance_within_budget() {
        let (mut net, x, target) = setup();
        let attack = FeatureMatch::new(Epsilon::from_255(16.0), 10);
        let result = attack.perturb(&mut net, &x, &target, &mut seeded_rng(3));
        assert!(result.loss_after < result.loss_before);
        assert!(result.distance_reduction() > 0.0);
        // Threat model.
        let linf = result
            .images
            .iter()
            .zip(x.iter())
            .fold(0.0f32, |m, (&a, &c)| m.max((a - c).abs()));
        assert!(linf <= Epsilon::from_255(16.0).as_fraction() + 1e-6);
        assert!(result.images.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn bigger_budget_matches_features_at_least_as_well() {
        let (mut net, x, target) = setup();
        let small = FeatureMatch::new(Epsilon::from_255(2.0), 10)
            .perturb(&mut net, &x, &target, &mut seeded_rng(4));
        let large = FeatureMatch::new(Epsilon::from_255(16.0), 10)
            .perturb(&mut net, &x, &target, &mut seeded_rng(4));
        assert!(large.loss_after <= small.loss_after + 1e-4);
    }

    #[test]
    fn matching_own_features_is_a_no_op_objective() {
        let (mut net, x, _) = setup();
        let own = net.features(&x);
        let attack = FeatureMatch::new(Epsilon::from_255(4.0), 5);
        let result = attack.perturb(&mut net, &x, &own, &mut seeded_rng(5));
        assert!(result.loss_before.abs() < 1e-10);
        assert_eq!(result.distance_reduction(), 0.0);
    }

    #[test]
    fn probe_loss_is_bitwise_the_gradient_path_loss() {
        let (mut net, x, target) = setup();
        let (grad_path, _) = net.feature_loss_input_grad(&x, &target);
        let probe = FeatureMatch::probe_loss(&mut net, &x, &target);
        assert_eq!(probe.to_bits(), grad_path.to_bits());
    }

    #[test]
    fn forward_only_probes_leave_the_outcome_unchanged() {
        // Reference: the same loop with both loss probes read off a full
        // `feature_loss_input_grad` call, the gradient discarded.
        let (mut net, x, target) = setup();
        let attack = FeatureMatch::new(Epsilon::from_255(16.0), 6);
        let eps = attack.epsilon.as_fraction();
        let mut rng = seeded_rng(7);
        let (loss_before, _) = net.feature_loss_input_grad(&x, &target);
        let (mut best, mut best_loss, mut adv) = (x.clone(), loss_before, x.clone());
        for v in adv.iter_mut() {
            *v = (*v + rng.gen_range(-eps..=eps)).clamp(0.0, 1.0);
        }
        for _ in 0..attack.steps {
            let (loss, grad) = net.feature_loss_input_grad(&adv, &target);
            if loss < best_loss {
                best_loss = loss;
                best = adv.clone();
            }
            adv.axpy(-attack.alpha, &grad.signum());
            for (a, &c) in adv.iter_mut().zip(x.iter()) {
                *a = a.clamp(c - eps, c + eps).clamp(0.0, 1.0);
            }
        }
        let (final_loss, _) = net.feature_loss_input_grad(&adv, &target);
        if final_loss < best_loss {
            best_loss = final_loss;
            best = adv;
        }
        let reference = FeatureMatchResult { images: best, loss_before, loss_after: best_loss };

        let result = attack.perturb(&mut net, &x, &target, &mut seeded_rng(7));
        let bits = |t: &Tensor| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&result.images), bits(&reference.images));
        assert_eq!(result.loss_before.to_bits(), reference.loss_before.to_bits());
        assert_eq!(result.loss_after.to_bits(), reference.loss_after.to_bits());
    }

    #[test]
    #[should_panic(expected = "step count must be positive")]
    fn zero_steps_panics() {
        FeatureMatch::new(Epsilon::from_255(8.0), 0);
    }
}
