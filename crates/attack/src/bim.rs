//! Basic Iterative Method (Kurakin et al., ICLR 2017 workshop).

use rand::rngs::StdRng;
use taamr_nn::ImageClassifier;
use taamr_tensor::{signum, Tensor};

use crate::{
    finish_batch, goal_sign_and_labels, Access, AdversarialBatch, Attack, AttackError,
    AttackGoal, Budget, Epsilon, Surface, TargetWorker, ThreatModel,
};

/// Iterated FGSM: `steps` signed-gradient steps of size `alpha`, projecting
/// back into the ε-ball (and `[0, 1]`) after every step. Unlike [`crate::Pgd`],
/// BIM starts from the clean image (no random initialisation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bim {
    epsilon: Epsilon,
    steps: usize,
    alpha: f32,
}

impl Bim {
    /// Creates a BIM attack with the conventional step size
    /// `α = 2.5 · ε / steps` (so the ball boundary is reachable).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    pub fn new(epsilon: Epsilon, steps: usize) -> Self {
        assert!(steps > 0, "step count must be positive");
        Bim { epsilon, steps, alpha: 2.5 * epsilon.as_fraction() / steps as f32 }
    }

    /// Overrides the per-step size (as a fraction of the pixel range).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// The attack's `l∞` budget.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Number of gradient steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs the iterative loop from `start` (BIM: the clean image; PGD: a
    /// random point in the ball).
    pub(crate) fn iterate(
        &self,
        model: &mut dyn ImageClassifier,
        clean: &Tensor,
        start: Tensor,
        goal: AttackGoal,
    ) -> Tensor {
        let eps = self.epsilon.as_fraction();
        let (sign, labels) = goal_sign_and_labels(goal, clean.dims()[0]);
        let mut adv = start;
        let step = sign * self.alpha;
        taamr_obs::add(taamr_obs::Counter::AttackGradSteps, self.steps as u64);
        for _ in 0..self.steps {
            let (_, grad) = model.loss_input_grad(&adv, &labels);
            assert_eq!(grad.dims(), adv.dims(), "input gradient shape mismatch");
            // adv += step · signum(∇), then project to the ε-ball ∩ [0, 1];
            // in place, with the arithmetic of `axpy(step, &grad.signum())`.
            for ((a, &g), &c) in adv.iter_mut().zip(grad.iter()).zip(clean.iter()) {
                *a += step * signum(g);
                *a = a.clamp(c - eps, c + eps).clamp(0.0, 1.0);
            }
        }
        adv
    }
}

impl Attack for Bim {
    fn name(&self) -> &'static str {
        "BIM"
    }

    fn threat_model(&self) -> ThreatModel {
        ThreatModel { surface: Surface::Pixels, access: Access::WhiteBox }
    }

    fn budget(&self) -> Budget {
        Budget::PixelLinf(self.epsilon)
    }

    fn perturb(
        &self,
        target: &mut dyn TargetWorker,
        clean: &Tensor,
        goal: AttackGoal,
        _rng: &mut StdRng,
    ) -> Result<AdversarialBatch, AttackError> {
        assert_eq!(clean.rank(), 4, "BIM expects an NCHW batch");
        let adv = {
            let model = target.classifier().ok_or(AttackError::UnsupportedTarget {
                attack: "BIM",
                needs: "white-box classifier gradients",
            })?;
            self.iterate(model, clean, clean.clone(), goal)
        };
        Ok(finish_batch(target, clean, adv, self.epsilon, goal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fgsm, WhiteBox};
    use taamr_nn::{TinyResNet, TinyResNetConfig};
    use taamr_tensor::seeded_rng;

    fn setup() -> (TinyResNet, Tensor) {
        let net = TinyResNet::new(&TinyResNetConfig::tiny_for_tests(4), &mut seeded_rng(0));
        let x = Tensor::rand_uniform(&[3, 3, 16, 16], 0.05, 0.95, &mut seeded_rng(1));
        (net, x)
    }

    #[test]
    fn respects_budget() {
        let (mut net, x) = setup();
        let eps = Epsilon::from_255(8.0);
        let adv = Bim::new(eps, 5)
            .perturb(&mut WhiteBox(&mut net), &x, AttackGoal::Targeted(1), &mut seeded_rng(2))
            .unwrap();
        assert!(adv.linf_distance(&x) <= eps.as_fraction() + 1e-6);
        assert!(adv.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn more_iterations_do_at_least_as_well_as_fgsm() {
        let (mut net, x) = setup();
        let eps = Epsilon::from_255(8.0);
        let target = 3usize;
        let goal = AttackGoal::Targeted(target);
        let fgsm =
            Fgsm::new(eps).perturb(&mut WhiteBox(&mut net), &x, goal, &mut seeded_rng(3)).unwrap();
        let bim = Bim::new(eps, 10)
            .perturb(&mut WhiteBox(&mut net), &x, goal, &mut seeded_rng(3))
            .unwrap();
        // Compare mean target probability: the iterative attack should not
        // be weaker.
        let mean_p = |net: &mut TinyResNet, imgs: &Tensor| -> f32 {
            let p = net.probabilities(imgs);
            (0..3).map(|i| p.at(&[i, target])).sum::<f32>() / 3.0
        };
        let pf = mean_p(&mut net, &fgsm.data);
        let pb = mean_p(&mut net, &bim.data);
        assert!(pb >= pf - 1e-3, "BIM {pb} vs FGSM {pf}");
    }

    #[test]
    fn single_step_bim_with_eps_alpha_equals_fgsm() {
        let (mut net, x) = setup();
        let eps = Epsilon::from_255(8.0);
        let goal = AttackGoal::Targeted(2);
        let fgsm =
            Fgsm::new(eps).perturb(&mut WhiteBox(&mut net), &x, goal, &mut seeded_rng(4)).unwrap();
        let bim = Bim::new(eps, 1)
            .with_alpha(eps.as_fraction())
            .perturb(&mut WhiteBox(&mut net), &x, goal, &mut seeded_rng(4))
            .unwrap();
        for (a, b) in fgsm.data.iter().zip(bim.data.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "step count must be positive")]
    fn zero_steps_panics() {
        Bim::new(Epsilon::from_255(8.0), 0);
    }
}
