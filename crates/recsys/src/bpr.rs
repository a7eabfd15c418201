//! BPR matrix factorisation (Rendle et al., UAI 2009).

use rand::Rng;
use serde::{Deserialize, Serialize};
use taamr_data::Triplet;
use taamr_tensor::dot_blocked;

use crate::train::{bpr_loss_and_coeff, PairwiseModel};
use crate::{CatalogPlan, Recommender};

/// Pure collaborative BPR-MF: `ŝ_ui = b_i + p_uᵀ q_i`.
///
/// This is the latent-factor backbone VBPR extends, and serves as the
/// no-visual-features baseline in the benchmarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BprMf {
    num_users: usize,
    num_items: usize,
    factors: usize,
    /// User latent factors, row-major `num_users × factors`.
    user_factors: Vec<f32>,
    /// Item latent factors, row-major `num_items × factors`.
    item_factors: Vec<f32>,
    /// Item biases.
    item_bias: Vec<f32>,
    /// L2 regularisation λ.
    reg: f32,
    /// Monotone mutation counter for scoring-cache invalidation (see
    /// [`Recommender::scoring_version`]).
    version: u64,
}

impl BprMf {
    /// Creates a randomly initialised model with `factors` latent dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(num_users: usize, num_items: usize, factors: usize, rng: &mut impl Rng) -> Self {
        assert!(num_users > 0 && num_items > 0 && factors > 0, "empty model dimensions");
        let init = |n: usize, rng: &mut dyn rand::RngCore| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-0.05..0.05)).collect()
        };
        BprMf {
            num_users,
            num_items,
            factors,
            user_factors: init(num_users * factors, rng),
            item_factors: init(num_items * factors, rng),
            item_bias: vec![0.0; num_items],
            reg: 1e-4,
            version: 0,
        }
    }

    /// Sets the L2 regularisation coefficient, returning `self`.
    #[must_use]
    pub fn with_reg(mut self, reg: f32) -> Self {
        assert!(reg >= 0.0, "regularisation must be non-negative");
        self.reg = reg;
        self
    }

    /// Latent dimension K.
    pub fn factors(&self) -> usize {
        self.factors
    }

    /// Stable FNV-1a content hash of the model (dimensions,
    /// regularisation, and every parameter block by bit pattern). The
    /// `version` mutation counter is excluded, as in
    /// [`crate::Vbpr::artifact_hash`].
    pub fn artifact_hash(&self) -> u64 {
        let mut h = taamr_replay::Fnv::new();
        h.usize(self.num_users)
            .usize(self.num_items)
            .usize(self.factors)
            .f32(self.reg)
            .f32s(&self.user_factors)
            .f32s(&self.item_factors)
            .f32s(&self.item_bias);
        h.finish()
    }

    fn user(&self, u: usize) -> &[f32] {
        &self.user_factors[u * self.factors..(u + 1) * self.factors]
    }

    fn item(&self, i: usize) -> &[f32] {
        &self.item_factors[i * self.factors..(i + 1) * self.factors]
    }
}

impl Recommender for BprMf {
    fn num_users(&self) -> usize {
        self.num_users
    }

    fn num_items(&self) -> usize {
        self.num_items
    }

    /// `b_i + p_uᵀ q_i` with the dot in canonical [`dot_blocked`] order —
    /// bitwise identical to a [`crate::ScoringEngine`] score block. For
    /// `factors ≤ GEMM_KC` this is also bit-for-bit the plain sequential
    /// fold, so training (which scores through this) is unchanged.
    fn score(&self, user: usize, item: usize) -> f32 {
        dot_blocked(self.item_bias[item], self.user(user), self.item(item))
    }

    fn scoring_version(&self) -> u64 {
        self.version
    }

    fn catalog_plan(&self) -> CatalogPlan {
        CatalogPlan::gemm(self.num_users, self.num_items, self.item_bias.clone())
            .with_term(&self.item_factors, self.factors)
    }

    fn user_term_rows(&self, term: usize, users: std::ops::Range<usize>) -> &[f32] {
        match term {
            0 => &self.user_factors[users.start * self.factors..users.end * self.factors],
            _ => &[],
        }
    }
}

impl PairwiseModel for BprMf {
    fn sgd_step(&mut self, t: &Triplet, lr: f32) -> f32 {
        self.version = self.version.wrapping_add(1);
        let x = self.score(t.user, t.positive) - self.score(t.user, t.negative);
        let (loss, coeff) = bpr_loss_and_coeff(x);
        let k = self.factors;
        let (ub, ib, jb) = (t.user * k, t.positive * k, t.negative * k);
        for f in 0..k {
            let pu = self.user_factors[ub + f];
            let qi = self.item_factors[ib + f];
            let qj = self.item_factors[jb + f];
            self.user_factors[ub + f] += lr * (coeff * (qi - qj) - self.reg * pu);
            self.item_factors[ib + f] += lr * (coeff * pu - self.reg * qi);
            self.item_factors[jb + f] += lr * (-coeff * pu - self.reg * qj);
        }
        self.item_bias[t.positive] += lr * (coeff - self.reg * self.item_bias[t.positive]);
        self.item_bias[t.negative] -= lr * (coeff + self.reg * self.item_bias[t.negative]);
        loss
    }

    fn is_finite_state(&self) -> bool {
        self.user_factors
            .iter()
            .chain(&self.item_factors)
            .chain(&self.item_bias)
            .all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PairwiseConfig, PairwiseTrainer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taamr_data::{ImplicitDataset, TripletSampler};

    fn block_dataset() -> ImplicitDataset {
        // Two user communities with disjoint item blocks.
        let mut users = Vec::new();
        for u in 0..10usize {
            if u < 5 {
                users.push(vec![0, 1, 2, 3]);
            } else {
                users.push(vec![4, 5, 6, 7]);
            }
        }
        ImplicitDataset::new(users, vec![0; 8], 1)
    }

    #[test]
    fn training_learns_community_structure() {
        let d = block_dataset();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = BprMf::new(d.num_users(), d.num_items(), 4, &mut rng);
        let trainer = PairwiseTrainer::new(PairwiseConfig {
            epochs: 50,
            triplets_per_epoch: Some(100),
            lr: 0.1,
        });
        let losses = trainer.fit(&mut model, &d, &mut rng).unwrap();
        assert!(losses.last().unwrap() < &losses[0]);
        // Community 0 user prefers block-0 items over block-1 items.
        let s_in: f32 = (0..4).map(|i| model.score(0, i)).sum();
        let s_out: f32 = (4..8).map(|i| model.score(0, i)).sum();
        assert!(s_in > s_out, "in-block {s_in} vs out-block {s_out}");
    }

    #[test]
    fn sgd_step_reduces_loss_on_repeated_triplet() {
        let d = block_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = BprMf::new(d.num_users(), d.num_items(), 4, &mut rng);
        let sampler = TripletSampler::new(&d);
        let t = sampler.sample(&mut rng);
        let first = model.sgd_step(&t, 0.1);
        for _ in 0..20 {
            model.sgd_step(&t, 0.1);
        }
        let last = model.sgd_step(&t, 0.1);
        assert!(last < first);
    }

    #[test]
    fn scores_are_finite_and_deterministic() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = BprMf::new(5, 7, 3, &mut rng);
        let all = model.score_all(2);
        assert_eq!(all.len(), 7);
        assert!(all.iter().all(|v| v.is_finite()));
        let model2 = BprMf::new(5, 7, 3, &mut StdRng::seed_from_u64(2));
        assert_eq!(model.score_all(2), model2.score_all(2));
    }

    #[test]
    fn top_n_excludes_seen() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = BprMf::new(2, 10, 2, &mut rng);
        let top = model.top_n(0, 4, &[0, 1, 2]);
        assert_eq!(top.len(), 4);
        assert!(top.iter().all(|i| ![0usize, 1, 2].contains(i)));
    }

    #[test]
    #[should_panic(expected = "empty model dimensions")]
    fn zero_factors_panics() {
        BprMf::new(1, 1, 0, &mut StdRng::seed_from_u64(0));
    }
}
