//! Recommender models for the TAaMR reproduction: BPR-MF, VBPR and AMR.
//!
//! All three models are trained with stochastic gradient descent on BPR
//! triplets `(u, i, j)` (user, interacted item, non-interacted item),
//! minimising the pairwise ranking loss `−ln σ(ŝ_ui − ŝ_uj) + λ‖θ‖²`
//! (paper Eq. 7):
//!
//! * [`BprMf`] — pure collaborative matrix factorisation (Rendle et al.),
//!   the latent-factor backbone and a no-visual-features baseline;
//! * [`Vbpr`] — Visual BPR (paper Eq. 6): adds a visual pathway
//!   `α_uᵀ (E f_i) + βᵀ f_i` on deep image features `f_i`, which is the
//!   attack surface TAaMR exploits;
//! * [`Amr`] — Adversarial Multimedia Recommendation (paper Eq. 8–10):
//!   VBPR continued with an adversarial regulariser that perturbs the item
//!   features with FGSM-style noise `Δ` during training, the defence whose
//!   robustness Table II probes.
//!
//! The [`Recommender`] trait exposes scoring and top-N recommendation; the
//! [`VisualRecommender`] trait additionally allows swapping an item's
//! features — that is how attacked images propagate into recommendations.
//!
//! # Example
//!
//! ```
//! use taamr_data::{SyntheticConfig, SyntheticDataset};
//! use taamr_recsys::{BprMf, PairwiseConfig, PairwiseTrainer, Recommender};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), taamr_recsys::PairwiseDiverged> {
//! let data = SyntheticDataset::generate(&SyntheticConfig::tiny_for_tests());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let mut model = BprMf::new(data.dataset.num_users(), data.dataset.num_items(), 8, &mut rng);
//! let trainer = PairwiseTrainer::new(PairwiseConfig { epochs: 3, ..PairwiseConfig::default() });
//! trainer.fit(&mut model, &data.dataset, &mut rng)?;
//! let top = model.top_n(0, 5, data.dataset.user_items(0));
//! assert_eq!(top.len(), 5);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod amr;
mod bpr;
mod oracle;
mod popularity;
mod recommend;
mod scoring;
mod shard;
mod train;
mod vbpr;

pub use amr::{Amr, AmrConfig};
pub use oracle::{ItemScoreOracle, QueryBudgetExceeded, QueryLedger};
pub use bpr::BprMf;
pub use popularity::Popularity;
pub use recommend::{
    item_rank, item_rank_with, par_top_n_all, top_n_indices, top_n_with, SelectionScratch,
};
pub use scoring::{CatalogPlan, ScoreBlock, ScoringEngine, StaleEngine, SCORE_BLOCK_USERS};
pub use shard::ShardPlan;
pub use train::{
    PairwiseConfig, PairwiseDiverged, PairwiseDivergence, PairwiseModel, PairwiseTrainer,
};
pub use vbpr::{Vbpr, VbprConfig};

/// A trained top-N recommender.
///
/// Scoring is read-only, and models are plain data (`Send + Sync`), so one
/// trained model can serve many users' recommendation lists concurrently —
/// see [`par_top_n_all`].
pub trait Recommender: Send + Sync {
    /// Number of users the model covers.
    fn num_users(&self) -> usize;

    /// Number of items the model covers.
    fn num_items(&self) -> usize;

    /// Preference score `ŝ_ui`.
    ///
    /// # Panics
    ///
    /// Panics if `user` or `item` is out of range.
    fn score(&self, user: usize, item: usize) -> f32;

    /// Scores of every item for `user`, written into a caller-owned buffer
    /// of length [`Recommender::num_items`]. Implementations override this
    /// to reuse per-call intermediates; the default delegates to
    /// [`Recommender::score`] per item.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range or `out` has the wrong length.
    fn score_into(&self, user: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_items(), "score buffer length mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.score(user, i);
        }
    }

    /// Scores of every item for `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    fn score_all(&self, user: usize) -> Vec<f32> {
        let mut out = vec![0.0; self.num_items()];
        self.score_into(user, &mut out);
        out
    }

    /// Top-`n` recommendation list for `user`, excluding `seen` items
    /// (highest score first).
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range.
    fn top_n(&self, user: usize, n: usize, seen: &[usize]) -> Vec<usize> {
        recommend::top_n_indices(&self.score_all(user), n, seen)
    }

    /// Monotone version counter for scoring-cache invalidation: any
    /// mutation that can change a score (an SGD step, a feature swap) must
    /// bump it. Immutable models may keep the default constant `0`.
    ///
    /// [`ScoringEngine::ensure`] compares this against the version the
    /// cached [`CatalogPlan`] was built at, so cache invalidation is exact.
    fn scoring_version(&self) -> u64 {
        0
    }

    /// Describes how to batch-score the full catalog (see [`CatalogPlan`]).
    /// The default is the scalar fallback plan, correct for any model;
    /// bilinear models override this to expose their GEMM decomposition.
    fn catalog_plan(&self) -> CatalogPlan {
        CatalogPlan::scalar(self.num_users(), self.num_items())
    }

    /// Row-major per-user factors of bilinear term `term` of the model's
    /// [`CatalogPlan`], for the contiguous user block `users` — a borrowed
    /// `users.len() × dim` slice straight out of model storage (no copy).
    /// Models with a scalar plan keep the default empty slice.
    ///
    /// # Panics
    ///
    /// May panic if `users` is out of range for the model.
    fn user_term_rows(&self, term: usize, users: std::ops::Range<usize>) -> &[f32] {
        let _ = (term, users);
        &[]
    }
}

/// A recommender whose item representations come from image features and can
/// therefore be *changed* by perturbing images.
pub trait VisualRecommender: Recommender {
    /// Dimension `D` of the item features.
    fn feature_dim(&self) -> usize;

    /// Current feature vector of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    fn item_feature(&self, item: usize) -> &[f32];

    /// Replaces the feature vector of `item` (e.g. with features extracted
    /// from an adversarially perturbed image).
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range or the length differs from
    /// [`VisualRecommender::feature_dim`].
    fn set_item_feature(&mut self, item: usize, feature: &[f32]);

    /// Gradient of `ŝ(user, item)` with respect to the item's feature
    /// vector, evaluated at the item's current features — the ascent
    /// direction an embedding-space attacker follows to *promote* the item
    /// for this user.
    ///
    /// For the bilinear models in this crate the score is linear in `f_i`
    /// (`∂ŝ/∂f_i[d] = Σ_a E[d,a]·α_u[a] + β[d]`), so the gradient does not
    /// actually depend on the current features; nonlinear implementations
    /// must differentiate at the stored feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `user` or `item` is out of range.
    fn score_feature_grad(&self, user: usize, item: usize) -> Vec<f32>;
}
