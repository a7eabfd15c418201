//! The end-to-end TAaMR pipeline.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use taamr_attack::{
    AdversarialBatch, Attack, AttackGoal, Bim, EmbedAttack, EmbedTarget, Epsilon, FeatureMatch,
    Fgsm, OracleTarget, Pgd, SpsaAttack, Surface, WhiteBoxTarget,
};
use taamr_data::{ImplicitDataset, SyntheticDataset};
use taamr_metrics::chr::category_hit_ratio_all;
use taamr_metrics::image::{psnr, ssim};
use taamr_metrics::psm;
use taamr_nn::parallel::par_features;
use taamr_nn::{
    ImageClassifier, LrSchedule, Mode, SgdConfig, TinyResNet, TinyResNetConfig, Trainer,
    TrainerConfig,
};
use taamr_recsys::{
    Amr, PairwiseConfig, PairwiseTrainer, Recommender, ScoringEngine, Vbpr, VisualRecommender,
};
use taamr_tensor::Tensor;
use taamr_vision::{tensor_to_images, Category, ProductImageGenerator};

use taamr_fault::FaultSite;

use crate::catalog::{l2_normalize_rows, render_training_set, CatalogImages};
use crate::checkpoint::{fnv1a64, RunDir};
use crate::error::PipelineError;
use crate::report::{CellError, DatasetReport, Figure2Report, VisualQuality};
use crate::{AttackScenario, PipelineConfig};

/// Which trained recommender an operation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    /// Plain VBPR, trained `warmup + finetune` epochs.
    Vbpr,
    /// AMR: the warm-up VBPR checkpoint continued with adversarial training.
    Amr,
}

impl ModelKind {
    /// Both recommenders, in the paper's table order.
    pub const ALL: [ModelKind; 2] = [ModelKind::Vbpr, ModelKind::Amr];

    /// Display name used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Vbpr => "VBPR",
            ModelKind::Amr => "AMR",
        }
    }
}

/// A serialisable description of one attack configuration — the unified
/// entry point of [`Pipeline::run_attack`] across every attacker family
/// (white-box pixel, black-box pixel, and embedding-space).
///
/// A spec is plain data: it names the attacker and its budget, and
/// [`AttackSpec::build`] instantiates the boxed [`Attack`]. Specs serialise
/// into grid-cell checkpoints and replay records, so a resumed or replayed
/// experiment reconstructs exactly the attacker that produced a cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackSpec {
    /// One-step signed-gradient attack (paper Eq. 5).
    Fgsm {
        /// `l∞` budget on the 0–255 scale.
        epsilon_255: f32,
    },
    /// Iterative FGSM.
    Bim {
        /// `l∞` budget on the 0–255 scale.
        epsilon_255: f32,
        /// Gradient steps.
        steps: usize,
    },
    /// PGD with the paper's 10 iterations and a random start.
    Pgd {
        /// `l∞` budget on the 0–255 scale.
        epsilon_255: f32,
    },
    /// Query-budgeted black-box SPSA against the score oracle.
    BlackBox {
        /// `l∞` budget on the 0–255 scale.
        epsilon_255: f32,
        /// SPSA iterates.
        steps: usize,
        /// Rademacher probe pairs per iterate.
        samples: usize,
        /// Per-item fresh-query budget against the score oracle.
        query_budget: u64,
    },
    /// Sign-rule embedding-space ascent inside an `l2` ball.
    EmbedSign {
        /// `l2` ball radius around the clean item feature.
        radius: f32,
        /// Ascent steps.
        steps: usize,
    },
    /// Normalised-gradient embedding-space ascent inside an `l2` ball.
    EmbedL2 {
        /// `l2` ball radius around the clean item feature.
        radius: f32,
        /// Ascent steps.
        steps: usize,
    },
}

impl AttackSpec {
    /// Instantiates the attacker this spec describes.
    pub fn build(&self) -> Box<dyn Attack> {
        match *self {
            AttackSpec::Fgsm { epsilon_255 } => {
                Box::new(Fgsm::new(Epsilon::from_255(epsilon_255)))
            }
            AttackSpec::Bim { epsilon_255, steps } => {
                Box::new(Bim::new(Epsilon::from_255(epsilon_255), steps))
            }
            AttackSpec::Pgd { epsilon_255 } => {
                Box::new(Pgd::new(Epsilon::from_255(epsilon_255)))
            }
            AttackSpec::BlackBox { epsilon_255, steps, samples, query_budget } => Box::new(
                SpsaAttack::new(Epsilon::from_255(epsilon_255), steps, samples)
                    .with_query_budget(query_budget),
            ),
            AttackSpec::EmbedSign { radius, steps } => Box::new(EmbedAttack::sign(radius, steps)),
            AttackSpec::EmbedL2 { radius, steps } => Box::new(EmbedAttack::l2(radius, steps)),
        }
    }

    /// The surface the attacker perturbs; [`Pipeline::run_attack`] dispatches
    /// its measurement path on this.
    pub fn surface(&self) -> Surface {
        match self {
            AttackSpec::Fgsm { .. }
            | AttackSpec::Bim { .. }
            | AttackSpec::Pgd { .. }
            | AttackSpec::BlackBox { .. } => Surface::Pixels,
            AttackSpec::EmbedSign { .. } | AttackSpec::EmbedL2 { .. } => Surface::Embeddings,
        }
    }

    /// The attacker's report name; matches [`Attack::name`] of the built
    /// attacker.
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::Fgsm { .. } => "FGSM",
            AttackSpec::Bim { .. } => "BIM",
            AttackSpec::Pgd { .. } => "PGD",
            AttackSpec::BlackBox { .. } => "SPSA",
            AttackSpec::EmbedSign { .. } => "EmbedSign",
            AttackSpec::EmbedL2 { .. } => "EmbedL2",
        }
    }

    /// The pixel budget on the 0–255 scale; `0.0` for embedding-space
    /// attacks, which measure their budget as an `l2` radius instead.
    pub fn epsilon_255(&self) -> f32 {
        match *self {
            AttackSpec::Fgsm { epsilon_255 }
            | AttackSpec::Bim { epsilon_255, .. }
            | AttackSpec::Pgd { epsilon_255 }
            | AttackSpec::BlackBox { epsilon_255, .. } => epsilon_255,
            AttackSpec::EmbedSign { .. } | AttackSpec::EmbedL2 { .. } => 0.0,
        }
    }
}

/// Everything a single TAaMR attack run produced (one model × attack ×
/// scenario × ε cell across Tables II–IV).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Attack name ("FGSM", "PGD", "SPSA", "EmbedSign", "EmbedL2", …).
    pub attack: String,
    /// Budget on the 0–255 scale (0 for embedding-space attacks, whose
    /// budget is an `l2` radius).
    pub epsilon_255: f32,
    /// Model under attack.
    pub model: ModelKind,
    /// Source category name.
    pub source: String,
    /// Target category name.
    pub target: String,
    /// Whether source and target are semantically similar.
    pub semantically_similar: bool,
    /// Source-category CHR@N before the attack, ×100 as in the paper.
    pub chr_source_before: f64,
    /// Target-category CHR@N before the attack, ×100.
    pub chr_target_before: f64,
    /// Source-category CHR@N after the attack, ×100 (Table II cell).
    pub chr_source_after: f64,
    /// Targeted misclassification rate of the attacked images (Table III).
    pub success_rate: f64,
    /// Mean visual quality of the attacked images (Table IV).
    pub visual: VisualQuality,
    /// How many item images were attacked.
    pub attacked_items: usize,
}

/// The result of one item-to-item feature-matching attack (the fine-grained
/// extension; see [`Pipeline::run_item_to_item_attack`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItemToItemOutcome {
    /// The item whose image was perturbed.
    pub source_item: usize,
    /// The item whose features were imitated.
    pub victim_item: usize,
    /// Budget on the 0–255 scale.
    pub epsilon_255: f32,
    /// Model under attack.
    pub model: ModelKind,
    /// Fraction of the feature distance to the victim removed (0–1).
    pub feature_distance_reduction: f32,
    /// Source item's mean rank across users before the attack.
    pub mean_rank_before: f64,
    /// Source item's mean rank after the attack.
    pub mean_rank_after: f64,
    /// The victim's mean rank (the rank the attack is aiming for).
    pub victim_mean_rank: f64,
}

/// The fully built TAaMR system: trained CNN, rendered catalog, extracted
/// features, and both trained recommenders.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    classifier: TinyResNet,
    cnn_train_accuracy: f32,
    cnn_holdout_accuracy: f32,
    generated: SyntheticDataset,
    catalog: CatalogImages,
    /// Clean item features, row-major `num_items × D`.
    features: Vec<f32>,
    vbpr: Vbpr,
    amr: Amr,
    /// Persistent scoring engines for the pipeline's own models, indexed by
    /// [`ModelKind::ALL`] order. Interior-mutable so the read-only
    /// evaluation paths can lazily (re)build the item-embedding caches; the
    /// engines invalidate themselves through the models'
    /// `scoring_version`, so training epochs and feature swaps can never
    /// serve stale scores.
    scorers: [std::sync::Mutex<ScoringEngine>; 2],
}

/// CNN stage checkpoint: the flattened network state plus the statistic the
/// pipeline keeps from training.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CnnCheckpoint {
    state: Vec<f32>,
    train_accuracy: f32,
}

/// One persisted attack-grid cell: either an outcome or a structured error.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellRecord {
    outcome: Option<AttackOutcome>,
    error: Option<CellError>,
}

/// A deterministic, stage-scoped RNG: each pipeline stage derives its own
/// stream from the master seed and a stage tag, so completing (or skipping,
/// on resume) one stage never shifts the randomness of the next.
fn stage_rng(seed: u64, tag: &str) -> StdRng {
    StdRng::seed_from_u64(seed ^ fnv1a64(tag.as_bytes()))
}

/// After persisting stage `ordinal`, simulate a kill if a test scheduled
/// one ([`FaultSite::StageInterrupt`]).
fn interrupt_after(ordinal: u64, stage: &str) -> Result<(), PipelineError> {
    if taamr_fault::fire(FaultSite::StageInterrupt, ordinal) {
        return Err(PipelineError::Interrupted { after_stage: stage.to_owned() });
    }
    Ok(())
}

/// Clean catalog features (row-major `items × feature_dim`) and the hold-out
/// accuracy, from one eval-mode pass over the catalog renders in batches of
/// 16 on worker threads. The accuracy is how often the classifier assigns
/// catalog items to their generating category (these renders were never
/// trained on). Eval-mode forwards never mix batch rows, so both outputs
/// are bitwise independent of the batch size and thread count.
fn catalog_features(
    classifier: &TinyResNet,
    catalog: &CatalogImages,
    dataset: &ImplicitDataset,
) -> (Vec<f32>, f32) {
    const BATCH: usize = 16;
    let parts: Vec<(Vec<f32>, usize)> = catalog
        .images()
        .par_chunks(BATCH)
        .enumerate()
        .map_init(
            || classifier.clone(),
            |net, (c, chunk)| {
                let batch = taamr_vision::images_to_tensor(chunk);
                let (features, logits) = net.forward_full(&batch, Mode::Eval);
                let preds = match logits.argmax_rows() {
                    Ok(preds) => preds,
                    Err(e) => unreachable!("logits are a non-empty matrix: {e}"),
                };
                let correct = preds
                    .iter()
                    .enumerate()
                    .filter(|&(r, &p)| p == dataset.item_category(c * BATCH + r))
                    .count();
                (features.as_slice().to_vec(), correct)
            },
        )
        .collect();
    let (features, correct): (Vec<Vec<f32>>, Vec<usize>) = parts.into_iter().unzip();
    let accuracy = correct.iter().sum::<usize>() as f32 / dataset.num_items() as f32;
    (features.concat(), accuracy)
}

impl Pipeline {
    /// Starts a fluent [`PipelineBuilder`]; the ergonomic way to configure
    /// and build a pipeline (`Pipeline::builder().scale(..).seed(..).build()?`).
    pub fn builder() -> crate::PipelineBuilder {
        crate::PipelineBuilder::new()
    }

    /// Builds the whole system: generates data, trains the CNN, renders the
    /// catalog, extracts features, and trains VBPR and AMR.
    ///
    /// This is the expensive call; everything after it is evaluation.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] if CNN or recommender training diverges
    /// beyond the guards' bounded retries.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (zero sizes,
    /// image size below 16, dataset categories ≠ [`Category::COUNT`]).
    pub fn build(config: &PipelineConfig) -> Result<Pipeline, PipelineError> {
        Self::build_stages(config, None)
    }

    /// Builds the whole system with per-stage checkpointing under `run`.
    ///
    /// Every completed stage (CNN weights, VBPR warm-up, VBPR fine-tune,
    /// AMR) is persisted atomically; on a restart with the same run
    /// directory and configuration, valid checkpoints are loaded and only
    /// the missing stages re-run. Each stage derives its RNG from the master
    /// seed and the stage name, so a resumed run is bitwise identical to an
    /// uninterrupted one. Corrupt or mismatched checkpoints are detected by
    /// checksum/fingerprint, deleted, and their stages regenerated.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] on training divergence, checkpoint I/O
    /// failure, or an injected stage interrupt.
    pub fn build_resumable(
        config: &PipelineConfig,
        run: &RunDir,
    ) -> Result<Pipeline, PipelineError> {
        Self::build_stages(config, Some(run))
    }

    fn build_stages(
        config: &PipelineConfig,
        run: Option<&RunDir>,
    ) -> Result<Pipeline, PipelineError> {
        assert_eq!(
            config.dataset.num_categories,
            Category::COUNT,
            "dataset categories must match the vision catalog"
        );

        // 1. Interaction data (5-core filtered inside the generator).
        let generated = {
            let _span = taamr_obs::span("stage:dataset");
            SyntheticDataset::generate(&config.dataset)
        };
        let dataset = &generated.dataset;
        taamr_replay::record_with(taamr_replay::CommandKind::Dataset, "dataset", || {
            let mut h = taamr_replay::Fnv::new();
            h.usize(dataset.num_users())
                .usize(dataset.num_items())
                .usize(dataset.num_categories());
            for u in 0..dataset.num_users() {
                h.usizes(dataset.user_items(u));
            }
            h.usizes(dataset.item_categories());
            h.finish()
        });

        // 2. The CNN classifier — restored from checkpoint, or trained on
        //    renders disjoint from the catalog. The stage RNG covers both
        //    weight init and training.
        let generator = ProductImageGenerator::new(config.cnn.image_size, config.catalog_seed);
        let arch = TinyResNetConfig {
            in_channels: 3,
            base_channels: config.cnn.base_channels,
            blocks_per_stage: config.cnn.blocks_per_stage,
            stages: config.cnn.stages,
            num_classes: Category::COUNT,
        };
        let mut cnn_rng = stage_rng(config.seed, "cnn");
        let mut classifier = TinyResNet::new(&arch, &mut cnn_rng);
        let cnn_span = taamr_obs::span("stage:cnn");
        let restored = run
            .and_then(|r| r.load_stage::<CnnCheckpoint>("cnn"))
            .filter(|ck| classifier.load_state_vec(&ck.state).is_ok());
        let cnn_train_accuracy = match restored {
            Some(ck) => ck.train_accuracy,
            None => {
                let (train_images, labels) =
                    render_training_set(&generator, config.cnn.train_images_per_category);
                let images_tensor = taamr_vision::images_to_tensor(&train_images);
                let trainer = Trainer::new(TrainerConfig {
                    epochs: config.cnn.epochs,
                    batch_size: config.cnn.batch_size,
                    sgd: SgdConfig {
                        lr: config.cnn.lr,
                        momentum: 0.9,
                        weight_decay: 5e-4,
                        schedule: LrSchedule::Cosine {
                            total_epochs: config.cnn.epochs,
                            floor: config.cnn.lr * 0.05,
                        },
                    },
                    log_every: 0,
                    divergence: taamr_nn::DivergenceConfig::default(),
                });
                let history =
                    trainer.fit(&mut classifier, &images_tensor, &labels, &mut cnn_rng)?;
                let acc = history.last().map(|s| s.accuracy).unwrap_or(0.0);
                if let Some(r) = run {
                    r.save_stage(
                        "cnn",
                        &CnnCheckpoint { state: classifier.state_vec(), train_accuracy: acc },
                    )?;
                }
                acc
            }
        };
        drop(cnn_span);
        // Replay hooks fire on the restored path too: a resumed run is
        // bit-identical to an uninterrupted one, so the hashes must agree.
        taamr_replay::record_with(taamr_replay::CommandKind::Train, "cnn", || {
            let mut h = taamr_replay::Fnv::new();
            h.f32s(&classifier.state_vec()).f32(cnn_train_accuracy);
            h.finish()
        });
        interrupt_after(0, "cnn")?;

        // 3. Render the catalog and extract clean features. This is
        //    recomputed on every (re)start: it is deterministic given the
        //    classifier, so it needs no checkpoint.
        let feature_span = taamr_obs::span("stage:catalog-features");
        let catalog = CatalogImages::render(dataset, &generator);
        let (features, cnn_holdout_accuracy) = catalog_features(&classifier, &catalog, dataset);
        drop(feature_span);
        taamr_replay::record_with(taamr_replay::CommandKind::Evaluate, "features", || {
            taamr_replay::hash_f32s(&features)
        });

        // 4. Train the recommenders: VBPR warm-up → checkpoint → two
        //    branches (plain VBPR and AMR), mirroring the paper's protocol.
        //    The models consume L2-normalised features (raw CNN activations
        //    have arbitrary scale and blow up the pairwise SGD); the raw
        //    features are kept for the PSM metric.
        let d = classifier.feature_dim();
        let rec_diverged = |model: &'static str| {
            move |source: taamr_recsys::PairwiseDiverged| PipelineError::RecDiverged {
                model,
                source,
            }
        };
        let warmup_span = taamr_obs::span("stage:vbpr-warmup");
        let warmup = match run.and_then(|r| r.load_stage::<Vbpr>("vbpr-warmup")) {
            Some(v) => v,
            None => {
                let mut rng = stage_rng(config.seed, "vbpr-warmup");
                let mut rec_features = features.clone();
                l2_normalize_rows(&mut rec_features, d);
                let mut v = Vbpr::new(
                    dataset.num_users(),
                    dataset.num_items(),
                    d,
                    rec_features,
                    config.vbpr.clone(),
                    &mut rng,
                );
                let rec_trainer = PairwiseTrainer::new(PairwiseConfig {
                    epochs: config.rec_train.warmup_epochs,
                    triplets_per_epoch: None,
                    lr: config.rec_train.lr,
                })
                .with_label("vbpr-warmup");
                rec_trainer.fit(&mut v, dataset, &mut rng).map_err(rec_diverged("VBPR"))?;
                if let Some(r) = run {
                    r.save_stage("vbpr-warmup", &v)?;
                }
                v
            }
        };
        drop(warmup_span);
        taamr_replay::record_with(taamr_replay::CommandKind::Train, "vbpr-warmup", || {
            warmup.artifact_hash()
        });
        interrupt_after(1, "vbpr-warmup")?;

        let finetune = PairwiseTrainer::new(PairwiseConfig {
            epochs: config.rec_train.finetune_epochs,
            triplets_per_epoch: None,
            lr: config.rec_train.lr,
        });
        let vbpr_span = taamr_obs::span("stage:vbpr-finetune");
        let vbpr = match run.and_then(|r| r.load_stage::<Vbpr>("vbpr")) {
            Some(v) => v,
            None => {
                let mut rng = stage_rng(config.seed, "vbpr-finetune");
                let mut v = warmup.clone();
                finetune
                    .clone()
                    .with_label("vbpr-finetune")
                    .fit(&mut v, dataset, &mut rng)
                    .map_err(rec_diverged("VBPR"))?;
                if let Some(r) = run {
                    r.save_stage("vbpr", &v)?;
                }
                v
            }
        };
        drop(vbpr_span);
        taamr_replay::record_with(taamr_replay::CommandKind::Train, "vbpr", || {
            vbpr.artifact_hash()
        });
        interrupt_after(2, "vbpr")?;

        let amr_span = taamr_obs::span("stage:amr");
        let amr = match run.and_then(|r| r.load_stage::<Amr>("amr")) {
            Some(a) => a,
            None => {
                let mut rng = stage_rng(config.seed, "amr");
                let mut a = Amr::from_vbpr(warmup, config.amr);
                finetune
                    .clone()
                    .with_label("amr")
                    .fit(&mut a, dataset, &mut rng)
                    .map_err(rec_diverged("AMR"))?;
                if let Some(r) = run {
                    r.save_stage("amr", &a)?;
                }
                a
            }
        };
        drop(amr_span);
        taamr_replay::record_with(taamr_replay::CommandKind::Train, "amr", || {
            amr.artifact_hash()
        });
        interrupt_after(3, "amr")?;

        // Divergence guard of last resort: every downstream number silently
        // degenerates if a recommender produced NaN scores, so fail loudly
        // here instead.
        for (model, scores) in [("VBPR", vbpr.score_all(0)), ("AMR", amr.score_all(0))] {
            if !scores.iter().all(|s| s.is_finite()) {
                return Err(PipelineError::NonFiniteScores { model });
            }
        }

        Ok(Pipeline {
            config: config.clone(),
            classifier,
            cnn_train_accuracy,
            cnn_holdout_accuracy,
            generated,
            catalog,
            features,
            vbpr,
            amr,
            scorers: [
                std::sync::Mutex::new(ScoringEngine::new()),
                std::sync::Mutex::new(ScoringEngine::new()),
            ],
        })
    }

    /// The configuration the pipeline was built from.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The (5-core filtered) interaction dataset.
    pub fn dataset(&self) -> &ImplicitDataset {
        &self.generated.dataset
    }

    /// The rendered catalog images.
    pub fn catalog(&self) -> &CatalogImages {
        &self.catalog
    }

    /// The trained CNN classifier / feature extractor.
    pub fn classifier(&self) -> &TinyResNet {
        &self.classifier
    }

    /// Runs `f` with mutable access to the classifier, then reconciles every
    /// dependent cached stage if the weights actually changed.
    ///
    /// The pipeline caches state derived from the classifier — the clean
    /// feature matrix, the hold-out accuracy, and the (L2-normalised) visual
    /// features inside both recommenders. A bare `&mut TinyResNet` accessor
    /// would let callers change the weights and silently leave all of that
    /// stale (and inconsistent with any checkpoint fingerprint). Instead,
    /// this scope fingerprints the weights before and after `f`: if they
    /// differ, the features, hold-out accuracy, and both models' visual
    /// features are recomputed from the mutated classifier. Gradient-only
    /// mutation (e.g. running an attack's backward pass) leaves the weights
    /// untouched and costs nothing beyond the fingerprint.
    pub fn with_classifier_mut<R>(&mut self, f: impl FnOnce(&mut TinyResNet) -> R) -> R {
        let before = weights_fingerprint(&mut self.classifier);
        let out = f(&mut self.classifier);
        if weights_fingerprint(&mut self.classifier) != before {
            self.refresh_classifier_dependents();
        }
        out
    }

    /// Recomputes every stage cached from the classifier: clean features,
    /// hold-out accuracy, and the recommenders' visual features.
    fn refresh_classifier_dependents(&mut self) {
        let _span = taamr_obs::span("stage:refresh-classifier-dependents");
        (self.features, self.cnn_holdout_accuracy) =
            catalog_features(&self.classifier, &self.catalog, &self.generated.dataset);
        let d = self.classifier.feature_dim();
        let mut rec_features = self.features.clone();
        l2_normalize_rows(&mut rec_features, d);
        for item in 0..self.generated.dataset.num_items() {
            let row = &rec_features[item * d..(item + 1) * d];
            self.vbpr.set_item_feature(item, row);
            self.amr.set_item_feature(item, row);
        }
    }

    /// Final-epoch training accuracy of the CNN.
    pub fn cnn_train_accuracy(&self) -> f32 {
        self.cnn_train_accuracy
    }

    /// Accuracy of the CNN on the (unseen) catalog renders.
    pub fn cnn_holdout_accuracy(&self) -> f32 {
        self.cnn_holdout_accuracy
    }

    /// Clean feature matrix (`num_items × D`, row-major).
    pub fn clean_features(&self) -> &[f32] {
        &self.features
    }

    /// The trained plain-VBPR model.
    pub fn vbpr(&self) -> &Vbpr {
        &self.vbpr
    }

    /// The trained AMR model.
    pub fn amr(&self) -> &Amr {
        &self.amr
    }

    /// A trained recommender by kind.
    pub fn model(&self, kind: ModelKind) -> &dyn Recommender {
        match kind {
            ModelKind::Vbpr => &self.vbpr,
            ModelKind::Amr => &self.amr,
        }
    }

    /// Unwraps a scoring-engine result at a call site that just `ensure`d
    /// the engine against a model it holds an immutable borrow of: the
    /// scoring version cannot move while the shared borrow is live, so a
    /// `StaleEngine` here is a logic bug, not a runtime condition.
    fn fresh<T>(result: Result<T, taamr_recsys::StaleEngine>) -> T {
        match result {
            Ok(v) => v,
            Err(e) => unreachable!("scoring engine stale under a shared model borrow: {e}"),
        }
    }

    /// The persistent scoring engine of one of the pipeline's own models.
    fn scorer(&self, kind: ModelKind) -> std::sync::MutexGuard<'_, ScoringEngine> {
        let idx = match kind {
            ModelKind::Vbpr => 0,
            ModelKind::Amr => 1,
        };
        self.scorers[idx].lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Top-`chr_n` recommendation lists for every user under `model`,
    /// excluding each user's consumed items. Scoring runs through a
    /// GEMM-backed [`ScoringEngine`] built for this call; users are ranked
    /// concurrently from batched score blocks, and the lists are identical
    /// to a serial per-user loop at every thread count.
    pub fn top_n_lists(&self, model: &dyn Recommender) -> Vec<Vec<usize>> {
        let dataset = self.dataset();
        let engine = ScoringEngine::for_model(model);
        debug_assert!(engine.is_fresh(model));
        Self::fresh(engine.par_top_n_all(model, self.config.chr_n, |u| dataset.user_items(u)))
    }

    /// Per-category CHR@N (×100, as the paper reports it) under `model`.
    pub fn chr_per_category(&self, model: &dyn Recommender) -> Vec<f64> {
        self.chr_from_lists(&self.top_n_lists(model))
    }

    /// CHR@N (×100) for one of the pipeline's own models, served through its
    /// persistent scoring engine — repeated evaluations (the grid computes a
    /// baseline per cell) reuse the cached item embeddings.
    fn chr_cached(&self, kind: ModelKind) -> Vec<f64> {
        let model = self.model(kind);
        let dataset = self.dataset();
        let mut engine = self.scorer(kind);
        engine.ensure(model);
        debug_assert!(engine.is_fresh(model));
        let lists =
            Self::fresh(engine.par_top_n_all(model, self.config.chr_n, |u| dataset.user_items(u)));
        self.chr_from_lists(&lists)
    }

    fn chr_from_lists(&self, lists: &[Vec<usize>]) -> Vec<f64> {
        category_hit_ratio_all(
            lists,
            self.dataset().item_categories(),
            self.dataset().num_categories(),
            self.config.chr_n,
        )
        .into_iter()
        .map(|v| v * 100.0)
        .collect()
    }

    /// Selects the paper's semantically similar and dissimilar scenarios
    /// from the given model's baseline CHR values.
    pub fn select_scenarios(
        &self,
        kind: ModelKind,
    ) -> (Option<AttackScenario>, Option<AttackScenario>) {
        let chr = self.chr_cached(kind);
        let sizes = self.dataset().category_sizes();
        // Need enough items for the attack statistics to mean anything.
        AttackScenario::select_pair(&chr, &sizes, 5)
    }

    /// Runs one attack configuration end-to-end and measures its impact.
    ///
    /// The spec's [`Surface`] picks the measurement path: pixel attacks
    /// (white-box or black-box) perturb every source-category image,
    /// re-extract features and re-rank; embedding attacks perturb the item
    /// feature vectors directly and re-rank. Both paths produce the same
    /// CHR / success-rate / perceptibility numbers, so every attacker family
    /// flows through the unchanged grid, checkpointing and replay machinery.
    ///
    /// # Errors
    ///
    /// An unusable scenario (e.g. an empty source category) or a failed
    /// attack (e.g. an overspent black-box query budget) becomes a
    /// [`PipelineError`] so a grid run can record the cell as failed and
    /// keep going.
    pub fn run_attack(
        &mut self,
        kind: ModelKind,
        spec: &AttackSpec,
        scenario: AttackScenario,
    ) -> Result<AttackOutcome, PipelineError> {
        match spec.surface() {
            Surface::Pixels => self.run_pixel_attack(kind, spec, scenario),
            Surface::Embeddings => self.run_embedding_attack(kind, spec, scenario),
        }
    }

    /// The attacked items of a scenario's source category, capped at this
    /// scale's per-cell limit.
    fn attack_items(&self, scenario: AttackScenario) -> Result<Vec<usize>, PipelineError> {
        let mut items = self.dataset().items_of_category(scenario.source.id());
        if items.is_empty() {
            return Err(PipelineError::AttackFailed {
                message: format!("source category {} has no items", scenario.source),
            });
        }
        if let Some(cap) = self.attack_item_cap() {
            items.truncate(cap);
        }
        Ok(items)
    }

    /// The probe users black-box and embedding attackers average scores
    /// over: a fixed prefix of the user base, capped so oracle queries stay
    /// cheap at every scale.
    fn probe_users(&self) -> std::ops::Range<usize> {
        0..self.dataset().num_users().min(32)
    }

    /// Per-item clean baseline scores `(item, probe-mean)` for a black-box
    /// cell, computed through the model's persistent [`ScoringEngine`] in
    /// ascending user order with an `f64` accumulator — bitwise the same
    /// mean the oracle's sandbox path produces, so "did the attack promote
    /// the item?" is judged against the serving-layer scores.
    fn oracle_baselines(
        &self,
        kind: ModelKind,
        items: &[usize],
        probes: std::ops::Range<usize>,
    ) -> Vec<(u64, f32)> {
        let model = self.model(kind);
        let mut engine = self.scorer(kind);
        engine.ensure(model);
        let mut block = taamr_recsys::ScoreBlock::new();
        let mut sums = vec![0.0f64; items.len()];
        let mut start = probes.start;
        while start < probes.end {
            let end = probes.end.min(start + taamr_recsys::SCORE_BLOCK_USERS);
            Self::fresh(engine.score_block(model, start..end, &mut block));
            for u in start..end {
                let row = block.row(u);
                for (sum, &item) in sums.iter_mut().zip(items) {
                    *sum += f64::from(row[item]);
                }
            }
            start = end;
        }
        let n = probes.len().max(1) as f64;
        items.iter().zip(sums).map(|(&item, sum)| (item as u64, (sum / n) as f32)).collect()
    }

    /// The pixel-surface measurement path shared by white-box and black-box
    /// attackers: perturb images, re-extract features, re-rank.
    fn run_pixel_attack(
        &mut self,
        kind: ModelKind,
        spec: &AttackSpec,
        scenario: AttackScenario,
    ) -> Result<AttackOutcome, PipelineError> {
        let source_id = scenario.source.id();
        let target_id = scenario.target.id();
        let items = self.attack_items(scenario)?;

        // Baseline CHR (before swapping features) — served from the model's
        // persistent embedding cache; only the first grid cell rebuilds it.
        let chr_before = self.chr_cached(kind);

        // Attack every selected item concurrently. Each item draws its own
        // RNG stream from a seed combining the experiment seed, the scenario
        // and the item id, so the outcome is bitwise independent of chunking
        // and thread count.
        let attack = spec.build();
        let goal = AttackGoal::Targeted(target_id);
        let d = self.classifier.feature_dim();
        let master = self.config.seed ^ (source_id as u64) << 8 ^ (target_id as u64) << 16;
        let item_ids: Vec<u64> = items.iter().map(|&item| item as u64).collect();
        let clean = self.catalog.batch(&items);
        let adv = if let AttackSpec::BlackBox { query_budget, .. } = spec {
            // Black-box cells hide the whole deployed pipeline (feature
            // extraction, normalisation, scoring) behind a budgeted score
            // oracle; clean baselines are batched through the persistent
            // engine up front so worker threads never rebuild scoring caches.
            let probes = self.probe_users();
            let baselines = self.oracle_baselines(kind, &items, probes.clone());
            match kind {
                ModelKind::Vbpr => {
                    let target = OracleTarget::new(
                        &self.classifier,
                        &self.vbpr,
                        probes,
                        *query_budget,
                        baselines,
                    );
                    attack.perturb_batch(&target, &clean, goal, master, &item_ids, 8)
                }
                ModelKind::Amr => {
                    let target = OracleTarget::new(
                        &self.classifier,
                        &self.amr,
                        probes,
                        *query_budget,
                        baselines,
                    );
                    attack.perturb_batch(&target, &clean, goal, master, &item_ids, 8)
                }
            }
        } else {
            let target = WhiteBoxTarget::new(&self.classifier);
            attack.perturb_batch(&target, &clean, goal, master, &item_ids, 8)
        }
        .map_err(|e| PipelineError::AttackFailed { message: e.to_string() })?;
        let successes = adv.success.iter().filter(|&&s| s).count();
        // Features of the attacked images.
        let attacked_features: Vec<f32> =
            par_features(&self.classifier, &adv.data, 16).into_vec();
        // Visual metrics, one independent job per image, collected in item
        // order and reduced serially.
        let adv_images =
            tensor_to_images(&adv.data).expect("attack preserves the NCHW image shape");
        let qualities: Vec<(f64, f64, f64)> = (0..items.len())
            .into_par_iter()
            .map(|k| {
                let item = items[k];
                let clean_img = self.catalog.image(item);
                let adv_img = &adv_images[k];
                let f_clean = &self.features[item * d..(item + 1) * d];
                let f_adv = &attacked_features[k * d..(k + 1) * d];
                (
                    psnr(clean_img, adv_img).expect("same sizes"),
                    ssim(clean_img, adv_img).expect("same sizes"),
                    psm(f_clean, f_adv).expect("same dims"),
                )
            })
            .collect();
        let mut quality_acc = QualityAccumulator::default();
        for (p, s, m) in qualities {
            quality_acc.add(p, s, m);
        }

        // Re-rank with swapped features on a scratch copy of the model. The
        // models consume L2-normalised features, so normalise the attacked
        // ones the same way (PSM above used the raw activations).
        let mut swapped = attacked_features.clone();
        l2_normalize_rows(&mut swapped, d);
        let chr_after = match kind {
            ModelKind::Vbpr => {
                let mut m = self.vbpr.clone();
                for (k, &item) in items.iter().enumerate() {
                    m.set_item_feature(item, &swapped[k * d..(k + 1) * d]);
                }
                self.chr_per_category(&m)
            }
            ModelKind::Amr => {
                let mut m = self.amr.clone();
                for (k, &item) in items.iter().enumerate() {
                    m.set_item_feature(item, &swapped[k * d..(k + 1) * d]);
                }
                self.chr_per_category(&m)
            }
        };

        Ok(AttackOutcome {
            attack: attack.name().to_owned(),
            epsilon_255: spec.epsilon_255(),
            model: kind,
            source: scenario.source.name().to_owned(),
            target: scenario.target.name().to_owned(),
            semantically_similar: scenario.is_semantically_similar(),
            chr_source_before: chr_before[source_id],
            chr_target_before: chr_before[target_id],
            chr_source_after: chr_after[source_id],
            success_rate: successes as f64 / items.len() as f64,
            visual: quality_acc.mean(),
            attacked_items: items.len(),
        })
    }

    /// The embedding-surface measurement path: perturb item feature vectors
    /// directly (no CNN in the loop), then re-rank with the perturbed rows.
    ///
    /// There are no images to compare, so the perceptibility cell reports
    /// the clamped-identical PSNR/SSIM and the PSM between clean and
    /// perturbed feature rows — the metric that actually lives on this
    /// surface.
    fn run_embedding_attack(
        &mut self,
        kind: ModelKind,
        spec: &AttackSpec,
        scenario: AttackScenario,
    ) -> Result<AttackOutcome, PipelineError> {
        let source_id = scenario.source.id();
        let target_id = scenario.target.id();
        let items = self.attack_items(scenario)?;
        let chr_before = self.chr_cached(kind);

        let attack = spec.build();
        let goal = AttackGoal::Targeted(target_id);
        let master = self.config.seed ^ (source_id as u64) << 8 ^ (target_id as u64) << 16;
        let item_ids: Vec<u64> = items.iter().map(|&item| item as u64).collect();
        // The clean payload: one feature row per attacked item, exactly as
        // the recommender holds them (already L2-normalised by training).
        let probes = self.probe_users();
        let (clean, adv) = match kind {
            ModelKind::Vbpr => {
                let clean = feature_rows(&self.vbpr, &items);
                let target = EmbedTarget::new(&self.vbpr, probes);
                let adv = attack.perturb_batch(&target, &clean, goal, master, &item_ids, 8);
                (clean, adv)
            }
            ModelKind::Amr => {
                let clean = feature_rows(&self.amr, &items);
                let target = EmbedTarget::new(&self.amr, probes);
                let adv = attack.perturb_batch(&target, &clean, goal, master, &item_ids, 8);
                (clean, adv)
            }
        };
        let adv = adv.map_err(|e| PipelineError::AttackFailed { message: e.to_string() })?;
        let successes = adv.success.iter().filter(|&&s| s).count();

        let d = clean.dims()[1];
        let mut quality_acc = QualityAccumulator::default();
        for k in 0..items.len() {
            let f_clean = &clean.as_slice()[k * d..(k + 1) * d];
            let f_adv = &adv.data.as_slice()[k * d..(k + 1) * d];
            // No pixels changed on this surface: PSNR is at the identical-
            // image clamp, SSIM at 1; PSM measures the feature drift.
            quality_acc.add(99.0, 1.0, psm(f_clean, f_adv).expect("same dims"));
        }

        // Re-rank with the perturbed rows swapped directly into a scratch
        // copy of the model — the attack already operates on the model's own
        // (normalised) feature scale, so no re-normalisation happens here.
        let chr_after = match kind {
            ModelKind::Vbpr => {
                let mut m = self.vbpr.clone();
                for (k, &item) in items.iter().enumerate() {
                    m.set_item_feature(item, &adv.data.as_slice()[k * d..(k + 1) * d]);
                }
                self.chr_per_category(&m)
            }
            ModelKind::Amr => {
                let mut m = self.amr.clone();
                for (k, &item) in items.iter().enumerate() {
                    m.set_item_feature(item, &adv.data.as_slice()[k * d..(k + 1) * d]);
                }
                self.chr_per_category(&m)
            }
        };

        Ok(AttackOutcome {
            attack: attack.name().to_owned(),
            epsilon_255: spec.epsilon_255(),
            model: kind,
            source: scenario.source.name().to_owned(),
            target: scenario.target.name().to_owned(),
            semantically_similar: scenario.is_semantically_similar(),
            chr_source_before: chr_before[source_id],
            chr_target_before: chr_before[target_id],
            chr_source_after: chr_after[source_id],
            success_rate: successes as f64 / items.len() as f64,
            visual: quality_acc.mean(),
            attacked_items: items.len(),
        })
    }

    /// The scenarios a paper experiment runs for `kind`: the configured
    /// overrides if present (the paper's named pairs), otherwise the
    /// CHR-based auto-selection.
    pub fn experiment_scenarios(&self, kind: ModelKind) -> Vec<AttackScenario> {
        if let Some(overrides) = &self.config.scenario_overrides {
            return overrides
                .iter()
                .map(|&(s, t)| {
                    AttackScenario::new(
                        Category::from_id(s).expect("valid source category id"),
                        Category::from_id(t).expect("valid target category id"),
                    )
                })
                .collect();
        }
        let (similar, dissimilar) = self.select_scenarios(kind);
        [similar, dissimilar].into_iter().flatten().collect()
    }

    /// The full attack grid in deterministic order. Cell ordinals index
    /// fault injection and per-cell checkpoints.
    ///
    /// Layout: the paper's pixel cells first (model × scenario × ε ×
    /// {FGSM, PGD}, in the pre-existing order), then the new attacker
    /// families (model × scenario × {black-box SPSA, EmbedSign, EmbedL2})
    /// appended at the end — so every pre-existing cell keeps its ordinal,
    /// checkpoint name, fault index and replay hash.
    fn attack_grid(&self) -> Vec<(ModelKind, AttackScenario, AttackSpec)> {
        let mut cells = Vec::new();
        for kind in ModelKind::ALL {
            for scenario in self.experiment_scenarios(kind) {
                for eps in Epsilon::paper_sweep() {
                    cells.push((kind, scenario, AttackSpec::Fgsm { epsilon_255: eps.as_255() }));
                    cells.push((kind, scenario, AttackSpec::Pgd { epsilon_255: eps.as_255() }));
                }
            }
        }
        for kind in ModelKind::ALL {
            for scenario in self.experiment_scenarios(kind) {
                cells.push((
                    kind,
                    scenario,
                    AttackSpec::BlackBox {
                        epsilon_255: 8.0,
                        steps: 2,
                        samples: 2,
                        query_budget: SpsaAttack::required_queries(2, 2),
                    },
                ));
                cells.push((kind, scenario, AttackSpec::EmbedSign { radius: 0.5, steps: 5 }));
                cells.push((kind, scenario, AttackSpec::EmbedL2 { radius: 0.5, steps: 5 }));
            }
        }
        cells
    }

    /// Computes one grid cell, degrading a failure into a [`CellError`]
    /// instead of aborting the experiment.
    fn run_cell(
        &mut self,
        ordinal: u64,
        (kind, scenario, spec): (ModelKind, AttackScenario, AttackSpec),
    ) -> CellRecord {
        let _span = taamr_obs::span("attack-cell");
        let result = if taamr_fault::fire(FaultSite::AttackCell, ordinal) {
            Err(PipelineError::AttackFailed { message: "injected cell fault".to_owned() })
        } else {
            self.run_attack(kind, &spec, scenario)
        };
        match result {
            Ok(outcome) => CellRecord { outcome: Some(outcome), error: None },
            Err(e) => CellRecord {
                outcome: None,
                error: Some(CellError {
                    model: kind,
                    attack: spec.name().to_owned(),
                    source: scenario.source.name().to_owned(),
                    target: scenario.target.name().to_owned(),
                    epsilon_255: spec.epsilon_255(),
                    message: e.to_string(),
                }),
            },
        }
    }

    /// Assembles the final report from completed cell records.
    fn report_from_cells(&self, cells: Vec<CellRecord>) -> DatasetReport {
        let mut outcomes = Vec::new();
        let mut errors = Vec::new();
        for cell in cells {
            if let Some(o) = cell.outcome {
                outcomes.push(o);
            }
            if let Some(e) = cell.error {
                errors.push(e);
            }
        }
        DatasetReport {
            dataset_name: self.config.dataset.name.clone(),
            stats: self.dataset().stats(&self.config.dataset.name),
            chr_n: self.config.chr_n,
            cnn_holdout_accuracy: self.cnn_holdout_accuracy,
            outcomes,
            errors,
        }
    }

    /// Runs the full per-dataset experiment: the paper's grid (both models,
    /// FGSM and 10-step PGD, both scenarios, all four ε values) plus one
    /// black-box SPSA cell and both embedding-space cells per model ×
    /// scenario.
    ///
    /// A cell that fails is recorded as a [`CellError`] in the report (the
    /// tables render a marked gap) rather than aborting the whole grid.
    ///
    /// With `run = Some(..)` every completed grid cell is additionally
    /// persisted atomically, so a run killed mid-grid resumes from the first
    /// missing cell and produces a byte-identical report. Corrupt cell
    /// checkpoints are detected by checksum, deleted, and recomputed.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] on checkpoint I/O failure or (in
    /// checkpointed runs) an injected grid interrupt; an uncheckpointed grid
    /// itself never fails — cells degrade into report gaps.
    pub fn run_paper_experiment(
        &mut self,
        run: Option<&RunDir>,
    ) -> Result<DatasetReport, PipelineError> {
        let grid = self.attack_grid();
        let mut records = Vec::with_capacity(grid.len());
        for (i, cell) in grid.into_iter().enumerate() {
            let ordinal = i as u64;
            let record = match run {
                None => self.run_cell(ordinal, cell),
                Some(run) => {
                    // Simulated kill immediately before this cell: completed
                    // cells keep their checkpoints, so a re-run resumes here.
                    if taamr_fault::fire(FaultSite::GridInterrupt, ordinal) {
                        return Err(PipelineError::Interrupted {
                            after_stage: format!("cell-{:03}", i.saturating_sub(1)),
                        });
                    }
                    let stage = format!("cell-{i:03}");
                    match run.load_stage::<CellRecord>(&stage) {
                        Some(cached) => cached,
                        None => {
                            let computed = self.run_cell(ordinal, cell);
                            run.save_stage(&stage, &computed)?;
                            computed
                        }
                    }
                }
            };
            taamr_replay::record_with(
                taamr_replay::CommandKind::AttackCell,
                &format!("cell-{i:03}"),
                || taamr_replay::json_hash(&record),
            );
            records.push(record);
        }
        let report = self.report_from_cells(records);
        taamr_replay::record_with(taamr_replay::CommandKind::Report, "report", || {
            taamr_replay::json_hash(&report)
        });
        Ok(report)
    }

    /// Reproduces Fig. 2: attacks one source-category item with PGD (ε = 8)
    /// and reports its class probabilities and mean recommendation rank
    /// before and after.
    pub fn figure2_example(&mut self, kind: ModelKind, scenario: AttackScenario) -> Figure2Report {
        self.figure2_example_at(kind, scenario, Epsilon::from_255(8.0))
    }

    /// [`Pipeline::figure2_example`] at a chosen budget. The paper uses
    /// ε = 8; our smaller CNN has larger decision margins, so ε = 16 shows
    /// the paper's fully-flipped regime.
    pub fn figure2_example_at(
        &mut self,
        kind: ModelKind,
        scenario: AttackScenario,
        eps: Epsilon,
    ) -> Figure2Report {
        let items = self.dataset().items_of_category(scenario.source.id());
        assert!(!items.is_empty(), "source category has no items");
        let pgd = Pgd::new(eps);
        let goal = AttackGoal::Targeted(scenario.target.id());
        // The paper's figure showcases a *successful* attack ("a real
        // example generated during the experimented attack"), so attack the
        // first 32 candidates concurrently — each with its own derived seed —
        // and keep the first one PGD actually flips to the target; fall back
        // to the first item if none flips at this ε.
        let candidates: Vec<usize> = items.iter().take(32).copied().collect();
        let master = self.config.seed ^ 0xF16;
        let candidate_ids: Vec<u64> = candidates.iter().map(|&c| c as u64).collect();
        let batch = self.catalog.batch(&candidates);
        let all = pgd
            .perturb_batch(
                &WhiteBoxTarget::new(&self.classifier),
                &batch,
                goal,
                master,
                &candidate_ids,
                4,
            )
            .expect("white-box PGD cannot fail on a white-box target");
        let k = all.success.iter().position(|&s| s).unwrap_or(0);
        let item = candidates[k];
        let sample_dims = [1, batch.dims()[1], batch.dims()[2], batch.dims()[3]];
        let sample_len: usize = sample_dims[1..].iter().product();
        let adv = AdversarialBatch {
            data: Tensor::from_vec(
                all.data.as_slice()[k * sample_len..(k + 1) * sample_len].to_vec(),
                &sample_dims,
            )
            .expect("row shape is consistent"),
            predictions: vec![all.predictions[k]],
            success: vec![all.success[k]],
        };
        let clean = self.catalog.batch(&[item]);

        let p_clean = self.classifier.probabilities(&clean);
        let p_adv = self.classifier.probabilities(&adv.data);
        let d = self.classifier.feature_dim();
        let f_adv = self.classifier.features(&adv.data);

        // Mean and best (minimum) rank across users: the mean shows the
        // population effect, the best rank is the closest analogue of the
        // paper's single-user "rec. position".
        let rank_stats = |model: &dyn Recommender, engine: &ScoringEngine| -> (f64, usize) {
            let dataset = self.dataset();
            // Rank users concurrently from batched score blocks, then reduce
            // the integer ranks serially (exact, order-independent sums).
            let ranks = Self::fresh(engine.par_item_ranks(model, item, |u| dataset.user_items(u)));
            let mut total = 0usize;
            let mut counted = 0usize;
            let mut best = usize::MAX;
            for r in ranks.into_iter().flatten() {
                total += r;
                counted += 1;
                best = best.min(r);
            }
            (total as f64 / counted.max(1) as f64, if best == usize::MAX { 0 } else { best })
        };

        let (rank_before, best_before) = {
            let model = self.model(kind);
            let mut engine = self.scorer(kind);
            engine.ensure(model);
            rank_stats(model, &engine)
        };
        let mut swapped = f_adv.as_slice()[0..d].to_vec();
        l2_normalize_rows(&mut swapped, d);
        let (rank_after, best_after) = match kind {
            ModelKind::Vbpr => {
                let mut m = self.vbpr.clone();
                m.set_item_feature(item, &swapped);
                rank_stats(&m, &ScoringEngine::for_model(&m))
            }
            ModelKind::Amr => {
                let mut m = self.amr.clone();
                m.set_item_feature(item, &swapped);
                rank_stats(&m, &ScoringEngine::for_model(&m))
            }
        };

        Figure2Report {
            item,
            source: scenario.source.name().to_owned(),
            target: scenario.target.name().to_owned(),
            epsilon_255: eps.as_255(),
            source_prob_before: f64::from(p_clean.at(&[0, scenario.source.id()])),
            target_prob_before: f64::from(p_clean.at(&[0, scenario.target.id()])),
            source_prob_after: f64::from(p_adv.at(&[0, scenario.source.id()])),
            target_prob_after: f64::from(p_adv.at(&[0, scenario.target.id()])),
            predicted_after: Category::from_id(adv.predictions[0])
                .map(|c| c.name().to_owned())
                .unwrap_or_else(|| format!("class {}", adv.predictions[0])),
            mean_rank_before: rank_before,
            mean_rank_after: rank_after,
            best_rank_before: best_before,
            best_rank_after: best_after,
        }
    }

    /// Runs the *item-to-item* feature-matching attack — the paper's stated
    /// future work ("a finer-grained visual attack to address a single item
    /// even within the same category"): perturb `source_item`'s image so its
    /// layer-`e` features match `victim_item`'s, then measure how far the
    /// source item climbs toward the victim's recommendation standing.
    ///
    /// # Panics
    ///
    /// Panics if either item id is out of range or the ids are equal.
    pub fn run_item_to_item_attack(
        &mut self,
        kind: ModelKind,
        source_item: usize,
        victim_item: usize,
        epsilon: Epsilon,
    ) -> ItemToItemOutcome {
        let n_items = self.dataset().num_items();
        assert!(source_item < n_items && victim_item < n_items, "item id out of range");
        assert_ne!(source_item, victim_item, "source and victim must differ");

        let clean = self.catalog.batch(&[source_item]);
        let victim_image = self.catalog.batch(&[victim_item]);
        let target_features = self.classifier.features(&victim_image);
        let attack = FeatureMatch::new(epsilon, 10);
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (source_item as u64) << 4 ^ (victim_item as u64) << 24,
        );
        let result = attack.perturb(&mut self.classifier, &clean, &target_features, &mut rng);
        let d = self.classifier.feature_dim();
        let f_adv = self.classifier.features(&result.images);

        let mean_rank = |model: &dyn Recommender, engine: &ScoringEngine, item: usize| -> f64 {
            let dataset = self.dataset();
            let ranks = Self::fresh(engine.par_item_ranks(model, item, |u| dataset.user_items(u)));
            let (total, counted) = ranks
                .into_iter()
                .flatten()
                .fold((0usize, 0usize), |(t, c), r| (t + r, c + 1));
            total as f64 / counted.max(1) as f64
        };
        let (rank_before, victim_rank) = {
            let model = self.model(kind);
            let mut engine = self.scorer(kind);
            engine.ensure(model);
            (
                mean_rank(model, &engine, source_item),
                mean_rank(model, &engine, victim_item),
            )
        };
        let mut swapped = f_adv.as_slice()[0..d].to_vec();
        l2_normalize_rows(&mut swapped, d);
        let rank_after = match kind {
            ModelKind::Vbpr => {
                let mut m = self.vbpr.clone();
                m.set_item_feature(source_item, &swapped);
                mean_rank(&m, &ScoringEngine::for_model(&m), source_item)
            }
            ModelKind::Amr => {
                let mut m = self.amr.clone();
                m.set_item_feature(source_item, &swapped);
                mean_rank(&m, &ScoringEngine::for_model(&m), source_item)
            }
        };

        ItemToItemOutcome {
            source_item,
            victim_item,
            epsilon_255: epsilon.as_255(),
            model: kind,
            feature_distance_reduction: result.distance_reduction(),
            mean_rank_before: rank_before,
            mean_rank_after: rank_after,
            victim_mean_rank: victim_rank,
        }
    }

    /// Items attacked per category at this scale (`None` = all; Medium caps
    /// at 120 to bound wall-clock — the cap is logged in the outcome's
    /// `attacked_items`).
    fn attack_item_cap(&self) -> Option<usize> {
        if self.config.cnn.train_images_per_category >= 80 {
            None // Full scale: attack the whole category, as the paper does.
        } else {
            Some(120)
        }
    }
}

/// The clean feature rows of `items` as an `[n, d]` tensor, copied from the
/// recommender's own item-feature matrix — the clean payload of
/// embedding-surface attacks.
fn feature_rows<M: VisualRecommender>(model: &M, items: &[usize]) -> Tensor {
    let d = model.feature_dim();
    let mut rows = Vec::with_capacity(items.len() * d);
    for &item in items {
        rows.extend_from_slice(model.item_feature(item));
    }
    Tensor::from_vec(rows, &[items.len(), d]).expect("row-major feature matrix")
}

/// FNV-1a fingerprint of a network's weight bits; used by
/// [`Pipeline::with_classifier_mut`] to detect actual weight mutation
/// (gradient buffers are not part of the state vector).
fn weights_fingerprint(net: &mut TinyResNet) -> u64 {
    let state = net.state_vec();
    let mut bytes = Vec::with_capacity(state.len() * 4);
    for v in state {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// Accumulates per-image quality metrics into means.
#[derive(Debug, Default)]
struct QualityAccumulator {
    psnr_sum: f64,
    ssim_sum: f64,
    psm_sum: f64,
    count: usize,
}

impl QualityAccumulator {
    fn add(&mut self, psnr: f64, ssim: f64, psm: f64) {
        // Identical images give infinite PSNR; clamp to a large finite dB so
        // means stay meaningful.
        self.psnr_sum += psnr.min(99.0);
        self.ssim_sum += ssim;
        self.psm_sum += psm;
        self.count += 1;
    }

    fn mean(&self) -> VisualQuality {
        let n = self.count.max(1) as f64;
        VisualQuality {
            psnr: self.psnr_sum / n,
            ssim: self.ssim_sum / n,
            psm: self.psm_sum / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentScale;

    fn tiny_pipeline() -> Pipeline {
        Pipeline::build(&PipelineConfig::for_scale(ExperimentScale::Tiny)).unwrap()
    }

    #[test]
    fn build_produces_consistent_state() {
        let p = tiny_pipeline();
        let d = p.dataset();
        assert!(d.num_users() > 0 && d.num_items() > 0);
        assert_eq!(p.catalog().len(), d.num_items());
        assert_eq!(p.clean_features().len(), d.num_items() * p.config().feature_dim());
        assert!(p.cnn_train_accuracy() >= 0.0);
    }

    #[test]
    fn chr_sums_to_full_occupancy() {
        let p = tiny_pipeline();
        let chr = p.chr_per_category(p.model(ModelKind::Vbpr));
        assert_eq!(chr.len(), Category::COUNT);
        // Every top-N slot is filled (more items than N), so ×100 CHR values
        // sum to 100.
        let total: f64 = chr.iter().sum();
        assert!((total - 100.0).abs() < 1.0, "total {total}");
    }

    #[test]
    fn scenarios_are_selected_with_low_source_chr() {
        let p = tiny_pipeline();
        let chr = p.chr_per_category(p.model(ModelKind::Vbpr));
        let (similar, dissimilar) = p.select_scenarios(ModelKind::Vbpr);
        for s in [similar, dissimilar].into_iter().flatten() {
            assert!(chr[s.source.id()] <= chr[s.target.id()],
                "source should not out-rank target: {s}");
        }
    }

    #[test]
    fn run_attack_produces_valid_outcome() {
        let mut p = tiny_pipeline();
        let (similar, dissimilar) = p.select_scenarios(ModelKind::Vbpr);
        let scenario = similar.or(dissimilar).expect("a scenario exists at tiny scale");
        let spec = AttackSpec::Fgsm { epsilon_255: 8.0 };
        let outcome = p.run_attack(ModelKind::Vbpr, &spec, scenario).unwrap();
        assert_eq!(outcome.attack, "FGSM");
        assert!(outcome.attacked_items > 0);
        assert!((0.0..=1.0).contains(&outcome.success_rate));
        assert!(outcome.chr_source_before >= 0.0);
        assert!(outcome.chr_source_after >= 0.0);
        assert!(outcome.visual.psnr > 20.0, "psnr {}", outcome.visual.psnr);
        assert!(outcome.visual.ssim > 0.5);
        assert!(outcome.visual.psm >= 0.0);
    }

    #[test]
    fn black_box_and_embedding_specs_flow_through_the_same_pipeline() {
        let mut p = tiny_pipeline();
        let (similar, dissimilar) = p.select_scenarios(ModelKind::Vbpr);
        let scenario = similar.or(dissimilar).expect("a scenario exists at tiny scale");
        let specs = [
            AttackSpec::BlackBox {
                epsilon_255: 8.0,
                steps: 2,
                samples: 1,
                query_budget: taamr_attack::SpsaAttack::required_queries(2, 1),
            },
            AttackSpec::EmbedSign { radius: 0.5, steps: 5 },
            AttackSpec::EmbedL2 { radius: 0.5, steps: 5 },
        ];
        for spec in specs {
            let outcome = p.run_attack(ModelKind::Vbpr, &spec, scenario).unwrap();
            assert_eq!(outcome.attack, spec.name());
            assert!(outcome.attacked_items > 0);
            assert!((0.0..=1.0).contains(&outcome.success_rate), "{}", spec.name());
            assert!(outcome.chr_source_after >= 0.0);
            assert!(outcome.visual.psm >= 0.0);
        }
    }

    #[test]
    fn starved_black_box_cell_degrades_to_a_typed_pipeline_error() {
        let mut p = tiny_pipeline();
        let (similar, dissimilar) = p.select_scenarios(ModelKind::Vbpr);
        let scenario = similar.or(dissimilar).expect("a scenario exists at tiny scale");
        let spec =
            AttackSpec::BlackBox { epsilon_255: 8.0, steps: 2, samples: 1, query_budget: 0 };
        let err = p
            .run_attack(ModelKind::Vbpr, &spec, scenario)
            .expect_err("a zero query budget must fail");
        assert!(
            err.to_string().contains("query budget exhausted"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn attack_spec_round_trips_through_serde_and_matches_built_names() {
        for spec in [
            AttackSpec::Fgsm { epsilon_255: 8.0 },
            AttackSpec::Bim { epsilon_255: 4.0, steps: 3 },
            AttackSpec::Pgd { epsilon_255: 16.0 },
            AttackSpec::BlackBox { epsilon_255: 8.0, steps: 2, samples: 2, query_budget: 10 },
            AttackSpec::EmbedSign { radius: 0.5, steps: 5 },
            AttackSpec::EmbedL2 { radius: 0.25, steps: 3 },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: AttackSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
            assert_eq!(spec.build().name(), spec.name());
        }
    }

    #[test]
    fn item_to_item_attack_produces_valid_outcome() {
        let mut p = tiny_pipeline();
        let items = p.dataset().items_of_category(0);
        let (source, victim) = if items.len() >= 2 {
            (items[0], items[1])
        } else {
            (0, 1)
        };
        let o = p.run_item_to_item_attack(
            ModelKind::Vbpr,
            source,
            victim,
            Epsilon::from_255(16.0),
        );
        assert_eq!(o.source_item, source);
        assert_eq!(o.victim_item, victim);
        assert!(o.feature_distance_reduction >= 0.0);
        assert!(o.mean_rank_before >= 1.0);
        assert!(o.mean_rank_after >= 1.0);
        assert!(o.victim_mean_rank >= 1.0);
    }

    #[test]
    fn item_to_item_attack_outcome_is_pinned_and_leaves_the_classifier_grads() {
        let mut p = tiny_pipeline();
        let grad_bits = |p: &mut Pipeline| -> Vec<u32> {
            p.classifier
                .params_mut()
                .iter()
                .flat_map(|q| q.grad.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        let grads_before = grad_bits(&mut p);
        let items = p.dataset().items_of_category(0);
        let (source, victim) = (items[0], items[1]);
        // Outcome bits recorded when both loss probes still ran a full
        // backward: the forward-only probes and the input-only backward
        // must not move them.
        let pinned = [
            (ModelKind::Vbpr, 0x404c_64ec_4ec4_ec4f_u64, 0x4046_53b1_3b13_b13b_u64, 0x4045_8276_2762_7627_u64),
            (ModelKind::Amr, 0x4051_2b13_b13b_13b1, 0x4051_2b13_b13b_13b1, 0x404d_bb13_b13b_13b1),
        ];
        for (kind, before, after, victim_rank) in pinned {
            let o = p.run_item_to_item_attack(kind, source, victim, Epsilon::from_255(16.0));
            assert_eq!((o.source_item, o.victim_item), (75, 114));
            assert_eq!(o.feature_distance_reduction.to_bits(), 0x3f78_9553);
            assert_eq!(o.mean_rank_before.to_bits(), before);
            assert_eq!(o.mean_rank_after.to_bits(), after);
            assert_eq!(o.victim_mean_rank.to_bits(), victim_rank);
        }
        assert_eq!(grad_bits(&mut p), grads_before, "the attack moved the classifier's gradients");
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn item_to_item_rejects_equal_items() {
        let mut p = tiny_pipeline();
        p.run_item_to_item_attack(ModelKind::Vbpr, 0, 0, Epsilon::from_255(8.0));
    }

    #[test]
    fn figure2_probabilities_are_distributions() {
        let mut p = tiny_pipeline();
        let (similar, dissimilar) = p.select_scenarios(ModelKind::Vbpr);
        let scenario = similar.or(dissimilar).expect("a scenario exists");
        let fig = p.figure2_example(ModelKind::Vbpr, scenario);
        for v in [
            fig.source_prob_before,
            fig.target_prob_before,
            fig.source_prob_after,
            fig.target_prob_after,
        ] {
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(fig.mean_rank_before >= 1.0);
        assert!(fig.mean_rank_after >= 1.0);
    }
}
