//! GEMM-backed full-catalog scoring: item-embedding caches, batched score
//! blocks, and allocation-free top-N / rank evaluation.
//!
//! The paper's headline measurements (CHR@N tables, Fig. 2 rank shifts)
//! reduce to scoring *every user against every item*. The scalar path does
//! that one `(user, item)` pair at a time — for VBPR it even recomputes the
//! user-independent projection `E f_i` per pair. This module routes the same
//! computation through `taamr-tensor`'s cache-blocked GEMM:
//!
//! * [`CatalogPlan`] — the per-model item-side cache: the combined static
//!   term per item (for VBPR: `b_i + βᵀ f_i` with `b_vis = F·β` built by one
//!   GEMM) plus one factor term per bilinear pathway (for VBPR: `Q` and the
//!   visual embedding matrix `V = F·E`, also GEMM-built). Models describe
//!   themselves via [`Recommender::catalog_plan`](crate::Recommender::catalog_plan).
//! * [`ScoringEngine`] — owns the cached plan keyed by the model's monotone
//!   [`scoring_version`](crate::Recommender::scoring_version); `ensure`
//!   rebuilds precisely when the version moved (a training step or
//!   `set_item_feature` call), mirroring the pipeline's weight-fingerprint
//!   invalidation idiom.
//! * [`ScoreBlock`] — caller-owned reusable output: scores for a contiguous
//!   block of users materialise as `S = static + Σ_t U_t · I_tᵀ` (two GEMMs
//!   for VBPR) into a grow-only tensor, with staging and packing scratch
//!   reused across blocks.
//!
//! # Determinism
//!
//! Batched scores are **bitwise identical** to the scalar
//! [`Recommender::score`](crate::Recommender::score) at every thread count.
//! The per-element argument: the GEMM contract fixes each output element to
//! `beta`-scaled start + ascending [`GEMM_KC`]-blocked partial sums,
//! independent of threading and of the `m`/`n` partition — so a row of a
//! `ScoreBlock` equals `static[i]` followed by exactly the per-term
//! [`dot_blocked`] sequence the scalar path computes. Fan-out over user
//! blocks uses a fixed block size ([`SCORE_BLOCK_USERS`]), so counter values
//! and results are invariant under the thread count; the inner GEMMs run on
//! the canonical schedule regardless of how blocks were distributed.

use std::fmt;
use std::ops::Range;

use rayon::prelude::*;
use taamr_tensor::{
    gemm_blocked, GemmScratch, Tensor, Transpose, GEMM_BLOCKING,
};

use crate::recommend::{item_rank_with, top_n_with, SelectionScratch};
use crate::shard::ShardPlan;
use crate::Recommender;

/// Users per batched scoring block. Fixed (not thread-derived) so the GEMM
/// call pattern — and every derived telemetry counter — is identical at any
/// thread count.
pub const SCORE_BLOCK_USERS: usize = 64;

/// Builds a rank-2 tensor from data whose length is a struct invariant of
/// the calling model.
pub(crate) fn tensor_2d(data: Vec<f32>, rows: usize, cols: usize) -> Tensor {
    match Tensor::from_vec(data, &[rows, cols]) {
        Ok(t) => t,
        Err(e) => panic!("scoring plan shape invariant violated: {e}"),
    }
}

/// One GEMM on the scoring path: `C = A·op(B) + beta·C` on the canonical
/// blocking, counted in the `scoring_gemm_calls` telemetry.
pub(crate) fn scoring_gemm(
    a: &Tensor,
    b: &Tensor,
    tb: Transpose,
    beta: f32,
    c: &mut Tensor,
    scratch: &mut GemmScratch,
) {
    taamr_obs::incr(taamr_obs::Counter::ScoringGemmCalls);
    if let Err(e) = gemm_blocked(1.0, a, Transpose::No, b, tb, beta, c, GEMM_BLOCKING, scratch) {
        panic!("scoring engine gemm failed: {e}");
    }
}

/// One bilinear pathway of a [`CatalogPlan`]: per-user factors (supplied by
/// the model at score time via
/// [`Recommender::user_term_rows`](crate::Recommender::user_term_rows))
/// against a cached `num_items × dim` item-side matrix.
#[derive(Debug, Clone)]
struct PlanTerm {
    /// Latent dimension of this pathway.
    dim: usize,
    /// Item-side factors, row-major `num_items × dim`.
    items: Tensor,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PlanKind {
    /// `S = static + Σ_t U_t · I_tᵀ` via GEMM.
    Gemm,
    /// No bilinear decomposition: block scoring falls back to per-user
    /// [`Recommender::score_into`](crate::Recommender::score_into) rows.
    Scalar,
}

/// The item-side scoring cache one model instance describes itself with.
///
/// GEMM-backed plans hold everything user-independent: the per-item static
/// term and the item matrices of each factor term. User-side factors are
/// *not* copied — the engine reads them from the live model per block, so
/// the cache stays valid across pure user-factor reads and its memory cost
/// is `O(num_items · Σ dim)`.
#[derive(Debug, Clone)]
pub struct CatalogPlan {
    num_users: usize,
    num_items: usize,
    /// Per-item user-independent score term (biases + cached visual bias).
    pub(crate) static_term: Vec<f32>,
    terms: Vec<PlanTerm>,
    kind: PlanKind,
}

impl CatalogPlan {
    /// A scalar fallback plan: batched scoring fills each row through the
    /// model's `score_into`. Correct for any model, no GEMM speedup.
    pub fn scalar(num_users: usize, num_items: usize) -> Self {
        CatalogPlan {
            num_users,
            num_items,
            static_term: Vec::new(),
            terms: Vec::new(),
            kind: PlanKind::Scalar,
        }
    }

    /// A GEMM-backed plan with the given per-item static term; add factor
    /// terms with [`CatalogPlan::with_term`].
    ///
    /// # Panics
    ///
    /// Panics if `static_term.len() != num_items`.
    pub fn gemm(num_users: usize, num_items: usize, static_term: Vec<f32>) -> Self {
        assert_eq!(static_term.len(), num_items, "static term must cover every item");
        CatalogPlan { num_users, num_items, static_term, terms: Vec::new(), kind: PlanKind::Gemm }
    }

    /// Adds one bilinear factor term with the given `num_items × dim`
    /// item-side matrix. Terms are applied in insertion order — the order
    /// must match the model's scalar summation sequence for bitwise
    /// equality.
    ///
    /// # Panics
    ///
    /// Panics if `items` is not rank-2 with `num_items` rows.
    #[must_use]
    pub fn with_term(mut self, items: Tensor) -> Self {
        assert_eq!(self.kind, PlanKind::Gemm, "factor terms require a gemm plan");
        assert_eq!(items.rank(), 2, "item factors must be a matrix");
        assert_eq!(items.dims()[0], self.num_items, "item factors must cover every item");
        self.terms.push(PlanTerm { dim: items.dims()[1], items });
        self
    }

    /// Number of users the plan was built for.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items the plan covers.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of bilinear factor terms (0 for popularity, 1 for BPR-MF,
    /// 2 for VBPR/AMR).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }
}

/// Caller-owned reusable output of [`ScoringEngine::score_block`]: the score
/// matrix for one contiguous user block, plus the staging and GEMM-packing
/// scratch the block computation needs. All buffers grow to their high-water
/// mark and are reused across blocks — steady-state evaluation loops stop
/// allocating entirely.
#[derive(Debug, Default)]
pub struct ScoreBlock {
    pub(crate) users: Range<usize>,
    /// `users.len() × num_items` scores, row-major.
    pub(crate) scores: Tensor,
    /// Staging for the block's user factors (`users.len() × dim`).
    pub(crate) staging: Tensor,
    pub(crate) scratch: GemmScratch,
}

impl ScoreBlock {
    /// Creates an empty block; the first `score_block` call sizes it.
    pub fn new() -> Self {
        ScoreBlock {
            users: 0..0,
            scores: Tensor::zeros(&[0, 0]),
            staging: Tensor::zeros(&[0, 0]),
            scratch: GemmScratch::new(),
        }
    }

    /// The user range the block currently holds scores for.
    pub fn users(&self) -> Range<usize> {
        self.users.clone()
    }

    /// Number of items per row.
    pub fn num_items(&self) -> usize {
        if self.scores.rank() == 2 { self.scores.dims()[1] } else { 0 }
    }

    /// The full score row of `user`.
    ///
    /// # Panics
    ///
    /// Panics if `user` is outside the block's user range.
    pub fn row(&self, user: usize) -> &[f32] {
        assert!(
            self.users.contains(&user),
            "user {user} is not in the scored block {:?}",
            self.users
        );
        let ni = self.num_items();
        let r = user - self.users.start;
        &self.scores.as_slice()[r * ni..(r + 1) * ni]
    }

    /// Iterates `(user, score_row)` pairs in user order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[f32])> + '_ {
        self.users.clone().map(move |u| (u, self.row(u)))
    }
}

/// The engine's cached plan does not match the live model: either
/// [`ScoringEngine::ensure`] was never called, or the model mutated (an SGD
/// step, a feature swap) after the last `ensure`.
///
/// Serving code treats this as a *refresh signal* — call `ensure` again and
/// retry — rather than dying; a long-lived actor wrapping an engine must
/// survive a model update racing a request. Pipeline code, which always
/// ensures under the same lock it scores under, treats it as unreachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEngine {
    /// Scoring version the cache was built at; `None` when `ensure` was
    /// never called.
    pub cached: Option<u64>,
    /// The model's scoring version at the failed read.
    pub live: u64,
}

impl fmt::Display for StaleEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cached {
            None => write!(
                f,
                "scoring engine used before ensure(): model is at version {}",
                self.live
            ),
            Some(cached) => write!(
                f,
                "stale scoring cache: built at model version {cached}, model is at {}; \
                 call ensure(model) again before scoring",
                self.live
            ),
        }
    }
}

impl std::error::Error for StaleEngine {}

#[derive(Debug)]
struct PlanCache {
    version: u64,
    plan: CatalogPlan,
}

/// A per-model-instance scoring engine: caches the model's [`CatalogPlan`]
/// and serves batched full-catalog evaluation from it.
///
/// The cache is keyed by
/// [`Recommender::scoring_version`](crate::Recommender::scoring_version) — a
/// monotone counter models bump on every mutation (SGD step, feature swap).
/// [`ScoringEngine::ensure`] is therefore *precise*: it rebuilds exactly
/// when the model changed and is a counter comparison otherwise. Using one
/// engine across different model instances defeats that keying; hold one
/// engine per model you evaluate.
#[derive(Debug, Default)]
pub struct ScoringEngine {
    cache: Option<PlanCache>,
}

impl ScoringEngine {
    /// Creates an engine with an empty cache.
    pub fn new() -> Self {
        ScoringEngine { cache: None }
    }

    /// Creates an engine and builds the cache for `model` immediately.
    pub fn for_model<M: Recommender + ?Sized>(model: &M) -> Self {
        let mut engine = Self::new();
        engine.ensure(model);
        engine
    }

    /// Whether the cache is present and matches `model`'s current version.
    pub fn is_fresh<M: Recommender + ?Sized>(&self, model: &M) -> bool {
        self.cache.as_ref().is_some_and(|c| {
            c.version == model.scoring_version()
                && c.plan.num_users == model.num_users()
                && c.plan.num_items == model.num_items()
        })
    }

    /// Brings the item-embedding cache up to date with `model`. Returns
    /// `true` if the plan was (re)built, `false` on a cache hit. Hits and
    /// rebuilds are counted in the `embed_cache_hits` /
    /// `embed_cache_rebuilds` telemetry.
    pub fn ensure<M: Recommender + ?Sized>(&mut self, model: &M) -> bool {
        if self.is_fresh(model) {
            taamr_obs::incr(taamr_obs::Counter::EmbedCacheHits);
            return false;
        }
        self.cache =
            Some(PlanCache { version: model.scoring_version(), plan: model.catalog_plan() });
        taamr_obs::incr(taamr_obs::Counter::EmbedCacheRebuilds);
        true
    }

    /// The cached plan, or a typed [`StaleEngine`] error naming the misuse.
    /// Keeping this check in one place makes silent stale reads
    /// *impossible*: every scoring entry point revalidates the version
    /// against the live model, and a mismatch surfaces as an error the
    /// caller can convert into an `ensure`-and-retry.
    fn plan<M: Recommender + ?Sized>(&self, model: &M) -> Result<&CatalogPlan, StaleEngine> {
        self.cache_checked(model).map(|c| &c.plan)
    }

    /// The full validated cache entry (plan + the version it was built at).
    fn cache_checked<M: Recommender + ?Sized>(
        &self,
        model: &M,
    ) -> Result<&PlanCache, StaleEngine> {
        let Some(cache) = &self.cache else {
            return Err(StaleEngine { cached: None, live: model.scoring_version() });
        };
        if cache.version != model.scoring_version()
            || cache.plan.num_users != model.num_users()
            || cache.plan.num_items != model.num_items()
        {
            return Err(StaleEngine { cached: Some(cache.version), live: model.scoring_version() });
        }
        Ok(cache)
    }

    /// Scores every item for the contiguous user block `users`, writing the
    /// `users.len() × num_items` matrix into `out`.
    ///
    /// Each row is bitwise identical to the scalar
    /// [`Recommender::score`](crate::Recommender::score) over the same user,
    /// at every thread count (see the module docs for the argument).
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or the model mutated
    /// after the last [`ScoringEngine::ensure`]; refresh with `ensure` and
    /// retry.
    ///
    /// # Panics
    ///
    /// Panics if `users` is out of range.
    pub fn score_block<M: Recommender + ?Sized>(
        &self,
        model: &M,
        users: Range<usize>,
        out: &mut ScoreBlock,
    ) -> Result<(), StaleEngine> {
        let plan = self.plan(model)?;
        assert!(
            users.start <= users.end && users.end <= plan.num_users,
            "user block {users:?} out of range for {} users",
            plan.num_users
        );
        let b = users.len();
        let ni = plan.num_items;
        let ScoreBlock { users: out_users, scores, staging, scratch, .. } = out;
        *out_users = users.clone();
        scores.reset_to_zeros(&[b, ni]);
        match plan.kind {
            PlanKind::Scalar => {
                let rows = scores.as_mut_slice();
                for (r, u) in users.enumerate() {
                    model.score_into(u, &mut rows[r * ni..(r + 1) * ni]);
                }
            }
            PlanKind::Gemm => {
                let rows = scores.as_mut_slice();
                for r in 0..b {
                    rows[r * ni..(r + 1) * ni].copy_from_slice(&plan.static_term);
                }
                for (t, term) in plan.terms.iter().enumerate() {
                    let user_rows = model.user_term_rows(t, users.clone());
                    assert_eq!(
                        user_rows.len(),
                        b * term.dim,
                        "model returned a mis-sized user factor block for term {t}"
                    );
                    staging.reset_to_copy(&[b, term.dim], user_rows);
                    scoring_gemm(staging, &term.items, Transpose::Yes, 1.0, scores, scratch);
                }
            }
        }
        Ok(())
    }

    /// Scores every item for an arbitrary *gathered* list of users — the
    /// batched entry point behind request coalescing in the serving layer:
    /// concurrent single-user requests for the same model are answered by
    /// one `score_gather` call whose GEMMs amortise the item-side traversal
    /// across all of them.
    ///
    /// Unlike [`ScoringEngine::score_block`], `users` need not be contiguous,
    /// sorted, or duplicate-free. On return `out.users()` is
    /// `0..users.len()` and `out.row(i)` holds the score row of `users[i]`
    /// (positional indexing — the block does not remember the original user
    /// ids).
    ///
    /// Each row is **bitwise identical** to the corresponding single-user
    /// [`ScoringEngine::score_block`] row (and therefore to the scalar
    /// [`Recommender::score`](crate::Recommender::score)), at every thread
    /// count and for every batch composition: the GEMM contract fixes each
    /// output element to `beta`-scaled start + ascending KC-blocked partial
    /// sums independent of the `m`/`n` partition, so adding more rows to the
    /// batch cannot change any existing row's bits.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or the model mutated
    /// after the last [`ScoringEngine::ensure`]; refresh with `ensure` and
    /// retry.
    ///
    /// # Panics
    ///
    /// Panics if any user in `users` is out of range.
    pub fn score_gather<M: Recommender + ?Sized>(
        &self,
        model: &M,
        users: &[usize],
        out: &mut ScoreBlock,
    ) -> Result<(), StaleEngine> {
        let plan = self.plan(model)?;
        for &u in users {
            assert!(u < plan.num_users, "user {u} out of range for {} users", plan.num_users);
        }
        let b = users.len();
        let ni = plan.num_items;
        let ScoreBlock { users: out_users, scores, staging, scratch, .. } = out;
        *out_users = 0..b;
        scores.reset_to_zeros(&[b, ni]);
        match plan.kind {
            PlanKind::Scalar => {
                let rows = scores.as_mut_slice();
                for (r, &u) in users.iter().enumerate() {
                    model.score_into(u, &mut rows[r * ni..(r + 1) * ni]);
                }
            }
            PlanKind::Gemm => {
                let rows = scores.as_mut_slice();
                for r in 0..b {
                    rows[r * ni..(r + 1) * ni].copy_from_slice(&plan.static_term);
                }
                for (t, term) in plan.terms.iter().enumerate() {
                    // Gather the batch's user factors row by row: the trait
                    // only promises borrowed slices for *contiguous* user
                    // ranges, so each gathered user contributes its own
                    // single-row range.
                    staging.reset_to_zeros(&[b, term.dim]);
                    let stage_rows = staging.as_mut_slice();
                    for (r, &u) in users.iter().enumerate() {
                        let row = model.user_term_rows(t, u..u + 1);
                        assert_eq!(
                            row.len(),
                            term.dim,
                            "model returned a mis-sized user factor row for term {t}"
                        );
                        stage_rows[r * term.dim..(r + 1) * term.dim].copy_from_slice(row);
                    }
                    scoring_gemm(staging, &term.items, Transpose::Yes, 1.0, scores, scratch);
                }
            }
        }
        Ok(())
    }

    /// Top-`n` lists for every user, served from batched score blocks on
    /// worker threads under the default [`ShardPlan`]. Results are identical
    /// to calling [`Recommender::top_n`](crate::Recommender::top_n) in a
    /// serial loop, for every thread count and every shard plan.
    ///
    /// `seen_of(u)` supplies the items to exclude for user `u`; sorted
    /// seen-lists (as [`taamr_data::ImplicitDataset::user_items`] returns)
    /// take the allocation-free merge path.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or stale; refresh
    /// with [`ScoringEngine::ensure`] and retry.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn par_top_n_all<'a, M, F>(
        &self,
        model: &M,
        n: usize,
        seen_of: F,
    ) -> Result<Vec<Vec<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        self.par_top_n_all_sharded(model, n, seen_of, &ShardPlan::default_for(model.num_users()))
    }

    /// [`ScoringEngine::par_top_n_all`] streaming over an explicit
    /// [`ShardPlan`]: one bounded parallel region per shard, so peak
    /// resident score memory is `O(min(shard, threads ·
    /// [`SCORE_BLOCK_USERS`]) × items)` — never `O(users × items)`.
    /// Sharding is bitwise invisible (see the [`crate::shard`] module docs).
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or stale.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `plan` does not cover the model's users.
    pub fn par_top_n_all_sharded<'a, M, F>(
        &self,
        model: &M,
        n: usize,
        seen_of: F,
        plan: &ShardPlan,
    ) -> Result<Vec<Vec<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        assert!(n > 0, "n must be positive");
        // Validate eagerly so misuse fails even for zero-user models. The
        // model is borrowed for the whole call, so the per-block
        // revalidation below cannot fail after this succeeds.
        self.plan(model)?;
        stream_user_shards(model.num_users(), plan, |(block, sel), users| {
            self.score_block(model, users.clone(), block)?;
            Ok(users.map(|u| top_n_with(block.row(u), n, seen_of(u), sel)).collect())
        })
    }

    /// 1-based rank of `item` for every user (see
    /// [`item_rank`](crate::item_rank)), served from batched score blocks on
    /// worker threads under the default [`ShardPlan`]. Entry `u` is `None`
    /// when `item` is excluded for user `u`.
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or stale; refresh
    /// with [`ScoringEngine::ensure`] and retry.
    pub fn par_item_ranks<'a, M, F>(
        &self,
        model: &M,
        item: usize,
        seen_of: F,
    ) -> Result<Vec<Option<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        self.par_item_ranks_sharded(model, item, seen_of, &ShardPlan::default_for(model.num_users()))
    }

    /// [`ScoringEngine::par_item_ranks`] streaming over an explicit
    /// [`ShardPlan`]; same memory bound and bitwise-invisibility contract as
    /// [`ScoringEngine::par_top_n_all_sharded`].
    ///
    /// # Errors
    ///
    /// Returns [`StaleEngine`] when the cache is absent or stale.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not cover the model's users.
    pub fn par_item_ranks_sharded<'a, M, F>(
        &self,
        model: &M,
        item: usize,
        seen_of: F,
        plan: &ShardPlan,
    ) -> Result<Vec<Option<usize>>, StaleEngine>
    where
        M: Recommender + ?Sized,
        F: Fn(usize) -> &'a [usize] + Sync,
    {
        self.plan(model)?;
        stream_user_shards(model.num_users(), plan, |(block, sel), users| {
            self.score_block(model, users.clone(), block)?;
            Ok(users.map(|u| item_rank_with(block.row(u), item, seen_of(u), sel)).collect())
        })
    }
}

/// The shard-streaming driver behind every `par_*` scoring entry point:
/// shards run *serially* in user order — bounding resident scores — and the
/// [`SCORE_BLOCK_USERS`]-sized blocks inside one shard fan out across worker
/// threads, each worker reusing one `(ScoreBlock, SelectionScratch)` pair
/// for every block it processes.
///
/// `per_block` receives the worker state and one contiguous user block and
/// returns that block's outputs in user order; outputs are reassembled in
/// user order regardless of scheduling. The shard count is recorded in the
/// `scoring_shards` telemetry (a pure function of the plan, so
/// thread-invariant).
///
/// # Panics
///
/// Panics if `plan` does not cover exactly `num_users`.
fn stream_user_shards<T, F>(
    num_users: usize,
    plan: &ShardPlan,
    per_block: F,
) -> Result<Vec<T>, StaleEngine>
where
    T: Send,
    F: Fn(&mut (ScoreBlock, SelectionScratch), Range<usize>) -> Result<Vec<T>, StaleEngine> + Sync,
{
    assert_eq!(
        plan.num_users(),
        num_users,
        "shard plan covers {} users but the model has {num_users}",
        plan.num_users()
    );
    taamr_obs::add(taamr_obs::Counter::ScoringShards, plan.num_shards() as u64);
    let mut out = Vec::with_capacity(num_users);
    for shard in plan.shards() {
        let blocks: Vec<Range<usize>> = blocks_of(shard.clone());
        let nested: Vec<Vec<T>> = blocks
            .into_par_iter()
            .map_init(
                || (ScoreBlock::new(), SelectionScratch::new()),
                |state, users| per_block(state, users),
            )
            .collect::<Result<_, StaleEngine>>()?;
        out.extend(nested.into_iter().flatten());
    }
    Ok(out)
}

/// Splits one shard into [`SCORE_BLOCK_USERS`]-sized scoring blocks (the
/// last may be shorter). Blocks are relative to the shard's own range, so
/// the pattern depends only on the shard — never the thread count.
fn blocks_of(shard: Range<usize>) -> Vec<Range<usize>> {
    let (start, len) = (shard.start, shard.len());
    (0..len.div_ceil(SCORE_BLOCK_USERS))
        .map(|b| {
            start + b * SCORE_BLOCK_USERS..start + ((b + 1) * SCORE_BLOCK_USERS).min(len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BprMf, Popularity};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taamr_data::ImplicitDataset;

    fn model() -> BprMf {
        BprMf::new(10, 33, 4, &mut StdRng::seed_from_u64(9))
    }

    #[test]
    fn score_block_matches_scalar_scores_bitwise() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let mut block = ScoreBlock::new();
        engine.score_block(&m, 2..9, &mut block).unwrap();
        assert_eq!(block.users(), 2..9);
        assert_eq!(block.num_items(), 33);
        for (u, row) in block.rows() {
            for (i, &s) in row.iter().enumerate() {
                assert_eq!(s.to_bits(), m.score(u, i).to_bits(), "user {u} item {i}");
            }
        }
    }

    #[test]
    fn blocks_are_reused_across_calls() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let mut block = ScoreBlock::new();
        engine.score_block(&m, 0..8, &mut block).unwrap();
        let full = m.score_all(3);
        assert_eq!(block.row(3), full.as_slice());
        engine.score_block(&m, 8..10, &mut block).unwrap();
        assert_eq!(block.users(), 8..10);
        assert_eq!(block.row(9), m.score_all(9).as_slice());
    }

    #[test]
    fn ensure_hits_until_the_model_changes() {
        let mut m = model();
        let mut engine = ScoringEngine::new();
        assert!(engine.ensure(&m), "first ensure builds");
        assert!(!engine.ensure(&m), "unchanged model hits the cache");
        assert!(engine.is_fresh(&m));
        crate::PairwiseModel::sgd_step(
            &mut m,
            &taamr_data::Triplet { user: 0, positive: 1, negative: 2 },
            0.05,
        );
        assert!(!engine.is_fresh(&m), "a training step invalidates");
        assert!(engine.ensure(&m), "rebuild after mutation");
    }

    #[test]
    fn stale_cache_reads_are_typed_errors() {
        let mut m = model();
        let mut engine = ScoringEngine::for_model(&m);
        let built_at = m.scoring_version();
        crate::PairwiseModel::sgd_step(
            &mut m,
            &taamr_data::Triplet { user: 0, positive: 1, negative: 2 },
            0.05,
        );
        let mut block = ScoreBlock::new();
        let err = engine.score_block(&m, 0..1, &mut block).unwrap_err();
        assert_eq!(err, StaleEngine { cached: Some(built_at), live: m.scoring_version() });
        assert!(err.to_string().contains("stale scoring cache"), "{err}");
        // The error is a refresh signal: ensure() and the same call succeeds.
        engine.ensure(&m);
        engine.score_block(&m, 0..1, &mut block).unwrap();
        assert_eq!(block.row(0)[1].to_bits(), m.score(0, 1).to_bits());
    }

    #[test]
    fn unensured_engine_is_a_typed_error() {
        let m = model();
        let engine = ScoringEngine::new();
        let mut block = ScoreBlock::new();
        let err = engine.score_block(&m, 0..1, &mut block).unwrap_err();
        assert_eq!(err.cached, None);
        assert!(err.to_string().contains("before ensure"), "{err}");
        assert!(engine.par_top_n_all(&m, 3, |_| &[][..]).is_err());
        assert!(engine.par_item_ranks(&m, 0, |_| &[][..]).is_err());
    }

    #[test]
    fn zero_term_plan_serves_static_scores() {
        let data = ImplicitDataset::new(vec![vec![0, 1], vec![1]], vec![0, 0, 0], 1);
        let p = Popularity::from_dataset(&data);
        let engine = ScoringEngine::for_model(&p);
        let mut block = ScoreBlock::new();
        engine.score_block(&p, 0..2, &mut block).unwrap();
        assert_eq!(block.row(0), &[1.0, 2.0, 0.0]);
        assert_eq!(block.row(1), &[1.0, 2.0, 0.0]);
    }

    #[test]
    fn par_top_n_matches_trait_top_n() {
        let m = model();
        let engine = ScoringEngine::for_model(&m);
        let seen: Vec<Vec<usize>> = (0..10).map(|u| vec![u % 33, (u + 5) % 33]).collect();
        let lists = engine.par_top_n_all(&m, 7, |u| seen[u].as_slice()).unwrap();
        for (u, list) in lists.iter().enumerate() {
            assert_eq!(list, &m.top_n(u, 7, &seen[u]), "user {u}");
        }
    }
}
