//! Top-N selection utilities.
//!
//! The selection primitives come in two layers: the original allocating
//! entry points ([`top_n_indices`] / [`item_rank`]) and allocation-free
//! `_with` variants that reuse a caller-owned [`SelectionScratch`]. The
//! batched scoring engine ([`crate::ScoringEngine`]) drives the `_with`
//! variants with one scratch per worker thread, so full-catalog top-N
//! evaluation allocates only the output lists.
//!
//! Exclusion lists are treated as sets. Already-sorted, duplicate-free
//! exclusion slices (which is what `ImplicitDataset::user_items` returns)
//! are used in place; unsorted slices are normalised once into the
//! scratch. Either way the row is walked as the gaps between excluded
//! indices, so no index is tested against the exclusion list.
//!
//! # Order
//!
//! Selection and ranks share one total order: score descending, with
//! `-0.0 == +0.0` and NaN below every number (`-inf` included), then the
//! lower index first. [`top_n_with`] makes one pass over the row and keeps
//! the best `min(n, candidates)` entries in a bounded unsorted buffer (cut
//! back with a partial selection whenever it fills), then sorts only the
//! survivors. On a long row the pass starts from an exact lower bound on
//! the list's keys, taken from interleaved group maxima (see
//! [`starting_floor`]), so most scores never enter the buffer.

use std::cmp::Ordering;
use std::ops::Range;

use crate::scoring::ScoringEngine;
use crate::Recommender;

/// Reusable buffers for [`top_n_with`] / [`item_rank_with`]. The buffers
/// grow to the high-water mark of the list and exclusion sizes and are
/// then reused, so steady-state selection performs no allocation (beyond
/// each returned top-N list itself).
#[derive(Debug, Default)]
pub struct SelectionScratch {
    /// Candidates of the current [`top_n_with`] call, unsorted until the
    /// end; never longer than twice the list being built.
    best: Vec<Entry>,
    /// Normalised (sorted, deduplicated) exclusions, used only when the
    /// caller's exclusion slice is not already strictly increasing.
    exclude: Vec<usize>,
}

impl SelectionScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SelectionScratch::default()
    }
}

/// Number of interleaved groups whose maxima bound the starting floor.
const FLOOR_GROUPS: usize = 128;

/// One kept candidate: its [`order_key`] and its index.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u32,
    index: usize,
}

/// Maps a score to a `u32` whose unsigned order is the selection order of
/// scores (higher key = listed first): `-0.0` and `+0.0` share a key, and
/// every NaN gets key 0, below `-inf`'s key `0x007F_FFFF`.
fn order_key(score: f32) -> u32 {
    const SIGN: u32 = 1 << 31;
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // Flip every bit of a negative score, only the sign of a positive one;
    // done with a mask rather than a branch, since rows mix both signs.
    let key = bits ^ (((bits as i32) >> 31) as u32 | SIGN);
    if score.is_nan() {
        0
    } else {
        key
    }
}

/// Returns `exclude` itself when it is already strictly increasing (sorted,
/// no duplicates), otherwise normalises it into `buf` and returns that.
fn normalised_exclude<'a>(exclude: &'a [usize], buf: &'a mut Vec<usize>) -> &'a [usize] {
    if exclude.windows(2).all(|w| w[0] < w[1]) {
        exclude
    } else {
        buf.clear();
        buf.extend_from_slice(exclude);
        buf.sort_unstable();
        buf.dedup();
        buf
    }
}

/// The maximal runs of `0..len` that `excluded` (strictly increasing)
/// leaves uncovered, in ascending order; empty runs are skipped.
fn gaps(excluded: &[usize], len: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let inside = &excluded[..excluded.partition_point(|&e| e < len)];
    let starts = std::iter::once(0).chain(inside.iter().map(|&e| e + 1));
    let ends = inside.iter().copied().chain(std::iter::once(len));
    starts.zip(ends).map(|(start, end)| start..end).filter(|gap| !gap.is_empty())
}

/// Top-`n` recommendation lists for every user, computed on worker threads.
///
/// `seen_of(u)` supplies the items to exclude for user `u` (typically the
/// user's training interactions). Scoring runs through a
/// [`ScoringEngine`](crate::ScoringEngine) built for this call — batched
/// GEMM score blocks consumed by per-thread selection scratch — and the
/// output is identical to calling [`Recommender::top_n`] in a serial loop,
/// for every thread count. Callers evaluating the same model repeatedly
/// should hold a [`ScoringEngine`](crate::ScoringEngine) themselves and use
/// [`ScoringEngine::par_top_n_all`](crate::ScoringEngine::par_top_n_all) to
/// reuse the item-embedding cache across calls.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn par_top_n_all<'a, R, F>(model: &R, n: usize, seen_of: F) -> Vec<Vec<usize>>
where
    R: Recommender + ?Sized,
    F: Fn(usize) -> &'a [usize] + Sync,
{
    let engine = ScoringEngine::for_model(model);
    match engine.par_top_n_all(model, n, seen_of) {
        Ok(lists) => lists,
        // The engine was built for this call against a model borrowed for
        // the whole call, so staleness is unreachable.
        Err(e) => unreachable!("scoring engine stale under a shared model borrow: {e}"),
    }
}

/// Returns the indices of the `n` highest scores, excluding `exclude`,
/// ordered best-first. Ties break toward the lower index for determinism,
/// and NaN scores come after every number (see the module's order).
///
/// # Panics
///
/// Panics if `n` is zero.
///
/// # Example
///
/// ```
/// use taamr_recsys::top_n_indices;
///
/// let scores = [0.1, 0.9, 0.5, 0.7];
/// assert_eq!(top_n_indices(&scores, 2, &[1]), vec![3, 2]);
/// ```
pub fn top_n_indices(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
    top_n_with(scores, n, exclude, &mut SelectionScratch::new())
}

/// [`top_n_indices`] writing its intermediates into a reusable
/// [`SelectionScratch`]. Semantics are identical.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn top_n_with(
    scores: &[f32],
    n: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Vec<usize> {
    assert!(n > 0, "n must be positive");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the callee only requires AVX2, which the runtime check
        // just confirmed this CPU supports.
        return unsafe { top_n_avx2(scores, n, exclude, scratch) };
    }
    top_n_impl(scores, n, exclude, scratch)
}

/// The AVX2-compiled clone of [`top_n_impl`]: the key, mask and maxima
/// loops run 8 lanes wide. Selection only compares floats and moves
/// integers, with no float arithmetic, so both copies return the same list.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn top_n_avx2(
    scores: &[f32],
    n: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Vec<usize> {
    top_n_impl(scores, n, exclude, scratch)
}

/// The body of [`top_n_with`], inlined into each compiled copy.
#[inline(always)]
fn top_n_impl(
    scores: &[f32],
    n: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Vec<usize> {
    let SelectionScratch { best, exclude: exclude_buf } = scratch;
    let excluded = normalised_exclude(exclude, exclude_buf);
    let inside = excluded.partition_point(|&e| e < scores.len());
    let take = n.min(scores.len() - inside);
    best.clear();
    if take == 0 {
        return Vec::new();
    }
    // Newcomers are pushed unsorted. Whenever the buffer holds `2 * take`
    // entries it is cut back to its best `take`, and from then on a score
    // enters only if its key beats the worst survivor's: an equal key has a
    // higher index and so ranks behind it. A cut costs O(take) and follows
    // `take` pushes, so the pass is O(N + K log K) for every `n`.
    const LANES: usize = 16;
    let cap = 2 * take;
    let mut floor = starting_floor(scores, take + inside);
    let mut keys = [0u32; LANES];
    for gap in gaps(excluded, scores.len()) {
        for (c, chunk) in scores[gap.clone()].chunks(LANES).enumerate() {
            // Keys and the pass mask of a whole chunk in one branch-free
            // loop, which vectorises. Once the floor has risen, few lanes
            // of a long row pass, and only those are visited below.
            let mut pass = 0u32;
            for (lane, (key, &score)) in keys.iter_mut().zip(chunk).enumerate() {
                *key = order_key(score);
                pass |= u32::from(*key >= floor) << lane;
            }
            let base = gap.start + c * LANES;
            while pass != 0 {
                let lane = pass.trailing_zeros() as usize;
                pass &= pass - 1;
                // A cut earlier in this chunk may have raised the floor
                // past a lane that passed the old one.
                let key = keys[lane];
                if key >= floor {
                    best.push(Entry { key, index: base + lane });
                    if best.len() == cap {
                        // No key reaches `u32::MAX` (+inf maps to 0xFF80_0000).
                        floor = keep_best(best, take) + 1;
                    }
                }
            }
        }
    }
    if best.len() > take {
        keep_best(best, take);
    }
    best.sort_unstable_by(ahead);
    best.iter().map(|e| e.index).collect()
}

/// A key that every member of the row's list reaches. `rank` is the list
/// length `take` plus the number `e` of excluded indices inside the row.
/// Rows of fewer than eight scores a group (`8 · FLOOR_GROUPS`) and a
/// `rank` above `FLOOR_GROUPS` get 0, no bound.
///
/// Group `g` holds the indices `i ≡ g (mod FLOOR_GROUPS)`, excluded ones
/// included, and the floor is the `rank`-th largest key among the group
/// maxima. It is exact: at least `rank` groups hold an item whose key
/// reaches it, at most `e` of those items are excluded, so at least `take`
/// candidates reach it, and so does every list member. A group whose
/// maximum is `-inf` may hold only NaN, whose key is 0, so its key is 0
/// rather than `-inf`'s.
#[inline(always)]
fn starting_floor(scores: &[f32], rank: usize) -> u32 {
    if scores.len() < 8 * FLOOR_GROUPS || rank > FLOOR_GROUPS {
        return 0;
    }
    // A compare-select from `-inf`, which lowers to `maxps`: NaN never wins.
    let mut maxima = [f32::NEG_INFINITY; FLOOR_GROUPS];
    let (groups, tail) = scores.as_chunks::<FLOOR_GROUPS>();
    for group in groups {
        for (m, &s) in maxima.iter_mut().zip(group) {
            *m = if s > *m { s } else { *m };
        }
    }
    for (m, &s) in maxima.iter_mut().zip(tail) {
        *m = if s > *m { s } else { *m };
    }
    let mut keys = maxima.map(|m| {
        if m == f32::NEG_INFINITY {
            0
        } else {
            order_key(m)
        }
    });
    *keys.select_nth_unstable(FLOOR_GROUPS - rank).1
}

/// Selection order of two kept entries: higher key first, then the lower
/// index. Indices are unique, so no two entries compare equal.
fn ahead(a: &Entry, b: &Entry) -> Ordering {
    b.key.cmp(&a.key).then(a.index.cmp(&b.index))
}

/// Cuts `best` to its `take` best entries in no particular order and
/// returns the key of the worst of them.
fn keep_best(best: &mut Vec<Entry>, take: usize) -> u32 {
    let (_, worst, _) = best.select_nth_unstable_by(take - 1, ahead);
    let key = worst.key;
    best.truncate(take);
    key
}

/// 1-based rank of `item` among all non-excluded items for the given score
/// vector (rank 1 = highest score). Returns `None` if `item` is excluded or
/// out of range. Ties and NaN follow the module's order, so the rank is
/// `item`'s position in a long enough [`top_n_indices`] list.
///
/// Used for the paper's Fig. 2 ("rec. position: 180th → 14th").
pub fn item_rank(scores: &[f32], item: usize, exclude: &[usize]) -> Option<usize> {
    item_rank_with(scores, item, exclude, &mut SelectionScratch::new())
}

/// [`item_rank`] writing its intermediates into a reusable
/// [`SelectionScratch`]. Semantics are identical.
pub fn item_rank_with(
    scores: &[f32],
    item: usize,
    exclude: &[usize],
    scratch: &mut SelectionScratch,
) -> Option<usize> {
    if item >= scores.len() {
        return None;
    }
    let excluded = normalised_exclude(exclude, &mut scratch.exclude);
    if excluded.binary_search(&item).is_ok() {
        return None;
    }
    let target = order_key(scores[item]);
    // Lower indices win ties. Each gap splits into the part below `item`
    // and the part above it; either may be empty.
    let better: usize = gaps(excluded, scores.len())
        .map(|gap| {
            let below = &scores[gap.start..item.clamp(gap.start, gap.end)];
            let above = &scores[(item + 1).clamp(gap.start, gap.end)..gap.end];
            below.iter().filter(|&&s| order_key(s) >= target).count()
                + above.iter().filter(|&&s| order_key(s) > target).count()
        })
        .sum();
    Some(better + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_best_first() {
        let scores = [0.3, 0.1, 0.9, 0.5];
        assert_eq!(top_n_indices(&scores, 3, &[]), vec![2, 3, 0]);
    }

    #[test]
    fn excludes_seen_items() {
        let scores = [0.3, 0.1, 0.9, 0.5];
        assert_eq!(top_n_indices(&scores, 2, &[2]), vec![3, 0]);
    }

    #[test]
    fn handles_fewer_candidates_than_n() {
        let scores = [0.3, 0.1];
        assert_eq!(top_n_indices(&scores, 5, &[1]), vec![0]);
        assert!(top_n_indices(&scores, 5, &[0, 1]).is_empty());
    }

    #[test]
    fn ties_break_to_lower_index() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(top_n_indices(&scores, 2, &[]), vec![0, 1]);
    }

    #[test]
    fn unsorted_and_duplicated_exclusions_behave_as_a_set() {
        let scores = [0.3, 0.1, 0.9, 0.5, 0.2];
        let sorted = top_n_indices(&scores, 3, &[1, 3]);
        assert_eq!(top_n_indices(&scores, 3, &[3, 1, 3, 1]), sorted);
        assert_eq!(item_rank(&scores, 2, &[3, 1, 3]), item_rank(&scores, 2, &[1, 3]));
    }

    #[test]
    fn out_of_range_exclusions_are_ignored() {
        let scores = [0.3, 0.1, 0.9];
        assert_eq!(top_n_indices(&scores, 2, &[99]), vec![2, 0]);
        assert_eq!(item_rank(&scores, 0, &[99]), Some(2));
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let mut scratch = SelectionScratch::new();
        let a = [0.3, 0.1, 0.9, 0.5];
        let b = [0.9, 0.5, 0.7, 0.5, 0.1];
        assert_eq!(top_n_with(&a, 2, &[2, 0, 2], &mut scratch), top_n_indices(&a, 2, &[2, 0, 2]));
        assert_eq!(top_n_with(&b, 3, &[], &mut scratch), top_n_indices(&b, 3, &[]));
        assert_eq!(item_rank_with(&b, 3, &[4, 0], &mut scratch), item_rank(&b, 3, &[4, 0]));
    }

    /// Full-sort reference for the module's order: score descending with
    /// `-0.0 == +0.0` and NaN last, then the lower index.
    fn reference_top_n(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
        let mut kept: Vec<usize> = (0..scores.len()).filter(|i| !exclude.contains(i)).collect();
        kept.sort_by(|&a, &b| {
            let (x, y) = (scores[a], scores[b]);
            let by_score = match (x.is_nan(), y.is_nan()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => y.partial_cmp(&x).unwrap(),
            };
            by_score.then(a.cmp(&b))
        });
        kept.truncate(n);
        kept
    }

    #[test]
    fn lane_masked_selection_matches_a_full_sort_at_chunk_edges() {
        // n = 2 cuts after lane 3; lanes 4.. of the same chunk then hold
        // scores between the old floor and the new one (2.5, 1.5, 2.0) and
        // above it (3.5, 3.75, ...), so each lane must be rechecked.
        let mut cut_mid_chunk = vec![
            1.0, 2.0, 3.0, 4.0, 2.5, 3.5, 2.5, 1.5, 3.75, 0.5, 3.9, 2.0, 4.5, 3.0, 3.0, 4.0,
        ];
        cut_mid_chunk.extend((0..21).map(|i| (i % 5) as f32)); // 37: not a multiple of 16
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let signed_zeros = vec![
            -0.0, 0.0, nan, -1.0, 0.0, nan, -0.0, 2.0, -inf, inf, -0.0, 0.0, nan, 1.0, 0.0, -0.0,
            nan, 0.0, -0.0, -inf, 0.0,
        ];
        let ties: Vec<f32> = (0..1_003)
            .map(|i| if i % 97 == 3 { nan } else { ((i * 7_919) % 61) as f32 - 30.0 })
            .collect();
        let ascending: Vec<f32> = (0..50).map(|i| i as f32).collect();
        let rows = [cut_mid_chunk, signed_zeros, ties, ascending];
        let exclusions: [&[usize]; 5] =
            [&[], &[15, 16, 17], &[16], &[0, 15, 16, 17, 31, 32], &[17, 15, 16, 15]];
        let mut scratch = SelectionScratch::new();
        for (r, row) in rows.iter().enumerate() {
            for exclude in exclusions {
                for n in [1, 2, 3, 5, 16, 17, 20, 100, 2_000] {
                    assert_eq!(
                        top_n_with(row, n, exclude, &mut scratch),
                        reference_top_n(row, n, exclude),
                        "row {r}, n {n}, exclude {exclude:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn both_compiled_copies_select_the_same_lists() {
        // Rows long enough for the starting floor, plus a short one; NaN,
        // signed zeros, infinities and ties throughout.
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let specials = [nan, -0.0, 0.0, inf, -inf, -nan];
        let mixed: Vec<f32> = (0..5_000)
            .map(|i| {
                if i % 61 == 0 {
                    specials[i % 6]
                } else {
                    ((i * 7_919) % 211) as f32
                }
            })
            .collect();
        let rising: Vec<f32> = (0..1_024).map(|i| i as f32).collect();
        let short: Vec<f32> = mixed[..300].to_vec();
        let mut scratch = SelectionScratch::new();
        for row in [&mixed, &rising, &short] {
            for exclude in [&[][..], &[0, 61, 122, 4_999], &[900, 3, 3]] {
                for n in [1, 20, 100, 125, 128, 129, 6_000] {
                    let expected = reference_top_n(row, n, exclude);
                    let baseline = top_n_impl(row, n, exclude, &mut scratch);
                    assert_eq!(baseline, expected, "baseline, len {}, n {n}", row.len());
                    #[cfg(target_arch = "x86_64")]
                    if std::arch::is_x86_feature_detected!("avx2") {
                        // SAFETY: AVX2 support was just detected.
                        let avx2 = unsafe { top_n_avx2(row, n, exclude, &mut scratch) };
                        assert_eq!(avx2, expected, "avx2, len {}, n {n}", row.len());
                    }
                }
            }
        }
    }

    #[test]
    fn rank_counts_strictly_better() {
        let scores = [0.9, 0.5, 0.7, 0.5];
        assert_eq!(item_rank(&scores, 0, &[]), Some(1));
        assert_eq!(item_rank(&scores, 2, &[]), Some(2));
        assert_eq!(item_rank(&scores, 1, &[]), Some(3)); // tie: index 1 < 3
        assert_eq!(item_rank(&scores, 3, &[]), Some(4));
    }

    #[test]
    fn rank_respects_exclusions() {
        let scores = [0.9, 0.5, 0.7];
        assert_eq!(item_rank(&scores, 1, &[0]), Some(2));
        assert_eq!(item_rank(&scores, 0, &[0]), None);
        assert_eq!(item_rank(&scores, 9, &[]), None);
    }

    #[test]
    fn rank_one_item_is_in_top_one() {
        let scores = [0.2, 0.8, 0.4];
        let top = top_n_indices(&scores, 1, &[]);
        assert_eq!(item_rank(&scores, top[0], &[]), Some(1));
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn zero_n_panics() {
        top_n_indices(&[1.0], 0, &[]);
    }

    #[test]
    fn par_top_n_matches_serial_loop() {
        use crate::BprMf;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let model = BprMf::new(9, 40, 4, &mut rng);
        let seen: Vec<Vec<usize>> = (0..9).map(|u| vec![u, (u + 3) % 40]).collect();
        let serial: Vec<Vec<usize>> =
            (0..9).map(|u| model.top_n(u, 5, &seen[u])).collect();
        for threads in [1usize, 2, 8] {
            let par = rayon::with_threads(threads, || {
                par_top_n_all(&model, 5, |u| seen[u].as_slice())
            });
            assert_eq!(par, serial, "thread count {threads}");
        }
    }
}
