//! Differential tests of top-N selection and item ranks against a reference
//! that fully sorts every candidate by the documented order: score
//! descending, `-0.0 == +0.0`, NaN below every number (−∞ included), then
//! the lower index first. Exclusions are a set: order, duplicates and
//! out-of-range entries do not matter.

use std::cmp::Ordering;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use taamr_recsys::{
    item_rank, item_rank_with, top_n_indices, top_n_with, Recommender, ScoringEngine,
    SelectionScratch, Vbpr, VbprConfig, VisualRecommender,
};

/// The documented selection order, written independently of the library's
/// key: `Less` means `a` is listed before `b`.
fn reference_order(scores: &[f32], a: usize, b: usize) -> Ordering {
    let (x, y) = (scores[a], scores[b]);
    let by_score = match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => y.partial_cmp(&x).expect("neither score is NaN"),
    };
    by_score.then(a.cmp(&b))
}

/// Every non-excluded index, fully sorted by [`reference_order`].
fn reference_ranking(scores: &[f32], exclude: &[usize]) -> Vec<usize> {
    let mut all: Vec<usize> = (0..scores.len()).filter(|i| !exclude.contains(i)).collect();
    all.sort_by(|&a, &b| reference_order(scores, a, b));
    all
}

fn reference_top_n(scores: &[f32], n: usize, exclude: &[usize]) -> Vec<usize> {
    let mut all = reference_ranking(scores, exclude);
    all.truncate(n);
    all
}

/// Scores drawn so that ties, signed zeros, infinities and NaNs (with
/// either sign bit and more than one payload) are all common.
fn score() -> impl Strategy<Value = f32> {
    (0u32..16, -4i32..4, -3.0f32..3.0).prop_map(|(kind, small, wide)| match kind {
        0 => f32::NAN,
        1 => -f32::NAN,
        2 => f32::from_bits(0x7FC0_0001),
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => 0.0,
        6 => -0.0,
        7..=10 => small as f32 * 0.5,
        _ => wide,
    })
}

/// One selection case: a row of 0–300 scores, `n` in `1..=len + 5`, and an
/// exclusion list that is either arbitrary (unsorted, duplicated, out of
/// range) or strictly increasing.
fn case() -> impl Strategy<Value = (Vec<f32>, usize, Vec<usize>)> {
    (0usize..=300).prop_flat_map(|len| {
        (
            proptest::collection::vec(score(), len..=len),
            1usize..=len + 5,
            proptest::collection::vec(0usize..len + 10, 0..12),
            any::<bool>(),
        )
            .prop_map(|(scores, n, mut exclude, sorted)| {
                if sorted {
                    exclude.sort_unstable();
                    exclude.dedup();
                }
                (scores, n, exclude)
            })
    })
}

/// A row long enough that selection's bounded buffer fills and is cut back
/// many times: 1 000–4 000 scores that are random (ties and special values
/// included), rising (every score beats the ones before it) or falling,
/// with `n` either small or anywhere in `1..=len + 5`.
fn long_case() -> impl Strategy<Value = (Vec<f32>, usize, Vec<usize>)> {
    (1_000usize..=4_000).prop_flat_map(|len| {
        (
            proptest::collection::vec(score(), len..=len),
            0u32..3,
            1usize..=64,
            1usize..=len + 5,
            any::<bool>(),
            proptest::collection::vec(0usize..len + 10, 0..12),
        )
            .prop_map(move |(random, shape, small, any_n, pick_small, exclude)| {
                let scores = match shape {
                    0 => random,
                    1 => (0..len).map(|i| (i / 3) as f32).collect(),
                    _ => (0..len).map(|i| -((i / 3) as f32)).collect(),
                };
                (scores, if pick_small { small } else { any_n }, exclude)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn top_n_with_matches_a_full_sort_on_long_rows(
        cases in proptest::collection::vec(long_case(), 1..3)
    ) {
        let mut scratch = SelectionScratch::new();
        for (scores, n, exclude) in &cases {
            let expected = reference_top_n(scores, *n, exclude);
            prop_assert_eq!(top_n_with(scores, *n, exclude, &mut scratch), expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn top_n_with_matches_a_full_sort(cases in proptest::collection::vec(case(), 1..4)) {
        // One scratch serves rows of different lengths back to back.
        let mut scratch = SelectionScratch::new();
        for (scores, n, exclude) in &cases {
            let expected = reference_top_n(scores, *n, exclude);
            prop_assert_eq!(top_n_with(scores, *n, exclude, &mut scratch), expected.clone());
            prop_assert_eq!(top_n_indices(scores, *n, exclude), expected);
        }
    }

    #[test]
    fn item_rank_with_matches_a_full_sort(cases in proptest::collection::vec(case(), 1..4)) {
        let mut scratch = SelectionScratch::new();
        for (scores, _, exclude) in &cases {
            let ranking = reference_ranking(scores, exclude);
            for item in 0..scores.len() + 2 {
                let expected = ranking.iter().position(|&i| i == item).map(|p| p + 1);
                prop_assert_eq!(item_rank_with(scores, item, exclude, &mut scratch), expected);
            }
        }
    }
}

/// A deterministic row of `len` scores in which every third entry is NaN.
fn nan_heavy_row(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| if i % 3 == 1 { f32::NAN } else { ((i * 7919) % 1009) as f32 / 1009.0 - 0.5 })
        .collect()
}

#[test]
fn top_n_indices_lists_nan_last_on_nan_heavy_rows() {
    for len in [40usize, 41, 300, 2_000] {
        let scores = nan_heavy_row(len);
        let finite = scores.iter().filter(|s| !s.is_nan()).count();
        for n in [1, 10, finite, finite + 1, len] {
            let top = top_n_indices(&scores, n, &[3, 0, 3]);
            assert_eq!(top, reference_top_n(&scores, n, &[0, 3]), "len {len}, n {n}");
            let first_nan = top.iter().position(|&i| scores[i].is_nan()).unwrap_or(top.len());
            assert!(
                top[first_nan..].iter().all(|&i| scores[i].is_nan()),
                "len {len}, n {n}: a number is listed after a NaN"
            );
        }
    }
    // An all-NaN row ranks by index alone.
    assert_eq!(top_n_indices(&[f32::NAN; 5], 3, &[1]), vec![0, 2, 3]);
}

#[test]
fn item_rank_equals_the_top_n_position_on_special_values() {
    let specials = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.5,
        -f32::NAN,
        -0.0,
        f32::INFINITY,
        0.0,
        f32::NEG_INFINITY,
        f32::NAN,
        -2.0,
    ];
    for exclude in [&[][..], &[4, 1], &[12, 0, 7]] {
        let top = top_n_indices(&specials, specials.len(), exclude);
        for (pos, &item) in top.iter().enumerate() {
            assert_eq!(item_rank(&specials, item, exclude), Some(pos + 1), "item {item}");
        }
        for &item in exclude {
            assert_eq!(item_rank(&specials, item, exclude), None);
        }
    }
}

#[test]
fn par_top_n_all_never_lists_a_nan_item_while_finite_candidates_remain() {
    let (num_users, num_items, d) = (12, 60, 8);
    let features: Vec<f32> =
        (0..num_items * d).map(|i| ((i * 37 % 101) as f32 / 101.0) - 0.5).collect();
    let mut model = Vbpr::new(
        num_users,
        num_items,
        d,
        features,
        VbprConfig::default(),
        &mut StdRng::seed_from_u64(11),
    );
    let poisoned = 23;
    model.set_item_feature(poisoned, &vec![f32::NAN; d]);
    assert!(model.score(0, poisoned).is_nan(), "the poisoned item must score NaN");
    let seen: Vec<Vec<usize>> = (0..num_users).map(|u| vec![u, u + 30]).collect();
    let engine = ScoringEngine::for_model(&model);
    let finite = num_items - 1 - 2;
    for threads in [1usize, 2, 8] {
        for n in [1, 10, finite] {
            let lists = rayon::with_threads(threads, || {
                engine.par_top_n_all(&model, n, |u| seen[u].as_slice()).unwrap()
            });
            for (u, list) in lists.iter().enumerate() {
                assert_eq!(list.len(), n);
                assert!(!list.contains(&poisoned), "threads {threads}, n {n}, user {u}");
            }
        }
        // Once every finite candidate is listed, the NaN item comes last.
        let lists = rayon::with_threads(threads, || {
            engine.par_top_n_all(&model, finite + 1, |u| seen[u].as_slice()).unwrap()
        });
        for list in &lists {
            assert_eq!(list.last(), Some(&poisoned), "threads {threads}");
        }
    }
}

/// Interleaved groups behind selection's starting floor (`FLOOR_GROUPS` in
/// `recommend.rs`); rows of at least `8 · GROUPS` scores get one.
const GROUPS: usize = 128;

fn assert_top_n_matches_reference(scores: &[f32], n: usize, exclude: &[usize], what: &str) {
    let mut scratch = SelectionScratch::new();
    assert_eq!(
        top_n_with(scores, n, exclude, &mut scratch),
        reference_top_n(scores, n, exclude),
        "{what}: len {}, n {n}, exclude {exclude:?}",
        scores.len()
    );
}

/// Scores in `[0, 1)` that neither rise nor fall with the index; they
/// repeat every 4 099 items, so longer rows hold ties.
fn mixed_row(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 7_919) % 4_099) as f32 / 4_099.0)
        .collect()
}

#[test]
fn starting_floor_skips_excluded_items_that_hold_their_groups_maxima() {
    // The `e` best scores sit in `e` distinct groups and are all excluded,
    // so the `take`-th best group maximum belongs to an excluded item and
    // only the `(take + e)`-th is a floor every candidate list reaches.
    for len in [8 * GROUPS, 20_000] {
        for e in [1usize, 3, 8, 40] {
            let mut scores = mixed_row(len);
            let exclude: Vec<usize> = (0..e).map(|k| k * 3 + 1).collect();
            for (k, &i) in exclude.iter().enumerate() {
                scores[i] = 100.0 + k as f32;
            }
            for n in [1, 2, e, e + 1, 50, GROUPS - e, GROUPS - e + 1] {
                assert_top_n_matches_reference(&scores, n, &exclude, "excluded maxima");
            }
        }
    }
}

#[test]
fn starting_floor_holds_at_the_group_count_boundary() {
    // `take + e` of exactly `GROUPS` (the floor is the smallest group
    // maximum) and one more (no floor), with 0 and 3 exclusions inside the
    // row and one beyond it, on a rising row, where every group maximum
    // lies in the last `GROUPS` scores, and on a mixed one.
    let rising: Vec<f32> = (0..8 * GROUPS + 77).map(|i| i as f32).collect();
    let mixed = mixed_row(3_000);
    for scores in [&rising, &mixed] {
        for exclude in [&[][..], &[5, 900, 1_000, 9_999]] {
            let e = exclude.iter().filter(|&&i| i < scores.len()).count();
            for n in [GROUPS - e - 1, GROUPS - e, GROUPS - e + 1] {
                assert_top_n_matches_reference(scores, n, exclude, "group count boundary");
            }
        }
    }
}

#[test]
fn starting_floor_holds_at_the_shortest_row_that_gets_one() {
    for len in [8 * GROUPS - 1, 8 * GROUPS] {
        let mut scores = mixed_row(len);
        // Group maxima in the last partial stride too.
        scores[len - 1] = 7.0;
        scores[len - 2] = 6.0;
        for exclude in [&[][..], &[0, len - 1], &[len - 2, 3, len - 1]] {
            for n in [1, 2, 10, 100, GROUPS - 3, GROUPS, len] {
                assert_top_n_matches_reference(&scores, n, exclude, "shortest rows");
            }
        }
    }
}

#[test]
fn starting_floor_gives_a_group_of_nan_and_neg_inf_the_nan_key() {
    // One number, one group of `-inf` and every other score NaN: groups
    // whose maximum stays `-inf` hold only NaN or `-inf`, and a list that
    // runs past the `-inf` items must go on to the NaN ones.
    let len = 8 * GROUPS;
    let mut scores = vec![f32::NAN; len];
    scores[5] = 1.0;
    for i in (7..len).step_by(GROUPS) {
        scores[i] = f32::NEG_INFINITY;
    }
    scores[GROUPS + 9] = -f32::NAN;
    for exclude in [&[][..], &[0, 7]] {
        for n in [1, 2, 9, 10, 12, 40] {
            assert_top_n_matches_reference(&scores, n, exclude, "NaN and -inf groups");
        }
    }
    // A row of NaN alone ranks by index.
    let nan_row = vec![f32::NAN; len];
    assert_eq!(top_n_indices(&nan_row, 3, &[1]), vec![0, 2, 3]);
}

#[test]
fn starting_floor_keeps_rising_falling_and_flat_rows_exact() {
    for len in [8 * GROUPS, 5_000] {
        let rising: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let falling: Vec<f32> = (0..len).map(|i| -(i as f32)).collect();
        // All equal: ties go to the lower index, excluded ones skipped.
        let flat = vec![0.25f32; len];
        for (what, scores) in [("rising", &rising), ("falling", &falling), ("flat", &flat)] {
            for exclude in [&[][..], &[0, 1, 2, len - 1], &[GROUPS, 2 * GROUPS, 64]] {
                for n in [1, 16, 100, GROUPS - 4, GROUPS] {
                    assert_top_n_matches_reference(scores, n, exclude, what);
                }
            }
        }
    }
}
