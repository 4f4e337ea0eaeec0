//! Property tests for the forest fast paths.
//!
//! 1. `FlatForest` batch kernels must be **bit-identical** to the
//!    `Node`-walking `Forest::predict` / `positive_fraction` /
//!    `disagreement` — across random datasets with NaN (missing) feature
//!    values, tiny single-example leaves, and query vectors whose arity
//!    does not match the training arity.
//! 2. Presorted-sweep training must produce the same forest as the rescan
//!    reference for the same seed, at any thread count.
//! 3. Block-wise vote counting equals per-vector `Node` votes at and
//!    around the block boundary.

use falcon_forest::{Dataset, Forest, ForestConfig, TreeConfig, VOTE_BLOCK};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Feature values that exercise missing-value routing, duplicate runs,
/// signed zero, and plain continuous values.
fn feat() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(0.5),
        Just(1.0),
        -5.0f64..5.0,
    ]
}

/// One labeled row at the maximum arity; tests truncate to the real arity.
fn row() -> impl Strategy<Value = (f64, f64, f64, f64, bool)> {
    (
        feat(),
        feat(),
        feat(),
        feat(),
        proptest::arbitrary::any::<bool>(),
    )
}

fn dataset(rows: Vec<(f64, f64, f64, f64, bool)>, arity: usize) -> Dataset {
    let mut d = Dataset::new();
    for (a, b, c, e, label) in rows {
        let mut fv = vec![a, b, c, e];
        fv.truncate(arity);
        d.push(fv, label);
    }
    d
}

fn small_forest() -> ForestConfig {
    ForestConfig {
        n_trees: 7,
        tree: TreeConfig {
            max_depth: 6,
            min_split: 2,
            features_per_node: None,
        },
        bagging: true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flat kernels equal the Node walk bit for bit, single and batch,
    /// including on vectors shorter/longer than the training arity.
    #[test]
    fn flat_kernels_bit_identical(
        rows in proptest::collection::vec(row(), 2..40),
        arity in 1usize..=4,
        seed in 0u64..1 << 48,
    ) {
        let d = dataset(rows, arity);
        let forest = Forest::train(&d, &small_forest(), &mut SmallRng::seed_from_u64(seed));
        let flat = forest.flatten();

        // Queries: every training vector plus arity-mismatched and
        // all-missing vectors.
        let mut queries: Vec<Vec<f64>> = d.features.clone();
        queries.push(vec![]);
        queries.push(vec![0.25]);
        queries.push(vec![0.25; 6]);
        queries.push(vec![f64::NAN; arity]);

        let preds = flat.predict_batch(&queries);
        let dis = flat.disagreement_batch(&queries);
        for (j, fv) in queries.iter().enumerate() {
            prop_assert_eq!(flat.predict(fv), forest.predict(fv), "query {}", j);
            prop_assert_eq!(preds[j], forest.predict(fv), "batch predict, query {}", j);
            prop_assert_eq!(
                flat.positive_fraction(fv).to_bits(),
                forest.positive_fraction(fv).to_bits(),
                "fraction, query {}", j
            );
            prop_assert_eq!(
                dis[j].to_bits(),
                forest.disagreement(fv).to_bits(),
                "batch disagreement, query {}", j
            );
        }
    }

    /// Presorted parallel training equals the sequential rescan reference.
    #[test]
    fn presorted_training_matches_rescan(
        rows in proptest::collection::vec(row(), 2..30),
        arity in 1usize..=4,
        seed in 0u64..1 << 48,
        threads in 1usize..=4,
    ) {
        let d = dataset(rows, arity);
        let cfg = small_forest();
        let fast = Forest::train_threads(&d, &cfg, &mut SmallRng::seed_from_u64(seed), threads);
        let reference = Forest::train_reference(&d, &cfg, &mut SmallRng::seed_from_u64(seed));
        prop_assert_eq!(fast, reference);
    }
}

/// `count_votes_into` walks vectors in blocks of `VOTE_BLOCK` with trees
/// inside; every count must equal the number of `Node`-walking trees that
/// vote positive, for empty input, one vector, one short of and one past
/// a block, and several blocks with a ragged tail.
#[test]
fn blocked_votes_equal_per_vector_votes() {
    let mut d = Dataset::new();
    for i in 0..200 {
        let x = (i * 37 % 101) as f64 / 101.0;
        let y = (i * 11 % 17) as f64 / 17.0;
        d.push(vec![x, y, x * y], x + 0.3 * y > 0.6);
    }
    let forest = Forest::train(&d, &small_forest(), &mut SmallRng::seed_from_u64(5));
    let flat = forest.flatten();
    let queries: Vec<Vec<f64>> = (0..3000)
        .map(|j| {
            let x = (j * 7919 % 1000) as f64 / 1000.0;
            let y = (j * 104_729 % 997) as f64 / 997.0;
            if j % 13 == 0 {
                vec![x, f64::NAN]
            } else {
                vec![x, y, x - y]
            }
        })
        .collect();
    let mut votes = vec![99; 7];
    for n in [0, 1, VOTE_BLOCK - 1, VOTE_BLOCK + 1, 3000] {
        flat.count_votes_into(n, |j| queries[j].as_slice(), &mut votes);
        assert_eq!(votes.len(), n);
        for (j, &v) in votes.iter().enumerate() {
            let want = forest
                .trees
                .iter()
                .filter(|t| t.predict(&queries[j]))
                .count();
            assert_eq!(v as usize, want, "n = {n}, vector {j}");
        }
    }
}
