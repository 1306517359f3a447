//! Equivalence suite for the columnar rewrite.
//!
//! The columnar path (`DecisionTree::fit_dataset`,
//! `RandomForest::fit_dataset`), which orders each node's rows through a
//! per-column value-rank table by a counting sort or a packed-rank sort,
//! must produce *bit-identical* predictions to the legacy row-major
//! implementation preserved in `jsdetect_ml::reference` — same splits,
//! same thresholds, same leaf probabilities — for any fixed seed. These
//! tests pin that (including fits taller than `u16::MAX` rows and
//! single-tree forests), plus the deliberate per-tree seeding change,
//! batch-vs-serial equality, thread invariance, and serde stability.

use jsdetect_ml::reference::{RowMajorForest, RowMajorTree};
use jsdetect_ml::{
    Dataset, DatasetError, DecisionTree, ForestParams, MaxFeatures, RandomForest, TreeParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic synthetic data with heavy value ties (quantized levels)
/// to stress the tie-skipping sweep, plus a nonlinear label rule with
/// label noise.
fn synthetic(n: usize, d: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d)
            .map(|j| {
                if j % 3 == 0 {
                    // Quantized: many exact duplicates per column.
                    rng.gen_range(0..8) as f32
                } else {
                    (rng.gen_range(0..10_000) as f32) / 2_500.0 - 2.0
                }
            })
            .collect();
        let noisy = rng.gen_range(0..20) == 0;
        let label = (row[0] > 3.0) ^ (row[1] * row[1] > 1.0) ^ noisy;
        x.push(row);
        y.push(label);
    }
    (x, y)
}

#[test]
fn tree_matches_row_major_reference_exactly() {
    let (x, y) = synthetic(400, 13, 7);
    for max_features in [MaxFeatures::All, MaxFeatures::Sqrt, MaxFeatures::Fixed(4)] {
        let params = TreeParams { max_features, ..Default::default() };
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let old = RowMajorTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(seed));
            let new = DecisionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(seed));
            assert_eq!(old.node_count(), new.node_count(), "structure differs (seed {})", seed);
            for row in &x {
                let po = old.predict_proba(row);
                let pn = new.predict_proba(row);
                assert!(
                    po == pn,
                    "prediction differs: old {} vs new {} (seed {}, {:?})",
                    po,
                    pn,
                    seed,
                    max_features
                );
            }
        }
    }
}

#[test]
fn tree_matches_reference_under_shallow_and_strict_params() {
    let (x, y) = synthetic(250, 9, 11);
    let params = TreeParams {
        max_depth: 4,
        min_samples_split: 10,
        min_samples_leaf: 5,
        max_features: MaxFeatures::Sqrt,
    };
    let old = RowMajorTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(3));
    let new = DecisionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(3));
    for row in &x {
        assert_eq!(old.predict_proba(row), new.predict_proba(row));
    }
}

#[test]
fn forest_matches_row_major_reference_exactly() {
    let (x, y) = synthetic(300, 10, 5);
    let params = ForestParams { n_trees: 12, seed: 99, ..Default::default() };
    // Both sides use the *current* hash-mixed per-tree seeding, so this
    // isolates the data-path rewrite (columnar + index bootstrap + flat
    // nodes) from the deliberate seeding change tested below.
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "forest prediction differs: old {} vs new {}", po, pn);
    }
}

/// Wide matrices land in the subsampled √d regime with many columns per
/// tree: quantized columns take the counting sort over value ranks, the
/// high-cardinality ones the packed `(rank << 1) | label` sort, in
/// standalone trees and forests alike. Both must reproduce the row-major
/// reference bit for bit.
#[test]
fn wide_matrix_per_node_paths_match_reference_exactly() {
    let (x, y) = synthetic(220, 120, 41);
    let tree_params = TreeParams::default();
    for seed in [0u64, 8, 1234] {
        let old = RowMajorTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        let new = DecisionTree::fit(&x, &y, &tree_params, &mut StdRng::seed_from_u64(seed));
        assert_eq!(old.node_count(), new.node_count(), "tree structure differs (seed {})", seed);
        for row in &x {
            assert_eq!(old.predict_proba(row), new.predict_proba(row), "seed {}", seed);
        }
    }
    let params = ForestParams { n_trees: 6, seed: 77, ..Default::default() };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "wide forest prediction differs: old {} vs new {}", po, pn);
    }
}

#[test]
fn forest_without_bootstrap_matches_reference() {
    let (x, y) = synthetic(200, 8, 17);
    let params = ForestParams { n_trees: 6, bootstrap: false, seed: 1, ..Default::default() };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        assert_eq!(old.predict_proba(row), new.predict_proba(row));
    }
}

/// The per-tree seeding fix (hash-mix the tree index instead of
/// `(seed + i) * γ`, whose streams were one SplitMix64 step apart for
/// consecutive trees) deliberately changes fitted forests. This fixture
/// keeps the change visible: the legacy stream still runs through the
/// reference forest, and its predictions must differ from the current
/// seeding on the same data.
#[test]
fn seeding_change_is_deliberate_and_visible() {
    let (x, y) = synthetic(300, 10, 23);
    let params = ForestParams { n_trees: 8, seed: 4, ..Default::default() };
    let legacy_seed =
        |i: usize| -> u64 { params.seed.wrapping_add(i as u64).wrapping_mul(0x9E3779B97F4A7C15) };
    let legacy = RowMajorForest::fit_with_seeds(&x, &y, &params, &legacy_seed);
    let current = RandomForest::fit(&x, &y, &params);
    // Consecutive legacy seeds really are one generator step apart.
    assert_eq!(
        legacy_seed(1),
        legacy_seed(0).wrapping_add(0x9E3779B97F4A7C15),
        "legacy scheme no longer reproduces the correlated stream this fixture documents"
    );
    let differs = x.iter().any(|row| legacy.predict_proba(row) != current.predict_proba(row));
    assert!(differs, "seeding fix changed nothing — fixture is stale");
    // And pinning the other direction: driving the reference forest with
    // the *new* seeds reproduces the current model exactly.
    let bridged = RowMajorForest::fit_with_seeds(&x, &y, &params, &|i| params.tree_seed(i));
    for row in &x {
        assert_eq!(bridged.predict_proba(row), current.predict_proba(row));
    }
}

#[test]
fn batch_prediction_matches_serial_on_random_data() {
    let (x, y) = synthetic(350, 11, 31);
    let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 10, ..Default::default() });
    let data = Dataset::from_rows(&x).unwrap();
    let batch = forest.predict_proba_batch(&data);
    assert_eq!(batch.len(), x.len());
    for (row, b) in x.iter().zip(&batch) {
        assert_eq!(*b, forest.predict_proba(row));
    }
}

#[test]
fn fit_is_invariant_to_thread_count() {
    let (x, y) = synthetic(220, 9, 13);
    let data = Dataset::from_rows(&x).unwrap();
    let params = ForestParams { n_trees: 11, seed: 8, ..Default::default() };
    let one = RandomForest::fit_dataset_threads(&data, &y, &params, 1);
    let two = RandomForest::fit_dataset_threads(&data, &y, &params, 2);
    let eight = RandomForest::fit_dataset_threads(&data, &y, &params, 8);
    let probe = Dataset::from_rows(&x).unwrap();
    let (pa, pb, pc) = (
        one.predict_proba_batch(&probe),
        two.predict_proba_batch(&probe),
        eight.predict_proba_batch(&probe),
    );
    assert_eq!(pa, pb);
    assert_eq!(pa, pc);
}

#[test]
fn serde_roundtrip_of_flattened_forest_preserves_predictions() {
    let (x, y) = synthetic(150, 7, 19);
    let forest = RandomForest::fit(&x, &y, &ForestParams { n_trees: 5, ..Default::default() });
    let json = serde_json::to_string(&forest).unwrap();
    let mut back: RandomForest = serde_json::from_str(&json).unwrap();
    back.rebuild_index();
    for row in &x {
        assert_eq!(back.predict_proba(row), forest.predict_proba(row));
    }
}

#[test]
fn dataset_rejects_ragged_and_empty_input() {
    assert!(matches!(Dataset::from_rows(&[]), Err(DatasetError::Empty)));
    let ragged = vec![vec![1.0, 2.0], vec![3.0]];
    assert!(matches!(Dataset::from_rows(&ragged), Err(DatasetError::Ragged { row: 1, .. })));
}

/// Fits taller than `u16::MAX` rows carry value ranks past the 16-bit
/// range through both per-node sorts: column 0 has about 67,000 distinct
/// values (counting-sorted near the root, packed-rank-sorted below),
/// column 1 is quantized, column 2 moderately distinct.
#[test]
fn tall_matrix_matches_reference_exactly() {
    let n = 70_000;
    let mut rng = StdRng::seed_from_u64(53);
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row = vec![
            rng.gen_range(0..1_000_000) as f32,
            rng.gen_range(0..6) as f32,
            rng.gen_range(0..3_000) as f32 / 100.0,
        ];
        let noisy = rng.gen_range(0..10) == 0;
        y.push((row[0] > 400_000.0) ^ (row[1] >= 3.0 && row[2] < 12.0) ^ noisy);
        x.push(row);
    }
    for max_features in [MaxFeatures::All, MaxFeatures::Sqrt] {
        let params = TreeParams { max_depth: 5, max_features, ..Default::default() };
        let old = RowMajorTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(2));
        let new = DecisionTree::fit(&x, &y, &params, &mut StdRng::seed_from_u64(2));
        assert_eq!(old.node_count(), new.node_count(), "tall tree differs ({:?})", max_features);
        for row in &x {
            assert_eq!(old.predict_proba(row), new.predict_proba(row), "{:?}", max_features);
        }
    }
    let tree = TreeParams { max_depth: 5, ..Default::default() };
    let params = ForestParams { n_trees: 2, seed: 12, tree, ..Default::default() };
    let old = RowMajorForest::fit(&x, &y, &params);
    let new = RandomForest::fit(&x, &y, &params);
    for row in &x {
        let po = old.predict_proba(row);
        let pn = new.predict_proba(row);
        assert!(po == pn, "tall forest prediction differs: old {} vs new {}", po, pn);
    }
}

/// A one-tree forest grows from the same shared rank table as larger ones.
#[test]
fn single_tree_forest_matches_reference_exactly() {
    let (x, y) = synthetic(300, 10, 37);
    for bootstrap in [true, false] {
        let params = ForestParams { n_trees: 1, bootstrap, seed: 3, ..Default::default() };
        let old = RowMajorForest::fit(&x, &y, &params);
        let new = RandomForest::fit(&x, &y, &params);
        for row in &x {
            assert_eq!(old.predict_proba(row), new.predict_proba(row), "bootstrap {}", bootstrap);
        }
    }
}
