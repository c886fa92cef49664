//! Property tests pinning the compiled forest to the reference model:
//! `CompiledForest::score_batch` / `score_batch_nan_aware` must be
//! *bit-identical* to `RandomForest::predict_proba` /
//! `predict_proba_nan_aware` on every input — random forests, random
//! batches, NaN-laced rows, odd batch sizes straddling the parallel block
//! boundary, probes sitting on the forest's own thresholds, degenerate and
//! deep tree shapes, and infinities. Bit-equality (not tolerance) is the
//! contract: the serving path may never drift from the model the paper's
//! numbers come from.

use drcshap_forest::{RandomForest, RandomForestTrainer};
use drcshap_ml::{Dataset, Trainer};
use drcshap_serve::CompiledForest;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const N_FEATURES: usize = 5;

/// A deterministic forest per (seed, n_trees): labels follow feature 0
/// with a seed-dependent threshold and some feature-1 interaction, so
/// different seeds give structurally different trees.
fn forest(seed: u64, n_trees: usize) -> RandomForest {
    fit(seed, 90, RandomForestTrainer { n_trees, ..Default::default() })
}

/// Fits `trainer` on `n` rows of the [`forest`] data.
fn fit(seed: u64, n: usize, trainer: RandomForestTrainer) -> RandomForest {
    let threshold = 0.25 + (seed % 5) as f32 * 0.1;
    let mut x = Vec::with_capacity(n * N_FEATURES);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        for j in 0..N_FEATURES {
            let v = (((i * 131 + j * 17 + seed as usize * 7) % 97) as f32) / 97.0;
            x.push(v);
        }
        let (a, b) = (x[i * N_FEATURES], x[i * N_FEATURES + 1]);
        y.push(a > threshold || (b > 0.8 && a > 0.1));
    }
    let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
    trainer.fit(&data, seed)
}

/// Scores `rows` through both compiled batch paths and asserts
/// bit-equality against the reference forest: plain scoring on NaN-free
/// rows, NaN-aware scoring on every row.
fn assert_bit_identical(rf: &RandomForest, rows: &[Vec<f32>]) {
    let compiled = CompiledForest::compile(rf);
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    let plain = compiled.score_batch(&flat);
    let nan_aware = compiled.score_batch_nan_aware(&flat);
    for (i, row) in rows.iter().enumerate() {
        if row.iter().all(|v| !v.is_nan()) {
            assert_eq!(plain[i].to_bits(), rf.predict_proba(row).to_bits(), "plain row {i}");
        }
        assert_eq!(
            nan_aware[i].to_bits(),
            rf.predict_proba_nan_aware(row).to_bits(),
            "NaN-aware row {i}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Finite batches: every compiled score equals the reference score to
    /// the bit, for both the plain and the NaN-aware entry point (which
    /// must agree with plain scoring when nothing is NaN).
    #[test]
    fn score_batch_is_bit_exact_on_finite_rows(
        seed in 0u64..5,
        n_trees in 1usize..9,
        rows in prop::collection::vec(
            prop::collection::vec(-0.5f32..1.5, N_FEATURES),
            1..90,
        ),
    ) {
        let rf = forest(seed, n_trees);
        let compiled = CompiledForest::compile(&rf);
        prop_assert_eq!(compiled.n_trees(), n_trees);
        prop_assert_eq!(compiled.n_features(), N_FEATURES);
        let flat: Vec<f32> = rows.iter().flatten().copied().collect();
        let batch = compiled.score_batch(&flat);
        let nan_batch = compiled.score_batch_nan_aware(&flat);
        prop_assert_eq!(batch.len(), rows.len());
        for (i, row) in rows.iter().enumerate() {
            let reference = rf.predict_proba(row);
            prop_assert_eq!(
                batch[i].to_bits(), reference.to_bits(),
                "row {} diverged: compiled {} vs reference {}", i, batch[i], reference
            );
            prop_assert_eq!(batch[i].to_bits(), compiled.score_one(row).to_bits());
            // Without NaN both walks take identical branches.
            prop_assert_eq!(nan_batch[i].to_bits(), reference.to_bits());
        }
    }

    /// NaN-laced batches: the compiled NaN-aware walk routes every NaN to
    /// the same default child as the reference, so scores stay bit-equal.
    #[test]
    fn nan_aware_batch_is_bit_exact_with_nans(
        seed in 0u64..5,
        n_trees in 1usize..9,
        rows in prop::collection::vec(
            prop::collection::vec(-0.5f32..1.5, N_FEATURES),
            1..60,
        ),
        masks in prop::collection::vec(
            prop::collection::vec(any::<bool>(), N_FEATURES),
            60,
        ),
    ) {
        let rf = forest(seed, n_trees);
        let compiled = CompiledForest::compile(&rf);
        let dirty: Vec<Vec<f32>> = rows
            .iter()
            .zip(&masks)
            .map(|(row, mask)| {
                row.iter()
                    .zip(mask)
                    .map(|(&v, &poison)| if poison { f32::NAN } else { v })
                    .collect()
            })
            .collect();
        let flat: Vec<f32> = dirty.iter().flatten().copied().collect();
        let batch = compiled.score_batch_nan_aware(&flat);
        for (i, row) in dirty.iter().enumerate() {
            let reference = rf.predict_proba_nan_aware(row);
            prop_assert_eq!(
                batch[i].to_bits(), reference.to_bits(),
                "NaN row {} diverged: compiled {} vs reference {}", i, batch[i], reference
            );
            prop_assert_eq!(batch[i].to_bits(), compiled.score_one_nan_aware(row).to_bits());
        }
    }
}

/// Batch sizes around the internal parallel block boundary (64) must all
/// agree with per-row reference scoring — off-by-one chunking bugs live
/// exactly here.
#[test]
fn block_boundary_batches_are_bit_exact() {
    let rf = forest(3, 12);
    let compiled = CompiledForest::compile(&rf);
    for n in [1usize, 63, 64, 65, 127, 128, 129, 300] {
        let flat: Vec<f32> = (0..n * N_FEATURES).map(|i| ((i * 37) % 101) as f32 / 101.0).collect();
        let batch = compiled.score_batch(&flat);
        assert_eq!(batch.len(), n);
        for i in 0..n {
            let row = &flat[i * N_FEATURES..(i + 1) * N_FEATURES];
            assert_eq!(batch[i].to_bits(), rf.predict_proba(row).to_bits(), "n={n} row={i}");
        }
    }
}

/// Probes sitting exactly on the forest's own split thresholds (and one
/// ulp to either side) are where a `<`/`<=` slip in the layout shows up
/// first.
#[test]
fn threshold_equal_probes_are_bit_exact() {
    for seed in 0..3u64 {
        let rf = forest(seed, 6);
        let mut rows = Vec::new();
        for tree in rf.trees() {
            for node in tree.nodes().iter().filter(|n| !n.is_leaf()).take(8) {
                for v in [node.threshold, node.threshold.next_up(), node.threshold.next_down()] {
                    let mut row = vec![0.5f32; N_FEATURES];
                    row[node.feature as usize] = v;
                    rows.push(row);
                }
            }
        }
        assert!(!rows.is_empty(), "seed {seed}: forest has no splits");
        assert_bit_identical(&rf, &rows);
    }
}

/// Degenerate and deep shapes: depth-1 stumps, a single tree (no
/// averaging), root-leaf trees trained on constant labels, depth-capped
/// trees and unpruned trees grown on noisy labels.
#[test]
fn degenerate_and_deep_shapes_are_bit_exact() {
    let probes: Vec<Vec<f32>> = (0..48)
        .map(|i| (0..N_FEATURES).map(|j| ((i * 31 + j * 7) % 53) as f32 / 53.0).collect())
        .collect();
    let pure = {
        let data = Dataset::from_parts(
            (0..60 * N_FEATURES).map(|i| (i % 13) as f32 / 13.0).collect(),
            vec![true; 60],
            vec![0; 60],
            N_FEATURES,
        );
        RandomForestTrainer { n_trees: 4, ..Default::default() }.fit(&data, 6)
    };
    assert!(pure.trees().iter().all(|t| t.num_leaves() == 1), "pure forest split");
    let unpruned = {
        // Random labels independent of the features keep every split
        // impure, so the unpruned trees grow to many leaves.
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let n = 400;
        let x: Vec<f32> = (0..n * N_FEATURES).map(|_| rng.gen_range(0.0..1.0)).collect();
        let y: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.4)).collect();
        let data = Dataset::from_parts(x, y, vec![0; n], N_FEATURES);
        RandomForestTrainer { n_trees: 3, ..Default::default() }.fit(&data, 10)
    };
    let mean_leaves = unpruned.trees().iter().map(|t| t.num_leaves()).sum::<usize>() / 3;
    assert!(mean_leaves > 64, "unpruned forest too small: {mean_leaves} mean leaves");
    for (label, rf) in [
        (
            "stumps",
            fit(
                7,
                90,
                RandomForestTrainer { n_trees: 5, max_depth: Some(1), ..Default::default() },
            ),
        ),
        ("single-tree", forest(8, 1)),
        ("pure-single-leaf", pure),
        (
            "depth-capped",
            fit(
                9,
                200,
                RandomForestTrainer { n_trees: 3, max_depth: Some(10), ..Default::default() },
            ),
        ),
        ("unpruned", unpruned),
    ] {
        assert_eq!(rf.n_features(), N_FEATURES, "{label}: unexpected shape");
        let mut rows = probes.clone();
        // NaN-laced copies exercise the default-direction walk per shape.
        rows.extend(probes.iter().map(|p| {
            p.iter().enumerate().map(|(j, &v)| if j % 2 == 0 { f32::NAN } else { v }).collect()
        }));
        assert_bit_identical(&rf, &rows);
    }
}

/// The infinities are not NaN: they take their natural comparison branch
/// on both the plain and the NaN-aware walk.
#[test]
fn infinities_take_their_natural_branch() {
    let rf = forest(11, 4);
    let rows: Vec<Vec<f32>> = vec![
        vec![f32::INFINITY; N_FEATURES],
        vec![f32::NEG_INFINITY; N_FEATURES],
        vec![f32::INFINITY, 0.5, f32::NEG_INFINITY, 0.5, f32::INFINITY],
        vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.5, f32::NAN],
    ];
    assert_bit_identical(&rf, &rows);
}
