//! The polynomial-time SHAP tree explainer (Lundberg, Erion & Lee 2018,
//! Algorithm 2), path-dependent variant.
//!
//! The algorithm pushes a "path" of (feature, zero-fraction, one-fraction,
//! permutation-weight) records down the tree. At each split, the fraction of
//! conditional subsets that flow left/right is tracked exactly via the
//! EXTEND/UNWIND recurrences, so every leaf contributes its value to each
//! feature's Shapley sum with the correct combinatorial weight — no subset
//! enumeration, no feature-independence assumption (interactions are
//! captured by the tree structure itself, §III-C of the reproduced paper).
//!
//! # Allocation
//!
//! The recursion keeps all live decision paths in one flat arena owned by
//! [`TreeShapScratch`]: each call's path occupies a contiguous region, the
//! "hot" child gets a copy appended after it, and the "cold" child reuses
//! the parent's region in place. A whole tree walk therefore costs zero
//! allocations once the arena is warm, and [`tree_shap_into`] lets callers
//! (the forest explainer, the serving engine) reuse one scratch across
//! thousands of trees. The arithmetic — operand values, operation order —
//! is identical to the textbook per-call-`Vec` formulation, so results are
//! bit-for-bit unchanged.
//!
//! # Pruning
//!
//! DRC hotspots are rare, so most leaves of a trained forest have value
//! `0.0` — yet Algorithm 2 spends its `O(depth²)` unwind on every leaf. Per
//! tree call, one recursive pass over the tree marks each node *live* when
//! some leaf below it has `value != 0.0` (NaN counts as nonzero), or when
//! the node, one of its descendants or one of its ancestors has a cover
//! that is not finite and positive. The walk then enters only live
//! children (and skips a tree whose root is dead); every subtree it does
//! enter is walked with exactly the old arithmetic. The pass recurses from
//! the root rather than scanning indices backwards, because a deserialized
//! tree need not store its nodes in pre-order.
//!
//! Why this is exact: with finite positive covers every path weight stays
//! finite, so every skipped leaf would have added
//! `w · (o − z) · 0.0 = ±0.0`. An entry of φ starts at `+0.0`, no sum of
//! `+0.0` and further terms ever yields `−0.0`, and adding `±0.0` to any
//! value but `−0.0` changes no bit — so skipping those additions changes
//! no output bit. Zero or non-finite covers (which make an unpruned walk
//! divide by zero and produce NaN or ∞) are never pruned, so those outputs
//! are kept too. Two boundaries of the argument: covers whose ratios leave
//! the `f64` range (a child cover ~1e300 times its parent's; never produced
//! by training, where a child's cover is at most its parent's) could in
//! principle overflow a weight the pruned walk no longer computes; and a
//! caller that accumulates through [`tree_shap_into`] into an entry that
//! already holds `−0.0` may keep `−0.0` where an unpruned walk would have
//! turned it into `+0.0`.

use drcshap_forest::{DecisionTree, TreeNode};

/// One element of the decision path.
#[derive(Debug, Clone, Copy)]
struct PathElem {
    /// Feature that split this path step, `-1` for the root sentinel.
    d: i32,
    /// Fraction of "zero" (feature-unknown) subsets flowing this way.
    z: f64,
    /// Fraction of "one" (feature-known) subsets flowing this way (0 or 1).
    o: f64,
    /// Permutation weight.
    w: f64,
}

const EMPTY: PathElem = PathElem { d: -1, z: 0.0, o: 0.0, w: 0.0 };

/// Reusable scratch memory for the tree explainer: the flat path arena
/// and the per-node live mask of the [pruning](self#pruning) pass.
///
/// Create one per thread and pass it to [`tree_shap_into`] for every tree;
/// it grows to the working-set high-water mark (`O(depth²)` path elements,
/// one flag per node) and is never shrunk, so steady-state explanation
/// allocates nothing.
#[derive(Debug, Default)]
pub struct TreeShapScratch {
    arena: Vec<PathElem>,
    live: Vec<bool>,
    /// Leaves skipped by the live mask, summed over every call.
    pub(crate) leaves_skipped: u64,
}

impl TreeShapScratch {
    /// An empty scratch; the arena grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes the SHAP values of `tree` for sample `x`.
///
/// Returns one value per feature; `Σ φ + E[f] = f(x)` exactly (up to
/// floating-point error), where `E[f]` is the cover-weighted expectation of
/// the tree (its root value).
///
/// Allocates a fresh scratch per call; hot paths that explain many trees
/// should hold a [`TreeShapScratch`] and call [`tree_shap_into`].
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn tree_shap(tree: &DecisionTree, x: &[f32]) -> Vec<f64> {
    let mut phi = vec![0.0; tree.n_features()];
    let mut scratch = TreeShapScratch::new();
    tree_shap_into(tree, x, &mut scratch, &mut phi);
    phi
}

/// Accumulates the SHAP values of `tree` for sample `x` into `phi`
/// (`phi[j] += φⱼ`), reusing `scratch` for all intermediate state.
///
/// The accumulate-don't-overwrite contract is what forest explanation
/// wants (per-tree values are summed anyway); callers after a single
/// tree's values must zero `phi` first.
///
/// # Panics
///
/// Panics if `x.len()` or `phi.len()` differs from `tree.n_features()`.
pub fn tree_shap_into(
    tree: &DecisionTree,
    x: &[f32],
    scratch: &mut TreeShapScratch,
    phi: &mut [f64],
) {
    assert_eq!(x.len(), tree.n_features(), "feature count mismatch");
    assert_eq!(phi.len(), tree.n_features(), "phi length mismatch");
    let nodes = tree.nodes();
    scratch.leaves_skipped += fill_live_mask(nodes, &mut scratch.live);
    if scratch.live[0] {
        recurse(nodes, &scratch.live, 0, 0, 0, 1.0, 1.0, -1, x, phi, &mut scratch.arena);
    }
}

/// Fills `live[j]` for every node reachable from the root: true when the
/// subtree under `j` can add to φ (see the module's [pruning](self#pruning)
/// notes). Returns the number of leaves the walk will skip. Shared by the
/// SHAP and interaction walks so both prune by one rule.
pub(crate) fn fill_live_mask(nodes: &[TreeNode], live: &mut Vec<bool>) -> u64 {
    live.clear();
    live.resize(nodes.len(), false);
    let mut skipped = 0;
    mark_live(nodes, 0, false, live, &mut skipped);
    skipped
}

/// One node of [`fill_live_mask`]'s recursion. `poisoned` is true when an
/// ancestor's cover is not finite and positive: such a cover can turn every
/// weight below it into NaN or ∞, so the whole subtree stays walked.
fn mark_live(
    nodes: &[TreeNode],
    j: usize,
    poisoned: bool,
    live: &mut [bool],
    skipped: &mut u64,
) -> bool {
    let node = &nodes[j];
    let poisoned = poisoned || !(node.cover.is_finite() && node.cover > 0.0);
    let is_live = if node.is_leaf() {
        let is_live = poisoned || node.value != 0.0;
        *skipped += u64::from(!is_live);
        is_live
    } else {
        let left = mark_live(nodes, node.left as usize, poisoned, live, skipped);
        let right = mark_live(nodes, node.right as usize, poisoned, live, skipped);
        poisoned || left || right
    };
    live[j] = is_live;
    is_live
}

/// The recursion. The current call's path lives in
/// `arena[start .. start + len]`; everything below `start` belongs to
/// ancestors and is never touched. Only `live` children are entered.
#[allow(clippy::too_many_arguments)]
fn recurse(
    nodes: &[TreeNode],
    live: &[bool],
    j: usize,
    start: usize,
    len: usize,
    pz: f64,
    po: f64,
    pi: i32,
    x: &[f32],
    phi: &mut [f64],
    arena: &mut Vec<PathElem>,
) {
    if arena.len() < start + len + 1 {
        arena.resize(start + len + 1, EMPTY);
    }
    extend(&mut arena[start..start + len + 1], pz, po, pi);
    let mut len = len + 1;

    let node = &nodes[j];
    if node.is_leaf() {
        let m = &arena[start..start + len];
        for i in 1..len {
            let w = unwound_sum(m, i);
            phi[m[i].d as usize] += w * (m[i].o - m[i].z) * node.value;
        }
        return;
    }

    let f = node.feature as usize;
    let (hot, cold) = if x[f] <= node.threshold {
        (node.left as usize, node.right as usize)
    } else {
        (node.right as usize, node.left as usize)
    };

    // If this feature already split above, undo its path entry and inherit
    // its fractions (each feature appears at most once on the path).
    let (mut iz, mut io) = (1.0, 1.0);
    if let Some(k) = arena[start + 1..start + len].iter().position(|e| e.d == node.feature as i32) {
        let k = k + 1;
        iz = arena[start + k].z;
        io = arena[start + k].o;
        unwind(&mut arena[start..start + len], k);
        len -= 1;
    }

    let rj = node.cover.max(1e-12);
    let hot_frac = nodes[hot].cover / rj;
    let cold_frac = nodes[cold].cover / rj;

    // Hot child: append a copy of this path after the current region (the
    // arena equivalent of `m.clone()`); the child only ever writes at or
    // beyond its own region, so ours survives for the cold branch.
    let d = node.feature as i32;
    if live[hot] {
        let child_start = start + len;
        if arena.len() < child_start + len {
            arena.resize(child_start + len, EMPTY);
        }
        arena.copy_within(start..start + len, child_start);
        recurse(nodes, live, hot, child_start, len, iz * hot_frac, io, d, x, phi, arena);
    }
    // Cold child: reuses this region in place (the `m` move).
    if live[cold] {
        recurse(nodes, live, cold, start, len, iz * cold_frac, 0.0, d, x, phi, arena);
    }
}

/// Grows the path by one split, updating the permutation weights. The new
/// element lands in `m[l]` where `l = m.len() - 1` (the caller reserves the
/// slot).
fn extend(m: &mut [PathElem], pz: f64, po: f64, pi: i32) {
    let l = m.len() - 1;
    m[l] = PathElem { d: pi, z: pz, o: po, w: if l == 0 { 1.0 } else { 0.0 } };
    for i in (0..l).rev() {
        let w = m[i].w;
        m[i + 1].w += po * w * (i + 1) as f64 / (l + 1) as f64;
        m[i].w = pz * w * (l - i) as f64 / (l + 1) as f64;
    }
}

/// Removes path element `i`, exactly inverting [`extend`]. The logical
/// length shrinks by one; the caller drops the trailing slot.
fn unwind(m: &mut [PathElem], i: usize) {
    let l = m.len() - 1;
    let (o, z) = (m[i].o, m[i].z);
    let mut n = m[l].w;
    for j in (0..l).rev() {
        if o != 0.0 {
            let t = m[j].w;
            m[j].w = n * (l + 1) as f64 / ((j + 1) as f64 * o);
            n = t - m[j].w * z * (l - j) as f64 / (l + 1) as f64;
        } else {
            m[j].w = m[j].w * (l + 1) as f64 / (z * (l - j) as f64);
        }
    }
    for j in i..l {
        m[j].d = m[j + 1].d;
        m[j].z = m[j + 1].z;
        m[j].o = m[j + 1].o;
    }
}

/// The total permutation weight if element `i` were unwound (without
/// mutating the path) — the `sum(UNWOUND(m, i).w)` of the leaf update.
fn unwound_sum(m: &[PathElem], i: usize) -> f64 {
    let l = m.len() - 1;
    let (o, z) = (m[i].o, m[i].z);
    let mut total = 0.0;
    if o != 0.0 {
        let mut n = m[l].w;
        for j in (0..l).rev() {
            let t = n * (l + 1) as f64 / ((j + 1) as f64 * o);
            total += t;
            n = m[j].w - t * z * (l - j) as f64 / (l + 1) as f64;
        }
    } else {
        for j in (0..l).rev() {
            total += m[j].w * (l + 1) as f64 / (z * (l - j) as f64);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcshap_forest::{TreeTrainer, LEAF};
    use drcshap_ml::{Dataset, Trainer};
    use serde_json::{Map, Number, Value};

    fn dataset(rows: &[(&[f32], bool)]) -> Dataset {
        let m = rows[0].0.len();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, label) in rows {
            x.extend_from_slice(r);
            y.push(*label);
        }
        let n = y.len();
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    #[test]
    fn single_split_tree_attributes_to_the_split_feature() {
        let data = dataset(&[
            (&[0.0, 5.0], false),
            (&[0.0, 6.0], false),
            (&[1.0, 5.0], true),
            (&[1.0, 6.0], true),
        ]);
        let tree = TreeTrainer { max_depth: Some(1), ..Default::default() }.fit(&data, 0);
        let phi = tree_shap(&tree, &[1.0, 5.0]);
        // E[f] = 0.5, f(x) = 1.0; all of the +0.5 belongs to feature 0.
        assert!((phi[0] - 0.5).abs() < 1e-12, "phi0 {}", phi[0]);
        assert!(phi[1].abs() < 1e-12);
        let phi_neg = tree_shap(&tree, &[0.0, 5.0]);
        assert!((phi_neg[0] + 0.5).abs() < 1e-12);
    }

    #[test]
    fn local_accuracy_on_deep_tree() {
        let data = dataset(&[
            (&[0.0, 0.0, 0.3], false),
            (&[0.0, 1.0, 0.7], true),
            (&[1.0, 0.0, 0.2], true),
            (&[1.0, 1.0, 0.9], false),
            (&[0.5, 0.5, 0.1], true),
            (&[0.2, 0.8, 0.6], false),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        for probe in [[0.0f32, 0.0, 0.3], [1.0, 1.0, 0.9], [0.4, 0.6, 0.5]] {
            let phi = tree_shap(&tree, &probe);
            let base = tree.nodes()[0].value;
            let sum: f64 = phi.iter().sum();
            let f = tree.predict(&probe);
            assert!(
                (base + sum - f).abs() < 1e-9,
                "local accuracy violated: {base} + {sum} != {f}"
            );
        }
    }

    #[test]
    fn symmetric_features_get_equal_credit() {
        // OR-like task where features 0 and 1 play identical roles.
        let data = dataset(&[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let phi = tree_shap(&tree, &[1.0, 1.0]);
        assert!((phi[0] - phi[1]).abs() < 1e-9, "symmetry violated: {} vs {}", phi[0], phi[1]);
    }

    #[test]
    fn repeated_feature_on_path_is_handled() {
        // Force a tree that splits feature 0 twice along one path.
        let data = dataset(&[
            (&[0.1], false),
            (&[0.3], true),
            (&[0.5], false),
            (&[0.7], true),
            (&[0.9], false),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        assert!(tree.depth() >= 2, "need a multi-split tree");
        for probe in [[0.1f32], [0.3], [0.5], [0.7], [0.9], [0.2], [0.6]] {
            let phi = tree_shap(&tree, &probe);
            let gap = tree.nodes()[0].value + phi[0] - tree.predict(&probe);
            assert!(gap.abs() < 1e-9, "gap {gap} at {probe:?}");
        }
    }

    #[test]
    fn unused_features_get_zero() {
        let data = dataset(&[(&[0.0, 7.7, 3.0], false), (&[1.0, 7.7, 3.0], true)]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let phi = tree_shap(&tree, &[0.5, 9.9, -1.0]);
        assert_eq!(phi[1], 0.0);
        assert_eq!(phi[2], 0.0);
    }

    #[test]
    fn into_variant_accumulates_and_matches_bit_for_bit() {
        let data = dataset(&[
            (&[0.0, 0.0, 0.3], false),
            (&[0.0, 1.0, 0.7], true),
            (&[1.0, 0.0, 0.2], true),
            (&[1.0, 1.0, 0.9], false),
            (&[0.5, 0.5, 0.1], true),
        ]);
        let tree = TreeTrainer::default().fit(&data, 0);
        let probe = [0.4f32, 0.6, 0.5];
        let reference = tree_shap(&tree, &probe);

        let mut scratch = TreeShapScratch::new();
        let mut phi = vec![0.0; 3];
        tree_shap_into(&tree, &probe, &mut scratch, &mut phi);
        for (a, b) in phi.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "into variant must be bit-identical");
        }

        // Second call accumulates: exactly doubles every value.
        tree_shap_into(&tree, &probe, &mut scratch, &mut phi);
        for (a, b) in phi.iter().zip(&reference) {
            assert_eq!(a.to_bits(), (b * 2.0).to_bits());
        }
    }

    #[test]
    fn scratch_is_reusable_across_trees_and_samples() {
        let deep = dataset(&[
            (&[0.1], false),
            (&[0.3], true),
            (&[0.5], false),
            (&[0.7], true),
            (&[0.9], false),
        ]);
        let shallow = dataset(&[(&[0.0], false), (&[1.0], true)]);
        let deep_tree = TreeTrainer::default().fit(&deep, 0);
        let shallow_tree = TreeTrainer::default().fit(&shallow, 0);

        let mut scratch = TreeShapScratch::new();
        // Deep first (grows the arena), then shallow (partially reuses it),
        // then deep again — each must match the fresh-scratch answer.
        for _ in 0..2 {
            for (tree, probe) in
                [(&deep_tree, [0.6f32]), (&shallow_tree, [0.2]), (&deep_tree, [0.3])]
            {
                let mut phi = vec![0.0; 1];
                tree_shap_into(tree, &probe, &mut scratch, &mut phi);
                let reference = tree_shap(tree, &probe);
                assert_eq!(phi[0].to_bits(), reference[0].to_bits());
            }
        }
    }

    /// A hand-built tree deserialized through serde. Each node is
    /// `(feature, threshold, left, right, value, cover)`; the value tree is
    /// assembled directly because JSON text cannot carry NaN or ∞.
    fn hand_tree(n_features: usize, nodes: &[(u32, f32, i32, i32, f64, f64)]) -> DecisionTree {
        let int = |v: i64| {
            Value::Number(if v < 0 { Number::NegInt(v) } else { Number::PosInt(v as u64) })
        };
        let float = |v: f64| Value::Number(Number::Float(v));
        let nodes = nodes
            .iter()
            .map(|&(feature, threshold, left, right, value, cover)| {
                let mut node = Map::new();
                node.insert("feature".to_string(), int(feature.into()));
                node.insert("threshold".to_string(), float(threshold.into()));
                node.insert("left".to_string(), int(left.into()));
                node.insert("right".to_string(), int(right.into()));
                node.insert("value".to_string(), float(value));
                node.insert("cover".to_string(), float(cover));
                Value::Object(node)
            })
            .collect();
        let mut tree = Map::new();
        tree.insert("nodes".to_string(), Value::Array(nodes));
        tree.insert("n_features".to_string(), int(n_features as i64));
        serde_json::from_value(Value::Object(tree)).expect("hand-built tree deserializes")
    }

    fn bits(phi: &[f64]) -> Vec<u64> {
        phi.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn all_zero_tree_gives_positive_zero_phi_and_skips_every_leaf() {
        let tree = hand_tree(
            2,
            &[
                (0, 0.5, 1, 2, 0.0, 5.0),
                (1, 0.5, 3, 4, 0.0, 3.0),
                (0, 0.0, LEAF, LEAF, 0.0, 2.0),
                (0, 0.0, LEAF, LEAF, 0.0, 1.0),
                (0, 0.0, LEAF, LEAF, 0.0, 2.0),
            ],
        );
        for probe in [[0.2f32, 0.2], [0.2, 0.8], [0.8, 0.1]] {
            let mut scratch = TreeShapScratch::new();
            let mut phi = vec![0.0; 2];
            tree_shap_into(&tree, &probe, &mut scratch, &mut phi);
            assert_eq!(bits(&phi), vec![0u64; 2], "phi must be +0.0 exactly at {probe:?}");
            assert_eq!(scratch.leaves_skipped, 3);
        }
    }

    #[test]
    fn zero_cover_leaf_valued_zero_keeps_the_nan() {
        // The right leaf has value 0.0 but cover 0: the cold path's zero
        // fraction divides by zero in the unwind, so an unpruned walk
        // yields NaN. That leaf must stay walked.
        let tree = hand_tree(
            2,
            &[
                (0, 0.5, 1, 2, 1.0, 4.0),
                (0, 0.0, LEAF, LEAF, 1.0, 4.0),
                (0, 0.0, LEAF, LEAF, 0.0, 0.0),
            ],
        );
        let phi = tree_shap(&tree, &[0.2, 0.7]);
        assert!(phi[0].is_nan(), "zero-cover leaf skipped: phi {phi:?}");
        assert_eq!(phi[1].to_bits(), 0);
    }

    #[test]
    fn non_finite_ancestor_cover_keeps_its_subtree_walked() {
        // An infinite root cover zeroes both child fractions, which turns
        // the cold leaf's weight into NaN even though that leaf's own cover
        // is finite and its value is 0.0.
        let tree = hand_tree(
            1,
            &[
                (0, 0.5, 1, 2, 0.5, f64::INFINITY),
                (0, 0.0, LEAF, LEAF, 1.0, 2.0),
                (0, 0.0, LEAF, LEAF, 0.0, 2.0),
            ],
        );
        let phi = tree_shap(&tree, &[0.2]);
        assert!(phi[0].is_nan(), "subtree under an infinite cover skipped: phi {phi:?}");
    }

    #[test]
    fn nan_leaf_value_is_walked() {
        let tree = hand_tree(
            2,
            &[
                (1, 0.5, 1, 2, 0.0, 4.0),
                (0, 0.0, LEAF, LEAF, 0.0, 2.0),
                (0, 0.0, LEAF, LEAF, f64::NAN, 2.0),
            ],
        );
        let mut live = Vec::new();
        assert_eq!(fill_live_mask(tree.nodes(), &mut live), 1);
        assert_eq!(live, vec![true, false, true]);
        for probe in [[0.0f32, 0.2], [0.0, 0.9]] {
            let phi = tree_shap(&tree, &probe);
            assert!(phi[1].is_nan(), "NaN leaf skipped at {probe:?}: phi {phi:?}");
            assert_eq!(phi[0].to_bits(), 0);
        }
    }

    #[test]
    fn children_stored_before_their_parent_get_the_right_mask() {
        // Node 3 is the parent of nodes 1 and 2, so a reverse index scan
        // would read their flags before computing them.
        let shuffled = hand_tree(
            2,
            &[
                (0, 0.5, 3, 4, 0.2, 10.0),
                (0, 0.0, LEAF, LEAF, 1.0, 2.0),
                (0, 0.0, LEAF, LEAF, 0.0, 3.0),
                (1, 0.5, 1, 2, 0.4, 5.0),
                (0, 0.0, LEAF, LEAF, 0.0, 5.0),
            ],
        );
        let pre_order = hand_tree(
            2,
            &[
                (0, 0.5, 1, 4, 0.2, 10.0),
                (1, 0.5, 2, 3, 0.4, 5.0),
                (0, 0.0, LEAF, LEAF, 1.0, 2.0),
                (0, 0.0, LEAF, LEAF, 0.0, 3.0),
                (0, 0.0, LEAF, LEAF, 0.0, 5.0),
            ],
        );
        let mut live = Vec::new();
        assert_eq!(fill_live_mask(shuffled.nodes(), &mut live), 2);
        assert_eq!(live, vec![true, true, false, true, false]);
        for probe in [[0.2f32, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]] {
            let phi = tree_shap(&shuffled, &probe);
            assert_eq!(bits(&phi), bits(&tree_shap(&pre_order, &probe)), "at {probe:?}");
            let gap =
                shuffled.nodes()[0].value + phi.iter().sum::<f64>() - shuffled.predict(&probe);
            assert!(gap.abs() < 1e-12, "local accuracy gap {gap} at {probe:?}");
        }
    }
}
