//! SHAP **interaction values** (Lundberg, Erion & Lee 2018, §4): a matrix
//! `Φ` whose off-diagonal entries split each feature's credit into pairwise
//! interaction effects and whose diagonal holds the main effects, with
//! `Σⱼ Φᵢⱼ = φᵢ` (row sums recover the SHAP values) and
//! `ΣᵢΣⱼ Φᵢⱼ = f(x) − E[f(x)]`.
//!
//! Computed exactly for trees via *conditional* TreeSHAP: the Shapley
//! interaction index `Φᵢⱼ` equals half the difference between feature `j`'s
//! SHAP value when `i` is fixed to its observed value and when `i` is
//! marginalized out — both computable by one TreeSHAP pass each over the
//! `M−1`-feature game. For a DRC hotspot this answers questions like "how
//! much of the M4 overflow's credit exists only in combination with the
//! neighboring via crowding?".

use drcshap_forest::{DecisionTree, TreeNode};

use crate::tree_shap::fill_live_mask;

/// A dense symmetric `M × M` interaction matrix (row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionValues {
    values: Vec<f64>,
    n_features: usize,
}

impl InteractionValues {
    /// Wraps a row-major `n_features × n_features` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n_features²`.
    pub fn from_values(values: Vec<f64>, n_features: usize) -> Self {
        assert_eq!(values.len(), n_features * n_features, "matrix shape mismatch");
        Self { values, n_features }
    }

    /// The interaction value `Φᵢⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n_features && j < self.n_features, "index out of range");
        self.values[i * self.n_features + j]
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Row `i` (its sum is feature `i`'s SHAP value).
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Total mass `ΣᵢΣⱼ Φᵢⱼ` (equals `f(x) − E[f(x)]`).
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The `k` strongest off-diagonal interactions as `(i, j, Φᵢⱼ)` with
    /// `i < j`, ordered by |Φ|.
    pub fn top_pairs(&self, k: usize) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::new();
        for i in 0..self.n_features {
            for j in i + 1..self.n_features {
                let v = self.get(i, j);
                if v != 0.0 {
                    pairs.push((i, j, v));
                }
            }
        }
        pairs.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        pairs.truncate(k);
        pairs
    }
}

/// Computes the SHAP interaction values of `tree` for sample `x`.
///
/// Cost: one conditional TreeSHAP pass per feature the tree uses (so
/// `O(U · L · D²)` for `U` used features, `L` leaves, depth `D`). Like
/// [`tree_shap`](crate::tree_shap), every pass skips the subtrees that
/// cannot add to Φ (zero-valued leaves under finite positive covers), by
/// the same rule and with the same exactness argument.
///
/// # Panics
///
/// Panics if `x.len() != tree.n_features()`.
pub fn tree_shap_interactions(tree: &DecisionTree, x: &[f32]) -> InteractionValues {
    assert_eq!(x.len(), tree.n_features(), "feature count mismatch");
    let m = tree.n_features();
    let mut values = vec![0.0; m * m];

    let phi = crate::tree_shap(tree, x);
    let mut used: Vec<usize> =
        tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature as usize).collect();
    used.sort_unstable();
    used.dedup();

    for &i in &used {
        let present = shap_conditional(tree, x, i, true);
        let absent = shap_conditional(tree, x, i, false);
        let mut off_diag_sum = 0.0;
        for &j in &used {
            if j == i {
                continue;
            }
            let v = (present[j] - absent[j]) / 2.0;
            values[i * m + j] = v;
            off_diag_sum += v;
        }
        values[i * m + i] = phi[i] - off_diag_sum;
    }
    InteractionValues { values, n_features: m }
}

/// SHAP interaction values of a whole forest: the mean of the per-tree
/// matrices (interaction values, like SHAP values, are linear in the
/// model). Trees are processed in parallel.
///
/// # Panics
///
/// Panics if `x.len() != forest.n_features()`.
pub fn forest_shap_interactions(
    forest: &drcshap_forest::RandomForest,
    x: &[f32],
) -> InteractionValues {
    use rayon::prelude::*;
    assert_eq!(x.len(), forest.n_features(), "feature count mismatch");
    let m = forest.n_features();
    let n_trees = forest.trees().len() as f64;
    let values = forest
        .trees()
        .par_iter()
        .map(|t| tree_shap_interactions(t, x).values)
        .reduce(
            || vec![0.0; m * m],
            |mut acc, v| {
                for (a, b) in acc.iter_mut().zip(&v) {
                    *a += b;
                }
                acc
            },
        )
        .into_iter()
        .map(|v| v / n_trees)
        .collect();
    InteractionValues { values, n_features: m }
}

/// SHAP values of the `M−1`-feature game where `cond` is removed: fixed to
/// its observed value (`present`) or marginalized by training covers
/// (`absent`).
pub fn shap_conditional(tree: &DecisionTree, x: &[f32], cond: usize, present: bool) -> Vec<f64> {
    assert_eq!(x.len(), tree.n_features(), "feature count mismatch");
    let nodes = tree.nodes();
    let mut live = Vec::new();
    fill_live_mask(nodes, &mut live);
    let mut phi = vec![0.0; tree.n_features()];
    if live[0] {
        recurse(nodes, &live, 0, Vec::new(), 1.0, 1.0, -1, x, cond as u32, present, 1.0, &mut phi);
    }
    phi
}

#[derive(Debug, Clone, Copy)]
struct PathElem {
    d: i32,
    z: f64,
    o: f64,
    w: f64,
}

/// The conditional walk; only `live` children are entered.
#[allow(clippy::too_many_arguments)]
fn recurse(
    nodes: &[TreeNode],
    live: &[bool],
    j: usize,
    path: Vec<PathElem>,
    pz: f64,
    po: f64,
    pi: i32,
    x: &[f32],
    cond: u32,
    present: bool,
    cond_frac: f64,
    phi: &mut [f64],
) {
    if cond_frac == 0.0 {
        return;
    }
    let m = extend(path, pz, po, pi);
    let node = &nodes[j];
    if node.is_leaf() {
        for i in 1..m.len() {
            let w = unwound_sum(&m, i);
            phi[m[i].d as usize] += w * (m[i].o - m[i].z) * node.value * cond_frac;
        }
        return;
    }

    let f = node.feature as usize;
    let (hot, cold) = if x[f] <= node.threshold {
        (node.left as usize, node.right as usize)
    } else {
        (node.right as usize, node.left as usize)
    };
    let rj = node.cover.max(1e-12);
    let hot_frac = nodes[hot].cover / rj;
    let cold_frac = nodes[cold].cover / rj;

    // The conditioning feature is outside the game: never extend the path
    // for it; route (present) or average (absent) via the scalar fraction.
    if node.feature == cond {
        if present {
            if live[hot] {
                recurse(nodes, live, hot, m, 1.0, 1.0, -2, x, cond, present, cond_frac, phi);
            }
        } else {
            if live[hot] {
                let frac = cond_frac * hot_frac;
                recurse(nodes, live, hot, m.clone(), 1.0, 1.0, -2, x, cond, present, frac, phi);
            }
            if live[cold] {
                let frac = cond_frac * cold_frac;
                recurse(nodes, live, cold, m, 1.0, 1.0, -2, x, cond, present, frac, phi);
            }
        }
        return;
    }

    let (mut iz, mut io) = (1.0, 1.0);
    let mut m = m;
    if let Some(k) = m.iter().skip(1).position(|e| e.d == node.feature as i32) {
        let k = k + 1;
        iz = m[k].z;
        io = m[k].o;
        m = unwind(m, k);
    }
    let d = node.feature as i32;
    if live[hot] {
        recurse(
            nodes,
            live,
            hot,
            m.clone(),
            iz * hot_frac,
            io,
            d,
            x,
            cond,
            present,
            cond_frac,
            phi,
        );
    }
    if live[cold] {
        recurse(nodes, live, cold, m, iz * cold_frac, 0.0, d, x, cond, present, cond_frac, phi);
    }
}

// extend/unwind are identical to tree_shap's, but the recursion above must
// be able to call extend with a sentinel (-2) that *keeps the path as-is*:
// extending with pz = po = 1 and a sentinel feature would distort weights,
// so -2 means "skip".
fn extend(mut m: Vec<PathElem>, pz: f64, po: f64, pi: i32) -> Vec<PathElem> {
    if pi == -2 {
        return m; // conditioning pass-through: path unchanged
    }
    let l = m.len();
    m.push(PathElem { d: pi, z: pz, o: po, w: if l == 0 { 1.0 } else { 0.0 } });
    for i in (0..l).rev() {
        m[i + 1].w += po * m[i].w * (i + 1) as f64 / (l + 1) as f64;
        m[i].w = pz * m[i].w * (l - i) as f64 / (l + 1) as f64;
    }
    m
}

fn unwind(mut m: Vec<PathElem>, i: usize) -> Vec<PathElem> {
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
    m.pop();
    m
}

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
    use crate::exact::cond_exp;
    use crate::tree_shap;
    use drcshap_forest::{RandomForestTrainer, TreeTrainer};
    use drcshap_ml::{Dataset, Trainer};
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_dataset(n: usize, m: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = (row[0] > 0.5) ^ (row[1 % m] > 0.4);
            x.extend_from_slice(&row);
            y.push(label);
        }
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    /// Brute-force Shapley interaction index over the tree's used features.
    fn exact_interaction(tree: &DecisionTree, x: &[f32], i: usize, j: usize) -> f64 {
        let mut used: Vec<usize> =
            tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature as usize).collect();
        used.sort_unstable();
        used.dedup();
        let k = used.len();
        assert!(k <= 16);
        if !used.contains(&i) || !used.contains(&j) {
            return 0.0;
        }
        let others: Vec<usize> = used.iter().copied().filter(|&f| f != i && f != j).collect();
        let fact: Vec<f64> = {
            let mut f = vec![1.0f64; k + 1];
            for t in 1..=k {
                f[t] = f[t - 1] * t as f64;
            }
            f
        };
        let mut known = vec![false; tree.n_features()];
        let mut total = 0.0;
        for mask in 0..(1u32 << others.len()) {
            known.iter_mut().for_each(|b| *b = false);
            let mut s = 0usize;
            for (bit, &f) in others.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    known[f] = true;
                    s += 1;
                }
            }
            let v00 = cond_exp(tree, x, &known);
            known[i] = true;
            let v10 = cond_exp(tree, x, &known);
            known[j] = true;
            let v11 = cond_exp(tree, x, &known);
            known[i] = false;
            let v01 = cond_exp(tree, x, &known);
            known[j] = false;
            // |S|! (k - |S| - 2)! / (2 (k-1)!)
            let w = fact[s] * fact[k - s - 2] / (2.0 * fact[k - 1]);
            total += w * (v11 - v10 - v01 + v00);
        }
        total
    }

    #[test]
    fn rows_sum_to_shap_values() {
        let data = random_dataset(80, 4, 1);
        let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, 2);
        let x = [0.3f32, 0.7, 0.2, 0.9];
        let inter = tree_shap_interactions(&tree, &x);
        let phi = tree_shap(&tree, &x);
        for (i, &p) in phi.iter().enumerate() {
            let row_sum: f64 = inter.row(i).iter().sum();
            assert!((row_sum - p).abs() < 1e-9, "row {i}: {row_sum} vs phi {p}");
        }
    }

    #[test]
    fn total_matches_prediction_gap() {
        let data = random_dataset(60, 3, 3);
        let tree = TreeTrainer { max_depth: Some(5), ..Default::default() }.fit(&data, 4);
        let x = [0.8f32, 0.1, 0.6];
        let inter = tree_shap_interactions(&tree, &x);
        let gap = tree.predict(&x) - tree.nodes()[0].value;
        assert!((inter.total() - gap).abs() < 1e-9);
    }

    #[test]
    fn matrix_is_symmetric() {
        let data = random_dataset(80, 4, 5);
        let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, 6);
        let x = [0.5f32, 0.5, 0.5, 0.5];
        let inter = tree_shap_interactions(&tree, &x);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (inter.get(i, j) - inter.get(j, i)).abs() < 1e-9,
                    "asymmetry at ({i},{j}): {} vs {}",
                    inter.get(i, j),
                    inter.get(j, i)
                );
            }
        }
    }

    #[test]
    fn off_diagonals_match_brute_force() {
        for seed in 0..4u64 {
            let data = random_dataset(50, 3, seed);
            let tree = TreeTrainer { max_depth: Some(3), ..Default::default() }.fit(&data, seed);
            let x = [0.25f32, 0.75, 0.5];
            let inter = tree_shap_interactions(&tree, &x);
            for i in 0..3 {
                for j in 0..3 {
                    if i == j {
                        continue;
                    }
                    let exact = exact_interaction(&tree, &x, i, j);
                    assert!(
                        (inter.get(i, j) - exact).abs() < 1e-8,
                        "seed {seed} ({i},{j}): fast {} vs exact {exact}",
                        inter.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn xor_task_has_strong_interaction() {
        // XOR with jitter (a perfectly balanced XOR gives greedy CART zero
        // first-split gain, so it would not grow a tree at all): the effect
        // is dominated by the feature interaction.
        let rows: &[(&[f32], bool)] = &[
            (&[0.0, 0.0], false),
            (&[0.0, 1.0], true),
            (&[1.0, 0.0], true),
            (&[1.0, 1.0], false),
            (&[0.1, 0.0], false),
            (&[0.0, 0.9], true),
            (&[0.9, 0.1], true),
            (&[1.0, 0.9], false),
        ];
        let mut x = Vec::new();
        let mut y = Vec::new();
        for (r, l) in rows {
            x.extend_from_slice(r);
            y.push(*l);
        }
        let n = y.len();
        let data = Dataset::from_parts(x, y, vec![0; n], 2);
        let tree = TreeTrainer::default().fit(&data, 0);
        let inter = tree_shap_interactions(&tree, &[1.0, 1.0]);
        assert!(inter.get(0, 1).abs() > 0.1, "no interaction detected: {:?}", inter);
        let pairs = inter.top_pairs(1);
        assert_eq!((pairs[0].0, pairs[0].1), (0, 1));
    }

    #[test]
    fn conditional_shap_reduces_to_plain_when_feature_unused() {
        let data = random_dataset(40, 3, 9);
        let tree = TreeTrainer { max_depth: Some(3), ..Default::default() }.fit(&data, 1);
        // Condition on a feature the tree may not use: find one.
        let used: std::collections::HashSet<u32> =
            tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature).collect();
        if let Some(unused) = (0..3u32).find(|f| !used.contains(f)) {
            let x = [0.4f32, 0.6, 0.2];
            let plain = tree_shap(&tree, &x);
            let cond_p = shap_conditional(&tree, &x, unused as usize, true);
            let cond_a = shap_conditional(&tree, &x, unused as usize, false);
            for j in 0..3 {
                assert!((plain[j] - cond_p[j]).abs() < 1e-9);
                assert!((plain[j] - cond_a[j]).abs() < 1e-9);
            }
        }
    }

    /// The interaction walk as it was before pruning: enters every child.
    #[allow(clippy::too_many_arguments)]
    fn recurse_unpruned(
        nodes: &[TreeNode],
        j: usize,
        path: Vec<PathElem>,
        pz: f64,
        po: f64,
        pi: i32,
        x: &[f32],
        cond: u32,
        present: bool,
        cond_frac: f64,
        phi: &mut [f64],
    ) {
        if cond_frac == 0.0 {
            return;
        }
        let m = extend(path, pz, po, pi);
        let node = &nodes[j];
        if node.is_leaf() {
            for i in 1..m.len() {
                let w = unwound_sum(&m, i);
                phi[m[i].d as usize] += w * (m[i].o - m[i].z) * node.value * cond_frac;
            }
            return;
        }
        let f = node.feature as usize;
        let (hot, cold) = if x[f] <= node.threshold {
            (node.left as usize, node.right as usize)
        } else {
            (node.right as usize, node.left as usize)
        };
        let rj = node.cover.max(1e-12);
        let hot_frac = nodes[hot].cover / rj;
        let cold_frac = nodes[cold].cover / rj;
        if node.feature == cond {
            if present {
                recurse_unpruned(nodes, hot, m, 1.0, 1.0, -2, x, cond, present, cond_frac, phi);
            } else {
                let frac = cond_frac * hot_frac;
                recurse_unpruned(nodes, hot, m.clone(), 1.0, 1.0, -2, x, cond, present, frac, phi);
                let frac = cond_frac * cold_frac;
                recurse_unpruned(nodes, cold, m, 1.0, 1.0, -2, x, cond, present, frac, phi);
            }
            return;
        }
        let (mut iz, mut io) = (1.0, 1.0);
        let mut m = m;
        if let Some(k) = m.iter().skip(1).position(|e| e.d == node.feature as i32) {
            let k = k + 1;
            iz = m[k].z;
            io = m[k].o;
            m = unwind(m, k);
        }
        let d = node.feature as i32;
        recurse_unpruned(
            nodes,
            hot,
            m.clone(),
            iz * hot_frac,
            io,
            d,
            x,
            cond,
            present,
            cond_frac,
            phi,
        );
        recurse_unpruned(nodes, cold, m, iz * cold_frac, 0.0, d, x, cond, present, cond_frac, phi);
    }

    fn shap_conditional_unpruned(
        tree: &DecisionTree,
        x: &[f32],
        cond: usize,
        present: bool,
    ) -> Vec<f64> {
        let mut phi = vec![0.0; tree.n_features()];
        let nodes = tree.nodes();
        recurse_unpruned(
            nodes,
            0,
            Vec::new(),
            1.0,
            1.0,
            -1,
            x,
            cond as u32,
            present,
            1.0,
            &mut phi,
        );
        phi
    }

    /// Hotspot-like data: at most 5% positives, so most leaves are 0.0.
    fn rare_positive_dataset(n: usize, m: usize, seed: u64) -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
            y.push(row[0] > 0.9 && row[1] > 0.7);
            x.extend_from_slice(&row);
        }
        Dataset::from_parts(x, y, vec![0; n], m)
    }

    #[test]
    fn pruned_interaction_walk_is_bit_identical_to_the_unpruned_one() {
        let data = rare_positive_dataset(400, 4, 17);
        let positives = data.num_positives();
        assert!(positives > 0 && positives * 20 <= data.n_samples(), "{positives} positives");
        let forest = RandomForestTrainer { n_trees: 8, ..Default::default() }.fit(&data, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut skipped = 0;
        for tree in forest.trees() {
            skipped += fill_live_mask(tree.nodes(), &mut Vec::new());
            let mut used: Vec<usize> =
                tree.nodes().iter().filter(|n| !n.is_leaf()).map(|n| n.feature as usize).collect();
            used.sort_unstable();
            used.dedup();
            for _ in 0..6 {
                let x: Vec<f32> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
                for cond in 0..4 {
                    for present in [true, false] {
                        let pruned = shap_conditional(tree, &x, cond, present);
                        let full = shap_conditional_unpruned(tree, &x, cond, present);
                        let (a, b): (Vec<u64>, Vec<u64>) = (
                            pruned.iter().map(|v| v.to_bits()).collect(),
                            full.iter().map(|v| v.to_bits()).collect(),
                        );
                        assert_eq!(a, b, "cond {cond} present {present} at {x:?}");
                    }
                }
                // Off-diagonals over the used features assemble from the
                // same conditional passes, so they match bit for bit too.
                let inter = tree_shap_interactions(tree, &x);
                for &i in &used {
                    let present = shap_conditional_unpruned(tree, &x, i, true);
                    let absent = shap_conditional_unpruned(tree, &x, i, false);
                    for &j in used.iter().filter(|&&j| j != i) {
                        let want = (present[j] - absent[j]) / 2.0;
                        assert_eq!(inter.get(i, j).to_bits(), want.to_bits(), "({i},{j})");
                    }
                }
            }
        }
        assert!(skipped > 0, "scenario has no zero-valued leaves to skip");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn prop_interactions_consistent(seed in 0u64..200, px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0) {
            let data = random_dataset(40, 3, seed);
            let tree = TreeTrainer { max_depth: Some(4), ..Default::default() }.fit(&data, seed);
            let x = [px, py, pz];
            let inter = tree_shap_interactions(&tree, &x);
            let phi = tree_shap(&tree, &x);
            for (i, &p) in phi.iter().enumerate() {
                let row_sum: f64 = inter.row(i).iter().sum();
                prop_assert!((row_sum - p).abs() < 1e-8);
                for j in 0..3 {
                    prop_assert!((inter.get(i, j) - inter.get(j, i)).abs() < 1e-8);
                }
            }
        }
    }
}
