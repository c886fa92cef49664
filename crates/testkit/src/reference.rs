//! Slow, independent reference implementations of the paper's metrics and
//! of its SHAP tree explainer.
//!
//! The metric references are the "second opinion" side of the metric
//! differential oracles: written without sorting or cumulative sweeps,
//! they re-derive every curve point by an `O(n)` full scan per distinct
//! threshold (`O(n²)` total) and AUC by the pairwise probability identity.
//! They share *no code* with `drcshap_ml::metrics` — only the semantic
//! contract:
//!
//! - samples with equal scores enter the confusion counts together;
//! - a NaN score ranks below every real score, and all NaNs tie.
//!
//! [`tree_shap_textbook`] is Algorithm 2 of Lundberg, Erion & Lee (2018)
//! as printed: a fresh path `Vec` per call, `UNWIND` materialized as a new
//! path, every leaf visited. It shares no code with `drcshap_shap`.

use std::cmp::Ordering;

use drcshap_forest::{DecisionTree, RandomForest, TreeNode};

/// The ranking contract (duplicated from `ml::metrics` on purpose — the
/// oracle must not import the implementation under test).
fn rank_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.partial_cmp(&b).expect("non-NaN"),
    }
}

/// Distinct thresholds in descending rank order (all NaNs collapse into
/// one trailing group).
fn distinct_thresholds(scores: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = Vec::new();
    for &s in scores {
        if !out.iter().any(|&t| rank_cmp(s, t) == Ordering::Equal) {
            out.push(s);
        }
    }
    out.sort_by(|a, b| rank_cmp(*b, *a));
    out
}

/// Cumulative `(tp, fp)` at threshold `t` by a full scan: everything
/// ranking at or above `t` is predicted positive.
fn counts_at(scores: &[f64], labels: &[bool], t: f64) -> (usize, usize) {
    let (mut tp, mut fp) = (0, 0);
    for (&s, &l) in scores.iter().zip(labels) {
        if rank_cmp(s, t) != Ordering::Less {
            if l {
                tp += 1;
            } else {
                fp += 1;
            }
        }
    }
    (tp, fp)
}

/// Average precision `Σ (Rₙ − Rₙ₋₁) · Pₙ` over the distinct-threshold
/// curve, each point recomputed from scratch.
pub fn average_precision(scores: &[f64], labels: &[bool]) -> f64 {
    let pos = labels.iter().filter(|&&l| l).count();
    assert!(pos > 0, "reference AP undefined without positives");
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for t in distinct_thresholds(scores) {
        let (tp, fp) = counts_at(scores, labels, t);
        let recall = tp as f64 / pos as f64;
        let precision = if tp + fp == 0 { 1.0 } else { tp as f64 / (tp + fp) as f64 };
        ap += (recall - prev_recall) * precision;
        prev_recall = recall;
    }
    ap
}

/// ROC AUC by the pairwise probability identity: the chance a random
/// positive outranks a random negative, ties counting half. Equal to the
/// tie-grouped trapezoidal area, but derived without building a curve.
pub fn roc_auc(scores: &[f64], labels: &[bool]) -> f64 {
    let mut wins = 0.0f64;
    let mut pairs = 0.0f64;
    for (i, (&sp, &lp)) in scores.iter().zip(labels).enumerate() {
        if !lp {
            continue;
        }
        for (j, (&sn, &ln)) in scores.iter().zip(labels).enumerate() {
            if ln || i == j {
                continue;
            }
            pairs += 1.0;
            wins += match rank_cmp(sp, sn) {
                Ordering::Greater => 1.0,
                Ordering::Equal => 0.5,
                Ordering::Less => 0.0,
            };
        }
    }
    assert!(pairs > 0.0, "reference AUC undefined without both classes");
    wins / pairs
}

/// The `(threshold, tpr, fpr, precision)` operating point with the most
/// predictions whose FPR still fits `max_fpr` — the paper's `TPR*` /
/// `Prec*` contract. Returns the degenerate predict-nothing point
/// `(∞, 0, 0, 0)` when even the top tie group busts the budget.
pub fn tpr_prec_at_fpr(scores: &[f64], labels: &[bool], max_fpr: f64) -> (f64, f64, f64, f64) {
    let pos = labels.iter().filter(|&&l| l).count();
    let neg = labels.len() - pos;
    assert!(pos > 0 && neg > 0, "reference operating point needs both classes");
    let mut best = (f64::INFINITY, 0.0, 0.0, 0.0);
    let mut best_predicted = 0;
    for t in distinct_thresholds(scores) {
        let (tp, fp) = counts_at(scores, labels, t);
        let fpr = fp as f64 / neg as f64;
        if fpr > max_fpr {
            continue;
        }
        if tp + fp >= best_predicted {
            best_predicted = tp + fp;
            let precision = if tp + fp == 0 { 0.0 } else { tp as f64 / (tp + fp) as f64 };
            best = (t, tp as f64 / pos as f64, fpr, precision);
        }
    }
    best
}

/// One element of Algorithm 2's path `m`.
#[derive(Debug, Clone, Copy)]
struct PathStep {
    /// Split feature, `-1` for the root sentinel.
    d: i64,
    /// Fraction of zero (feature-unknown) paths flowing this way.
    z: f64,
    /// Fraction of one (feature-known) paths flowing this way.
    o: f64,
    /// Proportion of feature subsets of each size.
    w: f64,
}

/// Adds the SHAP values of `tree` at `x` to `phi` (`phi[j] += φⱼ`), by
/// Algorithm 2 of Lundberg, Erion & Lee (2018), path-dependent variant.
///
/// Two details are the repository's contract rather than the paper's
/// text, and are kept so results compare bit for bit: a node's cover is
/// floored at `1e-12` before it divides a child's, and the unwound weights
/// of a leaf are summed from the last path element down to the first.
///
/// # Panics
///
/// Panics if `x` or `phi` is shorter than the features the tree uses.
pub fn tree_shap_textbook(tree: &DecisionTree, x: &[f32], phi: &mut [f64]) {
    textbook_recurse(tree.nodes(), 0, Vec::new(), 1.0, 1.0, -1, x, phi);
}

/// The mean of the textbook SHAP values over `forest`'s trees, summed into
/// one accumulator in tree order and then divided by the tree count.
pub fn forest_shap_textbook(forest: &RandomForest, x: &[f32]) -> Vec<f64> {
    let mut phi = vec![0.0; forest.n_features()];
    for tree in forest.trees() {
        tree_shap_textbook(tree, x, &mut phi);
    }
    let n = forest.trees().len() as f64;
    phi.iter().map(|v| v / n).collect()
}

/// `RECURSE(j, m, p_z, p_o, p_i)`.
#[allow(clippy::too_many_arguments)]
fn textbook_recurse(
    nodes: &[TreeNode],
    j: usize,
    m: Vec<PathStep>,
    pz: f64,
    po: f64,
    pi: i64,
    x: &[f32],
    phi: &mut [f64],
) {
    let mut m = textbook_extend(m, pz, po, pi);
    let node = &nodes[j];
    if node.is_leaf() {
        for i in 1..m.len() {
            let w = textbook_unwind(&m, i).iter().rev().fold(0.0, |sum, e| sum + e.w);
            phi[m[i].d as usize] += w * (m[i].o - m[i].z) * node.value;
        }
        return;
    }
    let d = i64::from(node.feature);
    let (h, c) = if x[node.feature as usize] <= node.threshold {
        (node.left as usize, node.right as usize)
    } else {
        (node.right as usize, node.left as usize)
    };
    let (mut iz, mut io) = (1.0, 1.0);
    if let Some(k) = (1..m.len()).find(|&k| m[k].d == d) {
        iz = m[k].z;
        io = m[k].o;
        m = textbook_unwind(&m, k);
    }
    let rj = node.cover.max(1e-12);
    textbook_recurse(nodes, h, m.clone(), iz * (nodes[h].cover / rj), io, d, x, phi);
    textbook_recurse(nodes, c, m, iz * (nodes[c].cover / rj), 0.0, d, x, phi);
}

/// `EXTEND(m, p_z, p_o, p_i)`: a new path one element longer.
fn textbook_extend(m: Vec<PathStep>, pz: f64, po: f64, pi: i64) -> Vec<PathStep> {
    let l = m.len();
    let mut m = m;
    m.push(PathStep { d: pi, z: pz, o: po, w: if l == 0 { 1.0 } else { 0.0 } });
    for i in (0..l).rev() {
        m[i + 1].w += po * m[i].w * (i + 1) as f64 / (l + 1) as f64;
        m[i].w = pz * m[i].w * (l - i) as f64 / (l + 1) as f64;
    }
    m
}

/// `UNWIND(m, i)`: a new path without element `i`.
fn textbook_unwind(m: &[PathStep], i: usize) -> Vec<PathStep> {
    let l = m.len() - 1;
    let mut out = m[..l].to_vec();
    let (o, z) = (m[i].o, m[i].z);
    let mut n = m[l].w;
    for j in (0..l).rev() {
        if o != 0.0 {
            let t = out[j].w;
            out[j].w = n * (l + 1) as f64 / ((j + 1) as f64 * o);
            n = t - out[j].w * z * (l - j) as f64 / (l + 1) as f64;
        } else {
            out[j].w = out[j].w * (l + 1) as f64 / (z * (l - j) as f64);
        }
    }
    for j in i..l {
        out[j].d = m[j + 1].d;
        out[j].z = m[j + 1].z;
        out[j].o = m[j + 1].o;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_ranking() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((average_precision(&scores, &labels) - 1.0).abs() < 1e-12);
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_scores_give_base_rate_ap_and_half_auc() {
        let scores = [0.5; 10];
        let labels: Vec<bool> = (0..10).map(|i| i < 3).collect();
        assert!((average_precision(&scores, &labels) - 0.3).abs() < 1e-12);
        assert!((roc_auc(&scores, &labels) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nan_ranks_last() {
        let scores = [f64::NAN, 0.9, 0.1];
        let labels = [false, true, false];
        assert!((roc_auc(&scores, &labels) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn operating_point_respects_budget() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        let labels = [true, false, true, true];
        let (_, tpr, fpr, _) = tpr_prec_at_fpr(&scores, &labels, 0.0);
        assert_eq!(fpr, 0.0);
        assert!((tpr - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn textbook_shap_is_locally_accurate() {
        let forest = crate::scenario::rare_positive_forest(5, crate::SizeLevel::DEFAULT);
        let x = vec![0.9f32; forest.n_features()];
        for tree in forest.trees() {
            let mut phi = vec![0.0; forest.n_features()];
            tree_shap_textbook(tree, &x, &mut phi);
            let gap = tree.nodes()[0].value + phi.iter().sum::<f64>() - tree.predict(&x);
            assert!(gap.abs() < 1e-12, "local accuracy gap {gap}");
        }
    }
}
