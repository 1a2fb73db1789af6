//! CART-style regression tree with split introspection.

use crate::ModelError;
use dynawave_numeric::Matrix;

/// Hyper-parameters for [`RegressionTree::fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root at depth 0).
    pub max_depth: usize,
    /// Minimum samples a node must contain to be considered for splitting.
    pub min_samples_split: usize,
    /// Minimum samples each child must retain after a split.
    pub min_samples_leaf: usize,
    /// A split must reduce the node's sum of squared errors by at least
    /// this fraction of the *root* SSE to be accepted.
    pub min_impurity_decrease: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 6,
            min_samples_split: 8,
            min_samples_leaf: 3,
            min_impurity_decrease: 1e-4,
        }
    }
}

/// A node's split decision, exposed for introspection.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitInfo {
    /// Feature index the node splits on.
    pub feature: usize,
    /// Split threshold; samples with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Depth of the node in the tree (root = 0).
    pub depth: usize,
    /// SSE reduction the split achieved.
    pub impurity_decrease: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Mean of the node's samples per input dimension (the RBF center).
    pub(crate) center: Vec<f64>,
    /// Per-dimension half-extent of the node's samples (the RBF radius
    /// basis). Zero-extent dimensions are patched by the RBF builder.
    pub(crate) extent: Vec<f64>,
    /// Mean target value of the node's samples.
    pub(crate) mean_y: f64,
    /// Sum of squared errors of the node's samples around `mean_y`.
    pub(crate) sse: f64,
    split: Option<SplitInfo>,
    left: Option<usize>,
    right: Option<usize>,
}

/// A CART regression tree.
///
/// Splits minimize the summed squared error of children. The trained tree
/// predicts with leaf means, exposes all node statistics (the RBF unit
/// source) and records, per input feature, where and how often it was split
/// on — the paper's Figure 11 data.
///
/// # Examples
///
/// ```
/// use dynawave_neural::{RegressionTree, TreeParams};
/// use dynawave_numeric::Matrix;
///
/// let x = Matrix::from_rows(&[&[0.0], &[0.1], &[0.9], &[1.0]]);
/// let y = [0.0, 0.0, 1.0, 1.0];
/// let tree = RegressionTree::fit(
///     &x,
///     &y,
///     &TreeParams { min_samples_split: 2, min_samples_leaf: 1, ..TreeParams::default() },
/// ).unwrap();
/// assert!(tree.predict(&[0.05]).abs() < 1e-9);
/// assert!((tree.predict(&[0.95]) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    dims: usize,
}

impl RegressionTree {
    /// Fits a tree on `x` (`n x d`) and targets `y`.
    ///
    /// # Errors
    ///
    /// [`ModelError::EmptyTrainingSet`] for an empty design,
    /// [`ModelError::SampleCountMismatch`] when `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[f64], params: &TreeParams) -> Result<Self, ModelError> {
        let _span = dynawave_obs::span("neural.tree_fit");
        if x.rows() == 0 || x.cols() == 0 {
            return Err(ModelError::EmptyTrainingSet);
        }
        if x.rows() != y.len() {
            return Err(ModelError::SampleCountMismatch {
                features: x.rows(),
                targets: y.len(),
            });
        }
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            dims: x.cols(),
        };
        let all: Vec<usize> = (0..x.rows()).collect();
        let root_sse = sse(y, &all);
        // Guard against a constant target: any positive threshold then
        // blocks all splits, which is correct (single-node tree).
        let sse_floor = params.min_impurity_decrease * root_sse.max(f64::EPSILON);
        tree.grow(x, y, all, 0, params, sse_floor);
        Ok(tree)
    }

    /// Number of nodes (== number of RBF units derived from the tree).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.split.is_none()).count()
    }

    /// Input dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Predicts with the mean target of the leaf that `x` falls into.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dims()`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dims, "tree input dimension mismatch");
        let mut idx = 0usize;
        loop {
            let node = &self.nodes[idx];
            match (&node.split, node.left, node.right) {
                (Some(split), Some(l), Some(r)) => {
                    idx = if x[split.feature] <= split.threshold {
                        l
                    } else {
                        r
                    };
                }
                _ => return node.mean_y,
            }
        }
    }

    /// All split decisions in breadth-independent node order.
    pub fn splits(&self) -> Vec<&SplitInfo> {
        self.nodes.iter().filter_map(|n| n.split.as_ref()).collect()
    }

    /// Per-feature split counts — the paper's "split frequency" ranking.
    ///
    /// `result[f]` is the number of nodes that split on feature `f`.
    pub fn split_frequencies(&self) -> Vec<usize> {
        let mut freq = vec![0usize; self.dims];
        for s in self.splits() {
            freq[s.feature] += 1;
        }
        freq
    }

    /// Per-feature split-*order* scores — the paper's "split order" ranking.
    ///
    /// Parameters that "cause the most output variation tend to be split
    /// earliest"; we score each feature by `1 / (1 + depth)` summed over its
    /// splits, so a feature split at the root scores 1.0 and deeper splits
    /// contribute progressively less. Features never split on score 0.
    pub fn split_order_scores(&self) -> Vec<f64> {
        let mut scores = vec![0.0f64; self.dims];
        for s in self.splits() {
            scores[s.feature] += 1.0 / (1.0 + s.depth as f64);
        }
        scores
    }

    /// Cost-complexity pruning (CART's weakest-link criterion): collapses
    /// every internal node whose split buys less than `alpha` SSE
    /// reduction per extra leaf, i.e. where
    /// `(node SSE - subtree SSE) / (leaves - 1) <= alpha`.
    ///
    /// Returns a new, compact tree; `alpha = 0` removes only splits that
    /// achieve no reduction at all, `alpha = f64::INFINITY` collapses to a
    /// single node.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or NaN.
    pub fn pruned(&self, alpha: f64) -> RegressionTree {
        assert!(alpha >= 0.0, "pruning strength must be non-negative");
        let mut out = RegressionTree {
            nodes: Vec::new(),
            dims: self.dims,
        };
        self.copy_pruned(0, alpha, &mut out);
        out
    }

    /// Subtree SSE (sum over reachable leaves) and leaf count.
    fn subtree_cost(&self, idx: usize) -> (f64, usize) {
        let node = &self.nodes[idx];
        match (node.left, node.right) {
            (Some(l), Some(r)) if node.split.is_some() => {
                let (sl, nl) = self.subtree_cost(l);
                let (sr, nr) = self.subtree_cost(r);
                (sl + sr, nl + nr)
            }
            _ => (node.sse, 1),
        }
    }

    fn copy_pruned(&self, idx: usize, alpha: f64, out: &mut RegressionTree) -> usize {
        let node = &self.nodes[idx];
        let new_idx = out.nodes.len();
        out.nodes.push(Node {
            split: None,
            left: None,
            right: None,
            ..node.clone()
        });
        if let (Some(split), Some(l), Some(r)) = (&node.split, node.left, node.right) {
            let (subtree_sse, leaves) = self.subtree_cost(idx);
            let gain_per_leaf = (node.sse - subtree_sse) / (leaves.saturating_sub(1).max(1)) as f64;
            if gain_per_leaf > alpha {
                let nl = self.copy_pruned(l, alpha, out);
                let nr = self.copy_pruned(r, alpha, out);
                out.nodes[new_idx].split = Some(split.clone());
                out.nodes[new_idx].left = Some(nl);
                out.nodes[new_idx].right = Some(nr);
            }
        }
        new_idx
    }

    /// Iterates over `(center, extent, mean_y, sse)` for every node; the
    /// raw material for RBF unit placement.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn grow(
        &mut self,
        x: &Matrix,
        y: &[f64],
        samples: Vec<usize>,
        depth: usize,
        params: &TreeParams,
        sse_floor: f64,
    ) -> usize {
        let node_idx = self.nodes.len();
        self.nodes.push(make_leaf(x, y, &samples));

        if depth >= params.max_depth || samples.len() < params.min_samples_split {
            return node_idx;
        }
        let Some((feature, threshold, decrease)) =
            best_split(x, y, &samples, params.min_samples_leaf)
        else {
            return node_idx;
        };
        if decrease < sse_floor {
            return node_idx;
        }
        let (left, right): (Vec<usize>, Vec<usize>) =
            samples.iter().partition(|&&s| x[(s, feature)] <= threshold);
        debug_assert!(!left.is_empty() && !right.is_empty());
        let l = self.grow(x, y, left, depth + 1, params, sse_floor);
        let r = self.grow(x, y, right, depth + 1, params, sse_floor);
        self.nodes[node_idx].split = Some(SplitInfo {
            feature,
            threshold,
            depth,
            impurity_decrease: decrease,
        });
        self.nodes[node_idx].left = Some(l);
        self.nodes[node_idx].right = Some(r);
        node_idx
    }
}

fn make_leaf(x: &Matrix, y: &[f64], samples: &[usize]) -> Node {
    let d = x.cols();
    let n = samples.len().max(1);
    let mut center = vec![0.0; d];
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    let mut mean_y = 0.0;
    for &s in samples {
        for (c, &v) in x.row(s).iter().enumerate() {
            center[c] += v;
            lo[c] = lo[c].min(v);
            hi[c] = hi[c].max(v);
        }
        mean_y += y[s];
    }
    for c in center.iter_mut() {
        *c /= n as f64;
    }
    mean_y /= n as f64;
    let extent = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| if h > l { (h - l) / 2.0 } else { 0.0 })
        .collect();
    let sse = samples.iter().map(|&s| (y[s] - mean_y).powi(2)).sum();
    Node {
        center,
        extent,
        mean_y,
        sse,
        split: None,
        left: None,
        right: None,
    }
}

fn sse(y: &[f64], samples: &[usize]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mean = samples.iter().map(|&s| y[s]).sum::<f64>() / samples.len() as f64;
    samples.iter().map(|&s| (y[s] - mean).powi(2)).sum()
}

/// Exhaustive best-split search: O(d * n log n).
fn best_split(
    x: &Matrix,
    y: &[f64],
    samples: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let parent_sse = sse(y, samples);
    let n = samples.len();
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..x.cols() {
        let mut order: Vec<usize> = samples.to_vec();
        order.sort_by(|&a, &b| x[(a, feature)].total_cmp(&x[(b, feature)]));
        // Prefix sums over the sorted order for O(1) SSE of both sides.
        let mut sum_left = 0.0;
        let mut sumsq_left = 0.0;
        let total: f64 = order.iter().map(|&s| y[s]).sum();
        let totalsq: f64 = order.iter().map(|&s| y[s] * y[s]).sum();
        for i in 0..n - 1 {
            let yi = y[order[i]];
            sum_left += yi;
            sumsq_left += yi * yi;
            let v_here = x[(order[i], feature)];
            let v_next = x[(order[i + 1], feature)];
            if v_here == v_next {
                continue; // cannot separate equal values
            }
            let n_left = i + 1;
            let n_right = n - n_left;
            if n_left < min_leaf || n_right < min_leaf {
                continue;
            }
            let sse_left = sumsq_left - sum_left * sum_left / n_left as f64;
            let sum_right = total - sum_left;
            let sse_right = (totalsq - sumsq_left) - sum_right * sum_right / n_right as f64;
            let decrease = parent_sse - (sse_left + sse_right);
            let threshold = (v_here + v_next) / 2.0;
            if best.is_none_or(|(_, _, d)| decrease > d) {
                best = Some((feature, threshold, decrease));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Matrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let v = i as f64 / 19.0;
            rows.push(v);
            y.push(if v <= 0.5 { 1.0 } else { 5.0 });
        }
        (Matrix::from_vec(20, 1, rows).unwrap(), y)
    }

    #[test]
    fn learns_a_step_function() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        assert!((tree.predict(&[0.1]) - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[0.9]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn constant_target_single_node() {
        let x = Matrix::from_rows(&[
            &[0.0],
            &[0.5],
            &[1.0],
            &[2.0],
            &[3.0],
            &[4.0],
            &[5.0],
            &[6.0],
            &[7.0],
            &[8.0],
        ]);
        let y = vec![3.0; 10];
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict(&[0.3]), 3.0);
    }

    #[test]
    fn split_frequency_identifies_active_feature() {
        // y depends only on feature 1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..8 {
            for j in 0..8 {
                rows.extend([i as f64, j as f64]);
                y.push((j * j) as f64);
            }
        }
        let x = Matrix::from_vec(64, 2, rows).unwrap();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let freq = tree.split_frequencies();
        assert!(freq[1] > 0);
        assert!(freq[1] >= freq[0] * 3, "freq = {freq:?}");
        let order = tree.split_order_scores();
        assert!(order[1] > order[0]);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                max_depth: 0,
                ..TreeParams::default()
            },
        )
        .unwrap();
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn min_leaf_blocks_tiny_children() {
        let x = Matrix::from_rows(&[&[0.0], &[1.0], &[2.0], &[3.0]]);
        let y = [0.0, 0.0, 0.0, 10.0];
        let tree = RegressionTree::fit(
            &x,
            &y,
            &TreeParams {
                min_samples_split: 2,
                min_samples_leaf: 2,
                ..TreeParams::default()
            },
        )
        .unwrap();
        // Only the 2|2 split is admissible.
        for s in tree.splits() {
            assert!((s.threshold - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        let x = Matrix::zeros(0, 0);
        assert!(matches!(
            RegressionTree::fit(&x, &[], &TreeParams::default()),
            Err(ModelError::EmptyTrainingSet)
        ));
        let x = Matrix::zeros(3, 1);
        assert!(matches!(
            RegressionTree::fit(&x, &[1.0], &TreeParams::default()),
            Err(ModelError::SampleCountMismatch { .. })
        ));
    }

    #[test]
    fn pruning_infinity_collapses_to_root() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let pruned = tree.pruned(f64::INFINITY);
        assert_eq!(pruned.node_count(), 1);
        // Root prediction is the global mean.
        assert!((pruned.predict(&[0.5]) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn pruning_zero_keeps_useful_splits() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let pruned = tree.pruned(0.0);
        // The step split is essential; predictions are unchanged.
        assert!((pruned.predict(&[0.1]) - 1.0).abs() < 1e-9);
        assert!((pruned.predict(&[0.9]) - 5.0).abs() < 1e-9);
        assert!(pruned.node_count() <= tree.node_count());
    }

    #[test]
    fn pruning_is_monotone_in_alpha() {
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..64 {
            let v = i as f64 / 63.0;
            rows.push(v);
            y.push((v * 9.0).sin() + 0.05 * ((i * 37) % 11) as f64);
        }
        let x = Matrix::from_vec(64, 1, rows).unwrap();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let mut last = usize::MAX;
        for alpha in [0.0, 0.05, 0.5, 5.0] {
            let n = tree.pruned(alpha).node_count();
            assert!(n <= last, "node count grew: {n} > {last}");
            last = n;
        }
    }

    #[test]
    fn node_centers_are_sample_means() {
        let (x, y) = step_data();
        let tree = RegressionTree::fit(&x, &y, &TreeParams::default()).unwrap();
        let root = &tree.nodes()[0];
        let mean: f64 = (0..20).map(|i| x[(i, 0)]).sum::<f64>() / 20.0;
        assert!((root.center[0] - mean).abs() < 1e-12);
        // The root holds all 20 samples, so its target mean is theirs.
        let mean_y: f64 = y.iter().sum::<f64>() / 20.0;
        assert!((root.mean_y - mean_y).abs() < 1e-12);
    }
}
