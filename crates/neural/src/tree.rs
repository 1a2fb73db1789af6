//! CART-style regression tree with split introspection.

use crate::context::{check_design, check_targets};
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
    /// [`ModelError::NonFinite`] if `x` holds a NaN or infinity,
    /// [`ModelError::SampleCountMismatch`] when `y.len() != x.rows()`.
    pub fn fit(x: &Matrix, y: &[f64], params: &TreeParams) -> Result<Self, ModelError> {
        check_design(x)?;
        check_targets(x, y)?;
        Ok(Self::fit_ranked(x, &FeatureRanks::new(x), y, params))
    }

    /// Fits a tree on a validated, finite `x` whose features `ranks`
    /// ranks, with one target per row in `y`.
    pub(crate) fn fit_ranked(
        x: &Matrix,
        ranks: &FeatureRanks,
        y: &[f64],
        params: &TreeParams,
    ) -> Self {
        let _span = dynawave_obs::span("neural.tree_fit");
        let mut tree = RegressionTree {
            nodes: Vec::new(),
            dims: x.cols(),
        };
        let all: Vec<usize> = (0..x.rows()).collect();
        let root_sse = sse(y, &all);
        // Guard against a constant target: any positive threshold then
        // blocks all splits, which is correct (single-node tree).
        let sse_floor = params.min_impurity_decrease * root_sse.max(f64::EPSILON);
        let fit = Fit {
            x,
            ranks,
            y,
            params,
            sse_floor,
        };
        tree.grow(&fit, all, 0, &mut SplitScratch::default());
        tree
    }

    /// Number of nodes (== number of RBF units derived from the tree).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
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

    /// Iterates over `(center, extent, mean_y)` for every node; the
    /// raw material for RBF unit placement.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    fn grow(
        &mut self,
        fit: &Fit<'_>,
        samples: Vec<usize>,
        depth: usize,
        scratch: &mut SplitScratch,
    ) -> usize {
        let x = fit.x;
        let node_idx = self.nodes.len();
        self.nodes.push(make_leaf(x, fit.y, &samples));

        if depth >= fit.params.max_depth || samples.len() < fit.params.min_samples_split {
            return node_idx;
        }
        let Some((feature, threshold, decrease)) = best_split(fit, &samples, scratch) else {
            return node_idx;
        };
        if decrease < fit.sse_floor {
            return node_idx;
        }
        let (left, right): (Vec<usize>, Vec<usize>) =
            samples.iter().partition(|&&s| x[(s, feature)] <= threshold);
        debug_assert!(!left.is_empty() && !right.is_empty());
        let l = self.grow(fit, left, depth + 1, scratch);
        let r = self.grow(fit, right, depth + 1, scratch);
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

/// Each feature's samples ranked by value, computed once per design so
/// that split search orders a node's samples by counting instead of
/// sorting.
///
/// Ranks follow `f64::total_cmp`: equal ranks mean bit-equal values, and
/// `-0.0` ranks below `+0.0`. Ordering a node's samples by rank, ties in
/// node order, therefore reproduces a stable `total_cmp` sort of them.
#[derive(Debug, Clone)]
pub(crate) struct FeatureRanks {
    rows: usize,
    /// Distinct values per feature.
    levels: Vec<usize>,
    /// `ranks[f * rows + s]`: the rank of sample `s`'s value among the
    /// distinct values of feature `f`, smallest first.
    ranks: Vec<usize>,
}

impl FeatureRanks {
    /// Ranks every feature of `x`: the tree's only sort.
    pub(crate) fn new(x: &Matrix) -> Self {
        let (rows, dims) = x.shape();
        let mut levels = Vec::with_capacity(dims);
        let mut ranks = vec![0; rows * dims];
        let mut order: Vec<usize> = (0..rows).collect();
        for (feature, rank) in ranks.chunks_exact_mut(rows.max(1)).enumerate().take(dims) {
            let column = x.col(feature);
            order.sort_unstable_by(|&a, &b| column[a].total_cmp(&column[b]));
            let mut level = 0;
            let mut prev: Option<f64> = None;
            for &s in &order {
                let v = column[s];
                if prev.is_some_and(|p| p.total_cmp(&v).is_ne()) {
                    level += 1;
                }
                prev = Some(v);
                rank[s] = level;
            }
            levels.push(level + 1);
        }
        FeatureRanks {
            rows,
            levels,
            ranks,
        }
    }

    /// Writes `samples` into `scratch.order` ascending by their value of
    /// `feature`, equal values in `samples` order: a stable counting sort
    /// over the ranks.
    fn order_into(&self, feature: usize, samples: &[usize], scratch: &mut SplitScratch) {
        let rank = &self.ranks[feature * self.rows..(feature + 1) * self.rows];
        let next = &mut scratch.next;
        next.clear();
        next.resize(self.levels[feature] + 1, 0);
        for &s in samples {
            next[rank[s] + 1] += 1;
        }
        for level in 1..next.len() {
            next[level] += next[level - 1];
        }
        let order = &mut scratch.order;
        order.clear();
        order.resize(samples.len(), 0);
        for &s in samples {
            let slot = &mut next[rank[s]];
            order[*slot] = s;
            *slot += 1;
        }
    }
}

/// One tree fit's inputs: the matrix it splits on with its feature
/// ranks, the targets, the parameters and the absolute SSE floor.
struct Fit<'a> {
    x: &'a Matrix,
    ranks: &'a FeatureRanks,
    y: &'a [f64],
    params: &'a TreeParams,
    sse_floor: f64,
}

/// Buffers the split search reuses across features and nodes.
#[derive(Default)]
struct SplitScratch {
    /// A node's samples in value order for the feature being scanned.
    order: Vec<usize>,
    /// Per rank, the next free slot in `order`.
    next: Vec<usize>,
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
    Node {
        center,
        extent,
        mean_y,
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

/// Exhaustive best-split search over every feature and every boundary
/// between distinct values: O(d * (n + levels)) per node, where `levels`
/// is a feature's number of distinct values in the whole design.
///
/// Each feature's samples are ordered by rank ([`FeatureRanks`]) and
/// scanned once with prefix sums. The order, and so every sum, matches a
/// stable sort of the samples by value.
fn best_split(
    fit: &Fit<'_>,
    samples: &[usize],
    scratch: &mut SplitScratch,
) -> Option<(usize, f64, f64)> {
    let (x, y, min_leaf) = (fit.x, fit.y, fit.params.min_samples_leaf);
    let parent_sse = sse(y, samples);
    let n = samples.len();
    let mut best: Option<(usize, f64, f64)> = None;
    for feature in 0..x.cols() {
        fit.ranks.order_into(feature, samples, scratch);
        let order = &scratch.order;
        // Prefix sums over the value order for O(1) SSE of both sides.
        let mut sum_left = 0.0;
        let mut sumsq_left = 0.0;
        let total: f64 = order.iter().map(|&s| y[s]).sum();
        let totalsq: f64 = order.iter().map(|&s| y[s] * y[s]).sum();
        for i in 0..n.saturating_sub(1) {
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
    use dynawave_testkit::{check, Rng};

    /// The split search as it was before feature ranks: a stable sort of
    /// the node's samples per feature, then the same prefix-sum scan. Kept
    /// as the oracle the rank-based search must match bit for bit.
    fn best_split_sorted(
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
                    continue;
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

    /// One feature column of `rows` values, drawn as one of the shapes the
    /// split search must handle: 1–5 levels (Table 2 parameters over an
    /// LHS design), all-distinct continuous values, heavy duplicates, or
    /// a mix of `-0.0`, `+0.0` and a few other values.
    fn feature_column(rng: &mut Rng, rows: usize) -> Vec<f64> {
        let pool: Vec<f64> = match rng.range_usize(0, 4) {
            0 => (0..rng.range_usize(1, 6))
                .map(|l| 2f64.powi(l as i32) * rng.range_f64(0.5, 1.5))
                .collect(),
            1 => return (0..rows).map(|_| rng.range_f64(-5.0, 5.0)).collect(),
            2 => (0..(rows / 3).max(1))
                .map(|_| rng.range_f64(-1.0, 1.0))
                .collect(),
            _ => vec![-0.0, 0.0, -0.0, 0.0, 1.0, -1.0, 0.5],
        };
        (0..rows)
            .map(|_| pool[rng.range_usize(0, pool.len())])
            .collect()
    }

    /// Targets: continuous, few-valued, or signed zeros.
    fn targets(rng: &mut Rng, rows: usize) -> Vec<f64> {
        let kind = rng.range_usize(0, 3);
        (0..rows)
            .map(|_| match kind {
                0 => rng.range_f64(-10.0, 10.0),
                1 => rng.range_usize(0, 3) as f64,
                _ => [-0.0, 0.0, 1e-300][rng.range_usize(0, 3)],
            })
            .collect()
    }

    type SplitCase = (Vec<Vec<f64>>, Vec<f64>, (usize, Vec<bool>));

    fn split_case(rng: &mut Rng) -> SplitCase {
        let rows = rng.range_usize(1, 41);
        let dims = rng.range_usize(1, 6);
        let columns = (0..dims).map(|_| feature_column(rng, rows)).collect();
        let y = targets(rng, rows);
        let keep = (0..rows).map(|_| rng.next_bool()).collect();
        (columns, y, (rng.range_usize(1, 5), keep))
    }

    #[test]
    fn rank_split_search_matches_the_sorting_oracle_bit_for_bit() {
        check("rank split search == sorted split search")
            .cases(256)
            .run(split_case, |(columns, y, (min_leaf, keep))| {
                let rows = columns
                    .iter()
                    .map(Vec::len)
                    .chain([y.len(), keep.len()])
                    .min()
                    .unwrap_or(0);
                if rows == 0 || columns.is_empty() {
                    return Ok(());
                }
                let data = (0..rows)
                    .flat_map(|r| columns.iter().map(move |c| c[r]))
                    .collect();
                let x = Matrix::from_vec(rows, columns.len(), data).unwrap();
                let y = &y[..rows];
                let ranks = FeatureRanks::new(&x);
                let params = TreeParams {
                    min_samples_leaf: *min_leaf,
                    ..TreeParams::default()
                };
                let fit = Fit {
                    x: &x,
                    ranks: &ranks,
                    y,
                    params: &params,
                    sse_floor: 0.0,
                };
                let all: Vec<usize> = (0..rows).collect();
                let kept: Vec<usize> = (0..rows).filter(|&r| keep[r]).collect();
                let mut scratch = SplitScratch::default();
                for samples in [all, kept] {
                    if samples.is_empty() {
                        continue;
                    }
                    let bits = |s: Option<(usize, f64, f64)>| {
                        s.map(|(f, t, d)| (f, t.to_bits(), d.to_bits()))
                    };
                    let got = bits(best_split(&fit, &samples, &mut scratch));
                    let want = bits(best_split_sorted(&x, y, &samples, *min_leaf));
                    if got != want {
                        return Err(format!("samples {samples:?}: {got:?} != oracle {want:?}"));
                    }
                }
                Ok(())
            });
    }

    #[test]
    fn rejects_a_non_finite_design() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let x = Matrix::from_rows(&[&[0.0], &[bad], &[1.0], &[2.0]]);
            assert_eq!(
                RegressionTree::fit(&x, &[0.0, 1.0, 2.0, 3.0], &TreeParams::default()).unwrap_err(),
                ModelError::NonFinite {
                    context: "design matrix"
                }
            );
        }
    }

    #[test]
    fn ranks_follow_total_order_with_signed_zeros_apart() {
        let x = Matrix::from_rows(&[&[0.0], &[-0.0], &[2.0], &[-1.0], &[0.0]]);
        let ranks = FeatureRanks::new(&x);
        assert_eq!(ranks.levels, vec![4]);
        assert_eq!(ranks.ranks, vec![2, 1, 3, 0, 2]);
        let mut scratch = SplitScratch::default();
        ranks.order_into(0, &[0, 1, 2, 4], &mut scratch);
        assert_eq!(scratch.order, vec![1, 0, 4, 2]);
    }

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
