//! CART decision trees on binned data (Gini impurity), the base learner of
//! the Random Forest.

use crate::binning::BinnedData;
use mfp_rng::StdRng;

/// Hyper-parameters for a classification tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Number of features considered per split (0 = all).
    pub feature_subsample: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 12,
            min_samples_leaf: 5,
            feature_subsample: 0,
        }
    }
}

/// A tree node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf {
        prob: f32,
    },
    Split {
        feature: u16,
        /// Raw-value threshold: `value <= threshold` goes left.
        threshold: f32,
        /// Bin cut used during training (`bin <= cut` goes left).
        cut: u8,
        left: u32,
        right: u32,
    },
}

/// A trained CART classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Fits a tree on `indices` of the binned data.
    ///
    /// `labels[i]` is sample `i`'s class; `rng` drives feature subsampling.
    pub fn fit(
        data: &BinnedData,
        labels: &[bool],
        indices: &[u32],
        params: &TreeParams,
        rng: &mut StdRng,
    ) -> Self {
        let mut unused = vec![0.0; data.d];
        DecisionTree::fit_with_importance(data, labels, indices, params, rng, &mut unused)
    }

    /// Fits a tree, accumulating each split's (weighted) Gini gain into
    /// `importance[feature]`.
    ///
    /// # Panics
    ///
    /// Panics if `importance.len() != data.d`.
    pub fn fit_with_importance(
        data: &BinnedData,
        labels: &[bool],
        indices: &[u32],
        params: &TreeParams,
        rng: &mut StdRng,
        importance: &mut [f64],
    ) -> Self {
        assert_eq!(importance.len(), data.d);
        let mut tree = DecisionTree { nodes: Vec::new() };
        let mut idx = indices.to_vec();
        tree.grow(data, labels, &mut idx, params, 0, rng, importance);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn grow(
        &mut self,
        data: &BinnedData,
        labels: &[bool],
        indices: &mut [u32],
        params: &TreeParams,
        depth: usize,
        rng: &mut StdRng,
        importance: &mut [f64],
    ) -> u32 {
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| labels[i as usize]).count();
        let prob = pos as f32 / n.max(1) as f32;
        let node_id = self.nodes.len() as u32;

        if depth >= params.max_depth || n < 2 * params.min_samples_leaf || pos == 0 || pos == n {
            self.nodes.push(Node::Leaf { prob });
            return node_id;
        }

        let Some((feature, cut, gain)) = best_gini_split(data, labels, indices, params, rng) else {
            self.nodes.push(Node::Leaf { prob });
            return node_id;
        };

        // Partition in place.
        let mut lo = 0usize;
        let mut hi = n;
        while lo < hi {
            if data.code(feature as usize, indices[lo] as usize) <= cut {
                lo += 1;
            } else {
                hi -= 1;
                indices.swap(lo, hi);
            }
        }
        if lo < params.min_samples_leaf || n - lo < params.min_samples_leaf {
            self.nodes.push(Node::Leaf { prob });
            return node_id;
        }

        importance[feature as usize] += gain * n as f64;
        self.nodes.push(Node::Leaf { prob }); // placeholder
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = self.grow(data, labels, left_idx, params, depth + 1, rng, importance);
        let right = self.grow(data, labels, right_idx, params, depth + 1, rng, importance);
        self.nodes[node_id as usize] = Node::Split {
            feature,
            threshold: data.binner.threshold(feature as usize, cut),
            cut,
            left,
            right,
        };
        node_id
    }

    /// Probability of the positive class for a raw feature row.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { prob } => return *prob,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    node = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[Node], id: usize) -> usize {
            match &nodes[id] {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left as usize).max(depth_of(nodes, *right as usize))
                }
            }
        }
        depth_of(&self.nodes, 0)
    }
}

/// Finds the best Gini split over (subsampled) features; returns
/// `(feature, bin cut, gain)`.
fn best_gini_split(
    data: &BinnedData,
    labels: &[bool],
    indices: &[u32],
    params: &TreeParams,
    rng: &mut StdRng,
) -> Option<(u16, u8, f64)> {
    let n = indices.len() as f64;
    let total_pos = indices.iter().filter(|&&i| labels[i as usize]).count() as f64;
    let parent_gini = gini(total_pos, n);

    let features: Vec<usize> =
        if params.feature_subsample == 0 || params.feature_subsample >= data.d {
            (0..data.d).collect()
        } else {
            // Sample without replacement.
            let mut all: Vec<usize> = (0..data.d).collect();
            for k in 0..params.feature_subsample {
                let j = rng.random_range(k..all.len());
                all.swap(k, j);
            }
            all.truncate(params.feature_subsample);
            all
        };

    let mut best: Option<(u16, u8, f64)> = None;
    let mut count_hist = [0u32; 256];
    let mut pos_hist = [0u32; 256];
    for &f in &features {
        let bins = data.binner.bins(f);
        if bins < 2 {
            continue;
        }
        count_hist[..bins].fill(0);
        pos_hist[..bins].fill(0);
        for &i in indices {
            let b = data.code(f, i as usize) as usize;
            count_hist[b] += 1;
            pos_hist[b] += labels[i as usize] as u32;
        }
        let mut left_n = 0f64;
        let mut left_pos = 0f64;
        for cut in 0..bins - 1 {
            left_n += count_hist[cut] as f64;
            left_pos += pos_hist[cut] as f64;
            let right_n = n - left_n;
            if left_n < params.min_samples_leaf as f64 || right_n < params.min_samples_leaf as f64 {
                continue;
            }
            let right_pos = total_pos - left_pos;
            let weighted =
                (left_n / n) * gini(left_pos, left_n) + (right_n / n) * gini(right_pos, right_n);
            let gain = parent_gini - weighted;
            // Zero-gain splits are allowed (XOR-like interactions have no
            // first-order gain); growth is bounded by depth and leaf size.
            if gain > -1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f as u16, cut as u8, gain));
            }
        }
    }
    best
}

fn gini(pos: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let p = pos / n;
    2.0 * p * (1.0 - p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinnedData;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;
    use mfp_features::dataset::SampleSet;
    use mfp_rng::StdRng;

    fn make_set(rows: Vec<(Vec<f32>, bool)>) -> SampleSet {
        let mut s = SampleSet::new();
        s.schema = (0..rows[0].0.len()).map(|i| format!("f{i}")).collect();
        for (i, (row, y)) in rows.into_iter().enumerate() {
            s.push(
                row,
                y,
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    fn xor_set() -> SampleSet {
        // XOR of two binary features: needs depth 2.
        let mut rows = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for _ in 0..25 {
                    rows.push((vec![a as f32, b as f32], (a ^ b) == 1));
                }
            }
        }
        make_set(rows)
    }

    #[test]
    fn learns_xor_exactly() {
        let set = xor_set();
        let data = BinnedData::from_samples(&set, 8);
        let labels = set.labels.clone();
        let indices: Vec<u32> = (0..set.len() as u32).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let tree = DecisionTree::fit(&data, &labels, &indices, &TreeParams::default(), &mut rng);
        for (row, want) in [
            (vec![0.0f32, 0.0], 0.0f32),
            (vec![0.0, 1.0], 1.0),
            (vec![1.0, 0.0], 1.0),
            (vec![1.0, 1.0], 0.0),
        ] {
            assert_eq!(tree.predict_proba(&row), want, "{row:?}");
        }
        assert!(tree.depth() >= 3);
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let set = make_set(vec![
            (vec![1.0, 2.0], false),
            (vec![3.0, 4.0], false),
            (vec![5.0, 6.0], false),
        ]);
        let data = BinnedData::from_samples(&set, 8);
        let indices: Vec<u32> = (0..3).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(
            &data,
            &set.labels,
            &indices,
            &TreeParams::default(),
            &mut rng,
        );
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.predict_proba(&[9.0, 9.0]), 0.0);
    }

    #[test]
    fn respects_max_depth() {
        let set = xor_set();
        let data = BinnedData::from_samples(&set, 8);
        let indices: Vec<u32> = (0..set.len() as u32).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let params = TreeParams {
            max_depth: 1,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&data, &set.labels, &indices, &params, &mut rng);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_splits() {
        let set = make_set(vec![
            (vec![0.0], false),
            (vec![1.0], true),
            (vec![2.0], false),
            (vec![3.0], false),
        ]);
        let data = BinnedData::from_samples(&set, 8);
        let indices: Vec<u32> = (0..4).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let params = TreeParams {
            min_samples_leaf: 3,
            ..Default::default()
        };
        let tree = DecisionTree::fit(&data, &set.labels, &indices, &params, &mut rng);
        assert_eq!(tree.node_count(), 1, "4 samples can't split with leaf>=3");
    }

    #[test]
    fn separable_data_splits_on_right_feature() {
        // Feature 1 is pure noise; feature 0 separates at 0.5.
        let mut rows = Vec::new();
        for i in 0..100 {
            let y = i % 2 == 0;
            let x0 = if y { 1.0 } else { 0.0 };
            rows.push((vec![x0, (i % 7) as f32], y));
        }
        let set = make_set(rows);
        let data = BinnedData::from_samples(&set, 16);
        let indices: Vec<u32> = (0..set.len() as u32).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let tree = DecisionTree::fit(
            &data,
            &set.labels,
            &indices,
            &TreeParams::default(),
            &mut rng,
        );
        assert_eq!(tree.predict_proba(&[0.0, 3.0]), 0.0);
        assert_eq!(tree.predict_proba(&[1.0, 3.0]), 1.0);
    }
}
