//! CART decision trees on binned data (Gini impurity), the base learner of
//! the Random Forest.

use crate::binning::{BinnedData, HIST_GROUP};
use crate::node::{self, Node, LEAF};
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
        DecisionTree::fit_recording(data, labels, indices, params, rng, &mut Vec::new())
    }

    /// Fits a tree and appends each split's `(feature, gain * rows)` to
    /// `gains` in growth order; the forest folds them into its Gini-gain
    /// importances.
    pub(crate) fn fit_recording(
        data: &BinnedData,
        labels: &[bool],
        indices: &[u32],
        params: &TreeParams,
        rng: &mut StdRng,
        gains: &mut Vec<(u16, f64)>,
    ) -> Self {
        assert!(data.d < LEAF as usize, "too many features for a u16 index");
        let mut grower = Grower {
            data,
            labels,
            params,
            rng,
            gains,
            nodes: Vec::new(),
            hist: vec![[[0; 2]; 256]; HIST_GROUP],
        };
        grower.grow(&mut indices.to_vec(), 0);
        DecisionTree {
            nodes: grower.nodes,
        }
    }

    /// A tree of prepared nodes (root first).
    #[cfg(test)]
    pub(crate) fn from_nodes(nodes: Vec<Node>) -> Self {
        DecisionTree { nodes }
    }

    /// Probability of the positive class for a raw feature row.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        node::walk(&self.nodes, row)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the tree.
    pub fn depth(&self) -> usize {
        node::depth(&self.nodes)
    }
}

/// Recursive CART growth over one tree's rows.
struct Grower<'a> {
    data: &'a BinnedData,
    labels: &'a [bool],
    params: &'a TreeParams,
    rng: &'a mut StdRng,
    gains: &'a mut Vec<(u16, f64)>,
    nodes: Vec<Node>,
    /// Histogram scratch, one per feature of a pass.
    hist: Vec<GiniHist>,
}

impl Grower<'_> {
    /// Grows the subtree of `indices` (partitioned in place) in pre-order
    /// and returns its root.
    fn grow(&mut self, indices: &mut [u32], depth: usize) -> u32 {
        let (data, params) = (self.data, self.params);
        let n = indices.len();
        let pos = indices.iter().filter(|&&i| self.labels[i as usize]).count();
        let prob = pos as f32 / n.max(1) as f32;
        let node_id = self.nodes.len() as u32;

        if depth >= params.max_depth || n < 2 * params.min_samples_leaf || pos == 0 || pos == n {
            self.nodes.push(Node::leaf(prob));
            return node_id;
        }

        let Some((feature, cut, gain)) = best_gini_split(
            data,
            self.labels,
            indices,
            pos,
            params,
            self.rng,
            &mut self.hist,
        ) else {
            self.nodes.push(Node::leaf(prob));
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
            self.nodes.push(Node::leaf(prob));
            return node_id;
        }

        self.gains.push((feature, gain * n as f64));
        self.nodes.push(Node::leaf(prob)); // placeholder
        let (left_idx, right_idx) = indices.split_at_mut(lo);
        let left = self.grow(left_idx, depth + 1);
        let right = self.grow(right_idx, depth + 1);
        let threshold = data.binner.threshold(feature as usize, cut);
        self.nodes[node_id as usize] = Node::split(feature, threshold, cut, left, right);
        node_id
    }
}

/// Class counts per bin of one feature over a node's rows:
/// `[rows, positive rows]` per bin.
type GiniHist = [[u32; 2]; 256];

/// Finds the best Gini split over (subsampled) features; returns
/// `(feature, bin cut, gain)`. `total_pos` counts the positive rows of
/// `indices`; `hist` holds [`HIST_GROUP`] scratch histograms.
///
/// Features are scanned in their subsampled order and a cut replaces the
/// best only on a strictly larger gain, so ties go to the first feature
/// and the first cut.
fn best_gini_split(
    data: &BinnedData,
    labels: &[bool],
    indices: &[u32],
    total_pos: usize,
    params: &TreeParams,
    rng: &mut StdRng,
    hist: &mut [GiniHist],
) -> Option<(u16, u8, f64)> {
    let n = indices.len() as f64;
    let total_pos = total_pos as f64;
    let parent_gini = gini(total_pos, n);

    let mut features: Vec<usize> =
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
    features.retain(|&f| data.binner.bins(f) >= 2);

    let mut best: Option<(u16, u8, f64)> = None;
    for group in features.chunks(HIST_GROUP) {
        data.histograms(
            indices,
            group,
            hist,
            |i| u32::from(labels[i]),
            |bin, y| {
                bin[0] += 1;
                bin[1] += y;
            },
        );
        for (&f, h) in group.iter().zip(hist.iter()) {
            let mut left_n = 0f64;
            let mut left_pos = 0f64;
            for (cut, &[count, pos]) in h[..data.binner.bins(f) - 1].iter().enumerate() {
                // A cut over an empty bin leaves the same rows on each side
                // as the cut before it, so its gain repeats that cut's and
                // the strict `gain > g` below cannot take it. Cut 0 has no
                // predecessor.
                if count == 0 && cut > 0 {
                    continue;
                }
                left_n += count as f64;
                left_pos += pos as f64;
                let right_n = n - left_n;
                if left_n < params.min_samples_leaf as f64
                    || right_n < params.min_samples_leaf as f64
                {
                    continue;
                }
                let right_pos = total_pos - left_pos;
                let weighted = (left_n / n) * gini(left_pos, left_n)
                    + (right_n / n) * gini(right_pos, right_n);
                let gain = parent_gini - weighted;
                // Zero-gain splits are allowed (XOR-like interactions have no
                // first-order gain); growth is bounded by depth and leaf size.
                if gain > -1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f as u16, cut as u8, gain));
                }
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
pub(crate) mod tests {
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

    /// `best_gini_split` before grouped histograms and the empty-bin skip:
    /// one feature's histogram per pass, every cut evaluated. The oracle of
    /// the grouped search.
    fn best_gini_split_per_feature(
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
                if left_n < params.min_samples_leaf as f64
                    || right_n < params.min_samples_leaf as f64
                {
                    continue;
                }
                let right_pos = total_pos - left_pos;
                let weighted = (left_n / n) * gini(left_pos, left_n)
                    + (right_n / n) * gini(right_pos, right_n);
                let gain = parent_gini - weighted;
                if gain > -1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f as u16, cut as u8, gain));
                }
            }
        }
        best
    }

    /// Random binned data for split-search oracles: a mix of few-valued
    /// columns (row subsets leave many of their bins empty), continuous
    /// columns and duplicated columns (tied gains), with random labels.
    pub(crate) fn random_binned(rng: &mut StdRng) -> (SampleSet, BinnedData) {
        let d = rng.random_range(1..12usize);
        let n = rng.random_range(1..300usize);
        let kinds: Vec<u32> = (0..d).map(|_| rng.random_range(0..4u32)).collect();
        let pos_rate = rng.random::<f32>();
        let mut rows: Vec<(Vec<f32>, bool)> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(d);
            for (f, &kind) in kinds.iter().enumerate() {
                row.push(match kind {
                    0 => rng.random_range(0..3u32) as f32,
                    1 => rng.random_range(0..40u32) as f32,
                    2 if f > 0 => row[f - 1],
                    _ => rng.random::<f32>(),
                });
            }
            rows.push((row, rng.random::<f32>() < pos_rate));
        }
        let set = make_set(rows);
        let max_bins = [2, 4, 16, 64, 255][rng.random_range(0..5usize)];
        let data = BinnedData::from_samples(&set, max_bins);
        (set, data)
    }

    /// Row indices of a node: a random multiset of rows in random order
    /// (bootstrap samples repeat rows).
    pub(crate) fn random_rows(rng: &mut StdRng, n: usize) -> Vec<u32> {
        let len = rng.random_range(1..=2 * n);
        let span = rng.random_range(1..=n);
        (0..len).map(|_| rng.random_range(0..span) as u32).collect()
    }

    #[test]
    fn grouped_gini_search_matches_per_feature_oracle() {
        let mut rng = StdRng::seed_from_u64(0x617a1);
        let mut hist = vec![[[0; 2]; 256]; HIST_GROUP];
        let mut found = 0;
        for case in 0..600 {
            let (set, data) = random_binned(&mut rng);
            let params = TreeParams {
                max_depth: 8,
                min_samples_leaf: [0, 1, 5, 80][rng.random_range(0..4usize)],
                feature_subsample: rng.random_range(0..=data.d + 1),
            };
            let indices = random_rows(&mut rng, set.len());
            let pos = indices.iter().filter(|&&i| set.labels[i as usize]).count();
            let seed = rng.next_u64();
            let (mut r_new, mut r_old) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let got = best_gini_split(
                &data,
                &set.labels,
                &indices,
                pos,
                &params,
                &mut r_new,
                &mut hist,
            );
            let want =
                best_gini_split_per_feature(&data, &set.labels, &indices, &params, &mut r_old);
            let bits = |s: Option<(u16, u8, f64)>| s.map(|(f, c, g)| (f, c, g.to_bits()));
            assert_eq!(bits(got), bits(want), "case {case}, {params:?}");
            assert_eq!(r_new.next_u64(), r_old.next_u64(), "case {case}: rng drift");
            found += usize::from(got.is_some());
        }
        assert!(found > 200, "only {found} cases found a split");
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
