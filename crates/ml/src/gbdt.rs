//! Histogram-based gradient-boosted decision trees with leaf-wise growth —
//! a from-scratch "LightGBM-style" learner (Ke et al., 2017): quantile
//! binning, second-order logistic loss, leaf-wise best-gain growth,
//! optional GOSS sampling, class weighting, and early stopping on a
//! validation split.

use crate::binning::{BinnedData, HIST_GROUP};
use crate::node::{self, Node, LEAF};
use mfp_features::dataset::SampleSet;
use mfp_rng::StdRng;

/// GBDT hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GbdtParams {
    /// Maximum boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage.
    pub learning_rate: f32,
    /// Maximum leaves per tree (leaf-wise growth).
    pub max_leaves: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// L2 regularization on leaf weights.
    pub lambda: f64,
    /// Histogram bins.
    pub max_bins: usize,
    /// GOSS sampling `(top_fraction a, random_fraction b)`; `None` uses all
    /// rows every round.
    pub goss: Option<(f64, f64)>,
    /// Stop after this many rounds without validation improvement.
    pub early_stopping_rounds: usize,
    /// Fraction of training rows held out for early stopping.
    pub validation_fraction: f64,
    /// Positive-class weight (0 = balance automatically).
    pub pos_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            n_rounds: 150,
            learning_rate: 0.07,
            max_leaves: 7,
            min_samples_leaf: 80,
            lambda: 10.0,
            max_bins: 64,
            goss: Some((0.2, 0.2)),
            early_stopping_rounds: 25,
            validation_fraction: 0.15,
            pos_weight: 0.0,
            seed: 11,
        }
    }
}

/// One regression tree of the ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct RegTree {
    nodes: Vec<Node>,
}

impl RegTree {
    /// Leaf value for a raw feature row.
    pub fn predict(&self, row: &[f32]) -> f32 {
        node::walk(&self.nodes, row)
    }

    /// Leaf value for a pre-binned sample.
    fn predict_binned(&self, data: &BinnedData, i: usize) -> f32 {
        node::walk_binned(&self.nodes, data, i)
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_leaf()).count()
    }
}

/// A trained gradient-boosting classifier.
#[derive(Debug, Clone)]
pub struct Gbdt {
    trees: Vec<RegTree>,
    base_score: f32,
    params: GbdtParams,
    importance: Vec<f64>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Gbdt {
    /// Trains on the sample set.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &SampleSet, params: &GbdtParams) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let data = BinnedData::from_samples(train, params.max_bins);
        assert!(data.d < LEAF as usize, "too many features for a u16 index");
        let n = train.len();
        let mut search = SplitSearch::new(&data);
        let mut rng = StdRng::seed_from_u64(params.seed);

        // Early-stopping split: the *last* rows form the validation set.
        // Sample sets group rows by DIMM, so this holds out whole DIMMs —
        // a random row split would leak DIMM identity into the stopper.
        let order: Vec<u32> = (0..n as u32).collect();
        let n_valid = ((n as f64 * params.validation_fraction) as usize).min(n / 3);
        let (boost_idx, valid_idx) = order.split_at(n - n_valid);

        let pos = train.labels.iter().filter(|&&l| l).count().max(1);
        let neg = (n - pos).max(1);
        let pos_weight = if params.pos_weight > 0.0 {
            params.pos_weight
        } else {
            (neg as f32 / pos as f32).clamp(1.0, 8.0)
        };

        let p0 = (pos as f32 / n as f32).clamp(1e-4, 1.0 - 1e-4);
        let base_score = (p0 / (1.0 - p0)).ln();
        let mut scores = vec![base_score; n];
        let mut trees: Vec<RegTree> = Vec::new();
        let mut importance = vec![0.0f64; train.dim()];

        let mut best_valid = f64::INFINITY;
        let mut best_len = 0usize;
        let mut since_best = 0usize;

        let mut grad = vec![0f32; n];
        let mut hess = vec![0f32; n];
        #[allow(clippy::needless_range_loop)] // grad/hess/scores walked in lockstep
        for _round in 0..params.n_rounds {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                let y = train.labels[i] as u8 as f32;
                let w = if train.labels[i] { pos_weight } else { 1.0 };
                grad[i] = (p - y) * w;
                hess[i] = (p * (1.0 - p)).max(1e-6) * w;
            }

            // GOSS selection with gradient amplification.
            let mut sel: Vec<u32>;
            let mut amp = vec![1.0f32; 0];
            match params.goss {
                Some((a, b)) if boost_idx.len() > 2000 => {
                    let mut by_grad: Vec<u32> = boost_idx.to_vec();
                    by_grad.sort_by(|&x, &y| {
                        grad[y as usize]
                            .abs()
                            .partial_cmp(&grad[x as usize].abs())
                            .unwrap()
                    });
                    let top_n = (by_grad.len() as f64 * a) as usize;
                    let rest_n = (by_grad.len() as f64 * b) as usize;
                    sel = by_grad[..top_n].to_vec();
                    let rest = &by_grad[top_n..];
                    let scale = ((1.0 - a) / b) as f32;
                    amp = vec![1.0; sel.len()];
                    for _ in 0..rest_n {
                        let j = rng.random_range(0..rest.len());
                        sel.push(rest[j]);
                        amp.push(scale);
                    }
                }
                _ => {
                    sel = boost_idx.to_vec();
                }
            }
            // Apply amplification into copies of grad/hess for this round.
            let (g_round, h_round): (Vec<f32>, Vec<f32>) = if amp.is_empty() {
                (grad.clone(), hess.clone())
            } else {
                let mut g = grad.clone();
                let mut h = hess.clone();
                for (k, &i) in sel.iter().enumerate() {
                    g[i as usize] *= amp[k];
                    h[i as usize] *= amp[k];
                }
                (g, h)
            };

            let tree = grow_tree(
                &mut search,
                &g_round,
                &h_round,
                &sel,
                params,
                &mut importance,
            );
            // Update every sample's score.
            for i in 0..n {
                scores[i] += params.learning_rate * tree.predict_binned(&data, i);
            }
            trees.push(tree);

            // Validation logloss for early stopping.
            if !valid_idx.is_empty() {
                let mut loss = 0.0f64;
                for &i in valid_idx {
                    let p = sigmoid(scores[i as usize]).clamp(1e-6, 1.0 - 1e-6);
                    let y = train.labels[i as usize];
                    let w = if y { pos_weight as f64 } else { 1.0 };
                    loss -= w * if y {
                        (p as f64).ln()
                    } else {
                        (1.0 - p as f64).ln()
                    };
                }
                if loss + 1e-9 < best_valid {
                    best_valid = loss;
                    best_len = trees.len();
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best >= params.early_stopping_rounds {
                        break;
                    }
                }
            }
        }
        if best_len > 0 {
            trees.truncate(best_len);
        }
        let total: f64 = importance.iter().sum();
        if total > 0.0 {
            importance.iter_mut().for_each(|v| *v /= total);
        }
        Gbdt {
            trees,
            base_score,
            params: *params,
            importance,
        }
    }

    /// Normalized split-gain feature importance (sums to 1).
    pub fn feature_importance(&self) -> &[f64] {
        &self.importance
    }

    /// Positive-class probability for a raw feature row.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        let mut score = self.base_score;
        for tree in &self.trees {
            score += self.params.learning_rate * tree.predict(row);
        }
        sigmoid(score)
    }

    /// Number of boosted trees retained.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

/// A leaf's best split: `(feature, cut, gain, left_grad, left_hess)`.
type Split = (u16, u8, f64, f64, f64);

/// Leaf-wise tree growth on (grad, hess).
///
/// Each round splits the open leaf with the largest gain (the first in
/// `open` order on ties). A leaf's rows never change while it is open, so
/// its best split is searched once and kept in its `LeafState`.
fn grow_tree(
    search: &mut SplitSearch<'_>,
    grad: &[f32],
    hess: &[f32],
    indices: &[u32],
    params: &GbdtParams,
    importance: &mut [f64],
) -> RegTree {
    struct LeafState {
        node: u32,
        indices: Vec<u32>,
        sum_g: f64,
        sum_h: f64,
        /// `None` until searched.
        split: Option<Option<Split>>,
    }

    let data = search.data;
    let lambda = params.lambda;
    let leaf_value = |g: f64, h: f64| (-g / (h + lambda)) as f32;

    let sum_g: f64 = indices.iter().map(|&i| grad[i as usize] as f64).sum();
    let sum_h: f64 = indices.iter().map(|&i| hess[i as usize] as f64).sum();
    let mut nodes = vec![Node::leaf(leaf_value(sum_g, sum_h))];
    let mut open = vec![LeafState {
        node: 0,
        indices: indices.to_vec(),
        sum_g,
        sum_h,
        split: None,
    }];
    let mut n_leaves = 1usize;

    while n_leaves < params.max_leaves {
        // Find the open leaf with the best split.
        let mut best: Option<(usize, Split)> = None;
        for (li, leaf) in open.iter_mut().enumerate() {
            if leaf.indices.len() < 2 * params.min_samples_leaf {
                continue;
            }
            let split = *leaf.split.get_or_insert_with(|| {
                search.best_gain_split(grad, hess, &leaf.indices, leaf.sum_g, leaf.sum_h, params)
            });
            if let Some(split) = split {
                if best.is_none_or(|(_, (_, _, g, _, _))| split.2 > g) {
                    best = Some((li, split));
                }
            }
        }
        let Some((li, (f, cut, gain, gl, hl))) = best else {
            break;
        };
        importance[f as usize] += gain;
        let leaf = open.swap_remove(li);
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        let col = data.column(f as usize);
        for &i in &leaf.indices {
            if col[i as usize] <= cut {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        let gr = leaf.sum_g - gl;
        let hr = leaf.sum_h - hl;
        let left_id = nodes.len() as u32;
        nodes.push(Node::leaf(leaf_value(gl, hl)));
        let right_id = nodes.len() as u32;
        nodes.push(Node::leaf(leaf_value(gr, hr)));
        let threshold = data.binner.threshold(f as usize, cut);
        nodes[leaf.node as usize] = Node::split(f, threshold, cut, left_id, right_id);
        open.push(LeafState {
            node: left_id,
            indices: left_idx,
            sum_g: gl,
            sum_h: hl,
            split: None,
        });
        open.push(LeafState {
            node: right_id,
            indices: right_idx,
            sum_g: gr,
            sum_h: hr,
            split: None,
        });
        n_leaves += 1;
    }
    RegTree { nodes }
}

/// Gradient, hessian and row sums of one bin.
#[derive(Debug, Clone, Copy, Default)]
struct GhBin {
    g: f64,
    h: f64,
    count: u32,
}

/// Split search over one fit's binned data, with its histogram scratch.
struct SplitSearch<'a> {
    data: &'a BinnedData,
    /// Features with at least two bins, ascending.
    features: Vec<usize>,
    /// One histogram per feature of a pass.
    hist: Vec<[GhBin; 256]>,
}

impl<'a> SplitSearch<'a> {
    fn new(data: &'a BinnedData) -> Self {
        SplitSearch {
            data,
            features: (0..data.d).filter(|&f| data.binner.bins(f) >= 2).collect(),
            hist: vec![[GhBin::default(); 256]; HIST_GROUP],
        }
    }

    /// Best second-order-gain split of one leaf.
    ///
    /// Histograms are built [`HIST_GROUP`] features per pass over the
    /// rows; each bin still adds its rows in `indices` order, so every
    /// f64 sum is the one a pass per feature computes. Features are
    /// scanned in ascending order and a cut replaces the best only on a
    /// strictly larger gain, so ties go to the first feature and cut.
    fn best_gain_split(
        &mut self,
        grad: &[f32],
        hess: &[f32],
        indices: &[u32],
        sum_g: f64,
        sum_h: f64,
        params: &GbdtParams,
    ) -> Option<Split> {
        let lambda = params.lambda;
        let parent = sum_g * sum_g / (sum_h + lambda);
        let mut best: Option<Split> = None;
        for group in self.features.chunks(HIST_GROUP) {
            self.data.histograms(
                indices,
                group,
                &mut self.hist,
                |i| (grad[i] as f64, hess[i] as f64),
                |bin, (g, h)| {
                    bin.g += g;
                    bin.h += h;
                    bin.count += 1;
                },
            );
            for (&f, hist) in group.iter().zip(&self.hist) {
                let mut gl = 0f64;
                let mut hl = 0f64;
                let mut cl = 0u32;
                for (cut, bin) in hist[..self.data.binner.bins(f) - 1].iter().enumerate() {
                    // A cut over an empty bin has the left sums of the cut
                    // before it (adding the bin's +0.0 changes no sum: a
                    // running sum from +0.0 is never -0.0), so its gain
                    // repeats and the strict `gain > g` cannot take it. Cut
                    // 0 has no predecessor.
                    if bin.count == 0 && cut > 0 {
                        continue;
                    }
                    gl += bin.g;
                    hl += bin.h;
                    cl += bin.count;
                    let cr = indices.len() as u32 - cl;
                    if (cl as usize) < params.min_samples_leaf
                        || (cr as usize) < params.min_samples_leaf
                    {
                        continue;
                    }
                    let gr = sum_g - gl;
                    let hr = sum_h - hl;
                    let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent;
                    if gain > 1e-9 && best.is_none_or(|(_, _, g, _, _)| gain > g) {
                        best = Some((f as u16, cut as u8, gain, gl, hl));
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{enum_walk, pack, random_row, random_tree};
    use crate::tree::tests::{random_binned, random_rows};
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;

    /// `best_gain_split` before grouped histograms and the empty-bin skip:
    /// one feature's histogram per pass, every cut evaluated.
    fn best_gain_split_per_feature(
        data: &BinnedData,
        grad: &[f32],
        hess: &[f32],
        indices: &[u32],
        sum_g: f64,
        sum_h: f64,
        params: &GbdtParams,
    ) -> Option<Split> {
        let lambda = params.lambda;
        let parent = sum_g * sum_g / (sum_h + lambda);
        let mut best: Option<Split> = None;
        let mut g_hist = [0f64; 256];
        let mut h_hist = [0f64; 256];
        let mut c_hist = [0u32; 256];
        for f in 0..data.d {
            let bins = data.binner.bins(f);
            if bins < 2 {
                continue;
            }
            g_hist[..bins].fill(0.0);
            h_hist[..bins].fill(0.0);
            c_hist[..bins].fill(0);
            for &i in indices {
                let b = data.code(f, i as usize) as usize;
                g_hist[b] += grad[i as usize] as f64;
                h_hist[b] += hess[i as usize] as f64;
                c_hist[b] += 1;
            }
            let mut gl = 0f64;
            let mut hl = 0f64;
            let mut cl = 0u32;
            for cut in 0..bins - 1 {
                gl += g_hist[cut];
                hl += h_hist[cut];
                cl += c_hist[cut];
                let cr = indices.len() as u32 - cl;
                if (cl as usize) < params.min_samples_leaf
                    || (cr as usize) < params.min_samples_leaf
                {
                    continue;
                }
                let gr = sum_g - gl;
                let hr = sum_h - hl;
                let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent;
                if gain > 1e-9 && best.is_none_or(|(_, _, g, _, _)| gain > g) {
                    best = Some((f as u16, cut as u8, gain, gl, hl));
                }
            }
        }
        best
    }

    /// `grow_tree` before the leaf cache: every round searches every open
    /// leaf again, with the per-feature search.
    fn grow_tree_searching_every_round(
        data: &BinnedData,
        grad: &[f32],
        hess: &[f32],
        indices: &[u32],
        params: &GbdtParams,
        importance: &mut [f64],
    ) -> Vec<Node> {
        let lambda = params.lambda;
        let leaf_value = |g: f64, h: f64| (-g / (h + lambda)) as f32;
        let sum_g: f64 = indices.iter().map(|&i| grad[i as usize] as f64).sum();
        let sum_h: f64 = indices.iter().map(|&i| hess[i as usize] as f64).sum();
        let mut nodes = vec![Node::leaf(leaf_value(sum_g, sum_h))];
        // (node, indices, sum_g, sum_h)
        let mut open = vec![(0u32, indices.to_vec(), sum_g, sum_h)];
        let mut n_leaves = 1usize;
        while n_leaves < params.max_leaves {
            let mut best: Option<(usize, Split)> = None;
            for (li, (_, idx, g, h)) in open.iter().enumerate() {
                if idx.len() < 2 * params.min_samples_leaf {
                    continue;
                }
                if let Some(split) =
                    best_gain_split_per_feature(data, grad, hess, idx, *g, *h, params)
                {
                    if best.is_none_or(|(_, (_, _, g, _, _))| split.2 > g) {
                        best = Some((li, split));
                    }
                }
            }
            let Some((li, (f, cut, gain, gl, hl))) = best else {
                break;
            };
            importance[f as usize] += gain;
            let (node, idx, g, h) = open.swap_remove(li);
            let (left, right): (Vec<u32>, Vec<u32>) = idx
                .iter()
                .partition(|&&i| data.code(f as usize, i as usize) <= cut);
            let left_id = nodes.len() as u32;
            nodes.push(Node::leaf(leaf_value(gl, hl)));
            nodes.push(Node::leaf(leaf_value(g - gl, h - hl)));
            let threshold = data.binner.threshold(f as usize, cut);
            nodes[node as usize] = Node::split(f, threshold, cut, left_id, left_id + 1);
            open.push((left_id, left, gl, hl));
            open.push((left_id + 1, right, g - gl, h - hl));
            n_leaves += 1;
        }
        nodes
    }

    /// Gradients and hessians in one of several regimes: ordinary, zero,
    /// all negative, tiny (subnormal), huge, a mix of those, or small
    /// integers, whose sums are exact and so tie often across leaves.
    fn random_grad_hess(rng: &mut StdRng, n: usize) -> (Vec<f32>, Vec<f32>) {
        let regime = rng.random_range(0..7u32);
        if regime == 6 {
            let grad = (0..n)
                .map(|_| rng.random_range(0..3u32) as f32 - 1.0)
                .collect();
            return (grad, vec![1.0; n]);
        }
        let draw = |rng: &mut StdRng| -> f32 {
            let u = rng.random::<f32>() * 2.0 - 1.0;
            match if regime == 5 {
                rng.random_range(0..5u32)
            } else {
                regime
            } {
                0 => u,
                1 => 0.0,
                2 => -u.abs(),
                3 => u * 1e-40,
                _ => u * 1e37,
            }
        };
        let grad = (0..n).map(|_| draw(rng)).collect();
        let hess = (0..n).map(|_| draw(rng).abs()).collect();
        (grad, hess)
    }

    fn split_bits(s: Option<Split>) -> Option<(u16, u8, u64, u64, u64)> {
        s.map(|(f, c, g, gl, hl)| (f, c, g.to_bits(), gl.to_bits(), hl.to_bits()))
    }

    fn node_bits(nodes: &[Node]) -> Vec<(u32, u16, u8, u32, u32)> {
        nodes
            .iter()
            .map(|n| (n.value.to_bits(), n.feature, n.cut, n.left, n.right))
            .collect()
    }

    fn random_params(rng: &mut StdRng) -> GbdtParams {
        GbdtParams {
            max_leaves: rng.random_range(2..10usize),
            min_samples_leaf: [0, 1, 5, 80][rng.random_range(0..4usize)],
            lambda: [0.0, 1.0, 10.0][rng.random_range(0..3usize)],
            ..Default::default()
        }
    }

    #[test]
    fn grouped_gain_search_matches_per_feature_oracle() {
        let mut rng = StdRng::seed_from_u64(0x6a1);
        let mut found = 0;
        for case in 0..600 {
            let (set, data) = random_binned(&mut rng);
            let params = random_params(&mut rng);
            let (grad, hess) = random_grad_hess(&mut rng, set.len());
            let indices = random_rows(&mut rng, set.len());
            let sum_g: f64 = indices.iter().map(|&i| grad[i as usize] as f64).sum();
            let sum_h: f64 = indices.iter().map(|&i| hess[i as usize] as f64).sum();
            let mut search = SplitSearch::new(&data);
            let got = search.best_gain_split(&grad, &hess, &indices, sum_g, sum_h, &params);
            let want =
                best_gain_split_per_feature(&data, &grad, &hess, &indices, sum_g, sum_h, &params);
            assert_eq!(split_bits(got), split_bits(want), "case {case}, {params:?}");
            found += usize::from(got.is_some());
        }
        assert!(found > 200, "only {found} cases found a split");
    }

    #[test]
    fn leaf_cached_growth_matches_the_search_every_round_oracle() {
        let mut rng = StdRng::seed_from_u64(0x1eaf);
        for case in 0..300 {
            let (set, data) = random_binned(&mut rng);
            let params = random_params(&mut rng);
            let (grad, hess) = random_grad_hess(&mut rng, set.len());
            let indices = random_rows(&mut rng, set.len());
            let mut imp_new = vec![0.0; data.d];
            let mut imp_old = vec![0.0; data.d];
            let mut search = SplitSearch::new(&data);
            let tree = grow_tree(&mut search, &grad, &hess, &indices, &params, &mut imp_new);
            let want = grow_tree_searching_every_round(
                &data,
                &grad,
                &hess,
                &indices,
                &params,
                &mut imp_old,
            );
            assert_eq!(node_bits(&tree.nodes), node_bits(&want), "case {case}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&imp_new), bits(&imp_old), "case {case}");
        }
    }

    #[test]
    fn leaf_cached_growth_keeps_the_tie_order() {
        // Few-valued features and gradients in {-1, 0, 1} with unit
        // hessians: every sum is an exact small integer, so different
        // leaves often offer exactly equal gains, and the order of `open`
        // decides which one splits.
        let mut rng = StdRng::seed_from_u64(0x71e5);
        for case in 0..3000 {
            let d = rng.random_range(2..5usize);
            let n = rng.random_range(8..48usize);
            let mut set = SampleSet::new();
            set.schema = (0..d).map(|f| format!("f{f}")).collect();
            for i in 0..n as u32 {
                let row = (0..d).map(|_| rng.random_range(0..3u32) as f32).collect();
                set.push(row, false, DimmId::new(i, 0), SimTime::from_secs(0));
            }
            let data = BinnedData::from_samples(&set, 4);
            let grad: Vec<f32> = (0..n)
                .map(|_| rng.random_range(0..3u32) as f32 - 1.0)
                .collect();
            let hess = vec![1.0f32; n];
            let params = GbdtParams {
                max_leaves: rng.random_range(3..9usize),
                min_samples_leaf: rng.random_range(0..3usize),
                lambda: 1.0,
                ..Default::default()
            };
            let indices: Vec<u32> = (0..n as u32).collect();
            let mut imp_new = vec![0.0; d];
            let mut imp_old = vec![0.0; d];
            let mut search = SplitSearch::new(&data);
            let tree = grow_tree(&mut search, &grad, &hess, &indices, &params, &mut imp_new);
            let want = grow_tree_searching_every_round(
                &data,
                &grad,
                &hess,
                &indices,
                &params,
                &mut imp_old,
            );
            assert_eq!(node_bits(&tree.nodes), node_bits(&want), "case {case}");
        }
    }

    #[test]
    fn packed_ensemble_matches_enum_oracle() {
        let mut rng = StdRng::seed_from_u64(0xe45);
        for case in 0..100 {
            let d = rng.random_range(1..6usize);
            let n_trees = rng.random_range(0..5usize);
            let trees: Vec<_> = (0..n_trees).map(|_| random_tree(&mut rng, d, 4)).collect();
            let model = Gbdt {
                trees: trees.iter().map(|t| RegTree { nodes: pack(t) }).collect(),
                base_score: rng.random::<f32>() - 0.5,
                params: GbdtParams::default(),
                importance: vec![0.0; d],
            };
            for _ in 0..20 {
                let row = random_row(&mut rng, d);
                let mut score = model.base_score;
                for t in &trees {
                    score += model.params.learning_rate * enum_walk(t, &row);
                }
                let want = sigmoid(score);
                let got = model.predict_proba(&row);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}, row {row:?}");
            }
        }
    }

    fn ring_set(seed: u64, n: usize) -> SampleSet {
        // Nonlinear boundary: positive inside an annulus.
        let mut s = SampleSet::new();
        s.schema = vec!["x".into(), "y".into()];
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let x: f32 = rng.random::<f32>() * 2.0 - 1.0;
            let y: f32 = rng.random::<f32>() * 2.0 - 1.0;
            let r = (x * x + y * y).sqrt();
            s.push(
                vec![x, y],
                (0.4..0.8).contains(&r),
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    #[test]
    fn learns_nonlinear_boundary() {
        let train = ring_set(1, 2000);
        let test = ring_set(2, 500);
        // Enough rounds to converge, so the test checks that boosting
        // learns the ring rather than how far a short shrunken run gets.
        let params = GbdtParams {
            n_rounds: 300,
            goss: None,
            ..Default::default()
        };
        let model = Gbdt::fit(&train, &params);
        let mut correct = 0;
        for i in 0..test.len() {
            let p = model.predict_proba(test.row(i));
            if (p > 0.5) == test.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn early_stopping_truncates() {
        let train = ring_set(3, 800);
        let params = GbdtParams {
            n_rounds: 500,
            early_stopping_rounds: 5,
            goss: None,
            ..Default::default()
        };
        let model = Gbdt::fit(&train, &params);
        assert!(model.n_trees() < 500, "early stopping must kick in");
        assert!(model.n_trees() > 0);
    }

    #[test]
    fn goss_still_learns() {
        let train = ring_set(4, 4000);
        let test = ring_set(5, 500);
        let params = GbdtParams {
            n_rounds: 60,
            goss: Some((0.2, 0.2)),
            ..Default::default()
        };
        let model = Gbdt::fit(&train, &params);
        let mut correct = 0;
        for i in 0..test.len() {
            if (model.predict_proba(test.row(i)) > 0.5) == test.labels[i] {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.85, "GOSS accuracy {acc}");
    }

    #[test]
    fn max_leaves_bounds_tree_size() {
        let train = ring_set(6, 1000);
        let params = GbdtParams {
            n_rounds: 3,
            max_leaves: 4,
            goss: None,
            ..Default::default()
        };
        let model = Gbdt::fit(&train, &params);
        for t in &model.trees {
            assert!(t.leaves() <= 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let train = ring_set(7, 500);
        let params = GbdtParams {
            n_rounds: 10,
            ..Default::default()
        };
        let a = Gbdt::fit(&train, &params);
        let b = Gbdt::fit(&train, &params);
        assert_eq!(a.predict_proba(train.row(0)), b.predict_proba(train.row(0)));
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let train = ring_set(8, 300);
        let model = Gbdt::fit(
            &train,
            &GbdtParams {
                n_rounds: 10,
                ..Default::default()
            },
        );
        for i in 0..train.len() {
            let p = model.predict_proba(train.row(i));
            assert!((0.0..=1.0).contains(&p), "p={p}");
        }
    }
}
