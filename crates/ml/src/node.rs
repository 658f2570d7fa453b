//! The packed node shared by both tree learners: the CART classifier of
//! the Random Forest and the regression trees of the GBDT.
//!
//! A tree is a `Vec<Node>` with the root at index 0. Fit time walks it on
//! binned rows (`bin <= cut` goes left), inference on raw rows
//! (`value <= threshold` goes left, so NaN goes right).

use crate::binning::BinnedData;

/// The `feature` of a leaf.
pub(crate) const LEAF: u16 = u16::MAX;

/// One tree node in 16 bytes: a leaf (`feature == LEAF`, prediction in
/// `value`) or a split (`value` is the raw-value threshold).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Node {
    /// Split threshold, or the leaf's prediction.
    pub value: f32,
    /// Split feature, or [`LEAF`].
    pub feature: u16,
    /// Bin cut of the split (`bin <= cut` goes left).
    pub cut: u8,
    /// Child taken when the test holds.
    pub left: u32,
    /// Child taken otherwise.
    pub right: u32,
}

impl Node {
    /// A leaf predicting `value`.
    pub fn leaf(value: f32) -> Node {
        Node {
            value,
            feature: LEAF,
            cut: 0,
            left: 0,
            right: 0,
        }
    }

    /// A split on `feature`.
    pub fn split(feature: u16, threshold: f32, cut: u8, left: u32, right: u32) -> Node {
        debug_assert!(
            feature != LEAF,
            "feature index collides with the leaf sentinel"
        );
        Node {
            value: threshold,
            feature,
            cut,
            left,
            right,
        }
    }

    /// Whether this node is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.feature == LEAF
    }
}

/// The prediction of the leaf a raw feature row reaches.
///
/// Written as a loop over node indices that tests for a leaf first: on
/// forests too large for the cache, the equivalent loop over node
/// references with the leaf test at its end scored rows 8–20% slower.
pub(crate) fn walk(nodes: &[Node], row: &[f32]) -> f32 {
    let mut id = 0usize;
    loop {
        let node = &nodes[id];
        if node.is_leaf() {
            return node.value;
        }
        id = if row[node.feature as usize] <= node.value {
            node.left as usize
        } else {
            node.right as usize
        };
    }
}

/// The prediction of the leaf binned sample `i` reaches.
pub(crate) fn walk_binned(nodes: &[Node], data: &BinnedData, i: usize) -> f32 {
    let mut id = 0usize;
    loop {
        let node = &nodes[id];
        if node.is_leaf() {
            return node.value;
        }
        id = if data.code(node.feature as usize, i) <= node.cut {
            node.left as usize
        } else {
            node.right as usize
        };
    }
}

/// Levels on the longest root-to-leaf path (a lone leaf has depth 1).
pub(crate) fn depth(nodes: &[Node]) -> usize {
    fn depth_of(nodes: &[Node], id: usize) -> usize {
        let n = &nodes[id];
        if n.is_leaf() {
            1
        } else {
            1 + depth_of(nodes, n.left as usize).max(depth_of(nodes, n.right as usize))
        }
    }
    depth_of(nodes, 0)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;
    use mfp_features::dataset::SampleSet;
    use mfp_rng::StdRng;

    /// The node layout both learners used before [`Node`], kept as the
    /// oracle of the packed walks.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) enum EnumNode {
        Leaf {
            value: f32,
        },
        Split {
            feature: u16,
            threshold: f32,
            cut: u8,
            left: u32,
            right: u32,
        },
    }

    /// The enum walk on raw rows.
    pub(crate) fn enum_walk(nodes: &[EnumNode], row: &[f32]) -> f32 {
        let mut id = 0usize;
        loop {
            match &nodes[id] {
                EnumNode::Leaf { value } => return *value,
                EnumNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    ..
                } => {
                    id = if row[*feature as usize] <= *threshold {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// The enum walk on binned rows.
    fn enum_walk_binned(nodes: &[EnumNode], data: &BinnedData, i: usize) -> f32 {
        let mut id = 0usize;
        loop {
            match &nodes[id] {
                EnumNode::Leaf { value } => return *value,
                EnumNode::Split {
                    feature,
                    cut,
                    left,
                    right,
                    ..
                } => {
                    id = if data.code(*feature as usize, i) <= *cut {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    pub(crate) fn pack(nodes: &[EnumNode]) -> Vec<Node> {
        nodes
            .iter()
            .map(|n| match *n {
                EnumNode::Leaf { value } => Node::leaf(value),
                EnumNode::Split {
                    feature,
                    threshold,
                    cut,
                    left,
                    right,
                } => Node::split(feature, threshold, cut, left, right),
            })
            .collect()
    }

    /// Values that stress the `<=` test: NaN, both infinities, both zeros,
    /// subnormals and ordinary numbers.
    pub(crate) fn edgy_value(rng: &mut StdRng) -> f32 {
        const EDGES: [f32; 9] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            -1e-40,
            1.0,
            -1.0,
        ];
        if rng.random_range(0..3) == 0 {
            EDGES[rng.random_range(0..EDGES.len())]
        } else {
            rng.random::<f32>() * 4.0 - 2.0
        }
    }

    /// A random tree over `d` features in pre-order, like the CART
    /// learner lays it out.
    pub(crate) fn random_tree(rng: &mut StdRng, d: usize, depth: usize) -> Vec<EnumNode> {
        fn grow(rng: &mut StdRng, d: usize, depth: usize, out: &mut Vec<EnumNode>) -> u32 {
            let id = out.len() as u32;
            if depth == 0 || rng.random_range(0..4) == 0 {
                out.push(EnumNode::Leaf {
                    value: edgy_value(rng),
                });
                return id;
            }
            out.push(EnumNode::Leaf { value: 0.0 });
            let left = grow(rng, d, depth - 1, out);
            let right = grow(rng, d, depth - 1, out);
            out[id as usize] = EnumNode::Split {
                feature: rng.random_range(0..d) as u16,
                threshold: edgy_value(rng),
                cut: rng.random_range(0..4u8),
                left,
                right,
            };
            id
        }
        let mut out = Vec::new();
        grow(rng, d, depth, &mut out);
        out
    }

    pub(crate) fn random_row(rng: &mut StdRng, d: usize) -> Vec<f32> {
        (0..d).map(|_| edgy_value(rng)).collect()
    }

    #[test]
    fn node_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 16);
    }

    #[test]
    fn packed_walk_matches_enum_walk_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..300 {
            let d = rng.random_range(1..6usize);
            let depth = rng.random_range(0..7usize);
            let tree = random_tree(&mut rng, d, depth);
            let packed = pack(&tree);
            for _ in 0..20 {
                let row = random_row(&mut rng, d);
                let want = enum_walk(&tree, &row);
                let got = walk(&packed, &row);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}, row {row:?}");
            }
        }
    }

    #[test]
    fn packed_binned_walk_matches_enum_walk() {
        let mut rng = StdRng::seed_from_u64(0xb1d);
        for case in 0..100 {
            let d = rng.random_range(1..5usize);
            let mut set = SampleSet::new();
            set.schema = (0..d).map(|f| format!("f{f}")).collect();
            for i in 0..40u32 {
                let row = (0..d).map(|_| rng.random_range(0..5u32) as f32).collect();
                set.push(row, i % 2 == 0, DimmId::new(i, 0), SimTime::from_secs(0));
            }
            let data = BinnedData::from_samples(&set, 8);
            let tree = random_tree(&mut rng, d, 5);
            let packed = pack(&tree);
            for i in 0..set.len() {
                let want = enum_walk_binned(&tree, &data, i);
                let got = walk_binned(&packed, &data, i);
                assert_eq!(got.to_bits(), want.to_bits(), "case {case}, sample {i}");
            }
        }
    }
}
