//! Quantile binning shared by the tree learners.
//!
//! Histogram-based tree training (as in LightGBM) discretizes each feature
//! into at most 255 quantile bins once, then every split search is a single
//! pass over bin histograms instead of a sort. The same [`Binner`] is
//! stored inside trained models so inference bins incoming rows
//! identically.

use mfp_features::dataset::SampleSet;

/// Maximum number of bins per feature.
pub const MAX_BINS: usize = 255;

/// Features whose histograms the tree learners build in one pass over a
/// node's rows. Rows that share a bin form a chain of dependent adds;
/// interleaving several features' chains keeps the adder busy.
pub(crate) const HIST_GROUP: usize = 4;

/// Per-feature quantile bin edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Binner {
    /// `edges[f]` holds ascending upper-inclusive cut points; a value `v`
    /// maps to the first bin whose edge is `>= v`.
    edges: Vec<Vec<f32>>,
}

impl Binner {
    /// Builds bin edges from the samples' empirical quantiles.
    pub fn fit(set: &SampleSet, max_bins: usize) -> Self {
        let d = set.dim();
        let n = set.len();
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let mut edges = Vec::with_capacity(d);
        for f in 0..d {
            let mut vals: Vec<f32> = (0..n).map(|i| set.row(i)[f]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            vals.dedup();
            let cuts = if vals.len() <= max_bins {
                // Few distinct values: one bin per value.
                vals
            } else {
                let mut cuts = Vec::with_capacity(max_bins);
                for k in 1..=max_bins {
                    let idx = (k * (vals.len() - 1)) / max_bins;
                    cuts.push(vals[idx]);
                }
                cuts.dedup();
                cuts
            };
            edges.push(cuts);
        }
        Binner { edges }
    }

    /// Number of features.
    pub fn dim(&self) -> usize {
        self.edges.len()
    }

    /// Number of bins for feature `f`.
    pub fn bins(&self, f: usize) -> usize {
        self.edges[f].len().max(1)
    }

    /// Bin index of value `v` for feature `f`.
    pub fn bin_value(&self, f: usize, v: f32) -> u8 {
        let e = &self.edges[f];
        if e.is_empty() {
            return 0;
        }
        let idx = e.partition_point(|&cut| cut < v);
        idx.min(e.len() - 1) as u8
    }

    /// Bins a full feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim()`.
    pub fn bin_row(&self, row: &[f32]) -> Vec<u8> {
        assert_eq!(row.len(), self.dim());
        row.iter()
            .enumerate()
            .map(|(f, &v)| self.bin_value(f, v))
            .collect()
    }

    /// The representative threshold (upper edge) of bin `b` of feature `f`:
    /// rows with `bin <= b` satisfy `value <= threshold`.
    pub fn threshold(&self, f: usize, b: u8) -> f32 {
        let e = &self.edges[f];
        if e.is_empty() {
            return 0.0;
        }
        e[(b as usize).min(e.len() - 1)]
    }
}

/// A dataset pre-binned for histogram tree training (column-major codes).
#[derive(Debug, Clone)]
pub struct BinnedData {
    /// The binner used.
    pub binner: Binner,
    /// `codes[f * n + i]` = bin of sample `i`, feature `f`.
    pub codes: Vec<u8>,
    /// Number of samples.
    pub n: usize,
    /// Number of features.
    pub d: usize,
}

impl BinnedData {
    /// Bins an entire sample set.
    pub fn from_samples(set: &SampleSet, max_bins: usize) -> Self {
        let binner = Binner::fit(set, max_bins);
        let n = set.len();
        let d = set.dim();
        let mut codes = vec![0u8; n * d];
        for i in 0..n {
            let row = set.row(i);
            for f in 0..d {
                codes[f * n + i] = binner.bin_value(f, row[f]);
            }
        }
        BinnedData {
            binner,
            codes,
            n,
            d,
        }
    }

    /// Bin code of sample `i`, feature `f`.
    #[inline]
    pub fn code(&self, f: usize, i: usize) -> u8 {
        self.codes[f * self.n + i]
    }

    /// Bin codes of feature `f` for every sample.
    pub(crate) fn column(&self, f: usize) -> &[u8] {
        &self.codes[f * self.n..(f + 1) * self.n]
    }

    /// Builds the histograms of features `group` (at most [`HIST_GROUP`])
    /// over the rows `indices` in one pass: `hist[k]` is reset over feature
    /// `group[k]`'s bins, then for each row `i` in order, `add` folds
    /// `row(i)` into the bin of `i` in each histogram. Each bin therefore
    /// sees its rows in `indices` order, as a pass per feature would.
    pub(crate) fn histograms<B: Copy + Default, R: Copy>(
        &self,
        indices: &[u32],
        group: &[usize],
        hist: &mut [[B; 256]],
        row: impl Fn(usize) -> R,
        add: impl Fn(&mut B, R),
    ) {
        fn fill<const K: usize, B, R: Copy>(
            data: &BinnedData,
            indices: &[u32],
            group: &[usize],
            hist: &mut [[B; 256]],
            row: impl Fn(usize) -> R,
            add: impl Fn(&mut B, R),
        ) {
            let cols: [&[u8]; K] = std::array::from_fn(|k| data.column(group[k]));
            for &i in indices {
                let i = i as usize;
                let r = row(i);
                for (col, h) in cols.iter().zip(hist.iter_mut()) {
                    add(&mut h[col[i] as usize], r);
                }
            }
        }
        for (&f, h) in group.iter().zip(hist.iter_mut()) {
            h[..self.binner.bins(f)].fill(B::default());
        }
        match group.len() {
            4 => fill::<4, _, _>(self, indices, group, hist, row, add),
            3 => fill::<3, _, _>(self, indices, group, hist, row, add),
            2 => fill::<2, _, _>(self, indices, group, hist, row, add),
            1 => fill::<1, _, _>(self, indices, group, hist, row, add),
            n => unreachable!("a pass builds 1 to {HIST_GROUP} histograms, not {n}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;

    fn tiny_set(values: &[&[f32]]) -> SampleSet {
        let mut s = SampleSet::new();
        s.schema = (0..values[0].len()).map(|i| format!("f{i}")).collect();
        for (i, row) in values.iter().enumerate() {
            s.push(
                row.to_vec(),
                i % 2 == 0,
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    #[test]
    fn few_distinct_values_get_exact_bins() {
        let s = tiny_set(&[&[0.0, 1.0], &[1.0, 1.0], &[0.0, 2.0], &[1.0, 3.0]]);
        let b = Binner::fit(&s, 64);
        assert_eq!(b.bins(0), 2);
        assert_eq!(b.bins(1), 3);
        assert_eq!(b.bin_value(0, 0.0), 0);
        assert_eq!(b.bin_value(0, 1.0), 1);
    }

    #[test]
    fn binning_is_monotone() {
        let rows: Vec<Vec<f32>> = (0..500).map(|i| vec![(i as f32).sin() * 10.0]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let s = tiny_set(&refs);
        let b = Binner::fit(&s, 32);
        let mut vals: Vec<f32> = rows.iter().map(|r| r[0]).collect();
        vals.sort_by(|a, c| a.partial_cmp(c).unwrap());
        let bins: Vec<u8> = vals.iter().map(|&v| b.bin_value(0, v)).collect();
        assert!(
            bins.windows(2).all(|w| w[0] <= w[1]),
            "bins must be monotone"
        );
        assert!(*bins.last().unwrap() as usize >= 20, "should use many bins");
    }

    #[test]
    fn out_of_range_values_clamp() {
        let s = tiny_set(&[&[0.0], &[1.0], &[2.0]]);
        let b = Binner::fit(&s, 8);
        assert_eq!(b.bin_value(0, -100.0), 0);
        assert_eq!(b.bin_value(0, 100.0), (b.bins(0) - 1) as u8);
    }

    #[test]
    fn threshold_consistent_with_binning() {
        let rows: Vec<Vec<f32>> = (0..100).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let s = tiny_set(&refs);
        let b = Binner::fit(&s, 16);
        for v in [3.0f32, 42.0, 97.0] {
            let bin = b.bin_value(0, v);
            let th = b.threshold(0, bin);
            assert!(v <= th, "value {v} must be <= its bin threshold {th}");
        }
    }

    #[test]
    fn binned_data_layout() {
        let s = tiny_set(&[&[0.0, 5.0], &[1.0, 6.0], &[2.0, 7.0]]);
        let bd = BinnedData::from_samples(&s, 8);
        assert_eq!((bd.n, bd.d), (3, 2));
        for i in 0..3 {
            assert_eq!(bd.code(0, i), bd.binner.bin_value(0, s.row(i)[0]));
            assert_eq!(bd.code(1, i), bd.binner.bin_value(1, s.row(i)[1]));
        }
    }
}
