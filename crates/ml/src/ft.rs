//! FT-Transformer for tabular data (Gorishniy et al., NeurIPS 2021 \[39\]).
//!
//! Each numeric feature is tokenized into an embedding (`x_j * W_j + b_j`),
//! a `[CLS]` token is prepended, and the token sequence passes through
//! pre-norm transformer blocks (multi-head self-attention + feed-forward).
//! The `[CLS]` representation feeds a layer-normed linear head producing
//! one logit; training uses class-weighted BCE with Adam — all on the
//! `mfp-tensor` kernels, gradients hand-derived.

use mfp_features::dataset::SampleSet;
use mfp_rng::StdRng;
use mfp_tensor::matrix::Matrix;
use mfp_tensor::nn::{init_uniform, Gelu, LayerNorm, Linear, MultiHeadAttention, Param};

/// FT-Transformer hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtParams {
    /// Token embedding width.
    pub embed_dim: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer blocks.
    pub blocks: usize,
    /// Feed-forward hidden width.
    pub ffn_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Positive-class weight (0 = balance automatically, capped).
    pub pos_weight: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FtParams {
    fn default() -> Self {
        FtParams {
            embed_dim: 8,
            heads: 2,
            blocks: 1,
            ffn_dim: 16,
            epochs: 4,
            batch_size: 256,
            lr: 3e-3,
            pos_weight: 0.0,
            seed: 13,
        }
    }
}

/// One pre-norm transformer block.
#[derive(Debug, Clone)]
struct Block {
    ln1: LayerNorm,
    attn: MultiHeadAttention,
    ln2: LayerNorm,
    ff1: Linear,
    act: Gelu,
    ff2: Linear,
}

impl Block {
    fn new(p: &FtParams, seq_len: usize, seed: u64) -> Self {
        Block {
            ln1: LayerNorm::new(p.embed_dim),
            attn: MultiHeadAttention::new(p.embed_dim, p.heads, seq_len, seed),
            ln2: LayerNorm::new(p.embed_dim),
            ff1: Linear::new(p.embed_dim, p.ffn_dim, seed ^ 0xF1),
            act: Gelu::new(),
            ff2: Linear::new(p.ffn_dim, p.embed_dim, seed ^ 0xF2),
        }
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        // x + Attn(LN(x))
        let h = self.ln1.forward(x);
        let a = self.attn.forward(&h);
        let mut y = x.clone();
        y.add_assign(&a);
        // y + FFN(LN(y))
        let h2 = self.ln2.forward(&y);
        let f = self.ff2.forward(&self.act.forward(&self.ff1.forward(&h2)));
        let mut out = y;
        out.add_assign(&f);
        out
    }

    fn backward(&mut self, dy: &Matrix) -> Matrix {
        // out = y + FFN(LN2(y))
        let df = self.ln2.backward(
            &self
                .ff1
                .backward(&self.act.backward(&self.ff2.backward(dy))),
        );
        let mut d_y = dy.clone();
        d_y.add_assign(&df);
        // y = x + Attn(LN1(x))
        let da = self.ln1.backward(&self.attn.backward(&d_y));
        let mut dx = d_y;
        dx.add_assign(&da);
        dx
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        self.ln1.for_each_param(f);
        self.attn.for_each_param(f);
        self.ln2.for_each_param(f);
        self.ff1.for_each_param(f);
        self.ff2.for_each_param(f);
    }
}

/// The FT-Transformer classifier.
#[derive(Debug, Clone)]
pub struct FtTransformer {
    params: FtParams,
    n_features: usize,
    /// Per-feature embedding weights: `n_features x embed_dim`.
    token_w: Param,
    /// Per-feature embedding biases: `n_features x embed_dim`.
    token_b: Param,
    /// The `[CLS]` token embedding.
    cls: Param,
    blocks: Vec<Block>,
    head_ln: LayerNorm,
    head: Linear,
    /// Feature standardization (means, stds) from the training set.
    means: Vec<f32>,
    stds: Vec<f32>,
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl FtTransformer {
    /// Creates an untrained model for `n_features` inputs.
    pub fn new(n_features: usize, params: &FtParams) -> Self {
        let seq_len = n_features + 1;
        let e = params.embed_dim;
        let limit = (1.0 / e as f32).sqrt();
        FtTransformer {
            params: *params,
            n_features,
            token_w: Param::new(init_uniform(n_features * e, limit, params.seed ^ 0xA)),
            token_b: Param::new(init_uniform(n_features * e, limit, params.seed ^ 0xB)),
            cls: Param::new(init_uniform(e, limit, params.seed ^ 0xC)),
            blocks: (0..params.blocks)
                .map(|i| Block::new(params, seq_len, params.seed ^ ((i as u64 + 1) << 8)))
                .collect(),
            head_ln: LayerNorm::new(e),
            head: Linear::new(e, 1, params.seed ^ 0xD),
            means: vec![0.0; n_features],
            stds: vec![1.0; n_features],
        }
    }

    fn seq_len(&self) -> usize {
        self.n_features + 1
    }

    /// Tokenizes a batch of standardized rows into a
    /// `(batch * seq_len) x embed_dim` matrix.
    #[allow(clippy::needless_range_loop)] // embedding tables indexed in parallel
    fn tokenize(&self, rows: &[&[f32]]) -> Matrix {
        let e = self.params.embed_dim;
        let s = self.seq_len();
        let mut x = Matrix::zeros(rows.len() * s, e);
        for (b, row) in rows.iter().enumerate() {
            let r0 = b * s;
            x.row_mut(r0).copy_from_slice(&self.cls.data);
            for (j, &raw) in row.iter().enumerate() {
                let v = (raw - self.means[j]) / self.stds[j];
                let out = x.row_mut(r0 + 1 + j);
                for d in 0..e {
                    out[d] = v * self.token_w.data[j * e + d] + self.token_b.data[j * e + d];
                }
            }
        }
        x
    }

    /// Forward pass to logits; also returns the tokenized input (for the
    /// backward pass) when `training`.
    fn forward_batch(&mut self, rows: &[&[f32]]) -> (Vec<f32>, Matrix) {
        let s = self.seq_len();
        let x0 = self.tokenize(rows);
        let mut x = x0.clone();
        for block in &mut self.blocks {
            x = block.forward(&x);
        }
        // Gather CLS rows.
        let e = self.params.embed_dim;
        let mut cls = Matrix::zeros(rows.len(), e);
        for b in 0..rows.len() {
            cls.row_mut(b).copy_from_slice(x.row(b * s));
        }
        let h = self.head_ln.forward(&cls);
        let logits_m = self.head.forward(&h);
        let logits = (0..rows.len()).map(|b| logits_m.get(b, 0)).collect();
        (logits, x0)
    }

    /// Backward pass from per-sample dLogit.
    #[allow(clippy::needless_range_loop)] // embedding tables indexed in parallel
    fn backward_batch(&mut self, rows_len: usize, d_logits: &[f32], std_rows: &[&[f32]]) {
        let s = self.seq_len();
        let e = self.params.embed_dim;
        let mut dl = Matrix::zeros(rows_len, 1);
        for b in 0..rows_len {
            dl.set(b, 0, d_logits[b]);
        }
        let d_cls_rows = self.head_ln.backward(&self.head.backward(&dl));
        // Scatter CLS grads back into the sequence grad.
        let mut dx = Matrix::zeros(rows_len * s, e);
        for b in 0..rows_len {
            dx.row_mut(b * s).copy_from_slice(d_cls_rows.row(b));
        }
        for block in self.blocks.iter_mut().rev() {
            dx = block.backward(&dx);
        }
        // Token embedding gradients.
        for (b, row) in std_rows.iter().enumerate() {
            let r0 = b * s;
            for d in 0..e {
                self.cls.grad[d] += dx.get(r0, d);
            }
            for (j, &raw) in row.iter().enumerate() {
                let v = (raw - self.means[j]) / self.stds[j];
                for d in 0..e {
                    let g = dx.get(r0 + 1 + j, d);
                    self.token_w.grad[j * e + d] += g * v;
                    self.token_b.grad[j * e + d] += g;
                }
            }
        }
    }

    fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(&mut self.token_w);
        f(&mut self.token_b);
        f(&mut self.cls);
        for b in &mut self.blocks {
            b.for_each_param(f);
        }
        self.head_ln.for_each_param(f);
        self.head.for_each_param(f);
    }

    /// Trains on the sample set.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty or its dimensionality differs from the
    /// model's.
    pub fn fit(train: &SampleSet, params: &FtParams) -> Self {
        assert!(!train.is_empty(), "empty training set");
        let d = train.dim();
        let mut model = FtTransformer::new(d, params);

        // Standardization statistics.
        let n = train.len();
        for j in 0..d {
            let mut mean = 0.0f64;
            for i in 0..n {
                mean += train.row(i)[j] as f64;
            }
            mean /= n as f64;
            let mut var = 0.0f64;
            for i in 0..n {
                let v = train.row(i)[j] as f64 - mean;
                var += v * v;
            }
            model.means[j] = mean as f32;
            model.stds[j] = ((var / n as f64).sqrt() as f32).max(1e-4);
        }

        let pos = train.labels.iter().filter(|&&l| l).count().max(1);
        let neg = (n - pos).max(1);
        let pos_weight = if params.pos_weight > 0.0 {
            params.pos_weight
        } else {
            (neg as f32 / pos as f32).clamp(1.0, 30.0)
        };

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut order: Vec<usize> = (0..n).collect();
        let mut step = 0u32;
        for _epoch in 0..params.epochs {
            for k in (1..n).rev() {
                let j = rng.random_range(0..=k);
                order.swap(k, j);
            }
            for chunk in order.chunks(params.batch_size) {
                let rows: Vec<&[f32]> = chunk.iter().map(|&i| train.row(i)).collect();
                let (logits, _x0) = model.forward_batch(&rows);
                // BCE-with-logits gradient: sigmoid(z) - y, class-weighted.
                let mut d_logits = Vec::with_capacity(rows.len());
                for (bi, &i) in chunk.iter().enumerate() {
                    let y = train.labels[i] as u8 as f32;
                    let w = if train.labels[i] { pos_weight } else { 1.0 };
                    d_logits.push(w * (sigmoid(logits[bi]) - y) / rows.len() as f32);
                }
                model.backward_batch(rows.len(), &d_logits, &rows);
                step += 1;
                let lr = params.lr;
                model.for_each_param(&mut |p: &mut Param| {
                    p.adam_step(lr, 0.9, 0.999, 1e-8, step);
                    p.zero_grad();
                });
            }
        }
        model
    }

    /// Positive-class probability for a raw feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the training dimensionality.
    pub fn predict_proba(&self, row: &[f32]) -> f32 {
        assert_eq!(row.len(), self.n_features, "feature count mismatch");
        // Inference clone keeps `&self` semantics for the shared caches.
        let mut m = self.clone();
        let (logits, _) = m.forward_batch(&[row]);
        sigmoid(logits[0])
    }

    /// Batched probabilities (far faster than repeated `predict_proba`).
    pub fn predict_proba_batch(&self, rows: &[&[f32]]) -> Vec<f32> {
        let mut m = self.clone();
        let mut out = Vec::with_capacity(rows.len());
        for chunk in rows.chunks(self.params.batch_size.max(1)) {
            let (logits, _) = m.forward_batch(chunk);
            out.extend(logits.into_iter().map(sigmoid));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfp_dram::address::DimmId;
    use mfp_dram::time::SimTime;

    fn blob_set(seed: u64, n: usize) -> SampleSet {
        // Two Gaussian-ish blobs, linearly separable with margin.
        let mut s = SampleSet::new();
        s.schema = (0..4).map(|i| format!("f{i}")).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..n {
            let y = i % 2 == 0;
            let center = if y { 1.5 } else { -1.5 };
            let row: Vec<f32> = (0..4)
                .map(|_| center + (rng.random::<f32>() - 0.5))
                .collect();
            s.push(
                row,
                y,
                DimmId::new(i as u32, 0),
                SimTime::from_secs(i as u64),
            );
        }
        s
    }

    #[test]
    fn learns_separable_blobs() {
        let train = blob_set(1, 400);
        let test = blob_set(2, 100);
        let params = FtParams {
            epochs: 30,
            batch_size: 64,
            ..Default::default()
        };
        let model = FtTransformer::fit(&train, &params);
        let rows: Vec<&[f32]> = (0..test.len()).map(|i| test.row(i)).collect();
        let probs = model.predict_proba_batch(&rows);
        let correct = probs
            .iter()
            .zip(&test.labels)
            .filter(|(&p, &y)| (p > 0.5) == y)
            .count();
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let train = blob_set(3, 100);
        let params = FtParams {
            epochs: 1,
            ..Default::default()
        };
        let a = FtTransformer::fit(&train, &params);
        let b = FtTransformer::fit(&train, &params);
        assert_eq!(a.predict_proba(train.row(0)), b.predict_proba(train.row(0)));
    }

    #[test]
    fn probabilities_bounded_and_batch_consistent() {
        let train = blob_set(4, 120);
        let params = FtParams {
            epochs: 1,
            ..Default::default()
        };
        let model = FtTransformer::fit(&train, &params);
        let rows: Vec<&[f32]> = (0..5).map(|i| train.row(i)).collect();
        let batch = model.predict_proba_batch(&rows);
        for (i, &p) in batch.iter().enumerate() {
            assert!((0.0..=1.0).contains(&p));
            let single = model.predict_proba(rows[i]);
            assert!((single - p).abs() < 1e-5, "batch/single mismatch");
        }
    }

    #[test]
    #[should_panic(expected = "feature count mismatch")]
    fn rejects_wrong_width() {
        let train = blob_set(5, 50);
        let model = FtTransformer::fit(
            &train,
            &FtParams {
                epochs: 1,
                ..Default::default()
            },
        );
        let _ = model.predict_proba(&[1.0, 2.0]);
    }
}
