//! Neural-network building blocks with explicit forward/backward passes.
//!
//! Everything the FT-Transformer needs: trainable parameters with Adam
//! state ([`Param`]), linear layers, layer normalization, GELU, row-wise
//! softmax, and multi-head self-attention. Backward passes are hand-derived
//! and verified against finite differences in the test suite.

use crate::matrix::Matrix;

/// A trainable parameter tensor with gradient and Adam moments.
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub data: Vec<f32>,
    /// Accumulated gradient.
    pub grad: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Param {
    /// Wraps initial values.
    pub fn new(data: Vec<f32>) -> Self {
        let n = data.len();
        Param {
            data,
            grad: vec![0.0; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    /// Number of scalars.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.iter_mut().for_each(|g| *g = 0.0);
    }

    /// One Adam update (step count `t` starts at 1).
    pub fn adam_step(&mut self, lr: f32, beta1: f32, beta2: f32, eps: f32, t: u32) {
        let bc1 = 1.0 - beta1.powi(t as i32);
        let bc2 = 1.0 - beta2.powi(t as i32);
        for i in 0..self.data.len() {
            let g = self.grad[i];
            self.m[i] = beta1 * self.m[i] + (1.0 - beta1) * g;
            self.v[i] = beta2 * self.v[i] + (1.0 - beta2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            self.data[i] -= lr * mhat / (vhat.sqrt() + eps);
        }
    }
}

/// Deterministic pseudo-random weight initialization (xorshift-based,
/// uniform in ±limit), so the tensor crate depends on nothing.
pub fn init_uniform(n: usize, limit: f32, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state >> 11) as f32 / (1u64 << 53) as f32;
            (u * 2.0 - 1.0) * limit
        })
        .collect()
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, stored `in_dim x out_dim`.
    pub w: Param,
    /// Bias, length `out_dim`.
    pub b: Param,
    in_dim: usize,
    out_dim: usize,
    cache_x: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let limit = (6.0 / (in_dim + out_dim) as f32).sqrt();
        Linear {
            w: Param::new(init_uniform(in_dim * out_dim, limit, seed)),
            b: Param::new(vec![0.0; out_dim]),
            in_dim,
            out_dim,
            cache_x: None,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim);
        let w = Matrix::from_vec(self.in_dim, self.out_dim, self.w.data.clone());
        let mut y = x.matmul(&w);
        for r in 0..y.rows() {
            let row = y.row_mut(r);
            for (o, &b) in row.iter_mut().zip(&self.b.data) {
                *o += b;
            }
        }
        self.cache_x = Some(x.clone());
        y
    }

    /// Backward pass: accumulates `dW`, `db`, returns `dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        // dW = x^T dy
        let dw = x.matmul_at(dy);
        for (g, &d) in self.w.grad.iter_mut().zip(dw.data()) {
            *g += d;
        }
        // db = column sums of dy
        for r in 0..dy.rows() {
            for (g, &d) in self.b.grad.iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
        // dx = dy W^T
        let w = Matrix::from_vec(self.in_dim, self.out_dim, self.w.data.clone());
        dy.matmul_bt(&w)
    }

    /// Visits trainable parameters.
    pub fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }
}

/// Layer normalization over the last dimension.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, length `dim`.
    pub gamma: Param,
    /// Shift, length `dim`.
    pub beta: Param,
    dim: usize,
    eps: f32,
    cache: Option<(Matrix, Vec<f32>)>, // (xhat, inv_std per row)
}

impl LayerNorm {
    /// Creates a layer with unit scale and zero shift.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(vec![1.0; dim]),
            beta: Param::new(vec![0.0; dim]),
            dim,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Forward pass.
    #[allow(clippy::needless_range_loop)] // parallel-array indexing reads clearer
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim);
        let n = self.dim as f32;
        let mut xhat = Matrix::zeros(x.rows(), self.dim);
        let mut inv_stds = Vec::with_capacity(x.rows());
        let mut y = Matrix::zeros(x.rows(), self.dim);
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / n;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            inv_stds.push(inv_std);
            for c in 0..self.dim {
                let xh = (row[c] - mean) * inv_std;
                xhat.set(r, c, xh);
                y.set(r, c, self.gamma.data[c] * xh + self.beta.data[c]);
            }
        }
        self.cache = Some((xhat, inv_stds));
        y
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[allow(clippy::needless_range_loop)] // parallel-array indexing reads clearer
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (xhat, inv_stds) = self.cache.as_ref().expect("forward before backward");
        let n = self.dim as f32;
        let mut dx = Matrix::zeros(dy.rows(), self.dim);
        for r in 0..dy.rows() {
            let mut sum_dxhat = 0.0f32;
            let mut sum_dxhat_xhat = 0.0f32;
            for c in 0..self.dim {
                let dyv = dy.get(r, c);
                let dxhat = dyv * self.gamma.data[c];
                sum_dxhat += dxhat;
                sum_dxhat_xhat += dxhat * xhat.get(r, c);
                self.gamma.grad[c] += dyv * xhat.get(r, c);
                self.beta.grad[c] += dyv;
            }
            let inv_std = inv_stds[r];
            for c in 0..self.dim {
                let dxhat = dy.get(r, c) * self.gamma.data[c];
                let v = (n * dxhat - sum_dxhat - xhat.get(r, c) * sum_dxhat_xhat) * inv_std / n;
                dx.set(r, c, v);
            }
        }
        dx
    }

    /// Visits trainable parameters.
    pub fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// GELU activation (tanh approximation).
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_x: Option<Matrix>,
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

impl Gelu {
    /// Creates the activation.
    pub fn new() -> Self {
        Gelu::default()
    }

    fn gelu(x: f32) -> f32 {
        0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
    }

    fn dgelu(x: f32) -> f32 {
        let u = GELU_C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_x = Some(x.clone());
        x.map(Self::gelu)
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        dy.hadamard(&x.map(Self::dgelu))
    }
}

/// Row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        let out_row = out.row_mut(r);
        for (o, &v) in out_row.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        for o in out_row.iter_mut() {
            *o /= sum;
        }
    }
    out
}

/// Backward of row-wise softmax: given `s = softmax(x)` and `ds`, returns
/// `dx = s ⊙ (ds - rowsum(ds ⊙ s))`.
pub fn softmax_rows_backward(s: &Matrix, ds: &Matrix) -> Matrix {
    let mut dx = Matrix::zeros(s.rows(), s.cols());
    for r in 0..s.rows() {
        let dot: f32 = s.row(r).iter().zip(ds.row(r)).map(|(&a, &b)| a * b).sum();
        for c in 0..s.cols() {
            dx.set(r, c, s.get(r, c) * (ds.get(r, c) - dot));
        }
    }
    dx
}

/// Multi-head self-attention over fixed-length sequences.
///
/// Input is a `(batch * seq_len) x dim` matrix, sequences stacked in order.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    seq_len: usize,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    attn: Vec<Matrix>, // per (batch, head): seq_len x seq_len
    batch: usize,
}

impl MultiHeadAttention {
    /// Creates the attention block.
    ///
    /// # Panics
    ///
    /// Panics unless `dim % heads == 0`.
    pub fn new(dim: usize, heads: usize, seq_len: usize, seed: u64) -> Self {
        assert!(
            dim.is_multiple_of(heads),
            "dim must divide evenly across heads"
        );
        MultiHeadAttention {
            wq: Linear::new(dim, dim, seed ^ 0x51),
            wk: Linear::new(dim, dim, seed ^ 0x52),
            wv: Linear::new(dim, dim, seed ^ 0x53),
            wo: Linear::new(dim, dim, seed ^ 0x54),
            heads,
            dim,
            seq_len,
            cache: None,
        }
    }

    fn head_dim(&self) -> usize {
        self.dim / self.heads
    }

    /// Forward pass over `batch` stacked sequences.
    ///
    /// # Panics
    ///
    /// Panics unless `x.rows()` is a multiple of the sequence length.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.rows() % self.seq_len, 0, "rows must stack sequences");
        let batch = x.rows() / self.seq_len;
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();

        let mut ctx = Matrix::zeros(x.rows(), self.dim);
        let mut attns = Vec::with_capacity(batch * self.heads);
        for b in 0..batch {
            let r0 = b * self.seq_len;
            for h in 0..self.heads {
                let c0 = h * hd;
                // Scores: (seq x seq), slice-based dot products.
                let mut scores = Matrix::zeros(self.seq_len, self.seq_len);
                for i in 0..self.seq_len {
                    let qrow = &q.row(r0 + i)[c0..c0 + hd];
                    let srow = scores.row_mut(i);
                    for (j, sv) in srow.iter_mut().enumerate() {
                        let krow = &k.row(r0 + j)[c0..c0 + hd];
                        let acc: f32 = qrow.iter().zip(krow).map(|(&a, &b)| a * b).sum();
                        *sv = acc * scale;
                    }
                }
                let attn = softmax_rows(&scores);
                for i in 0..self.seq_len {
                    let arow = attn.row(i);
                    // ctx[i] += sum_j a_ij * v[j]
                    let mut acc = vec![0.0f32; hd];
                    for (j, &a) in arow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let vrow = &v.row(r0 + j)[c0..c0 + hd];
                        for (o, &vv) in acc.iter_mut().zip(vrow) {
                            *o += a * vv;
                        }
                    }
                    ctx.row_mut(r0 + i)[c0..c0 + hd].copy_from_slice(&acc);
                }
                attns.push(attn);
            }
        }
        self.cache = Some(AttnCache {
            q,
            k,
            v,
            attn: attns,
            batch,
        });
        self.wo.forward(&ctx)
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let d_ctx = self.wo.backward(dy);
        let cache = self.cache.as_ref().expect("forward before backward");
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let rows = cache.batch * self.seq_len;
        let mut dq = Matrix::zeros(rows, self.dim);
        let mut dk = Matrix::zeros(rows, self.dim);
        let mut dv = Matrix::zeros(rows, self.dim);

        for b in 0..cache.batch {
            let r0 = b * self.seq_len;
            for h in 0..self.heads {
                let c0 = h * hd;
                let attn = &cache.attn[b * self.heads + h];
                // dA = dCtx V^T ; dV = A^T dCtx (slice kernels).
                let mut d_attn = Matrix::zeros(self.seq_len, self.seq_len);
                for i in 0..self.seq_len {
                    let drow = &d_ctx.row(r0 + i)[c0..c0 + hd];
                    let darow = d_attn.row_mut(i);
                    for (j, da) in darow.iter_mut().enumerate() {
                        let vrow = &cache.v.row(r0 + j)[c0..c0 + hd];
                        *da = drow.iter().zip(vrow).map(|(&a, &b)| a * b).sum();
                    }
                    let arow = attn.row(i);
                    for (j, &a) in arow.iter().enumerate() {
                        if a == 0.0 {
                            continue;
                        }
                        let dvrow = &mut dv.row_mut(r0 + j)[c0..c0 + hd];
                        for (o, &d) in dvrow.iter_mut().zip(drow) {
                            *o += a * d;
                        }
                    }
                }
                let d_scores = softmax_rows_backward(attn, &d_attn);
                // dQ = dS K * scale ; dK = dS^T Q * scale
                for i in 0..self.seq_len {
                    let dsrow = d_scores.row(i);
                    let mut acc = vec![0.0f32; hd];
                    for (j, &ds) in dsrow.iter().enumerate() {
                        if ds == 0.0 {
                            continue;
                        }
                        let krow = &cache.k.row(r0 + j)[c0..c0 + hd];
                        for (o, &kk) in acc.iter_mut().zip(krow) {
                            *o += ds * kk;
                        }
                        let qrow: Vec<f32> = cache.q.row(r0 + i)[c0..c0 + hd].to_vec();
                        let dkrow = &mut dk.row_mut(r0 + j)[c0..c0 + hd];
                        for (o, &qq) in dkrow.iter_mut().zip(&qrow) {
                            *o += ds * qq * scale;
                        }
                    }
                    for (o, v) in dq.row_mut(r0 + i)[c0..c0 + hd].iter_mut().zip(&acc) {
                        *o = v * scale;
                    }
                }
            }
        }

        let mut dx = self.wq.backward(&dq);
        dx.add_assign(&self.wk.backward(&dk));
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }

    /// Visits trainable parameters.
    pub fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        self.wq.for_each_param(f);
        self.wk.for_each_param(f);
        self.wv.for_each_param(f);
        self.wo.for_each_param(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check helper: perturbs `get/set` scalar
    /// access and compares the analytic input gradient on loss
    /// `L = sum(y ⊙ r)`.
    fn num_grad(mut f: impl FnMut(&Matrix) -> Matrix, x: &Matrix, r_weights: &Matrix) -> Matrix {
        let eps = 1e-3;
        let mut g = Matrix::zeros(x.rows(), x.cols());
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let lp: f32 = f(&xp).hadamard(r_weights).data().iter().sum();
                let lm: f32 = f(&xm).hadamard(r_weights).data().iter().sum();
                g.set(i, j, (lp - lm) / (2.0 * eps));
            }
        }
        g
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32, what: &str) {
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!(
                (x - y).abs() < tol * (1.0 + x.abs().max(y.abs())),
                "{what}: {x} vs {y}"
            );
        }
    }

    fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_vec(rows, cols, init_uniform(rows * cols, 1.0, seed))
    }

    #[test]
    fn linear_gradcheck() {
        let x = rand_matrix(3, 4, 1);
        let r = rand_matrix(3, 2, 2);
        let mut lin = Linear::new(4, 2, 3);
        let _ = lin.forward(&x);
        let dx = lin.backward(&r);
        let mut lin2 = lin.clone();
        let num = num_grad(move |xx| lin2.forward(xx), &x, &r);
        assert_close(&dx, &num, 2e-2, "linear dx");
    }

    #[test]
    fn linear_weight_grads_accumulate() {
        let x = rand_matrix(3, 4, 1);
        let r = rand_matrix(3, 2, 2);
        let mut lin = Linear::new(4, 2, 3);
        let _ = lin.forward(&x);
        let _ = lin.backward(&r);
        // db = column sums of dy.
        for c in 0..2 {
            let expect: f32 = (0..3).map(|row| r.get(row, c)).sum();
            assert!((lin.b.grad[c] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let x = rand_matrix(3, 5, 7);
        let r = rand_matrix(3, 5, 8);
        let mut ln = LayerNorm::new(5);
        let _ = ln.forward(&x);
        let dx = ln.backward(&r);
        let mut ln2 = ln.clone();
        let num = num_grad(move |xx| ln2.forward(xx), &x, &r);
        assert_close(&dx, &num, 3e-2, "layernorm dx");
    }

    #[test]
    fn layernorm_normalizes() {
        let x = rand_matrix(4, 8, 9);
        let mut ln = LayerNorm::new(8);
        let y = ln.forward(&x);
        for r in 0..4 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row mean {mean}");
        }
    }

    #[test]
    fn gelu_gradcheck() {
        let x = rand_matrix(3, 4, 11);
        let r = rand_matrix(3, 4, 12);
        let mut g = Gelu::new();
        let _ = g.forward(&x);
        let dx = g.backward(&r);
        let mut g2 = g.clone();
        let num = num_grad(move |xx| g2.forward(xx), &x, &r);
        assert_close(&dx, &num, 2e-2, "gelu dx");
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = rand_matrix(5, 7, 13);
        let s = softmax_rows(&x);
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_backward_matches_numeric() {
        let x = rand_matrix(2, 4, 17);
        let r = rand_matrix(2, 4, 18);
        let s = softmax_rows(&x);
        let dx = softmax_rows_backward(&s, &r);
        let num = num_grad(softmax_rows, &x, &r);
        assert_close(&dx, &num, 2e-2, "softmax dx");
    }

    #[test]
    fn attention_gradcheck() {
        let seq = 3;
        let dim = 4;
        let batch = 2;
        let x = rand_matrix(batch * seq, dim, 21);
        let r = rand_matrix(batch * seq, dim, 22);
        let mut mha = MultiHeadAttention::new(dim, 2, seq, 23);
        let _ = mha.forward(&x);
        let dx = mha.backward(&r);
        let mut mha2 = mha.clone();
        let num = num_grad(move |xx| mha2.forward(xx), &x, &r);
        assert_close(&dx, &num, 5e-2, "attention dx");
    }

    #[test]
    fn attention_output_shape() {
        let mut mha = MultiHeadAttention::new(8, 2, 5, 31);
        let x = rand_matrix(10, 8, 32); // 2 sequences of length 5
        let y = mha.forward(&x);
        assert_eq!((y.rows(), y.cols()), (10, 8));
    }

    #[test]
    fn adam_descends_quadratic() {
        // Minimize f(p) = sum(p^2): Adam should shrink the norm.
        let mut p = Param::new(vec![1.0, -2.0, 3.0]);
        for t in 1..=200 {
            for i in 0..3 {
                p.grad[i] = 2.0 * p.data[i];
            }
            p.adam_step(0.05, 0.9, 0.999, 1e-8, t);
            p.zero_grad();
        }
        let norm: f32 = p.data.iter().map(|v| v * v).sum();
        assert!(norm < 0.05, "norm={norm}");
    }

    #[test]
    fn init_uniform_deterministic_and_bounded() {
        let a = init_uniform(100, 0.5, 42);
        let b = init_uniform(100, 0.5, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v.abs() <= 0.5));
        assert!(a.iter().any(|&v| v != 0.0));
    }
}
