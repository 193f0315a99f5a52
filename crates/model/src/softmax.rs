//! Multiclass softmax (multinomial logistic) regression.
//!
//! Parameter layout: a `(dim+1) × C` weight matrix stored row-major as one
//! flat vector; row `dim` is the per-class bias. With `x̃ = [x, 1]`,
//! `logits_c = Σⱼ x̃ⱼ W[j,c]` and `p = softmax(logits)`:
//!
//! - loss      `ℓ = -ln p_y`
//! - gradient  `∂ℓ/∂W[j,c] = x̃ⱼ (p_c - 1[c = y])`
//! - HVP       per-example, with `a = x̃ᵀV` (a C-vector for direction `V`):
//!   `u = p⊙a - p(p·a)`, contribution `∂/∂W[j,c] = x̃ⱼ u_c`
//! - `∂p_c/∂W[j,k] = x̃ⱼ p_c (1[k=c] - p_k)`
//!
//! This is the model used for the MNIST-style 10-class experiments (§6.3).

use crate::dataset::Dataset;
use crate::model::Classifier;
use rain_linalg::stats::{softmax, softmax_into};
use rain_linalg::vecops;

/// Multiclass softmax regression.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    /// Flat `(dim+1) × n_classes` weights, row-major.
    params: Vec<f64>,
    dim: usize,
    n_classes: usize,
    l2: f64,
}

impl SoftmaxRegression {
    /// Zero-initialized model.
    pub fn new(dim: usize, n_classes: usize, l2: f64) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        assert!(l2 >= 0.0, "l2 must be non-negative");
        SoftmaxRegression {
            params: vec![0.0; (dim + 1) * n_classes],
            dim,
            n_classes,
            l2,
        }
    }

    /// Logits `x̃ᵀW` for one example.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes];
        self.logits_into(x, &mut out);
        out
    }

    /// [`SoftmaxRegression::logits`] written into `out` (length
    /// `n_classes`), bit-identical to it.
    fn logits_into(&self, x: &[f64], out: &mut [f64]) {
        debug_assert_eq!(x.len(), self.dim);
        let c = self.n_classes;
        out.copy_from_slice(&self.params[self.dim * c..(self.dim + 1) * c]); // bias row
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                let row = &self.params[j * c..(j + 1) * c];
                vecops::axpy(xj, row, out);
            }
        }
    }

    /// `x̃ᵀ V` for an arbitrary direction `v` laid out like the parameters.
    fn xt_v(&self, x: &[f64], v: &[f64]) -> Vec<f64> {
        let c = self.n_classes;
        let mut out = v[self.dim * c..(self.dim + 1) * c].to_vec();
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                vecops::axpy(xj, &v[j * c..(j + 1) * c], &mut out);
            }
        }
        out
    }

    /// Rank-one accumulate `out[j,·] += coeff·x̃ⱼ · u` for all rows j.
    fn add_outer_xu(&self, x: &[f64], u: &[f64], coeff: f64, out: &mut [f64]) {
        let c = self.n_classes;
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                vecops::axpy(coeff * xj, u, &mut out[j * c..(j + 1) * c]);
            }
        }
        vecops::axpy(coeff, u, &mut out[self.dim * c..(self.dim + 1) * c]);
    }
}

impl Classifier for SoftmaxRegression {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn n_params(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> &[f64] {
        &self.params
    }

    fn set_params(&mut self, p: &[f64]) {
        assert_eq!(p.len(), self.params.len(), "set_params: length mismatch");
        self.params.copy_from_slice(p);
    }

    fn l2(&self) -> f64 {
        self.l2
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        softmax(&self.logits(x))
    }

    fn example_loss(&self, x: &[f64], y: usize) -> f64 {
        debug_assert!(y < self.n_classes);
        let p = self.predict_proba(x);
        -p[y].max(1e-12).ln()
    }

    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.n_params());
        vecops::zero(out);
        let mut u = self.predict_proba(x);
        u[y] -= 1.0;
        self.add_outer_xu(x, &u, 1.0, out);
    }

    fn example_grad_dot(&self, x: &[f64], y: usize, v: &[f64]) -> f64 {
        // ∇ℓ·v = Σ_c (p_c - 1[c=y]) (x̃ᵀV)_c  — O(d·C) with no allocation of
        // the full gradient.
        let a = self.xt_v(x, v);
        let p = self.predict_proba(x);
        let mut dot = 0.0;
        for c in 0..self.n_classes {
            let coeff = p[c] - if c == y { 1.0 } else { 0.0 };
            dot += coeff * a[c];
        }
        dot
    }

    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.n_params(), "hvp: vector length mismatch");
        let n = data.len().max(1) as f64;
        let mut out = vec![0.0; self.n_params()];
        for i in 0..data.len() {
            let x = data.x(i);
            let p = self.predict_proba(x);
            let a = self.xt_v(x, v);
            let pa = vecops::dot(&p, &a);
            // u = diag(p)a - p (pᵀa)
            let u: Vec<f64> = p.iter().zip(&a).map(|(pc, ac)| pc * (ac - pa)).collect();
            self.add_outer_xu(x, &u, 1.0 / n, &mut out);
        }
        vecops::axpy(2.0 * self.l2, v, &mut out);
        out
    }

    fn grad_proba(&self, x: &[f64], class: usize) -> Vec<f64> {
        debug_assert!(class < self.n_classes);
        let p = self.predict_proba(x);
        // ∂p_c/∂logit_k = p_c (δ_{kc} - p_k); chain through logits = x̃ᵀW.
        let mut u: Vec<f64> = p.iter().map(|&pk| -p[class] * pk).collect();
        u[class] += p[class];
        let mut g = vec![0.0; self.n_params()];
        self.add_outer_xu(x, &u, 1.0, &mut g);
        g
    }

    fn predict_proba_range_into(&self, x: &rain_linalg::Matrix, start: usize, out: &mut [f64]) {
        let c = self.n_classes;
        let mut logits = vec![0.0; c];
        for (k, row) in out.chunks_exact_mut(c).enumerate() {
            self.logits_into(x.row(start + k), &mut logits);
            softmax_into(&logits, row);
        }
    }

    fn vjp_proba_range(&self, x: &rain_linalg::Matrix, start: usize, adj: &[f64], out: &mut [f64]) {
        // Σ_c adj_c ∂p_c/∂logit_k = p_k (adj_k − ⟨adj, p⟩): one C-vector
        // per row, chained through logits = x̃ᵀW as a rank-1 update.
        assert_eq!(out.len(), self.n_params(), "vjp: output length mismatch");
        let c = self.n_classes;
        let mut scratch = vec![0.0; 2 * c];
        let (logits, u) = scratch.split_at_mut(c);
        for (k, a) in adj.chunks_exact(c).enumerate() {
            if a.iter().all(|&g| g == 0.0) {
                continue;
            }
            let xr = x.row(start + k);
            self.logits_into(xr, logits);
            softmax_into(logits, u);
            let s = vecops::dot(a, u);
            for (uk, &ak) in u.iter_mut().zip(a) {
                *uk *= ak - s;
            }
            self.add_outer_xu(xr, u, 1.0, out);
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "softmax"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::check;
    use rain_linalg::{Matrix, RainRng};

    fn toy_data(n: usize, classes: usize, seed: u64) -> Dataset {
        let mut rng = RainRng::seed_from_u64(seed);
        let dim = 4;
        let mut rows = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let y = rng.below(classes);
            let mut x = rng.normal_vec(dim, 1.0);
            x[y % dim] += 2.0; // make classes separable-ish
            rows.push(x);
            labels.push(y);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs), labels, classes)
    }

    fn fitted(data: &Dataset) -> SoftmaxRegression {
        let mut m = SoftmaxRegression::new(data.dim(), data.n_classes(), 0.01);
        for _ in 0..60 {
            let g = m.grad(data);
            let mut p = m.params().to_vec();
            vecops::axpy(-0.5, &g, &mut p);
            m.set_params(&p);
        }
        m
    }

    #[test]
    fn proba_normalizes() {
        let data = toy_data(20, 3, 1);
        let m = fitted(&data);
        let p = m.predict_proba(data.x(0));
        assert_eq!(p.len(), 3);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn binary_softmax_agrees_with_logistic() {
        // With two classes, softmax regression and logistic regression
        // define the same conditional distribution. Train both and compare
        // probabilities coarsely.
        let data = toy_data(200, 2, 2);
        let sm = fitted(&data);
        let mut lr = crate::logistic::LogisticRegression::new(data.dim(), 0.01);
        for _ in 0..200 {
            let g = lr.grad(&data);
            let mut p = lr.params().to_vec();
            vecops::axpy(-0.5, &g, &mut p);
            lr.set_params(&p);
        }
        for i in 0..10 {
            let ps = sm.predict_proba(data.x(i))[1];
            let pl = lr.predict_proba(data.x(i))[1];
            assert!((ps - pl).abs() < 0.15, "example {i}: {ps} vs {pl}");
        }
    }

    #[test]
    fn grad_matches_finite_differences() {
        let data = toy_data(15, 3, 3);
        let m = fitted(&data);
        let g = m.grad(&data);
        let fd = check::fd_grad(&m, &data, 1e-5);
        assert!(vecops::approx_eq(&g, &fd, 1e-5));
    }

    #[test]
    fn hvp_matches_finite_differences() {
        let data = toy_data(15, 3, 4);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(5);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let hv = m.hvp(&data, &v);
        let fd = check::fd_hvp(&m, &data, &v, 1e-5);
        assert!(vecops::approx_eq(&hv, &fd, 1e-4));
    }

    #[test]
    fn hvp_is_symmetric() {
        // vᵀHw == wᵀHv for any v, w.
        let data = toy_data(12, 4, 6);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(7);
        let v = rng.normal_vec(m.n_params(), 1.0);
        let w = rng.normal_vec(m.n_params(), 1.0);
        let vhw = vecops::dot(&v, &m.hvp(&data, &w));
        let whv = vecops::dot(&w, &m.hvp(&data, &v));
        assert!((vhw - whv).abs() < 1e-8 * (1.0 + vhw.abs()));
    }

    #[test]
    fn grad_proba_matches_finite_differences() {
        let data = toy_data(8, 3, 8);
        let m = fitted(&data);
        let x = data.x(0).to_vec();
        for class in 0..3 {
            let g = m.grad_proba(&x, class);
            let fd = check::fd_grad_proba(&m, &x, class, 1e-6);
            assert!(vecops::approx_eq(&g, &fd, 1e-6), "class {class}");
        }
    }

    #[test]
    fn grad_proba_sums_to_zero_across_classes() {
        // Σ_c p_c = 1 ⟹ Σ_c ∇p_c = 0.
        let data = toy_data(5, 4, 9);
        let m = fitted(&data);
        let x = data.x(2);
        let mut total = vec![0.0; m.n_params()];
        for c in 0..4 {
            vecops::axpy(1.0, &m.grad_proba(x, c), &mut total);
        }
        assert!(vecops::norm_inf(&total) < 1e-10);
    }

    #[test]
    fn example_grad_dot_matches_materialized() {
        let data = toy_data(10, 3, 10);
        let m = fitted(&data);
        let mut rng = RainRng::seed_from_u64(11);
        let v = rng.normal_vec(m.n_params(), 1.0);
        for i in 0..data.len() {
            let g = m.example_grad(data.x(i), data.y(i));
            let direct = m.example_grad_dot(data.x(i), data.y(i), &v);
            assert!((vecops::dot(&g, &v) - direct).abs() < 1e-9);
        }
    }
}
