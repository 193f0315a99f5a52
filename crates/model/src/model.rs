//! The [`Classifier`] trait: the contract between models and the influence
//! machinery.
//!
//! Sign/shape conventions (everything a downstream crate needs to know):
//!
//! - Parameters are one flat `Vec<f64>`; layout is model-private.
//! - `ℓ(z, θ)` is the *unregularized* per-example loss (negative
//!   log-likelihood). The training objective adds an L2 term:
//!   `L(θ) = (1/n) Σ ℓ(zᵢ, θ) + λ‖θ‖²`.
//! - [`Classifier::hvp`] multiplies by the Hessian of the **full** objective
//!   `L` (including the `2λI` from regularization), which is what the
//!   conjugate-gradient solver must invert.
//! - [`Classifier::grad_proba`] returns `∇θ p_c(x, θ)`: how a predicted
//!   class probability moves with the parameters. Holistic chains these
//!   through relaxed provenance polynomials; TwoStep sums them over marked
//!   mispredictions.
//!
//! Batched kernels over a packed feature matrix (one example per row):
//!
//! - [`Classifier::predict_proba_range_into`] writes the class
//!   probabilities of a row range into one flat `rows × n_classes` slice.
//!   It must equal per-row [`Classifier::predict_proba`] **bit for bit**.
//! - [`Classifier::vjp_proba_range`] is the vector–Jacobian product of
//!   those probabilities: given a flat `rows × n_classes` adjoint `adj`,
//!   it adds `Σ_i Σ_c adj[i][c] · ∇θ p_c(x_i)` into `out` (it accumulates;
//!   it never clears `out`). It must agree with the same sum of
//!   [`Classifier::grad_proba`] calls up to floating-point reassociation,
//!   and be a deterministic function of its inputs — callers shard a
//!   matrix into fixed row ranges and reduce the partial sums in range
//!   order, so the result is reproducible bit for bit. Rows whose adjoint
//!   is all zero contribute nothing.
//!
//! Both have generic defaults built on the per-row methods; closed-form
//! models override them with allocation-free loops.

use crate::dataset::Dataset;

/// A differentiable classification model.
///
/// Implementations must be `Send + Sync` so influence scoring can fan out
/// across threads, and cloneable via [`Classifier::clone_box`] for
/// warm-started retraining.
pub trait Classifier: Send + Sync {
    /// Number of classes this model discriminates between.
    fn n_classes(&self) -> usize;

    /// Feature dimensionality expected by the model.
    fn dim(&self) -> usize;

    /// Total number of parameters.
    fn n_params(&self) -> usize;

    /// Borrow the flat parameter vector.
    fn params(&self) -> &[f64];

    /// Overwrite the flat parameter vector.
    ///
    /// # Panics
    /// Panics if `p.len() != self.n_params()`.
    fn set_params(&mut self, p: &[f64]);

    /// L2 regularization strength λ.
    fn l2(&self) -> f64;

    /// Class probabilities for one example (length `n_classes`, sums to 1).
    fn predict_proba(&self, x: &[f64]) -> Vec<f64>;

    /// Hard prediction: argmax of [`Classifier::predict_proba`].
    fn predict(&self, x: &[f64]) -> usize {
        rain_linalg::vecops::argmax(&self.predict_proba(x)).expect("non-empty proba")
    }

    /// Hard predictions for a batch of feature rows (one example per
    /// matrix row).
    ///
    /// The default routes through [`Classifier::predict_range_into`];
    /// implementations may override with an allocation-free batched path,
    /// but must return exactly the per-row `predict` results — the
    /// incremental query-refresh machinery relies on batched and per-row
    /// inference agreeing bit for bit.
    fn predict_batch(&self, x: &rain_linalg::Matrix) -> Vec<usize> {
        let mut out = vec![0usize; x.rows()];
        self.predict_range_into(x, 0, &mut out);
        out
    }

    /// Hard predictions for the row range `start .. start + out.len()`
    /// of `x`, written into `out` — the unit the parallel refresh path
    /// shards over (each worker owns a disjoint output slice).
    ///
    /// The default walks the rows through [`Classifier::predict`];
    /// implementations overriding [`Classifier::predict_batch`] with an
    /// allocation-free kernel should override this consistently — both
    /// must return exactly the per-row `predict` results, bit for bit.
    fn predict_range_into(&self, x: &rain_linalg::Matrix, start: usize, out: &mut [usize]) {
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = self.predict(x.row(start + k));
        }
    }

    /// Unregularized per-example loss `ℓ(z, θ)`.
    fn example_loss(&self, x: &[f64], y: usize) -> f64;

    /// Per-example loss gradient `∇θ ℓ(z, θ)` written into `out`.
    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]);

    /// Per-example loss gradient, allocating.
    fn example_grad(&self, x: &[f64], y: usize) -> Vec<f64> {
        let mut g = vec![0.0; self.n_params()];
        self.example_grad_into(x, y, &mut g);
        g
    }

    /// Dot product `∇θ ℓ(z, θ) · v` (may avoid materializing the gradient).
    fn example_grad_dot(&self, x: &[f64], y: usize, v: &[f64]) -> f64 {
        let g = self.example_grad(x, y);
        rain_linalg::vecops::dot(&g, v)
    }

    /// Full training objective `L(θ) = (1/n) Σ ℓ + λ‖θ‖²`.
    fn loss(&self, data: &Dataset) -> f64 {
        let n = data.len().max(1) as f64;
        let mut sum = 0.0;
        for i in 0..data.len() {
            sum += self.example_loss(data.x(i), data.y(i));
        }
        sum / n + self.l2() * rain_linalg::vecops::norm2_sq(self.params())
    }

    /// Gradient of the full training objective.
    fn grad(&self, data: &Dataset) -> Vec<f64> {
        let n = data.len().max(1) as f64;
        let mut g = vec![0.0; self.n_params()];
        let mut buf = vec![0.0; self.n_params()];
        for i in 0..data.len() {
            self.example_grad_into(data.x(i), data.y(i), &mut buf);
            rain_linalg::vecops::axpy(1.0 / n, &buf, &mut g);
        }
        rain_linalg::vecops::axpy(2.0 * self.l2(), self.params(), &mut g);
        g
    }

    /// Hessian-vector product `∇²L(θ)·v` of the full objective (with the
    /// `2λ v` regularization term included).
    fn hvp(&self, data: &Dataset, v: &[f64]) -> Vec<f64>;

    /// Gradient of the predicted probability of `class`: `∇θ p_class(x, θ)`.
    fn grad_proba(&self, x: &[f64], class: usize) -> Vec<f64>;

    /// Class probabilities for the row range `start .. start + rows` of
    /// `x`, written row-major into `out` (`out.len() == rows ·
    /// n_classes`).
    ///
    /// The default copies per-row [`Classifier::predict_proba`] results;
    /// overrides must return exactly those values, bit for bit.
    fn predict_proba_range_into(&self, x: &rain_linalg::Matrix, start: usize, out: &mut [f64]) {
        let c = self.n_classes();
        for (k, row) in out.chunks_exact_mut(c).enumerate() {
            row.copy_from_slice(&self.predict_proba(x.row(start + k)));
        }
    }

    /// Vector–Jacobian product of the class probabilities of the row range
    /// `start .. start + rows` of `x`: `out += Σ_i Σ_c adj[i][c] · ∇θ
    /// p_c(x_{start+i})`, with `adj` row-major (`adj.len() == rows ·
    /// n_classes`) and `out.len() == n_params`.
    ///
    /// The default sums one [`Classifier::grad_proba`] per non-zero
    /// adjoint entry; overrides fold each row's adjoint into one
    /// parameter-space update without allocating.
    fn vjp_proba_range(&self, x: &rain_linalg::Matrix, start: usize, adj: &[f64], out: &mut [f64]) {
        let c = self.n_classes();
        for (k, a) in adj.chunks_exact(c).enumerate() {
            let xr = x.row(start + k);
            for (class, &g) in a.iter().enumerate() {
                if g != 0.0 {
                    rain_linalg::vecops::axpy(g, &self.grad_proba(xr, class), out);
                }
            }
        }
    }

    /// Clone into a boxed trait object (for warm-started retraining).
    fn clone_box(&self) -> Box<dyn Classifier>;

    /// A short human-readable name ("logistic", "softmax", "mlp").
    fn name(&self) -> &'static str;
}

impl Clone for Box<dyn Classifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Finite-difference helpers shared by the derivative tests of every model.
///
/// Exposed as a public module (not `#[cfg(test)]`) so downstream crates'
/// tests can reuse it against their own `q(θ)` encodings.
pub mod check {
    use super::Classifier;
    use crate::dataset::Dataset;

    /// Central-difference gradient of the full objective at the current
    /// parameters. O(n_params × dataset); for tests only.
    pub fn fd_grad(model: &dyn Classifier, data: &Dataset, eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut g = vec![0.0; theta.len()];
        let mut probe = model.clone_box();
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            probe.set_params(&tp);
            let up = probe.loss(data);
            tp[j] -= 2.0 * eps;
            probe.set_params(&tp);
            let dn = probe.loss(data);
            g[j] = (up - dn) / (2.0 * eps);
        }
        g
    }

    /// Central-difference Hessian-vector product `(∇L(θ+εv) − ∇L(θ−εv))/2ε`.
    pub fn fd_hvp(model: &dyn Classifier, data: &Dataset, v: &[f64], eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut probe = model.clone_box();
        let tp: Vec<f64> = theta.iter().zip(v).map(|(t, vi)| t + eps * vi).collect();
        probe.set_params(&tp);
        let gp = probe.grad(data);
        let tm: Vec<f64> = theta.iter().zip(v).map(|(t, vi)| t - eps * vi).collect();
        probe.set_params(&tm);
        let gm = probe.grad(data);
        gp.iter()
            .zip(&gm)
            .map(|(a, b)| (a - b) / (2.0 * eps))
            .collect()
    }

    /// Central-difference gradient of `p_class(x, θ)`.
    pub fn fd_grad_proba(model: &dyn Classifier, x: &[f64], class: usize, eps: f64) -> Vec<f64> {
        let theta = model.params().to_vec();
        let mut g = vec![0.0; theta.len()];
        let mut probe = model.clone_box();
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            probe.set_params(&tp);
            let up = probe.predict_proba(x)[class];
            tp[j] -= 2.0 * eps;
            probe.set_params(&tp);
            let dn = probe.predict_proba(x)[class];
            g[j] = (up - dn) / (2.0 * eps);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::Classifier;
    use crate::{LogisticRegression, Mlp, SoftmaxRegression};
    use rain_linalg::{Matrix, RainRng};

    fn features(rows: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = RainRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * dim).map(|_| rng.normal()).collect();
        Matrix::from_vec(rows, dim, data)
    }

    fn randomized(mut m: Box<dyn Classifier>, seed: u64) -> Box<dyn Classifier> {
        let mut rng = RainRng::seed_from_u64(seed);
        let p = rng.normal_vec(m.n_params(), 0.7);
        m.set_params(&p);
        m
    }

    /// Every model the kernels serve: logistic with and without bias and
    /// softmax (closed-form overrides), and the MLP (trait defaults).
    fn models(dim: usize) -> Vec<Box<dyn Classifier>> {
        vec![
            randomized(Box::new(LogisticRegression::new(dim, 0.01)), 1),
            randomized(Box::new(LogisticRegression::without_bias(dim, 0.01)), 2),
            randomized(Box::new(SoftmaxRegression::new(dim, 4, 0.01)), 3),
            Box::new(Mlp::new(dim, 6, 3, 0.01, 4)),
        ]
    }

    #[test]
    fn proba_range_matches_per_row_predict_proba_bitwise() {
        let x = features(37, 5, 10);
        for m in models(5) {
            let c = m.n_classes();
            let per_row: Vec<u64> = x
                .iter_rows()
                .flat_map(|r| m.predict_proba(r))
                .map(f64::to_bits)
                .collect();
            for chunk in [1usize, 8, 37] {
                let mut out = vec![0.0; x.rows() * c];
                for start in (0..x.rows()).step_by(chunk) {
                    let end = (start + chunk).min(x.rows());
                    m.predict_proba_range_into(&x, start, &mut out[start * c..end * c]);
                }
                let got: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, per_row, "{} chunk={chunk}", m.name());
            }
        }
    }

    #[test]
    fn vjp_matches_summed_grad_proba() {
        let x = features(29, 5, 20);
        let mut rng = RainRng::seed_from_u64(21);
        for m in models(5) {
            let c = m.n_classes();
            // Random adjoints with some all-zero rows and zero entries.
            let adj: Vec<f64> = (0..x.rows() * c)
                .map(|i| {
                    if (i / c) % 5 == 0 || i % 3 == 0 {
                        0.0
                    } else {
                        rng.normal()
                    }
                })
                .collect();
            let mut expect = vec![0.0; m.n_params()];
            for i in 0..x.rows() {
                for class in 0..c {
                    let g = m.grad_proba(x.row(i), class);
                    rain_linalg::vecops::axpy(adj[i * c + class], &g, &mut expect);
                }
            }
            // Accumulates into `out`, over any split of the rows.
            let mut got = vec![0.0; m.n_params()];
            m.vjp_proba_range(&x, 0, &adj[..10 * c], &mut got);
            m.vjp_proba_range(&x, 10, &adj[10 * c..], &mut got);
            let scale = rain_linalg::vecops::norm_inf(&expect).max(1e-300);
            for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-12 * scale,
                    "{} param {j}: vjp {g} vs Σ adj·∇p {e}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn vjp_of_zero_adjoint_leaves_out_untouched() {
        let x = features(8, 3, 30);
        for m in models(3) {
            let mut out: Vec<f64> = (0..m.n_params()).map(|j| j as f64).collect();
            let before = out.clone();
            m.vjp_proba_range(&x, 0, &vec![0.0; 8 * m.n_classes()], &mut out);
            assert_eq!(out, before, "{}", m.name());
        }
    }
}
