//! Encoding complaints as differentiable functions `q(θ)` (paper §5.3.2)
//! and chaining their gradients back to model parameters.
//!
//! For Holistic, each complaint becomes a term over the *relaxed*
//! provenance of its target cell:
//!
//! - value complaint `t[a] = X`  →  `(rq(θ) − X)²`
//! - tuple complaint             →  `rq(θ)²`  (membership should be 0)
//! - inequality complaints       →  treated as the equality while violated,
//!   ignored once satisfied (the train–rank–fix scheme of §5.3.2)
//! - prediction complaint        →  `(p_class(x) − 1)²`
//!
//! Multiple complaints (possibly across queries) sum their terms. The
//! gradient flows  `∂q/∂p[var][class]`  (reverse-mode over the provenance
//! DAG, from `rain-sql`)  →  `∇θ p_class(x_var)`  (from `rain-model`)  →
//! `∇θ q`, which is what the influence engine inverts.
//!
//! The encode of one query output is three batched steps over dense,
//! row-major `n_vars × n_classes` buffers and the output's packed feature
//! matrix ([`QueryOutput::features`], row `v` feeds variable `v`):
//!
//! 1. [`probs_for`] — class probabilities of every variable
//!    ([`Classifier::predict_proba_range_into`]);
//! 2. [`q_value_and_prob_grad`] — the relaxed `q` and its dense
//!    probability-space gradient;
//! 3. [`prob_grad_to_theta`] — one vector–Jacobian product through the
//!    model ([`Classifier::vjp_proba_range`]).
//!
//! Steps 1 and 3 shard the variables into fixed-size morsels of
//! [`ENCODE_MORSEL_ROWS`] across a worker budget; step 3 reduces its
//! per-morsel partial sums in morsel order. Morsel boundaries never
//! depend on the thread count, so `∇θ q` is bit-identical at every
//! thread count — and, because a refreshed output and a full execution
//! carry the same variables over the same feature rows, between the
//! incremental and full re-execution paths.

use crate::complaint::{Complaint, ValueOp};
use rain_linalg::Matrix;
use rain_model::Classifier;
use rain_sql::{CellProv, ProbGrad, Probs, QueryOutput};

/// Prediction variables per encode morsel — the fixed sharding unit of
/// [`probs_for`] and [`prob_grad_to_theta`].
pub const ENCODE_MORSEL_ROWS: usize = 2048;

/// The output's packed feature matrix, one row per prediction variable.
///
/// # Panics
/// Panics on an output without one (normal-mode execution).
fn features_of(out: &QueryOutput) -> &Matrix {
    assert_eq!(
        out.features.rows(),
        out.predvars.len(),
        "encode needs a debug-mode output (one feature row per prediction variable)"
    );
    &out.features
}

/// Run `f(morsel index, morsel)` over every morsel, spread across up to
/// `threads` workers (`0` = auto) in contiguous runs. Results land in the
/// morsels themselves, so their order never depends on scheduling.
fn for_each_morsel<S: Send>(morsels: &mut [S], threads: usize, f: impl Fn(usize, &mut S) + Sync) {
    let workers = rain_sql::resolve_threads(threads).min(morsels.len());
    if workers <= 1 {
        for (m, s) in morsels.iter_mut().enumerate() {
            f(m, s);
        }
        return;
    }
    let per = morsels.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let mut runs = morsels.chunks_mut(per).enumerate();
        let (_, first) = runs.next().expect("at least one morsel");
        for (w, run) in runs {
            scope.spawn(move || {
                for (k, s) in run.iter_mut().enumerate() {
                    f(w * per + k, s);
                }
            });
        }
        for (k, s) in first.iter_mut().enumerate() {
            f(k, s);
        }
    });
}

/// Class probabilities for every prediction variable of a debug-mode
/// query output, computed over its packed feature matrix on up to
/// `threads` workers (`0` = auto). Identical at every thread count.
pub fn probs_for(out: &QueryOutput, model: &dyn Classifier, threads: usize) -> Probs {
    let x = features_of(out);
    let c = model.n_classes();
    let mut p = vec![0.0; x.rows() * c];
    let mut morsels: Vec<&mut [f64]> = p.chunks_mut(ENCODE_MORSEL_ROWS * c).collect();
    for_each_morsel(&mut morsels, threads, |m, chunk| {
        model.predict_proba_range_into(x, m * ENCODE_MORSEL_ROWS, chunk)
    });
    Probs::new(c, p)
}

/// Map a gradient over variable probabilities into parameter space:
/// `∇θ q = Σ_{var,class} (∂q/∂p[var][class]) · ∇θ p_class(x_var)`, one
/// vector–Jacobian product per morsel on up to `threads` workers (`0` =
/// auto), reduced in morsel order — bit-identical at every thread count.
pub fn prob_grad_to_theta(
    out: &QueryOutput,
    model: &dyn Classifier,
    pg: &ProbGrad,
    threads: usize,
) -> Vec<f64> {
    let x = features_of(out);
    assert_eq!(
        pg.n_vars(),
        x.rows(),
        "gradient and output disagree on variables"
    );
    let n_params = model.n_params();
    // (adjoint morsel, its partial ∇θ — left empty when the adjoint is 0)
    let mut morsels: Vec<(&[f64], Vec<f64>)> = pg
        .as_slice()
        .chunks(ENCODE_MORSEL_ROWS * pg.n_classes())
        .map(|adj| (adj, Vec::new()))
        .collect();
    for_each_morsel(&mut morsels, threads, |m, (adj, partial)| {
        if adj.iter().any(|&g| g != 0.0) {
            *partial = vec![0.0; n_params];
            model.vjp_proba_range(x, m * ENCODE_MORSEL_ROWS, adj, partial);
        }
    });
    let mut grad = vec![0.0; n_params];
    for (_, partial) in morsels.iter().filter(|(_, p)| !p.is_empty()) {
        rain_linalg::vecops::axpy(1.0, partial, &mut grad);
    }
    grad
}

/// `∇θ q` of one query's complaints under the Holistic relaxation: the
/// three encode steps over `out` on up to `threads` workers.
pub fn holistic_grad(
    out: &QueryOutput,
    complaints: &[Complaint],
    model: &dyn Classifier,
    threads: usize,
) -> Vec<f64> {
    let mut span = rain_obs::Span::enter("encode");
    span.add("n_vars", out.predvars.len() as u64);
    let probs = {
        let _s = rain_obs::Span::enter("probs");
        probs_for(out, model, threads)
    };
    let pg = {
        let _s = rain_obs::Span::enter("prov-grad");
        q_value_and_prob_grad(out, complaints, &probs).1
    };
    let _s = rain_obs::Span::enter("vjp");
    prob_grad_to_theta(out, model, &pg, threads)
}

/// The value and probability-space gradient of the combined `q` for one
/// query's complaints. Satisfied inequality complaints contribute nothing.
pub fn q_value_and_prob_grad(
    out: &QueryOutput,
    complaints: &[Complaint],
    probs: &Probs,
) -> (f64, ProbGrad) {
    let mut value = 0.0;
    let mut grad = ProbGrad::zeros_like(probs);
    for c in complaints {
        match c {
            Complaint::Value {
                row,
                agg,
                op,
                target,
            } => {
                let Some(cell) = cell_of(out, *row, *agg) else {
                    continue;
                };
                let active = match op {
                    ValueOp::Eq => true,
                    // Treat as equality while violated (§5.3.2); the
                    // *concrete* value decides violation.
                    ValueOp::Le | ValueOp::Ge => !c.satisfied(out),
                };
                if active {
                    // The residual comes from the *concrete* output value
                    // the user complained about, not the relaxed one: an
                    // under-confident model can place the relaxed value on
                    // the other side of the target, and a purely-relaxed
                    // residual would then push the fix in the wrong
                    // direction. The relaxed polynomial still supplies the
                    // gradient direction through the probabilities.
                    let concrete = concrete_cell(out, *row, *agg)
                        .unwrap_or_else(|| cell.eval_discrete(out.predvars.preds()));
                    value += (concrete - target) * (concrete - target);
                    cell.accumulate_grad(probs, 2.0 * (concrete - target), &mut grad);
                }
            }
            Complaint::TupleDelete { row } => {
                let Some(prov) = out.row_prov.get(*row) else {
                    continue;
                };
                let v = prov.eval_relaxed(probs);
                value += v * v;
                prov.accumulate_grad(probs, 2.0 * v, &mut grad);
            }
            Complaint::JoinDelete { left, right } => {
                let (Some(lv), Some(rv)) = (
                    out.predvars.lookup(&left.0, left.1),
                    out.predvars.lookup(&right.0, right.1),
                ) else {
                    continue;
                };
                // Membership formula of the pair: predict(l) = predict(r).
                let prov = rain_sql::BoolProv::PredEq {
                    left: lv,
                    right: rv,
                };
                let v = prov.eval_relaxed(probs);
                value += v * v;
                prov.accumulate_grad(probs, 2.0 * v, &mut grad);
            }
            Complaint::PredictionIs { table, row, class } => {
                let Some(var) = out.predvars.lookup(table, *row) else {
                    continue;
                };
                let p = probs.row(var as usize)[*class];
                value += (p - 1.0) * (p - 1.0);
                grad.row_mut(var as usize)[*class] += 2.0 * (p - 1.0);
            }
        }
    }
    (value, grad)
}

/// The provenance cell targeted by a value complaint.
pub fn cell_of(out: &QueryOutput, row: usize, agg: usize) -> Option<&CellProv> {
    out.agg_cells.get(row).and_then(|cells| cells.get(agg))
}

/// The concrete numeric value of an aggregate output cell.
pub fn concrete_cell(out: &QueryOutput, row: usize, agg: usize) -> Option<f64> {
    let col = out.n_key_cols + agg;
    if row >= out.table.n_rows() || col >= out.table.schema().len() {
        return None;
    }
    match out.table.value(row, col) {
        rain_sql::Value::Int(v) => Some(v as f64),
        rain_sql::Value::Float(v) => Some(v),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complaint::Complaint;
    use rain_linalg::{vecops, Matrix};
    use rain_model::{Classifier, LogisticRegression};
    use rain_sql::table::{ColType, Column, Schema, Table};
    use rain_sql::{run_query, Database, ExecOptions};

    fn setup() -> (Database, LogisticRegression) {
        let t = Table::from_columns(
            Schema::new(&[("id", ColType::Int)]),
            vec![Column::Int(vec![0, 1, 2, 3])],
        )
        .with_features(Matrix::from_rows(&[&[2.0], &[0.5], &[-0.5], &[-2.0]]));
        let mut db = Database::new();
        db.register("t", t);
        let mut m = LogisticRegression::new(1, 0.0);
        m.set_params(&[1.0, 0.0]); // soft sigmoid: probabilities in (0,1)
        (db, m)
    }

    #[test]
    fn probs_align_with_registry() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        let probs = probs_for(&out, &m, 1);
        assert_eq!(probs.n_vars(), 4);
        for (v, info) in out.predvars.infos().iter().enumerate() {
            let x = db
                .table(&info.table)
                .unwrap()
                .feature_row(info.row)
                .unwrap()
                .to_vec();
            assert_eq!(probs.row(v), &m.predict_proba(&x)[..]);
        }
    }

    #[test]
    fn q_gradient_matches_finite_differences_through_model() {
        // The value-complaint gradient is that of the surrogate
        // q̃(θ) = 2·(concrete − X)·v_relaxed(θ), where the concrete
        // residual is held fixed for the iteration; check ∇θ against
        // central differences of v_relaxed through the model.
        let (db, mut m) = setup();
        let sql = "SELECT COUNT(*) FROM t WHERE predict(*) = 1";
        let out = run_query(&db, &m, sql, ExecOptions::debug()).unwrap();
        let complaints = vec![Complaint::scalar_eq(3.0)];
        let concrete = concrete_cell(&out, 0, 0).unwrap();
        let target = 3.0;

        let v_at = |model: &LogisticRegression| -> f64 {
            let probs = probs_for(&out, model, 1);
            cell_of(&out, 0, 0).unwrap().eval_relaxed(&probs)
        };

        let probs = probs_for(&out, &m, 1);
        let (_, pg) = q_value_and_prob_grad(&out, &complaints, &probs);
        let grad = prob_grad_to_theta(&out, &m, &pg, 1);

        let theta = m.params().to_vec();
        let eps = 1e-6;
        for j in 0..theta.len() {
            let mut tp = theta.clone();
            tp[j] += eps;
            m.set_params(&tp);
            let up = v_at(&m);
            tp[j] -= 2.0 * eps;
            m.set_params(&tp);
            let dn = v_at(&m);
            m.set_params(&theta);
            let fd = 2.0 * (concrete - target) * (up - dn) / (2.0 * eps);
            assert!(
                (fd - grad[j]).abs() < 1e-6,
                "param {j}: fd {fd} vs {}",
                grad[j]
            );
        }
    }

    #[test]
    fn satisfied_inequality_contributes_nothing() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        // Concrete count is 2; "should be ≤ 3" is satisfied → inactive.
        let probs = probs_for(&out, &m, 1);
        let (v, g) = q_value_and_prob_grad(
            &out,
            &[Complaint::Value {
                row: 0,
                agg: 0,
                op: ValueOp::Le,
                target: 3.0,
            }],
            &probs,
        );
        assert_eq!(v, 0.0);
        assert!(g.as_slice().iter().all(|&d| d == 0.0));
        // "should be ≥ 3" is violated → active, positive value.
        let (v, g) = q_value_and_prob_grad(
            &out,
            &[Complaint::Value {
                row: 0,
                agg: 0,
                op: ValueOp::Ge,
                target: 3.0,
            }],
            &probs,
        );
        assert!(v > 0.0);
        assert!(g.as_slice().iter().any(|&d| d != 0.0));
    }

    #[test]
    fn multiple_complaints_sum() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        let probs = probs_for(&out, &m, 1);
        let (v1, _) = q_value_and_prob_grad(&out, &[Complaint::scalar_eq(3.0)], &probs);
        let (v2, _) = q_value_and_prob_grad(&out, &[Complaint::prediction_is("t", 1, 0)], &probs);
        let (sum, _) = q_value_and_prob_grad(
            &out,
            &[
                Complaint::scalar_eq(3.0),
                Complaint::prediction_is("t", 1, 0),
            ],
            &probs,
        );
        assert!((sum - (v1 + v2)).abs() < 1e-12);
    }

    #[test]
    fn tuple_complaint_gradient_pushes_membership_down() {
        let (db, m) = setup();
        let out = run_query(
            &db,
            &m,
            "SELECT id FROM t WHERE predict(*) = 1",
            ExecOptions::debug(),
        )
        .unwrap();
        assert!(out.table.n_rows() >= 1);
        let probs = probs_for(&out, &m, 1);
        let (v, pg) = q_value_and_prob_grad(&out, &[Complaint::tuple_delete(0)], &probs);
        assert!(v > 0.0);
        let grad = prob_grad_to_theta(&out, &m, &pg, 1);
        assert!(vecops::norm2(&grad) > 0.0);
    }

    #[test]
    fn encode_is_bit_identical_across_threads_and_execution_paths() {
        // Enough variables for several encode morsels, so thread counts
        // really change which worker computes which partial sum.
        let n = 2 * ENCODE_MORSEL_ROWS + 904;
        let mut rng = rain_linalg::RainRng::seed_from_u64(7);
        let feats: Vec<f64> = (0..n * 3).map(|_| rng.normal()).collect();
        let table = Table::from_columns(
            Schema::new(&[("id", ColType::Int), ("bucket", ColType::Int)]),
            vec![
                Column::Int((0..n as i64).collect()),
                Column::Int((0..n as i64).map(|i| i % 7).collect()),
            ],
        )
        .with_features(Matrix::from_vec(n, 3, feats));
        let mut db = Database::new();
        db.register("t", table.clone());
        db.register("u", table);
        let mut m = LogisticRegression::new(3, 0.0);
        m.set_params(&[0.8, -0.5, 0.3, 0.1]);
        let cases = [
            (
                "SELECT COUNT(*) FROM t WHERE predict(*) = 1",
                vec![Complaint::scalar_eq(10.0)],
            ),
            (
                "SELECT COUNT(*) FROM t a, u b \
                 WHERE a.id = b.id AND b.bucket < 4 AND predict(a) = predict(b)",
                vec![Complaint::scalar_eq(10.0)],
            ),
            (
                "SELECT id FROM t WHERE bucket < 6 AND predict(*) = 1",
                vec![
                    Complaint::tuple_delete(0),
                    Complaint::prediction_is("t", 2, 0),
                ],
            ),
        ];
        let bits = |g: Vec<f64>| g.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (sql, complaints) in cases {
            let plan = rain_sql::optimize(
                rain_sql::bind(&rain_sql::parse_select(sql).unwrap(), &db).unwrap(),
                &db,
            );
            let full = rain_sql::execute(&db, &m, &plan, ExecOptions::debug()).unwrap();
            let prepared = rain_sql::prepare(&db, &m, &plan, rain_sql::Engine::Vectorized).unwrap();
            let refreshed = prepared.refresh_threaded(&db, &m, 1).unwrap();
            assert!(
                full.predvars.len() > ENCODE_MORSEL_ROWS,
                "{sql}: too few variables"
            );
            let reference = bits(holistic_grad(&full, &complaints, &m, 1));
            assert!(reference.iter().any(|&b| b != 0), "{sql}: zero gradient");
            for threads in [1, 2, 8] {
                for (path, out) in [("full", &full), ("refreshed", &refreshed)] {
                    for _ in 0..2 {
                        let got = bits(holistic_grad(out, &complaints, &m, threads));
                        assert_eq!(got, reference, "{sql}: {path} at {threads} threads");
                    }
                }
            }
        }
    }
}
