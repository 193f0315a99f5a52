//! Figure 5 / Figure 12 microbenches: the cost of one train–rank–fix
//! iteration, split by phase (train / encode / rank), for Loss, TwoStep,
//! and Holistic on the DBLP workload — plus the incremental-vs-full
//! re-execution comparison for the loop's encode phase.
//!
//! The incremental section pits a prepared skeleton's per-iteration
//! `refresh` against a full debug-mode `execute` on the same plans (the
//! paper's count complaint and a self-join with a model predicate),
//! asserts the outputs are bit-identical before timing, and writes the
//! speedups to `BENCH_iteration.json` (path overridable via
//! `RAIN_BENCH_JSON`), which CI uploads as the loop's bench trajectory.
//! The memo section times memoized against plain refresh, and the encode
//! section times the Holistic encode's model kernels (trait default vs
//! batched override).

use rain_bench::BenchGroup;
use rain_core::prelude::*;
use rain_core::rank::{rank, Method as M, RankContext};
use rain_data::dblp::DblpConfig;
use rain_data::flip_labels_where;
use rain_data::tables::dataset_to_table;
use rain_linalg::{Matrix, RainRng};
use rain_model::{train_lbfgs, Classifier, LbfgsConfig, LogisticRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    bind, execute, optimize, parse_select, prepare, run_query, Database, Engine, ExecOptions,
    QueryPlan, ScoreMemo,
};

struct Fixture {
    db: Database,
    train: rain_model::Dataset,
    model: LogisticRegression,
    queries: Vec<QuerySpec>,
    out: rain_sql::QueryOutput,
}

fn fixture() -> Fixture {
    let w = DblpConfig {
        n_train: 1000,
        n_query: 500,
        ..Default::default()
    }
    .generate(42);
    let mut train = w.train.clone();
    flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, 42);
    let mut db = Database::new();
    db.register("dblp", w.query_table());
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &train, &LbfgsConfig::default());
    let sql = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 1";
    let out = run_query(&db, &model, sql, ExecOptions::debug()).unwrap();
    let queries =
        vec![QuerySpec::new(sql).with_complaint(Complaint::scalar_eq(w.true_match_count() as f64))];
    Fixture {
        db,
        train,
        model,
        queries,
        out,
    }
}

fn bench_iteration() {
    let f = fixture();
    let mut g = BenchGroup::new("iteration_phase", 10);

    g.bench("train_warm", || {
        let mut m = f.model.clone();
        train_lbfgs(&mut m, &f.train, &LbfgsConfig::warm())
    });
    g.bench("exec_debug_mode", || {
        run_query(&f.db, &f.model, &f.queries[0].sql, ExecOptions::debug()).unwrap()
    });
    for method in [M::Loss, M::TwoStep, M::Holistic] {
        let influence = Default::default();
        let sqlstep = Default::default();
        g.bench(&format!("rank_{}", method.name()), || {
            let ctx = RankContext {
                db: &f.db,
                model: &f.model,
                train: &f.train,
                outputs: std::slice::from_ref(&f.out),
                queries: &f.queries,
                influence: &influence,
                sqlstep: &sqlstep,
                threads: 0,
            };
            rank(method, &ctx).unwrap()
        });
    }
    g.finish();
}

fn plan_for(sql: &str, db: &Database) -> QueryPlan {
    let stmt = parse_select(sql).unwrap();
    let bound = bind(&stmt, db).unwrap();
    optimize(bound, db)
}

/// Incremental refresh vs full debug-mode re-execution, per iteration of
/// the loop: the tentpole comparison, exported as `BENCH_iteration.json`.
/// Returns the artifact's JSON body (unterminated — `main` appends the
/// memo section before closing and writing it).
fn bench_incremental() -> String {
    let quick = rain_bench::is_quick();
    let n_query = 2000;
    let w = DblpConfig {
        n_train: 400,
        n_query,
        ..Default::default()
    }
    .generate(42);
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &w.train, &Default::default());

    // The paper's count-complaint workload plus a self-join with a model
    // predicate (the shape where the cached join skeleton pays most).
    let n = w.query.len();
    let bucket = Column::Int((0..n as i64).map(|i| i % 10).collect());
    let mut db = Database::new();
    db.register(
        "dblp",
        dataset_to_table(&w.query, vec![("bucket", bucket.clone())]),
    );
    db.register(
        "dblp_b",
        dataset_to_table(&w.query, vec![("bucket", bucket)]),
    );
    let cases = [
        (
            "count",
            plan_for("SELECT COUNT(*) FROM dblp WHERE predict(*) = 1", &db),
        ),
        (
            "join",
            plan_for(
                "SELECT COUNT(*) FROM dblp a, dblp_b b \
                 WHERE a.id = b.id AND b.bucket < 4 AND predict(a) = 1",
                &db,
            ),
        ),
    ];

    // Prepare once; assert refresh ≡ full execution before timing.
    let prepared: Vec<_> = cases
        .iter()
        .map(|(name, plan)| {
            let p = prepare(&db, &model, plan, Engine::Vectorized).expect(name);
            let full = execute(&db, &model, plan, ExecOptions::debug()).unwrap();
            let refreshed = p.refresh(&db, &model).unwrap();
            assert_eq!(
                full.table.to_tsv(),
                refreshed.table.to_tsv(),
                "{name}: rows disagree"
            );
            assert_eq!(
                full.agg_cells, refreshed.agg_cells,
                "{name}: provenance disagrees"
            );
            assert_eq!(
                full.predvars.preds(),
                refreshed.predvars.preds(),
                "{name}: predictions disagree"
            );
            p
        })
        .collect();

    let samples = if quick { 3 } else { 30 };
    let mut g = BenchGroup::new("iteration_incremental", samples);
    for ((name, plan), p) in cases.iter().zip(&prepared) {
        g.bench(&format!("full_{name}"), || {
            execute(&db, &model, plan, ExecOptions::debug()).unwrap()
        });
        g.bench(&format!("refresh_{name}"), || {
            p.refresh(&db, &model).unwrap()
        });
    }
    g.finish();

    let mut json = format!(
        "{{\n  \"bench\": \"iteration_incremental\",\n  \"n_query\": {n_query},\n  \"samples\": {samples}"
    );
    for (name, _) in &cases {
        let (full, refresh) = (
            g.median_secs(&format!("full_{name}")).unwrap(),
            g.median_secs(&format!("refresh_{name}")).unwrap(),
        );
        println!(
            "speedup_{name}: {:.2}x (full {:.3} ms → refresh {:.3} ms)",
            full / refresh,
            full * 1e3,
            refresh * 1e3
        );
        json.push_str(&format!(
            ",\n  \"{name}\": {{ \"full_ms\": {:.6}, \"refresh_ms\": {:.6}, \"speedup\": {:.3} }}",
            full * 1e3,
            refresh * 1e3,
            full / refresh
        ));
    }
    json
}

/// Memoized vs plain refresh on a duplicate-heavy, low-flip workload:
/// feature rows drawn from a small pool of distinct vectors scored by an
/// MLP (per-row inference far dearer than a hash lookup — the regime the
/// memo exists for), and a model nudge that flips fewer than 10% of
/// predictions between iterations. Each memoized sample advances the
/// generation first (the driver's per-retrain discipline), so the memo
/// pays purely through within-generation deduplication: 64 distinct
/// inferences instead of one per row. Appends a `memo` section to
/// `BENCH_iteration.json` gated by `bench_floors.json`.
fn bench_memo(json: &mut String) {
    let quick = rain_bench::is_quick();
    let n = if quick { 20_000 } else { 40_000 };
    const POOL: usize = 64;
    const DIM: usize = 16;
    let mut rng = RainRng::seed_from_u64(0x3E30);
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|_| (0..DIM).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
        .collect();
    let rows: Vec<&[f64]> = (0..n).map(|i| &pool[i % POOL][..]).collect();
    let feats = Matrix::from_rows(&rows);
    let table = Table::from_columns(
        Schema::new(&[("id", ColType::Int)]),
        vec![Column::Int((0..n as i64).collect())],
    )
    .with_features(feats.clone());
    let mut db = Database::new();
    db.register("pool", table);

    // A seeded MLP and a single-bias nudge of it: only rows whose logit
    // gap falls inside the nudge band flip, which must be <10%.
    let model_a = rain_model::Mlp::new(DIM, 32, 2, 0.0, 7);
    let mut model_b = model_a.clone();
    let mut nudged = model_a.params().to_vec();
    *nudged.last_mut().unwrap() += 0.08;
    model_b.set_params(&nudged);
    let (pa, pb) = (model_a.predict_batch(&feats), model_b.predict_batch(&feats));
    let flips = pa.iter().zip(&pb).filter(|(a, b)| a != b).count();
    let flip_fraction = flips as f64 / n as f64;
    assert!(
        flip_fraction < 0.10,
        "memo workload must flip <10% of predictions per nudge, got {flip_fraction:.3}"
    );

    let plan = plan_for("SELECT COUNT(*) FROM pool WHERE predict(*) = 1", &db);
    let prepared = prepare(&db, &model_a, &plan, Engine::Vectorized).unwrap();

    // Correctness before timing: memoized ≡ plain under both models,
    // within a generation and across an advance.
    let mut memo = ScoreMemo::new();
    memo.advance(1);
    let plain = prepared.refresh_threaded(&db, &model_b, 1).unwrap();
    let memod = prepared
        .refresh_memo_threaded(&db, &model_b, 1, &mut memo)
        .unwrap();
    assert_eq!(plain.table.to_tsv(), memod.table.to_tsv(), "memo: rows");
    assert_eq!(
        plain.predvars.preds(),
        memod.predvars.preds(),
        "memo: predictions"
    );
    assert_eq!(memo.misses(), POOL as u64, "one inference per distinct row");
    let again = prepared
        .refresh_memo_threaded(&db, &model_b, 1, &mut memo)
        .unwrap();
    assert_eq!(plain.predvars.preds(), again.predvars.preds());
    assert_eq!(memo.misses(), POOL as u64, "same generation: all hits");
    memo.advance(2);
    let back = prepared
        .refresh_memo_threaded(&db, &model_a, 1, &mut memo)
        .unwrap();
    let back_plain = prepared.refresh_threaded(&db, &model_a, 1).unwrap();
    assert_eq!(back_plain.predvars.preds(), back.predvars.preds());

    let samples = if quick { 3 } else { 30 };
    let mut g = BenchGroup::new("iteration_memo", samples);
    g.bench("refresh_plain", || {
        prepared.refresh_threaded(&db, &model_b, 1).unwrap()
    });
    let bench_memo = std::cell::RefCell::new((ScoreMemo::new(), 0u64));
    g.bench("refresh_memo", || {
        let (memo, generation) = &mut *bench_memo.borrow_mut();
        *generation += 1;
        memo.advance(*generation);
        prepared
            .refresh_memo_threaded(&db, &model_b, 1, memo)
            .unwrap()
    });
    g.finish();

    let (plain_s, memo_s) = (
        g.median_secs("refresh_plain").unwrap(),
        g.median_secs("refresh_memo").unwrap(),
    );
    println!(
        "memo speedup: {:.2}x (plain {:.3} ms → memo {:.3} ms, flip fraction {flip_fraction:.4})",
        plain_s / memo_s,
        plain_s * 1e3,
        memo_s * 1e3
    );
    json.push_str(&format!(
        ",\n  \"memo\": {{ \"plain_ms\": {:.6}, \"memo_ms\": {:.6}, \"speedup\": {:.3}, \
         \"flip_fraction\": {flip_fraction:.6}, \"pool\": {POOL}, \"rows\": {n} }}",
        plain_s * 1e3,
        memo_s * 1e3,
        plain_s / memo_s
    ));
}

/// A classifier that forwards only the required [`Classifier`] methods to
/// the wrapped model, so every batched kernel runs the trait's generic
/// per-row default — the baseline the closed-form overrides are gated
/// against.
#[derive(Clone)]
struct TraitDefaults(LogisticRegression);

impl Classifier for TraitDefaults {
    fn n_classes(&self) -> usize {
        self.0.n_classes()
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn n_params(&self) -> usize {
        self.0.n_params()
    }
    fn params(&self) -> &[f64] {
        self.0.params()
    }
    fn set_params(&mut self, p: &[f64]) {
        self.0.set_params(p)
    }
    fn l2(&self) -> f64 {
        self.0.l2()
    }
    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        self.0.predict_proba(x)
    }
    fn example_loss(&self, x: &[f64], y: usize) -> f64 {
        self.0.example_loss(x, y)
    }
    fn example_grad_into(&self, x: &[f64], y: usize, out: &mut [f64]) {
        self.0.example_grad_into(x, y, out)
    }
    fn hvp(&self, data: &rain_model::Dataset, v: &[f64]) -> Vec<f64> {
        self.0.hvp(data, v)
    }
    fn grad_proba(&self, x: &[f64], class: usize) -> Vec<f64> {
        self.0.grad_proba(x, class)
    }
    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }
    fn name(&self) -> &'static str {
        "logistic-trait-defaults"
    }
}

/// The Holistic encode's two model kernels at DBLP scale (40 000
/// prediction variables — both queries of the end-to-end DBLP debug
/// workload — over 17 features): class probabilities and the
/// vector–Jacobian product `Σ adj·∇θ p`, each through the trait's
/// per-row default and through the logistic model's batched override, on
/// one thread. Asserts the two agree (probabilities bit for bit, the VJP
/// within 1e-12 relative) before timing, and appends an `encode` section
/// to `BENCH_iteration.json`; `encode.speedup` (default VJP ÷ batched
/// VJP) is gated by `bench_floors.json`.
fn bench_encode(json: &mut String) {
    let quick = rain_bench::is_quick();
    const ROWS: usize = 40_000;
    let w = DblpConfig {
        n_train: 400,
        n_query: ROWS / 2,
        ..Default::default()
    }
    .generate(42);
    let mut model = LogisticRegression::new(17, 0.01);
    train_lbfgs(&mut model, &w.train, &Default::default());
    let defaults = TraitDefaults(model.clone());
    // Both copies of the query table, as the self-join workload binds them.
    let x = w.query.features().vstack(w.query.features());
    assert_eq!(x.rows(), ROWS);
    let c = model.n_classes();
    let mut rng = RainRng::seed_from_u64(0xE4C0);
    let adj: Vec<f64> = (0..ROWS * c).map(|_| rng.normal()).collect();

    let probs = |m: &dyn Classifier| {
        let mut out = vec![0.0; ROWS * c];
        m.predict_proba_range_into(&x, 0, &mut out);
        out
    };
    let vjp = |m: &dyn Classifier| {
        let mut out = vec![0.0; m.n_params()];
        m.vjp_proba_range(&x, 0, &adj, &mut out);
        out
    };
    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(probs(&defaults)),
        bits(probs(&model)),
        "encode: probabilities"
    );
    let (slow, fast) = (vjp(&defaults), vjp(&model));
    let scale = rain_linalg::vecops::norm_inf(&slow);
    for (a, b) in slow.iter().zip(&fast) {
        assert!((a - b).abs() <= 1e-12 * scale, "encode: vjp {a} vs {b}");
    }

    let samples = if quick { 5 } else { 30 };
    let mut g = BenchGroup::new("iteration_encode", samples);
    g.bench("probs_default", || probs(&defaults));
    g.bench("probs_batched", || probs(&model));
    g.bench("vjp_default", || vjp(&defaults));
    g.bench("vjp_batched", || vjp(&model));
    g.finish();

    let ms = |name: &str| g.median_secs(name).unwrap() * 1e3;
    let (pd, pb, vd, vb) = (
        ms("probs_default"),
        ms("probs_batched"),
        ms("vjp_default"),
        ms("vjp_batched"),
    );
    println!(
        "encode vjp speedup: {:.2}x (default {vd:.3} ms → batched {vb:.3} ms); \
         probabilities {:.2}x ({pd:.3} ms → {pb:.3} ms)",
        vd / vb,
        pd / pb
    );
    json.push_str(&format!(
        ",\n  \"encode\": {{ \"rows\": {ROWS}, \"vjp_default_ms\": {vd:.6}, \
         \"vjp_batched_ms\": {vb:.6}, \"speedup\": {:.3}, \"probs_default_ms\": {pd:.6}, \
         \"probs_batched_ms\": {pb:.6}, \"probs_speedup\": {:.3} }}",
        vd / vb,
        pd / pb
    ));
}

fn main() {
    bench_iteration();
    let mut json = bench_incremental();
    bench_memo(&mut json);
    bench_encode(&mut json);
    json.push_str("\n}\n");
    let path =
        std::env::var("RAIN_BENCH_JSON").unwrap_or_else(|_| "BENCH_iteration.json".to_string());
    std::fs::write(&path, &json).expect("write bench artifact");
    println!("wrote {path}");
}
