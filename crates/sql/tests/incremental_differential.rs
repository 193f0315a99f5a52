//! Differential tests for incremental re-execution: a skeleton prepared
//! under one set of model parameters and refreshed under another must be
//! **bit-identical** to a fresh full debug-mode execution with the new
//! parameters — same result rows, same schema, same `ScalarResult`, same
//! prediction-variable registry (ids, sources, hard predictions), the
//! same packed per-variable feature rows, and structurally equal
//! provenance polynomials — on both engines, for
//! skeletons prepared on either engine.
//!
//! Workloads are seeded-random SPJA queries (joins, `predict = c` /
//! `predict != c` atoms, `predict(a) = predict(b)` join predicates,
//! grouped and predict-keyed aggregates, projections), plus nullable
//! tables, stale-skeleton detection, and model-architecture mismatches.

use rain_linalg::{Matrix, RainRng};
use rain_model::{Classifier, LogisticRegression};
use rain_sql::table::{ColType, Column, Schema, Table};
use rain_sql::{
    bind, execute, optimize, parse_select, prepare, Database, Engine, ExecOptions, QueryOutput,
    ScoreMemo, StalePolicy,
};

const CASES: u64 = 128;

/// A deterministic step model: class 1 iff feature > 0.
fn step_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[50.0, 0.0]);
    m
}

/// The step model with the decision flipped: class 1 iff feature < 0.
/// Refreshing with it flips *every* prediction the skeleton was prepared
/// under, which is the adversarial case for cached concrete state.
fn flipped_model() -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[-50.0, 0.0]);
    m
}

/// A seeded random model: soft, non-degenerate decision boundary.
fn random_model(rng: &mut RainRng) -> LogisticRegression {
    let mut m = LogisticRegression::new(1, 0.0);
    m.set_params(&[rng.uniform_range(-3.0, 3.0), rng.uniform_range(-1.0, 1.0)]);
    m
}

/// t1(x int, f float, s str, flag bool) and t2(y int, k int, s2 str),
/// both featured so `predict()` binds.
fn random_db(rng: &mut RainRng) -> Database {
    let n1 = 4 + rng.below(30);
    let n2 = 3 + rng.below(20);
    let words = ["http", "deal", "spam", "note", "xyz", ""];
    let feats = |rng: &mut RainRng, n: usize| {
        Matrix::from_rows(
            &(0..n)
                .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
                .collect::<Vec<_>>()
                .iter()
                .map(|r| &r[..])
                .collect::<Vec<_>>(),
        )
    };
    let mut db = Database::new();
    let t1 = Table::from_columns(
        Schema::new(&[
            ("x", ColType::Int),
            ("f", ColType::Float),
            ("s", ColType::Str),
            ("flag", ColType::Bool),
        ]),
        vec![
            Column::Int((0..n1).map(|_| rng.int_range(0, 6)).collect()),
            Column::Float((0..n1).map(|_| rng.uniform_range(-2.0, 4.0)).collect()),
            Column::Str(
                (0..n1)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
            Column::Bool((0..n1).map(|_| rng.bernoulli(0.5)).collect()),
        ],
    )
    .with_features(feats(rng, n1));
    db.register("t1", t1);
    let t2 = Table::from_columns(
        Schema::new(&[
            ("y", ColType::Int),
            ("k", ColType::Int),
            ("s2", ColType::Str),
        ]),
        vec![
            Column::Int((0..n2).map(|_| rng.int_range(0, 6)).collect()),
            Column::Int((0..n2).map(|_| rng.int_range(0, 4)).collect()),
            Column::Str(
                (0..n2)
                    .map(|_| words[rng.below(words.len())].to_string())
                    .collect(),
            ),
        ],
    )
    .with_features(feats(rng, n2));
    db.register("t2", t2);
    db
}

/// A random single-relation predicate over alias `a` (t1) or `b` (t2),
/// with `predict = c` / `predict != c` atoms well represented.
fn atom(rng: &mut RainRng, alias: &str, is_t1: bool) -> String {
    if is_t1 {
        match rng.below(8) {
            0 => format!("{alias}.x > {}", rng.int_range(0, 5)),
            1 => format!("{alias}.f < {}", rng.int_range(-1, 4)),
            2 => format!("{alias}.s LIKE '%{}%'", ["ht", "ea", "o"][rng.below(3)]),
            3 => format!("{alias}.flag"),
            4 | 5 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("predict({alias}) != {}", rng.below(2)),
        }
    } else {
        match rng.below(5) {
            0 => format!("{alias}.y >= {}", rng.int_range(0, 5)),
            1 => format!("{alias}.k < {}", rng.int_range(1, 4)),
            2 | 3 => format!("predict({alias}) = {}", rng.below(2)),
            _ => format!("{alias}.y != {alias}.k"),
        }
    }
}

/// Build a random SPJA query over the generated schema.
fn random_query(rng: &mut RainRng) -> String {
    let two_rels = rng.bernoulli(0.6);
    let from = if two_rels { "t1 a, t2 b" } else { "t1 a" };

    let mut terms = Vec::new();
    if two_rels {
        match rng.below(8) {
            0..=3 => terms.push("a.x = b.k".to_string()),
            4 => terms.push("a.s = b.s2".to_string()),
            5 => terms.push("a.x + 0 = b.k".to_string()), // expression key
            _ => {}                                       // cross join
        }
    }
    for _ in 0..1 + rng.below(3) {
        let t = match rng.below(6) {
            0 => {
                let l = atom(rng, "a", true);
                let r = if two_rels {
                    atom(rng, "b", false)
                } else {
                    atom(rng, "a", true)
                };
                format!("({l} OR {r})")
            }
            1 => ["1 = 1", "2 > 3"][rng.below(2)].to_string(),
            2 if two_rels => atom(rng, "b", false),
            3 if two_rels => "predict(a) = predict(b)".to_string(),
            _ => atom(rng, "a", true),
        };
        terms.push(t);
    }
    let where_sql = format!(" WHERE {}", terms.join(" AND "));

    match rng.below(10) {
        0 => format!("SELECT COUNT(*) FROM {from}{where_sql}"),
        1 => format!("SELECT SUM(x) FROM {from}{where_sql}"),
        2 => format!("SELECT AVG(x), COUNT(*) FROM {from}{where_sql}"),
        3 => format!("SELECT SUM(predict(a)) FROM {from}{where_sql}"),
        4 => format!("SELECT COUNT(*) FROM {from}{where_sql} GROUP BY predict(a)"),
        5 => format!("SELECT flag, SUM(f) FROM {from}{where_sql} GROUP BY flag"),
        6 => format!("SELECT x, AVG(f) FROM {from}{where_sql} GROUP BY x"),
        7 => format!("SELECT x, s FROM {from}{where_sql}"),
        8 => format!("SELECT predict(a), x FROM {from}{where_sql}"),
        _ => format!("SELECT * FROM {from}{where_sql}"),
    }
}

/// Assert two outputs are bit-identical: rows, schema, scalar shape,
/// provenance, the prediction-variable registry, and the packed feature
/// rows the relaxation encode runs the model over.
fn assert_identical(label: &str, want: &QueryOutput, got: &QueryOutput) {
    assert_eq!(
        want.table.to_tsv(),
        got.table.to_tsv(),
        "{label}: result rows differ"
    );
    let (ws, gs) = (want.table.schema(), got.table.schema());
    assert_eq!(ws.len(), gs.len(), "{label}: schema arity differs");
    for (a, b) in ws.iter().zip(gs.iter()) {
        assert_eq!(a, b, "{label}: schema column differs");
    }
    assert_eq!(want.scalar(), got.scalar(), "{label}: ScalarResult differs");
    assert_eq!(want.n_key_cols, got.n_key_cols, "{label}: n_key_cols");
    assert_eq!(want.row_prov, got.row_prov, "{label}: row provenance");
    assert_eq!(
        want.agg_cells, got.agg_cells,
        "{label}: aggregate provenance"
    );
    assert_eq!(
        want.predvars.infos(),
        got.predvars.infos(),
        "{label}: prediction-variable sources"
    );
    assert_eq!(
        want.predvars.preds(),
        got.predvars.preds(),
        "{label}: hard predictions"
    );
    assert_eq!(want.features, got.features, "{label}: packed feature rows");
}

/// Prepare on both engines under `prep_model`, refresh under each model
/// in `refresh_models`, and pin every refresh against fresh full
/// executions on both engines.
fn check_case(label: &str, db: &Database, sql: &str, refresh_models: &[&dyn Classifier]) {
    let prep_model = step_model();
    let stmt = parse_select(sql).unwrap_or_else(|e| panic!("{label} `{sql}`: {e}"));
    let bound = bind(&stmt, db).unwrap_or_else(|e| panic!("{label} `{sql}`: {e}"));
    let plan = optimize(bound, db);
    let prepared = [Engine::Tuple, Engine::Vectorized].map(|engine| {
        prepare(db, &prep_model, &plan, engine)
            .unwrap_or_else(|e| panic!("{label} `{sql}` prepare[{engine:?}]: {e}"))
    });
    for model in refresh_models {
        let fulls = [Engine::Tuple, Engine::Vectorized].map(|engine| {
            execute(db, *model, &plan, ExecOptions::debug().on(engine))
                .unwrap_or_else(|e| panic!("{label} `{sql}` full[{engine:?}]: {e}"))
        });
        for (pq, prep_engine) in prepared.iter().zip(["tuple", "vexec"]) {
            for threads in [1, 2, 8] {
                let refreshed = pq
                    .refresh_threaded(db, *model, threads)
                    .unwrap_or_else(|e| {
                        panic!("{label} `{sql}` refresh[{prep_engine}, threads={threads}]: {e}")
                    });
                for (full, full_engine) in fulls.iter().zip(["tuple", "vexec"]) {
                    assert_identical(
                        &format!(
                            "{label} `{sql}` \
                             [prep={prep_engine}, full={full_engine}, threads={threads}]"
                        ),
                        full,
                        &refreshed,
                    );
                }
            }
        }
    }
}

/// The headline property: refresh-after-parameter-change is bit-identical
/// to fresh full execution, across seeded SPJA workloads, engines, and
/// three parameter updates (same params, all predictions flipped, random
/// soft boundary).
#[test]
fn refresh_matches_full_reexecution_bit_for_bit() {
    let same = step_model();
    let flipped = flipped_model();
    for seed in 0..CASES {
        let mut rng = RainRng::seed_from_u64(0x14C ^ seed);
        let db = random_db(&mut rng);
        let sql = random_query(&mut rng);
        let random = random_model(&mut rng);
        check_case(
            &format!("seed {seed}"),
            &db,
            &sql,
            &[&same, &flipped, &random],
        );
    }
}

/// Nullable base tables exercise the fallback scan/join/group paths and
/// NULL-skipping aggregate terms; the skeleton must reproduce them too.
#[test]
fn refresh_matches_full_reexecution_on_nullable_tables() {
    let flipped = flipped_model();
    for seed in 0..CASES / 4 {
        let mut rng = RainRng::seed_from_u64(0xA11 ^ seed);
        let mut db = random_db(&mut rng);
        // Rebuild t2 with NULL holes punched into every column.
        let t2 = db.table("t2").unwrap().clone();
        let mut nullable = Table::empty(t2.schema().clone());
        for r in 0..t2.n_rows() {
            let row: Vec<_> = (0..t2.schema().len())
                .map(|c| {
                    if rng.bernoulli(0.2) {
                        rain_sql::Value::Null
                    } else {
                        t2.value(r, c)
                    }
                })
                .collect();
            nullable.push_row(row, None);
        }
        let nullable = nullable.with_features(t2.features().unwrap().clone());
        db.register("t2", nullable);

        let sql = [
            "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND predict(a) = 1",
            "SELECT y, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k GROUP BY y",
            "SELECT SUM(y), AVG(y) FROM t2 b WHERE b.k < 3 AND predict(b) = 0",
            "SELECT COUNT(*) FROM t2 b WHERE predict(b) = 1 GROUP BY predict(b)",
        ][rng.below(4)];
        check_case(&format!("seed {seed} [nullable]"), &db, sql, &[&flipped]);
    }
}

/// Large-input refresh sweep: enough prediction variables that the
/// batched-inference fan-out actually shards across workers (small cases
/// stay under its row threshold), and a table big enough that capture
/// runs the morsel-parallel scan/probe paths. Skeletons captured under
/// different worker budgets and refreshed under `threads ∈ {1, 2, 8}`
/// must all be bit-identical to full re-execution.
#[test]
fn threaded_refresh_and_capture_are_bit_identical_on_large_inputs() {
    let mut rng = RainRng::seed_from_u64(0xBEEF);
    let n = 9_000usize;
    let feats = Matrix::from_rows(
        &(0..n)
            .map(|_| [if rng.bernoulli(0.5) { 1.0 } else { -1.0 }])
            .collect::<Vec<_>>()
            .iter()
            .map(|r| &r[..])
            .collect::<Vec<_>>(),
    );
    let t1 = Table::from_columns(
        Schema::new(&[("x", ColType::Int), ("f", ColType::Float)]),
        vec![
            Column::Int((0..n).map(|i| (i % 3001) as i64).collect()),
            Column::Float((0..n).map(|_| rng.uniform_range(-2.0, 4.0)).collect()),
        ],
    )
    .with_features(feats);
    let mut db = Database::new();
    db.register("t1", t1.clone());
    db.register("t2", t1);

    let flipped = flipped_model();
    for sql in [
        "SELECT COUNT(*) FROM t1 a WHERE a.f < 3.0 AND predict(a) = 1",
        "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.x AND a.f < 2.0 AND predict(a) = 1",
    ] {
        let stmt = parse_select(sql).unwrap();
        let plan = optimize(bind(&stmt, &db).unwrap(), &db);
        let full = execute(
            &db,
            &flipped,
            &plan,
            ExecOptions::debug().on(Engine::Vectorized),
        )
        .unwrap();
        for capture_threads in [1, 8] {
            let prepared = rain_sql::prepare_with(
                &db,
                &step_model(),
                &plan,
                Engine::Vectorized,
                capture_threads,
            )
            .unwrap();
            assert!(prepared.stats().n_vars >= 1024, "fan-out must shard");
            for refresh_threads in [1, 2, 8] {
                let out = prepared
                    .refresh_threaded(&db, &flipped, refresh_threads)
                    .unwrap();
                assert_identical(
                    &format!("`{sql}` [capture={capture_threads}, refresh={refresh_threads}]"),
                    &full,
                    &out,
                );
            }
        }
    }
}

/// The prediction memo is invisible to results: a refresh trajectory
/// through several model generations (retrain steps) with a `ScoreMemo`
/// is bit-identical to the same trajectory without one, at every thread
/// count — and the hit/miss counters account for exactly the rows the
/// memo served vs. inferred. Within one generation every row after the
/// first refresh is a hit; advancing the generation drops the cache and
/// the next refresh re-infers.
#[test]
fn memoized_refresh_matches_unmemoized_across_generations() {
    let same = step_model();
    let flipped = flipped_model();
    for seed in 0..CASES / 4 {
        let mut rng = RainRng::seed_from_u64(0x3E30 ^ seed);
        let db = random_db(&mut rng);
        let sql = random_query(&mut rng);
        let random = random_model(&mut rng);
        let stmt = parse_select(&sql).unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let plan = optimize(bind(&stmt, &db).unwrap(), &db);
        let prepared = prepare(&db, &same, &plan, Engine::Vectorized)
            .unwrap_or_else(|e| panic!("seed {seed} `{sql}`: {e}"));
        let n_vars = prepared.stats().n_vars as u64;

        let mut memo = ScoreMemo::new();
        let mut expected_rows = 0u64;
        let models: [&dyn Classifier; 3] = [&same, &flipped, &random];
        for (generation, model) in models.iter().enumerate() {
            memo.advance(generation as u64 + 1);
            let mut misses_after_first = None;
            for pass in 0..2 {
                for threads in [1, 2, 8] {
                    let label = format!(
                        "seed {seed} `{sql}` [gen={generation}, pass={pass}, threads={threads}]"
                    );
                    let plain = prepared
                        .refresh_threaded(&db, *model, threads)
                        .unwrap_or_else(|e| panic!("{label} plain: {e}"));
                    let memod = prepared
                        .refresh_memo_threaded(&db, *model, threads, &mut memo)
                        .unwrap_or_else(|e| panic!("{label} memo: {e}"));
                    assert_identical(&label, &plain, &memod);
                    expected_rows += n_vars;
                    match misses_after_first {
                        None => misses_after_first = Some(memo.misses()),
                        // Later refreshes under the same generation must
                        // be pure cache hits.
                        Some(m) => assert_eq!(
                            memo.misses(),
                            m,
                            "{label}: within-generation refresh re-inferred"
                        ),
                    }
                }
            }
        }
        // Every feature row of every memoized refresh was either served
        // or inferred — and with 1-D ±1 features at most two distinct
        // rows exist per generation, so misses stay tiny while hits
        // absorb the rest.
        assert_eq!(
            memo.hits() + memo.misses(),
            expected_rows,
            "seed {seed} `{sql}`: counters must account for every row"
        );
        assert!(
            memo.misses() <= 2 * models.len() as u64,
            "seed {seed} `{sql}`: at most two distinct feature rows per generation"
        );
    }
}

/// A fully model-free query prepares and refreshes too: the output is
/// independent of whichever model refreshes it.
/// Refreshed outputs carry the skeleton's packed feature matrix by
/// reference — one row per prediction variable, never copied per
/// refresh — while a normal-mode execution carries none.
#[test]
fn refreshed_outputs_share_the_skeleton_feature_matrix() {
    let mut rng = RainRng::seed_from_u64(17);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a, t2 b WHERE a.x = b.y AND predict(a) = predict(b)";
    let plan = optimize(bind(&parse_select(sql).unwrap(), &db).unwrap(), &db);
    let model = step_model();
    let prepared = prepare(&db, &model, &plan, Engine::Vectorized).unwrap();
    let first = prepared.refresh_threaded(&db, &model, 1).unwrap();
    let second = prepared.refresh_threaded(&db, &flipped_model(), 2).unwrap();
    assert!(std::sync::Arc::ptr_eq(&first.features, &second.features));
    assert_eq!(first.features.rows(), first.predvars.len());
    for (v, info) in first.predvars.infos().iter().enumerate() {
        let table = db.table(&info.table).unwrap();
        assert_eq!(first.features.row(v), table.feature_row(info.row).unwrap());
    }
    let normal = execute(&db, &model, &plan, ExecOptions::default()).unwrap();
    assert_eq!(normal.features.rows(), 0);
}

#[test]
fn model_free_skeleton_refreshes_identically_under_any_model() {
    let mut rng = RainRng::seed_from_u64(7);
    let db = random_db(&mut rng);
    let sql = "SELECT x, COUNT(*) FROM t1 a, t2 b WHERE a.x = b.k AND a.flag GROUP BY x";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    assert!(plan.model_deps().is_model_free());
    let prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    assert!(prepared.stats().model_free);
    assert_eq!(prepared.stats().n_vars, 0);
    let a = prepared.refresh(&db, &step_model()).unwrap();
    let b = prepared.refresh(&db, &flipped_model()).unwrap();
    assert_identical("model-free", &a, &b);
}

/// Re-registering a queried table invalidates the skeleton: refresh must
/// fail loudly instead of replaying stale row identities.
#[test]
fn refresh_rejects_stale_skeletons() {
    let mut rng = RainRng::seed_from_u64(11);
    let mut db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    let prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    prepared
        .refresh(&db, &step_model())
        .expect("fresh skeleton");
    // Same data, re-registered: the version bump alone must invalidate.
    let t1 = db.table("t1").unwrap().clone();
    db.register("t1", t1);
    let err = prepared.refresh(&db, &step_model()).unwrap_err();
    assert!(err.to_string().contains("stale"), "unexpected error: {err}");
}

/// A model with a different architecture (class count) cannot refresh a
/// skeleton whose formulas were fanned out over the old class set.
#[test]
fn refresh_rejects_model_architecture_changes() {
    let mut rng = RainRng::seed_from_u64(13);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1 GROUP BY predict(a)";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    let prepared = prepare(&db, &step_model(), &plan, Engine::Tuple).unwrap();
    let tri = rain_model::SoftmaxRegression::new(1, 3, 0.0);
    let err = prepared.refresh(&db, &tri).unwrap_err();
    assert!(
        err.to_string().contains("classes"),
        "unexpected error: {err}"
    );
}

/// Under `StalePolicy::Rebuild` a stale skeleton transparently
/// re-prepares from its cached plan and matches a fresh execution —
/// including when the re-registered table has entirely different rows.
#[test]
fn refresh_with_rebuild_recovers_from_reregistration() {
    let mut rng = RainRng::seed_from_u64(19);
    let mut db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a WHERE predict(a) = 1";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    let mut prepared = prepare(&db, &step_model(), &plan, Engine::Vectorized).unwrap();
    let (_, rebuilt) = prepared
        .refresh_with(&db, &step_model(), StalePolicy::Rebuild)
        .unwrap();
    assert!(!rebuilt, "fresh skeleton must not rebuild");
    assert!(!prepared.is_stale(&db));

    // Replace t1 with a same-schema table of different rows.
    let other = random_db(&mut rng);
    db.register("t1", other.table("t1").unwrap().clone());
    assert!(prepared.is_stale(&db));
    let (out, rebuilt) = prepared
        .refresh_with(&db, &step_model(), StalePolicy::Rebuild)
        .unwrap();
    assert!(rebuilt, "stale skeleton must transparently re-prepare");
    let fresh = execute(&db, &step_model(), &plan, ExecOptions::debug()).unwrap();
    assert_identical("rebuild", &fresh, &out);

    // The rebuilt skeleton is warm again...
    let (_, again) = prepared
        .refresh_with(&db, &step_model(), StalePolicy::Rebuild)
        .unwrap();
    assert!(!again);
    // ...and the explicit-error path is still available as an option.
    let t1 = db.table("t1").unwrap().clone();
    db.register("t1", t1);
    assert!(prepared
        .refresh_with(&db, &step_model(), StalePolicy::Error)
        .is_err());
}

/// Rebuild also recovers from a model-architecture change: the class
/// fan-out of predict-keyed groups is re-captured for the new class set.
#[test]
fn refresh_with_rebuild_recaptures_for_new_architecture() {
    let mut rng = RainRng::seed_from_u64(23);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a GROUP BY predict(a)";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    let mut prepared = prepare(&db, &step_model(), &plan, Engine::Tuple).unwrap();
    let tri = rain_model::SoftmaxRegression::new(1, 3, 0.0);
    let (out, rebuilt) = prepared
        .refresh_with(&db, &tri, StalePolicy::Rebuild)
        .unwrap();
    assert!(rebuilt);
    let fresh = execute(&db, &tri, &plan, ExecOptions::debug().on(Engine::Tuple)).unwrap();
    assert_identical("arch rebuild", &fresh, &out);
}

/// The prepare-time stats reflect the pipeline: scan selections per
/// relation, one join step, and the model-dependence classification.
#[test]
fn skeleton_stats_describe_the_pipeline() {
    let mut rng = RainRng::seed_from_u64(17);
    let db = random_db(&mut rng);
    let sql = "SELECT COUNT(*) FROM t1 a, t2 b \
               WHERE a.x = b.k AND a.x > 1 AND predict(a) = 1";
    let stmt = parse_select(sql).unwrap();
    let plan = optimize(bind(&stmt, &db).unwrap(), &db);
    for engine in [Engine::Tuple, Engine::Vectorized] {
        let prepared = prepare(&db, &step_model(), &plan, engine).unwrap();
        let stats = prepared.stats();
        assert_eq!(stats.engine, engine);
        assert_eq!(stats.scan_rows.len(), 2, "one scan per relation");
        assert!(
            stats.scan_rows[0] <= db.table("t1").unwrap().n_rows(),
            "scan filter must not widen the selection"
        );
        assert_eq!(stats.join_steps.len(), 1, "one join step");
        assert!(
            stats.join_steps[0].0.contains("hash"),
            "equi-join is hashed"
        );
        assert_eq!(stats.candidate_tuples, stats.join_steps[0].1);
        assert!(!stats.model_free);
        assert_eq!(
            stats.n_vars,
            prepared.refresh(&db, &step_model()).unwrap().predvars.len()
        );
    }
}
