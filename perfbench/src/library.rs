//! The library workloads: whole `DebugSession::run`s, driven in-process.
//!
//! - `dblp_join_debug` — chosen because its 20 000-row query table is
//!   registered twice and self-joined, so the sql layer's prepare and
//!   refresh plus core's relaxation encode take nearly all of a Holistic
//!   run while training and influence stay small. It stresses sql (vexec,
//!   incremental refresh, score memo) and core; a change there shows up
//!   here and not on `digits_twostep_debug`.
//! - `digits_twostep_debug` — chosen because a 1 970-parameter softmax
//!   model over 2 000 images makes L-BFGS training and the influence
//!   solve dominate while the 1 000-row query costs almost nothing. It
//!   stresses model, influence, and linalg, and keeps TwoStep's ILP
//!   `sql_step` on the measured path; a change there shows up here and
//!   not on `dblp_join_debug`.

use crate::report::{median, peak_rss_mb, timed, Outcome, Spans};
use crate::Args;
use rain_core::prelude::*;
use rain_data::dblp::{DblpConfig, N_FEATURES};
use rain_data::digits::{DigitsConfig, N_CLASSES, N_PIXELS};
use rain_data::{dataset_to_table, flip_labels_where};
use rain_model::{train_lbfgs, LogisticRegression, SoftmaxRegression};
use rain_obs::TraceNode;
use rain_serve::json::Json;
use rain_sql::table::Column;
use rain_sql::{execute, Database, Engine, ExecOptions};
use std::time::Instant;

/// Worker budget of every parallel stage, pinned so a run does the same
/// work on any host.
const THREADS: usize = 2;
/// Set-ups per run, at least, and the seconds they must fill at least;
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_S: f64 = 4.0;

const DBLP_COUNT: &str = "SELECT COUNT(*) FROM dblp WHERE predict(*) = 1";
const DBLP_JOIN: &str = "SELECT COUNT(*) FROM dblp a, dblp_b b \
                         WHERE a.id = b.id AND b.bucket < 4 AND predict(a) = 1";
const DIGITS_COUNT: &str = "SELECT COUNT(*) FROM mnist WHERE predict(*) = 1";

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    DblpJoin,
    DigitsTwoStep,
}

/// One generated, corrupted workload and its debugging session.
struct Workload {
    sess: DebugSession,
    /// Ids of the corrupted training records, ascending.
    truth: Vec<usize>,
    method: Method,
    budget: usize,
    generate_s: f64,
    sizes: Vec<(&'static str, usize)>,
}

fn build(kind: Kind, seed: u64) -> Workload {
    match kind {
        Kind::DblpJoin => {
            let cfg = DblpConfig {
                n_train: 2000,
                n_query: 20_000,
                ..Default::default()
            };
            let (w, generate_s) = timed(|| cfg.generate(seed));
            let mut train = w.train.clone();
            let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 0, seed);
            let n = w.query.len();
            let bucket: Vec<i64> = (0..n as i64).map(|i| i % 10).collect();
            let mut db = Database::new();
            for name in ["dblp", "dblp_b"] {
                let col = Column::Int(bucket.clone());
                db.register(name, dataset_to_table(&w.query, vec![("bucket", col)]));
            }
            let join_matches = (0..n)
                .filter(|&i| w.query.y(i) == 1 && bucket[i] < 4)
                .count();
            let sess = DebugSession::new(
                db,
                train,
                Box::new(LogisticRegression::new(N_FEATURES, 0.01)),
            )
            .with_query(
                QuerySpec::new(DBLP_COUNT)
                    .with_complaint(Complaint::scalar_eq(w.true_match_count() as f64)),
            )
            .with_query(
                QuerySpec::new(DBLP_JOIN).with_complaint(Complaint::scalar_eq(join_matches as f64)),
            );
            Workload {
                sess,
                budget: truth.len(),
                truth,
                method: Method::Holistic,
                generate_s,
                sizes: vec![("n_train", cfg.n_train), ("n_query", n), ("queries", 2)],
            }
        }
        Kind::DigitsTwoStep => {
            let cfg = DigitsConfig {
                n_train: 2000,
                n_query: 1000,
            };
            let (w, generate_s) = timed(|| cfg.generate(seed));
            let mut train = w.train.clone();
            let truth = flip_labels_where(&mut train, |_, _, y| y == 1, 0.5, |_| 7, seed);
            let all: Vec<usize> = (0..N_CLASSES).collect();
            let mut db = Database::new();
            db.register("mnist", w.query_table_for(&all, w.query.len()));
            let true_ones = w.query_rows_with_digits(&[1]).len();
            let sess = DebugSession::new(
                db,
                train,
                Box::new(SoftmaxRegression::new(N_PIXELS, N_CLASSES, 0.01)),
            )
            .with_query(
                QuerySpec::new(DIGITS_COUNT).with_complaint(Complaint::scalar_eq(true_ones as f64)),
            );
            Workload {
                sess,
                truth,
                method: Method::TwoStep,
                budget: 30,
                generate_s,
                sizes: vec![
                    ("n_train", cfg.n_train),
                    ("n_query", cfg.n_query),
                    ("n_pixels", N_PIXELS),
                    ("queries", 1),
                ],
            }
        }
    }
}

/// Train a fresh model, prepare every complained query, and refresh it
/// once — what a user waits for before seeing the answers they complain
/// about — timing each public call under a benchmark-side span. Returns
/// the seconds taken once the answers are checked against a full
/// debug-mode execution of each plan under the same model.
fn first_answer(sess: &DebugSession, spans: &mut Spans) -> Result<f64, String> {
    let t = Instant::now();
    let mut model = sess.model.clone();
    spans.time("train_lbfgs", || {
        train_lbfgs(model.as_mut(), &sess.train, &sess.train_cfg)
    });
    let pq = spans
        .time("prepare_queries", || {
            sess.prepare_queries_with(true, Engine::Vectorized, THREADS)
        })
        .map_err(|e| e.to_string())?;
    let outs = spans
        .time("refresh", || {
            pq.prepared
                .iter()
                .map(|p| p.refresh_threaded(&sess.db, model.as_ref(), THREADS))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    for (qi, (plan, got)) in pq.plans.iter().zip(&outs).enumerate() {
        let opts = ExecOptions::debug().with_threads(THREADS);
        let full = execute(&sess.db, model.as_ref(), plan, opts).map_err(|e| e.to_string())?;
        if full.table.to_tsv() != got.table.to_tsv()
            || full.predvars.preds() != got.predvars.preds()
        {
            return Err(format!(
                "query {qi}: refreshed answer differs from full execution"
            ));
        }
    }
    Ok(secs)
}

/// One timed set-up: build the workload and take its checked first answer.
/// Records the seconds in `setup_s` and `generate_s`; `None` (with the
/// failure recorded) if the first answer is wrong.
fn set_up(
    kind: Kind,
    seed: u64,
    out: &mut Outcome,
    spans: &mut Spans,
    setup_s: &mut Vec<f64>,
    generate_s: &mut Vec<f64>,
) -> Option<Workload> {
    let (w, build_s) = timed(|| build(kind, seed));
    match first_answer(&w.sess, spans) {
        Ok(answer_s) => {
            out.op(true);
            setup_s.push(build_s + answer_s);
            generate_s.push(w.generate_s);
            Some(w)
        }
        Err(e) => {
            out.op(false);
            out.check(false, || format!("first answer: {e}"));
            None
        }
    }
}

/// What every debug run of a seed must reproduce exactly: the removed ids
/// in order, and per iteration the complaint verdict and the bits of the
/// training loss.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    removed: Vec<usize>,
    iterations: Vec<(bool, u64)>,
}

impl RunOutcome {
    fn of(r: &DebugReport) -> RunOutcome {
        RunOutcome {
            removed: r.removed.clone(),
            iterations: r
                .iterations
                .iter()
                .map(|i| (i.complaints_satisfied, i.train_loss.to_bits()))
                .collect(),
        }
    }
}

/// A timed run is correct when it succeeds and reproduces the reference
/// run's outcome.
fn check_run(
    out: &mut Outcome,
    run: &Result<DebugReport, rain_sql::QueryError>,
    reference: &RunOutcome,
) -> bool {
    let ok = match run {
        Ok(r) => {
            let got = RunOutcome::of(r);
            out.check(r.failure.is_none() && got == *reference, || {
                format!(
                    "run gave {got:?} (failure {:?}), reference {reference:?}",
                    r.failure
                )
            })
        }
        Err(e) => out.check(false, || format!("debug run failed: {e}")),
    };
    out.op(ok);
    ok
}

pub fn run(kind: Kind, args: &Args, out: &mut Outcome) {
    // Set-up: generate, corrupt, and build the session, then the first
    // (cold) answer to every complained query. Repeated for the median;
    // the first one is measured on.
    let mut spans = Spans::default();
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let Some(w) = set_up(
        kind,
        args.seed,
        out,
        &mut spans,
        &mut setup_s,
        &mut generate_s,
    ) else {
        return;
    };
    for &(k, v) in &w.sizes {
        out.context(k, Json::num(v as f64));
    }
    out.context("corrupted", Json::num(w.truth.len() as f64));
    out.context("method", Json::str(w.method.name()));
    out.context("budget", Json::num(w.budget as f64));
    out.context("threads", Json::num(THREADS as f64));

    let cfg = RunConfig {
        threads: THREADS,
        ..RunConfig::paper(w.budget)
    };

    // Reference outcome: full re-execution every iteration, no memo.
    let reference = w.sess.run(
        w.method,
        &RunConfig {
            incremental: false,
            memo: false,
            ..cfg.clone()
        },
    );
    let reference = match reference {
        Ok(r) if r.failure.is_none() && r.removed.len() == w.budget => {
            out.op(true);
            RunOutcome::of(&r)
        }
        other => {
            out.op(false);
            out.check(false, || format!("reference run: {other:?}"));
            return;
        }
    };

    let mut run_s = Vec::new();
    if args.trace {
        traced(args, out, &w, &cfg, &reference);
    } else {
        let t0 = Instant::now();
        while run_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
            let (rep, secs) = timed(|| w.sess.run(w.method, &cfg));
            check_run(out, &rep, &reference);
            run_s.push(secs);
        }
    }
    let peak_rss = peak_rss_mb();

    // More set-ups for the `setup_s` median, after the peak-RSS reading so
    // their freed memory cannot raise it; every build of one seed must be
    // identical.
    while setup_s.len() < SETUP_REPEATS || setup_s.iter().sum::<f64>() < SETUP_MIN_S {
        let Some(built) = set_up(
            kind,
            args.seed,
            out,
            &mut spans,
            &mut setup_s,
            &mut generate_s,
        ) else {
            return;
        };
        out.check(built.truth == w.truth, || {
            "set-up is not deterministic".into()
        });
    }
    if args.trace {
        for name in ["train_lbfgs", "prepare_queries", "refresh"] {
            out.context(
                &format!("first_answer_span.{name}_s"),
                Json::num(spans.mean(name)),
            );
        }
        out.metric("data.generate_s", median(&generate_s), generate_s.len());
        return;
    }

    // Recall at k = budget, normalised by the most corruptions k removals
    // can find, so it does not swing with how many records a seed
    // corrupts (with k = |truth| it is plain recall).
    let k = w.budget.min(w.truth.len());
    let hits = reference.removed[..k]
        .iter()
        .filter(|id| w.truth.binary_search(id).is_ok())
        .count();
    let recall = hits as f64 / k.max(1) as f64;
    out.context("recall_k", Json::num(k as f64));
    out.metric("setup_s", median(&setup_s), setup_s.len());
    out.metric("op_p50_ms", median(&run_s) * 1e3, run_s.len());
    out.metric("recall_at_k", recall, 1);
    out.metric("peak_rss_mb", peak_rss, 1);
}

/// Sum of the durations of every span named `name` in a trace tree.
fn span_total_s(node: &TraceNode, name: &str) -> f64 {
    let own = if node.name == name {
        node.dur_ns as f64 * 1e-9
    } else {
        0.0
    };
    own + node
        .children
        .iter()
        .map(|c| span_total_s(c, name))
        .sum::<f64>()
}

/// The traced run: alternate untraced and `RunConfig::profile` runs, and
/// split the profiled runs' wall time by layer from the program's own
/// span trees and iteration statistics.
fn traced(args: &Args, out: &mut Outcome, w: &Workload, cfg: &RunConfig, reference: &RunOutcome) {
    let profiled = RunConfig {
        profile: true,
        ..cfg.clone()
    };
    let dropped_before = rain_obs::dropped_records();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reports = Vec::new();
    let t0 = Instant::now();
    while traced_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let (rep, secs) = timed(|| w.sess.run(w.method, cfg));
        check_run(out, &rep, reference);
        plain_s.push(secs);
        let (rep, secs) = timed(|| w.sess.run(w.method, &profiled));
        if check_run(out, &rep, reference) {
            reports.push(rep.expect("checked"));
        }
        traced_s.push(secs);
    }
    out.context(
        "trace_dropped_records",
        Json::num((rain_obs::dropped_records() - dropped_before) as f64),
    );
    if reports.is_empty() {
        return;
    }

    // Per traced run, averaged over the traced runs.
    let n = reports.len() as f64;
    let layer = |f: &dyn Fn(&DebugReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    let tree =
        |r: &DebugReport, name: &str| r.profile.as_ref().map_or(0.0, |t| span_total_s(t, name));
    let prepare = layer(&|r| tree(r, "prepare-queries"));
    let refresh = layer(&|r| tree(r, "execute"));
    let train = layer(&|r| tree(r, "train"));
    let check = layer(&|r| tree(r, "check"));
    let rank = layer(&|r| tree(r, "rank"));
    let sql_step = layer(&|r| tree(r, "sql-step"));
    let influence = layer(&|r| r.iterations.iter().map(|i| i.rank_s).sum());
    let skipped = layer(&|r| r.iterations.iter().map(|i| i.checks_skipped as f64).sum());
    let (hits, misses) = reports.iter().fold((0u64, 0u64), |(h, m), r| {
        (h + r.memo_hits, m + r.memo_misses)
    });
    let wall = traced_s.iter().sum::<f64>() / traced_s.len() as f64;
    let accounted = prepare + refresh + train + check + rank;

    out.metric("sql.prepare_s", prepare, reports.len());
    out.metric("sql.refresh_s", refresh, reports.len());
    out.metric(
        "sql.memo_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        reports.len(),
    );
    out.metric(
        "core.encode_s",
        (rank - influence - sql_step).max(0.0),
        reports.len(),
    );
    out.metric("core.check_s", check, reports.len());
    out.metric("core.checks_skipped", skipped, reports.len());
    out.metric("model.train_s", train, reports.len());
    out.metric("influence.rank_s", influence, reports.len());
    out.metric("ilp.sql_step_s", sql_step, reports.len());
    out.metric(
        "obs.trace_overhead_ratio",
        median(&traced_s) / median(&plain_s),
        traced_s.len(),
    );
    out.metric("traced_wall_s", wall, traced_s.len());
    out.metric("unaccounted_s", wall - accounted, traced_s.len());
    // Layers this workload never reaches.
    for name in [
        "sql.cache_hit_ratio",
        "sql.cache_invalidations",
        "serve.query_client_p99_ms",
        "serve.append_client_p50_ms",
        "serve.append_client_p95_ms",
        "serve.query_server_p50_ms",
        "serve.append_server_p50_ms",
        "serve.http_overhead_ms",
        "serve.lock_wait_p99_ms",
        "storage.commits",
        "storage.snapshots",
        "storage.log_bytes_per_user_byte",
        "storage.recovery_s",
        "storage.recovery_to_answer_s",
    ] {
        out.metric(name, 0.0, 0);
    }
}
