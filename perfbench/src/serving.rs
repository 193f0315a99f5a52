//! `serve_ingest_mixed`: durable mixed query/append serving over HTTP.
//!
//! Chosen because it is the only workload that drives the serve layer
//! (HTTP, session pool, session locks), the skeleton cache's
//! invalidate → re-prepare path, and storage (commitlog, snapshots,
//! recovery). It does no training or ranking. An in-process server with
//! a data directory holds two sessions, each a 20 000-row DBLP table;
//! two closed-loop clients (one per session) each append 16 rows and
//! then send 9 cached `COUNT` queries, so the first query after every
//! append re-prepares and the other eight hit the cache. At the end the
//! server restarts on the same directory and must serve every
//! acknowledged append.
//!
//! The wire protocol uploads a training set but has no way to upload
//! trained weights, so each session's logistic model is the untrained
//! prototype the creation request builds; it predicts class 0 for every
//! row, which the library-side mirror reproduces.

use crate::report::{median, peak_rss_mb, percentile, timed, Outcome, ScratchDir};
use crate::Args;
use rain_data::dataset_to_table;
use rain_data::dblp::{DblpConfig, DblpWorkload, N_FEATURES};
use rain_model::LogisticRegression;
use rain_serve::json::Json;
use rain_serve::protocol::{dataset_to_json, table_to_json};
use rain_serve::{start, Client, ServerConfig, ServerHandle};
use rain_sql::table::{Column, Table};
use rain_sql::{run_query, Database, ExecOptions, ScalarResult, Value};
use std::net::SocketAddr;
use std::time::Instant;

/// Sessions, one closed-loop client each (≤ the 2 cores of the target box).
const SESSIONS: usize = 2;
/// Rows of each session's table at set-up.
const ROWS: usize = 20_000;
/// Rows per append.
const APPEND_ROWS: usize = 16;
/// Queries per append.
const QUERIES_PER_APPEND: usize = 9;
/// Appends each client makes per second of `--seconds`. The loop sends a
/// fixed number of appends rather than stopping on the clock, so every run
/// of one `--seconds` ends in the same durable state (table size, log
/// records since the last snapshot) and the restarts replay the same
/// work; at about 48 appends per second per client on a 2-core box the
/// loop lasts about `--seconds`.
const APPENDS_PER_SECOND: f64 = 48.0;
/// Appends each client makes at least, so the query p99 (≥ 1 000
/// queries) and append p95 (≥ 200 appends) each have ten samples
/// beyond them.
const MIN_APPENDS: usize = 112;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Restarts per traced run; `storage.recovery_to_answer_s` is their
/// median. An untraced run restarts once, for the durability check.
const TRACED_RESTARTS: usize = 9;
/// Execution threads per session: two sessions busy at once fill the
/// two cores.
const SESSION_THREADS: usize = 1;

/// The cached statement: a data predicate plus a model predicate. The
/// untrained model predicts 0 everywhere, so `predict(*) = 0` runs
/// inference over every row the data predicate keeps. One statement keeps
/// the hit latencies in one mode, so their median is steady.
const QUERY: &str = "SELECT COUNT(*) FROM dblp WHERE bucket < 4 AND predict(*) = 0";
/// Row count, used after restarts to check every acknowledged append.
const COUNT_ALL: &str = "SELECT COUNT(*) FROM dblp";

fn model() -> LogisticRegression {
    LogisticRegression::new(N_FEATURES, 0.01)
}

fn session_name(s: usize) -> String {
    format!("s{s}")
}

/// Seeds of session `s`'s table and of its append stream, distinct for
/// every run seed and session.
fn table_seed(seed: u64, s: usize) -> u64 {
    seed.wrapping_mul(4).wrapping_add(s as u64)
}

fn append_seed(seed: u64, s: usize) -> u64 {
    table_seed(seed, s).wrapping_add(2)
}

fn generate(seed: u64, s: usize) -> DblpWorkload {
    DblpConfig {
        n_train: 2000,
        n_query: ROWS,
        ..Default::default()
    }
    .generate(table_seed(seed, s))
}

/// `(id, bucket)` table over a dataset whose ids start at `first_id`.
fn bucketed(ds: &rain_model::Dataset, first_id: usize) -> Table {
    let bucket = (first_id..first_id + ds.len())
        .map(|i| (i % 10) as i64)
        .collect();
    let ds = rain_model::Dataset::with_ids(
        ds.features().clone(),
        ds.labels().to_vec(),
        (first_id..first_id + ds.len()).collect(),
        ds.n_classes(),
    );
    dataset_to_table(&ds, vec![("bucket", Column::Int(bucket))])
}

/// One session's append stream and its library-side mirror: the rows
/// each append sends, and the statement's expected answer after each.
struct Stream {
    bodies: Vec<Json>,
    body_bytes: Vec<usize>,
    /// `expected[v]`: the answer to `QUERY` after `v` appends.
    expected: Vec<i64>,
    base: Table,
    appended: Table,
}

fn count(db: &Database, sql: &str) -> Result<i64, String> {
    let out = run_query(db, &model(), sql, ExecOptions::default()).map_err(|e| e.to_string())?;
    match out.scalar() {
        ScalarResult::Value(Value::Int(n)) => Ok(n),
        other => Err(format!("{sql}: no integer count ({other:?})")),
    }
}

impl Stream {
    fn new(seed: u64, s: usize, base: Table, appends: usize) -> Result<Stream, String> {
        let pool = DblpConfig {
            n_train: 0,
            n_query: appends * APPEND_ROWS,
            ..Default::default()
        }
        .generate(append_seed(seed, s));
        let appended = bucketed(&pool.query, base.n_rows());
        // The mirror: which appended rows the statement counts, from one
        // library-side query over the whole stream.
        let mut db = Database::new();
        db.register("dblp", base.clone());
        let mut stream_db = Database::new();
        stream_db.register("dblp", appended.clone());
        let ids_sql = QUERY.replacen("COUNT(*)", "id", 1);
        let out = run_query(&stream_db, &model(), &ids_sql, ExecOptions::default())
            .map_err(|e| e.to_string())?;
        let mut per_batch = vec![0i64; appends];
        for r in 0..out.table.n_rows() {
            let Value::Int(id) = out.table.value(r, 0) else {
                return Err(format!("{ids_sql}: non-integer id"));
            };
            per_batch[(id as usize - base.n_rows()) / APPEND_ROWS] += 1;
        }
        let mut expected = vec![count(&db, QUERY)?];
        for c in per_batch {
            expected.push(expected[expected.len() - 1] + c);
        }
        let mut bodies = Vec::with_capacity(appends);
        let mut body_bytes = Vec::with_capacity(appends);
        for b in 0..appends {
            let rows = (b * APPEND_ROWS..(b + 1) * APPEND_ROWS).map(|r| {
                let id = (base.n_rows() + r) as f64;
                Json::Arr(vec![
                    Json::num(id),
                    Json::num(((base.n_rows() + r) % 10) as f64),
                ])
            });
            let features = (b * APPEND_ROWS..(b + 1) * APPEND_ROWS)
                .map(|r| Json::Arr(pool.query.x(r).iter().map(|&v| Json::Num(v)).collect()));
            let body = Json::obj(vec![
                ("rows", Json::Arr(rows.collect())),
                ("features", Json::Arr(features.collect())),
            ]);
            body_bytes.push(body.to_string().len());
            bodies.push(body);
        }
        Ok(Stream {
            bodies,
            body_bytes,
            expected,
            base,
            appended,
        })
    }

    /// Full mirror after `appends` appends: the base table plus that many
    /// appended batches, answered by the library from scratch, as
    /// `[QUERY, COUNT_ALL]`.
    fn mirror_answers(&self, appends: usize) -> Result<Vec<i64>, String> {
        let mut db = Database::new();
        db.register("dblp", self.base.clone());
        let n = appends * APPEND_ROWS;
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|r| (0..2).map(|c| self.appended.value(r, c)).collect())
            .collect();
        let features: Vec<Vec<f64>> = (0..n)
            .map(|r| self.appended.feature_row(r).expect("featured").to_vec())
            .collect();
        db.append_to("dblp", rows, Some(features))?;
        [QUERY, COUNT_ALL]
            .iter()
            .map(|sql| count(&db, sql))
            .collect()
    }
}

fn query_body(sql: &str) -> Json {
    Json::obj(vec![("sql", Json::str(sql))])
}

fn answer(resp: &Json) -> Option<i64> {
    resp.get("result")?
        .get("rows")?
        .as_arr()?
        .first()?
        .as_arr()?
        .first()?
        .as_i64()
}

fn create_body(s: usize) -> Json {
    Json::obj(vec![
        ("name", Json::str(session_name(s))),
        (
            "model",
            Json::obj(vec![
                ("kind", Json::str("logistic")),
                ("dim", Json::num(N_FEATURES as f64)),
                ("l2", Json::num(0.01)),
            ]),
        ),
        ("threads", Json::num(SESSION_THREADS as f64)),
    ])
}

fn server_config(dir: &ScratchDir) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        job_workers: 1,
        data_dir: Some(dir.path.to_string_lossy().into_owned()),
    }
}

/// Set-up: generate every session's data, start the server, create the
/// sessions, upload tables and training sets, and warm the statement.
/// Returns the running server, each session's table, and the seconds
/// spent generating data.
fn set_up(seed: u64, dir: &ScratchDir) -> Result<(ServerHandle, Vec<Table>, f64), String> {
    let (workloads, generate_s) =
        timed(|| (0..SESSIONS).map(|s| generate(seed, s)).collect::<Vec<_>>());
    let server = start(server_config(dir)).map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut tables = Vec::new();
    for (s, w) in workloads.iter().enumerate() {
        let name = session_name(s);
        let table = bucketed(&w.query, 0);
        let table_json = table_to_json("dblp", &table);
        let train_json = dataset_to_json(&w.train);
        client
            .post_ok("/sessions", &create_body(s))
            .map_err(|e| e.to_string())?;
        client
            .post_ok(&format!("/sessions/{name}/tables"), &table_json)
            .map_err(|e| e.to_string())?;
        client
            .post_ok(&format!("/sessions/{name}/train"), &train_json)
            .map_err(|e| e.to_string())?;
        client
            .post_ok(&format!("/sessions/{name}/query"), &query_body(QUERY))
            .map_err(|e| e.to_string())?;
        tables.push(table);
    }
    Ok((server, tables, generate_s))
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientLog {
    query_s: Vec<f64>,
    append_s: Vec<f64>,
    appends: usize,
    append_bytes: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    last_answer: i64,
    /// Wall seconds of cycles run with and without benchmark-side spans.
    cycle_plain_s: Vec<f64>,
    cycle_traced_s: Vec<f64>,
    /// Benchmark-side request spans of traced cycles: (request, start
    /// offset, seconds).
    spans: Vec<(&'static str, f64, f64)>,
}

impl ClientLog {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }
}

/// One client's closed loop: for every body of its stream, append, then
/// query `QUERIES_PER_APPEND` times, each answer checked against the
/// mirror at that version. In trace mode every other cycle records a span
/// per request.
fn client_loop(addr: SocketAddr, s: usize, stream: &Stream, trace: bool) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.fail(format!("connect: {e}"));
            return log;
        }
    };
    let name = session_name(s);
    let append_path = format!("/sessions/{name}/tables/dblp/append");
    let query_path = format!("/sessions/{name}/query");
    let body = query_body(QUERY);
    let base_rows = stream.base.n_rows() as i64;
    let t0 = Instant::now();
    let mut cycle = 0usize;
    while log.appends < stream.bodies.len() {
        let traced = trace && cycle % 2 == 1;
        cycle += 1;
        let t_cycle = Instant::now();
        let v = log.appends;
        log.attempted += 1;
        let (resp, secs) = timed(|| client.post(&append_path, &stream.bodies[v]));
        log.append_s.push(secs);
        if traced {
            log.spans
                .push(("append", (t_cycle - t0).as_secs_f64(), secs));
        }
        let want_rows = base_rows + ((v + 1) * APPEND_ROWS) as i64;
        match resp {
            Ok((200, r))
                if r.get("appended").and_then(Json::as_i64) == Some(APPEND_ROWS as i64)
                    && r.get("rows").and_then(Json::as_i64) == Some(want_rows) =>
            {
                log.appends += 1;
                log.append_bytes += stream.body_bytes[v];
            }
            other => {
                // The session's version is unknown now; stop this client.
                log.fail(format!("append {v}: {other:?}"));
                break;
            }
        }
        let v = log.appends;
        let want = stream.expected[v];
        for _ in 0..QUERIES_PER_APPEND {
            log.attempted += 1;
            let start = t0.elapsed().as_secs_f64();
            let (resp, secs) = timed(|| client.post(&query_path, &body));
            log.query_s.push(secs);
            if traced {
                log.spans.push(("query", start, secs));
            }
            match resp {
                Ok((200, r)) if answer(&r) == Some(want) => log.last_answer = want,
                other => log.fail(format!("version {v}: want {want}, got {other:?}")),
            }
        }
        let cycle_s = t_cycle.elapsed().as_secs_f64();
        if traced {
            log.cycle_traced_s.push(cycle_s);
        } else {
            log.cycle_plain_s.push(cycle_s);
        }
    }
    log
}

/// `[QUERY, COUNT_ALL]` answers on every session.
fn answers_now(client: &mut Client) -> Result<Vec<Vec<i64>>, String> {
    (0..SESSIONS)
        .map(|s| {
            [QUERY, COUNT_ALL]
                .iter()
                .map(|sql| {
                    let r = client
                        .post_ok(
                            &format!("/sessions/{}/query", session_name(s)),
                            &query_body(sql),
                        )
                        .map_err(|e| e.to_string())?;
                    answer(&r).ok_or_else(|| format!("{sql}: no count in {r}"))
                })
                .collect()
        })
        .collect()
}

/// `/stats` and the `/metrics` exposition at one instant.
struct Scrape {
    stats: Json,
    metrics: Vec<rain_obs::Metric>,
}

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let stats = client.get_ok("/stats").map_err(|e| e.to_string())?;
    let (status, text) = client.get_text("/metrics").map_err(|e| e.to_string())?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let metrics = rain_obs::parse_exposition(&text)?;
    Ok(Scrape { stats, metrics })
}

impl Scrape {
    fn stat(&self, path: &[&str]) -> f64 {
        let mut v = &self.stats;
        for p in path {
            match v.get(p) {
                Some(next) => v = next,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    }

    /// A labelled sample of a metric family (`rain_x{k="v",...}`).
    fn sample(&self, family: &str, series: &str, labels: &[(&str, &str)]) -> f64 {
        self.metrics
            .iter()
            .filter(|m| m.name == family)
            .flat_map(|m| &m.samples)
            .find(|smp| {
                smp.name == series
                    && labels
                        .iter()
                        .all(|(k, v)| smp.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map_or(0.0, |smp| smp.value)
    }

    /// Server-side seconds spent in query and append requests.
    fn request_seconds(&self) -> f64 {
        ["query", "append"]
            .iter()
            .map(|ep| {
                self.sample(
                    "rain_http_request_seconds",
                    "rain_http_request_seconds_sum",
                    &[("endpoint", ep)],
                )
            })
            .sum()
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    out.context("sessions", Json::num(SESSIONS as f64));
    out.context("clients", Json::num(SESSIONS as f64));
    out.context("client_loop", Json::str("closed"));
    out.context("rows_per_session", Json::num(ROWS as f64));
    out.context("append_rows", Json::num(APPEND_ROWS as f64));
    out.context("queries_per_append", Json::num(QUERIES_PER_APPEND as f64));
    out.context("session_threads", Json::num(SESSION_THREADS as f64));
    out.context("flush_policy", Json::str("one fdatasync per commit"));
    if let Err(e) = run_inner(args, out) {
        out.op(false);
        out.check(false, || e);
    }
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let dir = ScratchDir::new("serve");
    let (res, secs) = timed(|| set_up(args.seed, &dir));
    let (server, tables, gen_s) = res?;
    out.op(true);
    let mut setup_s = vec![secs];
    let mut generate_s = vec![gen_s];
    let addr = server.addr();
    let appends = ((args.seconds * APPENDS_PER_SECOND).round() as usize).max(MIN_APPENDS);
    out.context("appends_per_client", Json::num(appends as f64));
    let streams: Vec<Stream> = tables
        .into_iter()
        .enumerate()
        .map(|(s, t)| Stream::new(args.seed, s, t, appends))
        .collect::<Result<_, _>>()?;

    let mut probe = Client::connect(addr).map_err(|e| e.to_string())?;
    let before = args.trace.then(|| scrape(&mut probe)).transpose()?;

    // The measured closed loops, one thread per client.
    let t_loop = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(s, stream)| scope.spawn(move || client_loop(addr, s, stream, args.trace)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_s = t_loop.elapsed().as_secs_f64();
    let after = args.trace.then(|| scrape(&mut probe)).transpose()?;

    let mut query_s = Vec::new();
    let mut append_s = Vec::new();
    let mut append_bytes = 0;
    for (s, log) in logs.iter().enumerate() {
        out.ops(log.attempted, log.failed);
        for f in &log.failures {
            out.check(false, || format!("session {s}: {f}"));
        }
        query_s.extend(&log.query_s);
        append_s.extend(&log.append_s);
        append_bytes += log.append_bytes;
        // The last answers must equal a from-scratch library mirror.
        let mirror = streams[s].mirror_answers(log.appends)?;
        out.check(log.last_answer == mirror[0], || {
            format!(
                "session {s}: final answer {}, mirror {mirror:?}",
                log.last_answer
            )
        });
    }

    // Durability: answers before shutdown, then restarts on the same
    // directory, each timed until the first correct answer.
    let before_shutdown = answers_now(&mut probe)?;
    out.ops((SESSIONS * 2) as u64, 0);
    for (s, log) in logs.iter().enumerate() {
        let want_rows = (streams[s].base.n_rows() + log.appends * APPEND_ROWS) as i64;
        out.check(before_shutdown[s][1] == want_rows, || {
            format!(
                "session {s}: {} rows before shutdown, want {want_rows}",
                before_shutdown[s][1]
            )
        });
    }
    drop(probe);
    server.shutdown();

    let acked_rows: usize = logs.iter().map(|l| l.appends * APPEND_ROWS).sum();
    let mut recovery_s = Vec::new();
    let mut server_recovery_s = Vec::new();
    let mut recovered_rows = 0usize;
    let restarts = if args.trace { TRACED_RESTARTS } else { 1 };
    for _ in 0..restarts {
        let t0 = Instant::now();
        let server = start(server_config(&dir)).map_err(|e| format!("restart: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        for s in 0..SESSIONS {
            let r = client
                .post_ok("/sessions", &create_body(s))
                .map_err(|e| e.to_string())?;
            out.op(true);
            out.check(r.get("recovered") == Some(&Json::Bool(true)), || {
                format!("session {s} was not recovered: {r}")
            });
        }
        let first = client
            .post_ok("/sessions/s0/query", &query_body(QUERY))
            .map_err(|e| e.to_string())?;
        let first_ok = answer(&first) == Some(before_shutdown[0][0]);
        recovery_s.push(t0.elapsed().as_secs_f64());
        out.op(first_ok);
        out.check(first_ok, || format!("first answer after restart: {first}"));
        let recovered = answers_now(&mut client)?;
        out.ops((SESSIONS * 2) as u64, 0);
        out.check(recovered == before_shutdown, || {
            format!("recovered answers {recovered:?}, before shutdown {before_shutdown:?}")
        });
        recovered_rows = (0..SESSIONS)
            .map(|s| (recovered[s][1] as usize).saturating_sub(streams[s].base.n_rows()))
            .sum();
        if args.trace {
            let sc = scrape(&mut client)?;
            server_recovery_s.push(sc.stat(&["storage", "recovery_seconds"]));
        }
        drop(client);
        server.shutdown();
    }
    drop(dir);
    let peak_rss = peak_rss_mb();

    // More set-ups for the `setup_s` median, each on a fresh directory,
    // after the peak-RSS reading so their freed memory cannot raise it.
    for i in 1..SETUP_REPEATS {
        let dir = ScratchDir::new(&format!("serve-setup-{i}"));
        let (res, secs) = timed(|| set_up(args.seed, &dir));
        let (server, _, gen_s) = res?;
        out.op(true);
        server.shutdown();
        setup_s.push(secs);
        generate_s.push(gen_s);
    }

    out.context("appends", Json::num(append_s.len() as f64));
    out.context("queries", Json::num(query_s.len() as f64));
    out.context("loop_s", Json::num(loop_s));
    if !args.trace {
        out.metric("setup_s", median(&setup_s), setup_s.len());
        out.metric("op_p50_ms", median(&query_s) * 1e3, query_s.len());
        out.metric(
            "recall_at_k",
            recovered_rows as f64 / acked_rows.max(1) as f64,
            acked_rows,
        );
        out.metric("peak_rss_mb", peak_rss, 1);
        return Ok(());
    }

    let (before, after) = (before.expect("traced"), after.expect("traced"));
    let pct = |out: &mut Outcome, xs: &[f64], p: f64, what: &str| {
        let v = percentile(xs, p);
        out.check(v.is_some(), || format!("too few samples for the {what}"));
        v.unwrap_or(0.0) * 1e3
    };
    let query_p50 = median(&query_s) * 1e3;
    let query_p99 = pct(out, &query_s, 0.99, "query p99");
    let append_p50 = median(&append_s) * 1e3;
    let append_p95 = pct(out, &append_s, 0.95, "append p95");
    let server_query_p50 = after.stat(&["latency_s", "query", "p50"]) * 1e3;
    // An invalidated lookup re-prepares like a miss; the cache counts it
    // apart from both hits and misses.
    let delta = |path: &[&str]| after.stat(path) - before.stat(path);
    let hits = delta(&["cache", "hits"]);
    let invalidations = delta(&["cache", "invalidations"]);
    let lookups = hits + delta(&["cache", "misses"]) + invalidations;
    let client_busy: f64 = query_s.iter().chain(&append_s).sum();
    let server_busy = after.request_seconds() - before.request_seconds();
    let (plain, traced): (Vec<f64>, Vec<f64>) = (
        logs.iter()
            .flat_map(|l| l.cycle_plain_s.iter().copied())
            .collect(),
        logs.iter()
            .flat_map(|l| l.cycle_traced_s.iter().copied())
            .collect(),
    );
    out.context(
        "client_spans",
        Json::num(logs.iter().map(|l| l.spans.len()).sum::<usize>() as f64),
    );

    out.metric("data.generate_s", median(&generate_s), generate_s.len());
    out.metric(
        "sql.cache_hit_ratio",
        hits / lookups.max(1.0),
        lookups as usize,
    );
    out.metric("sql.cache_invalidations", invalidations, 1);
    out.metric("serve.query_client_p99_ms", query_p99, query_s.len());
    out.metric("serve.append_client_p50_ms", append_p50, append_s.len());
    out.metric("serve.append_client_p95_ms", append_p95, append_s.len());
    out.metric("serve.query_server_p50_ms", server_query_p50, query_s.len());
    out.metric(
        "serve.append_server_p50_ms",
        after.stat(&["latency_s", "append", "p50"]) * 1e3,
        append_s.len(),
    );
    out.metric(
        "serve.http_overhead_ms",
        query_p50 - server_query_p50,
        query_s.len(),
    );
    out.metric(
        "serve.lock_wait_p99_ms",
        after.sample(
            "rain_session_lock_wait_seconds",
            "rain_session_lock_wait_seconds",
            &[("quantile", "0.99")],
        ) * 1e3,
        1,
    );
    out.metric("storage.commits", delta(&["storage", "log_records"]), 1);
    out.metric("storage.snapshots", delta(&["storage", "snapshots"]), 1);
    out.metric(
        "storage.log_bytes_per_user_byte",
        delta(&["storage", "log_bytes"]) / append_bytes.max(1) as f64,
        append_s.len(),
    );
    out.metric(
        "storage.recovery_s",
        median(&server_recovery_s),
        server_recovery_s.len(),
    );
    out.metric(
        "storage.recovery_to_answer_s",
        median(&recovery_s),
        recovery_s.len(),
    );
    out.metric(
        "obs.trace_overhead_ratio",
        median(&traced) / median(&plain),
        traced.len(),
    );
    out.metric("traced_wall_s", loop_s, 1);
    out.metric(
        "unaccounted_s",
        (client_busy - server_busy) / SESSIONS as f64,
        query_s.len() + append_s.len(),
    );
    // Layers this workload never reaches.
    for name in [
        "sql.prepare_s",
        "sql.refresh_s",
        "sql.memo_hit_ratio",
        "core.encode_s",
        "core.check_s",
        "core.checks_skipped",
        "model.train_s",
        "influence.rank_s",
        "ilp.sql_step_s",
    ] {
        out.metric(name, 0.0, 0);
    }
    Ok(())
}
