//! The two closed-loop serve workloads.
//!
//! Both serve the Spider tiny preset of `CORPUS_SEED` with an enlarged dev
//! split, the corpus a `cluster::Worker` regenerates from
//! `(seed, dev_samples)`; the run's seed drives the request streams. Each
//! client thread (`Workload::clients`) walks its own seeded request stream,
//! one request in flight per client. An NL request picks a dev sample, one of its variants and a
//! method uniformly, as `serve-loadgen` does; the stream's distinct
//! execution-cache keys outnumber the cache's entries, so the cache both
//! hits and misses. `serve-http` mixes in raw-SQL `POST /v1/sql` against a
//! corpus database and `GET /healthz`; `serve-cluster` sends only the NL
//! requests of the same streams, in the same order.
//!
//! Every reply is checked against the outcome the evaluator's public calls
//! give for the same question. The first `serve_digest_prefix` NL requests
//! of each client are digested in request order before timing starts; the
//! digest depends only on the seed and the client, so client 0's must be
//! identical across runs and between the two workloads.

use crate::spans::Span;
use crate::stats::{self, int, num, obj, text, Dist, Fnv, SplitMix};
use crate::{Outcome, Params, Workload, CORPUS_SEED};
use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, SimulatedModel};
use nl2sql360::{EvalContext, ExecFailureKind};
use serve::proto::{ClusterClient, Message};
use serve::{QueryError, QueryReply, QueryRequest, ServeConfig, Service};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The four methods a default serve deployment registers.
pub const METHODS: [&str; 4] = ["C3SQL", "DINSQL", "DAILSQL(SC)", "SuperSQL"];
/// Engine worker threads.
pub const SERVE_WORKERS: usize = 2;
/// Share of `serve-http` requests that are `GET /healthz` and raw SQL.
/// Chosen, not measured: no traffic record exists to take them from. NL
/// stays the bulk of the traffic, and a 45-second traced run still gets
/// some 4700 `/healthz` and 9000 raw-SQL requests, enough for each arm's p99.
const P_HEALTHZ: f64 = 0.04;
const P_RAW_SQL: f64 = 0.08;
/// Requests generated per client stream; a run walks a prefix of it.
const STREAM_LEN: usize = 60_000;
/// Execution-cache capacity of the default `ServeConfig` (8 shards × 128).
const CACHE_CAPACITY: usize = 8 * 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Nl(usize),
    RawSql(usize),
    Healthz,
}

/// The outcome a reply is checked against (or was observed as).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Scored {
        ex: bool,
        em: bool,
        failure: Option<String>,
    },
    Refused,
    Rows(usize),
    Healthy,
    /// A reply of a shape no correct run produces.
    Unexpected(String),
}

impl Answer {
    fn digest_into(&self, h: &mut Fnv) {
        match self {
            Answer::Scored { ex, em, failure } => {
                h.add(&[u8::from(*ex), u8::from(*em)]);
                h.add(failure.as_deref().unwrap_or("-").as_bytes());
            }
            Answer::Refused => h.add(b"refused"),
            Answer::Rows(n) => h.add(&(*n as u64).to_le_bytes()),
            Answer::Healthy => h.add(b"ok"),
            Answer::Unexpected(what) => h.add(what.as_bytes()),
        }
    }
}

/// One reply as the client saw it.
struct Reply {
    /// `Err` is a failure: transport error, 5xx, `Overloaded`,
    /// `DeadlineExceeded`, `Internal`, or a lost reply.
    answer: Result<Answer, String>,
    engine_us: Option<f64>,
    cache_hit: Option<bool>,
    batch: Option<usize>,
    bytes: usize,
}

impl Reply {
    fn failed(why: String) -> Reply {
        Reply { answer: Err(why), engine_us: None, cache_hit: None, batch: None, bytes: 0 }
    }
}

/// Workload inputs: the NL key space, the seeded per-client streams, and
/// the expected answer of every key.
struct Inputs<'c> {
    corpus: &'c Corpus,
    /// `(method index, dev sample, variant)` per NL key.
    keys: Vec<(usize, usize, usize)>,
    streams: Vec<Vec<Arm>>,
    expected: HashMap<usize, Answer>,
    gold_rows: Vec<usize>,
    distinct_requests: usize,
    distinct_cache_keys: usize,
}

impl<'c> Inputs<'c> {
    fn new(
        ctx: &EvalContext<'c>,
        models: &[SimulatedModel],
        seed: u64,
        clients: usize,
        http_mix: bool,
    ) -> Self {
        let corpus = ctx.corpus;
        let mut keys = Vec::new();
        // Index of each dev sample's first key.
        let mut first_key = Vec::with_capacity(corpus.dev.len());
        for (i, sample) in corpus.dev.iter().enumerate() {
            first_key.push(keys.len());
            for v in 0..sample.variants.len() {
                for m in 0..METHODS.len() {
                    keys.push((m, i, v));
                }
            }
        }
        let streams: Vec<Vec<Arm>> = (0..clients)
            .map(|c| {
                let mut rng = SplitMix::new(seed.wrapping_mul(31).wrapping_add(c as u64 + 1));
                (0..STREAM_LEN)
                    .map(|_| {
                        let u = rng.unit();
                        match u {
                            u if u < P_HEALTHZ => Arm::Healthz,
                            u if u < P_HEALTHZ + P_RAW_SQL => Arm::RawSql(rng.below(corpus.dev.len())),
                            _ => {
                                let i = rng.below(corpus.dev.len());
                                let v = rng.below(corpus.dev[i].variants.len());
                                Arm::Nl(first_key[i] + v * METHODS.len() + rng.below(METHODS.len()))
                            }
                        }
                    })
                    .filter(|a| http_mix || matches!(a, Arm::Nl(_)))
                    .collect()
            })
            .collect();

        // The engine resolves (db_id, question) to the last dev sample and
        // variant carrying that text; expectations follow the same rule.
        let mut resolve: HashMap<(&str, &str), (usize, usize)> = HashMap::new();
        for (i, s) in corpus.dev.iter().enumerate() {
            for (v, q) in s.variants.iter().enumerate() {
                resolve.insert((s.db_id.as_str(), q.as_str()), (i, v));
            }
        }
        let mut expected = HashMap::new();
        let mut cache_keys = HashSet::new();
        for arm in streams.iter().flatten() {
            let Arm::Nl(k) = *arm else { continue };
            if expected.contains_key(&k) {
                continue;
            }
            let (m, i, v) = keys[k];
            let s = &corpus.dev[i];
            let (i, v) = resolve[&(s.db_id.as_str(), s.variants[v].as_str())];
            let sample = &corpus.dev[i];
            let answer = match models[m].translate(&ctx.task(sample, v)) {
                None => Answer::Refused,
                Some(pred) => {
                    let normalized = sqlkit::to_sql(&sqlkit::normalize::normalize(&pred.query));
                    cache_keys.insert((sample.db_id.clone(), normalized));
                    let (ex, failure) = match corpus.db(sample).database.run_query(&pred.query) {
                        Ok(rs) => (minidb::results_equivalent(ctx.gold_result(i), &rs), None),
                        Err(e) => (false, Some(ExecFailureKind::of(&e).label().to_string())),
                    };
                    Answer::Scored { ex, em: sqlkit::exact_match(&sample.query, &pred.query), failure }
                }
            };
            expected.insert(k, answer);
        }
        let gold_rows = (0..corpus.dev.len()).map(|i| ctx.gold_result(i).rows.len()).collect();
        Inputs {
            corpus,
            distinct_requests: expected.len(),
            distinct_cache_keys: cache_keys.len(),
            keys,
            streams,
            expected,
            gold_rows,
        }
    }

    fn request(&self, k: usize) -> QueryRequest {
        let (m, i, v) = self.keys[k];
        let sample = &self.corpus.dev[i];
        QueryRequest {
            method: METHODS[m].to_string(),
            db_id: sample.db_id.clone(),
            question: sample.variants[v].clone(),
            deadline: None,
            trace: None,
        }
    }

    fn expect(&self, arm: Arm) -> Answer {
        match arm {
            Arm::Nl(k) => self.expected[&k].clone(),
            Arm::RawSql(i) => Answer::Rows(self.gold_rows[i]),
            Arm::Healthz => Answer::Healthy,
        }
    }
}

/// One client's connection to the system under test. `send` is the timed
/// part; `interpret` parses and classifies the raw reply once the phase is
/// over, so checking replies adds no think time to the closed loop.
trait Conn {
    type Raw: Send;
    fn send(&mut self, inputs: &Inputs<'_>, arm: Arm) -> Self::Raw;
    fn interpret(inputs: &Inputs<'_>, arm: Arm, raw: Self::Raw, traced: bool) -> Reply;
    fn span_name(arm: Arm) -> &'static str;
}

struct HttpConn {
    addr: SocketAddr,
}

fn json_body(fields: Vec<(&str, String)>) -> String {
    let map = fields.into_iter().map(|(k, v)| (k.to_string(), serde::Value::Str(v))).collect();
    serde_json::to_string(&serde::Value::Map(map)).unwrap_or_default()
}

impl Conn for HttpConn {
    /// Request body bytes and the reply.
    type Raw = (usize, std::io::Result<(u16, String)>);

    fn send(&mut self, inputs: &Inputs<'_>, arm: Arm) -> Self::Raw {
        match arm {
            Arm::Nl(k) => {
                let req = inputs.request(k);
                let body =
                    json_body(vec![("question", req.question), ("db_id", req.db_id), ("method", req.method)]);
                (body.len(), serve::http::http_post(self.addr, "/v1/sql", &body))
            }
            Arm::RawSql(i) => {
                let sample = &inputs.corpus.dev[i];
                let body = json_body(vec![("sql", sample.sql.clone()), ("db", sample.db_id.clone())]);
                (body.len(), serve::http::http_post(self.addr, "/v1/sql", &body))
            }
            Arm::Healthz => (0, serve::http::http_get(self.addr, "/healthz")),
        }
    }

    fn interpret(_inputs: &Inputs<'_>, arm: Arm, (sent, result): Self::Raw, _traced: bool) -> Reply {
        let (status, body) = match result {
            Ok(r) => r,
            Err(e) => return Reply::failed(format!("transport: {e}")),
        };
        let mut reply = Reply::failed(format!("HTTP {status}"));
        reply.bytes = sent + body.len();
        if status >= 500 {
            return reply;
        }
        let json: Option<serde::Value> = serde_json::from_str(&body).ok();
        let field = |k: &str| json.as_ref().and_then(|j| j.get(k));
        reply.answer = match (arm, status) {
            (Arm::Healthz, 200) => Ok(Answer::Healthy),
            (Arm::RawSql(_), 200) => match field("row_count") {
                Some(serde::Value::Int(n)) => Ok(Answer::Rows(*n as usize)),
                _ => Ok(Answer::Unexpected(format!("no row_count in {body:.80}"))),
            },
            (Arm::Nl(_), 422) => Ok(Answer::Refused),
            (Arm::Nl(_), 200) => {
                let flag = |k: &str| matches!(field(k), Some(serde::Value::Bool(true)));
                let failure = match field("exec_failure") {
                    Some(serde::Value::Str(s)) => Some(s.clone()),
                    _ => None,
                };
                reply.engine_us = match field("latency_us") {
                    Some(serde::Value::Int(us)) => Some(*us as f64),
                    _ => None,
                };
                reply.cache_hit = Some(flag("cache_hit"));
                reply.batch = match field("batch_size") {
                    Some(serde::Value::Int(b)) => Some(*b as usize),
                    _ => None,
                };
                Ok(Answer::Scored { ex: flag("ex"), em: flag("em"), failure })
            }
            (_, s) => Ok(Answer::Unexpected(format!("HTTP {s}: {body:.80}"))),
        };
        reply
    }

    fn span_name(arm: Arm) -> &'static str {
        match arm {
            Arm::Nl(_) => "http.nl",
            Arm::RawSql(_) => "http.raw_sql",
            Arm::Healthz => "http.healthz",
        }
    }
}

struct ClusterConn {
    addr: String,
    client: Option<ClusterClient>,
}

impl ClusterConn {
    fn connect(addr: &str) -> Option<ClusterClient> {
        let mut client = ClusterClient::connect(addr, Duration::from_secs(5)).ok()?;
        client.set_reply_timeout(Some(Duration::from_secs(60))).ok()?;
        Some(client)
    }
}

/// Encoded size of a request and its reply as cluster frames.
fn frame_bytes(request: &QueryRequest, reply: &QueryReply) -> usize {
    let mut buf = Vec::new();
    let _ = serve::proto::write_frame(&mut buf, &Message::Submit { id: 0, request: request.clone() });
    let _ = serve::proto::write_frame(&mut buf, &Message::SubmitResult { id: 0, reply: reply.clone() });
    buf.len()
}

impl Conn for ClusterConn {
    /// The routed reply, or why none arrived.
    type Raw = Result<QueryReply, String>;

    fn send(&mut self, inputs: &Inputs<'_>, arm: Arm) -> Self::Raw {
        let Arm::Nl(k) = arm else {
            return Err("cluster streams carry NL requests only".to_string());
        };
        if self.client.is_none() {
            self.client = Self::connect(&self.addr);
        }
        let Some(client) = self.client.as_mut() else {
            return Err("transport: cannot connect".to_string());
        };
        client.query(inputs.request(k)).map_err(|e| {
            // The connection may be torn mid-frame: start afresh.
            self.client = None;
            format!("lost reply: {e}")
        })
    }

    fn interpret(inputs: &Inputs<'_>, arm: Arm, raw: Self::Raw, traced: bool) -> Reply {
        let reply = match raw {
            Ok(r) => r,
            Err(why) => return Reply::failed(why),
        };
        let bytes = match arm {
            Arm::Nl(k) if traced => frame_bytes(&inputs.request(k), &reply),
            _ => 0,
        };
        let (answer, engine_us, cache_hit, batch) = match reply {
            Ok(resp) => (
                Ok(Answer::Scored {
                    ex: resp.ex,
                    em: resp.em,
                    failure: resp.exec_failure.map(|f| f.label().to_string()),
                }),
                Some(resp.latency.as_secs_f64() * 1e6),
                Some(resp.cache_hit),
                Some(resp.batch_size),
            ),
            Err(QueryError::TranslationRefused) => (Ok(Answer::Refused), None, None, None),
            Err(e @ (QueryError::Overloaded | QueryError::DeadlineExceeded | QueryError::Internal)) => {
                (Err(e.to_string()), None, None, None)
            }
            Err(e) => (Ok(Answer::Unexpected(e.to_string())), None, None, None),
        };
        Reply { answer, engine_us, cache_hit, batch, bytes }
    }

    fn span_name(_arm: Arm) -> &'static str {
        "cluster.nl"
    }
}

/// Everything one client observed during one phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    lost: u64,
    completed: u64,
    mismatches: u64,
    first_mismatch: Option<String>,
    first_failure: Option<String>,
    latency_us: Vec<f64>,
    /// Completion time of each answered request, seconds into the phase.
    done_s: Vec<f64>,
    /// When the client stopped sending, seconds into the phase (the latest
    /// client's, once merged).
    sent_until_s: f64,
    engine_us: Vec<f64>,
    nl_overhead_us: Vec<f64>,
    raw_sql_us: Vec<f64>,
    healthz_us: Vec<f64>,
    cache_hits: u64,
    cache_lookups: u64,
    batch_sum: u64,
    batch_n: u64,
    bytes: u64,
    digest: Fnv,
    /// Each client's `digest`, in client order.
    client_digests: Vec<String>,
    spans: Vec<Span>,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.lost += o.lost;
        self.completed += o.completed;
        self.mismatches += o.mismatches;
        self.first_mismatch = self.first_mismatch.take().or(o.first_mismatch);
        self.first_failure = self.first_failure.take().or(o.first_failure);
        self.latency_us.extend(o.latency_us);
        self.done_s.extend(o.done_s);
        self.sent_until_s = self.sent_until_s.max(o.sent_until_s);
        self.engine_us.extend(o.engine_us);
        self.nl_overhead_us.extend(o.nl_overhead_us);
        self.raw_sql_us.extend(o.raw_sql_us);
        self.healthz_us.extend(o.healthz_us);
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.batch_sum += o.batch_sum;
        self.batch_n += o.batch_n;
        self.bytes += o.bytes;
        self.client_digests.extend(o.client_digests);
        self.spans.extend(o.spans);
    }
}

enum Stop {
    /// Until this many NL requests have been sent (the digest prefix).
    NlCount(usize),
    /// Until the deadline; a request in flight at the deadline completes.
    Deadline(Instant),
}

/// Walk one client's stream from `cursor` until `stop`, then check every
/// reply it got.
fn client_phase<C: Conn>(
    conn: &mut C,
    inputs: &Inputs<'_>,
    client: usize,
    cursor: &mut usize,
    stop: &Stop,
    t0: Instant,
    traced: bool,
) -> Tally {
    let stream = &inputs.streams[client];
    let mut sent = Vec::new();
    let mut nl_sent = 0usize;
    loop {
        match stop {
            Stop::NlCount(n) if nl_sent >= *n => break,
            Stop::Deadline(d) if Instant::now() >= *d => break,
            _ => {}
        }
        let arm = stream[*cursor % stream.len()];
        let started = Instant::now();
        let raw = conn.send(inputs, arm);
        let us = started.elapsed().as_secs_f64() * 1e6;
        sent.push((*cursor, arm, started.duration_since(t0).as_secs_f64(), us, raw));
        *cursor += 1;
        nl_sent += usize::from(matches!(arm, Arm::Nl(_)));
    }

    let mut t = Tally { sent_until_s: t0.elapsed().as_secs_f64(), ..Tally::default() };
    for (index, arm, start_s, us, raw) in sent {
        let reply = C::interpret(inputs, arm, raw, traced);
        t.attempted += 1;
        if traced {
            t.spans.push(Span {
                name: C::span_name(arm),
                start: start_s,
                end: start_s + us / 1e6,
                parent: None,
                item: index,
                attr: reply.engine_us.map_or(0, |e| e as u64),
            });
        }
        let answer = match reply.answer {
            Ok(a) => a,
            Err(why) => {
                t.failed += 1;
                if why.starts_with("lost") {
                    t.lost += 1;
                }
                t.first_failure.get_or_insert(why);
                continue;
            }
        };
        t.completed += 1;
        let want = inputs.expect(arm);
        if answer != want {
            t.mismatches += 1;
            t.first_mismatch.get_or_insert_with(|| {
                format!("client {client} request {index}: got {answer:?}, want {want:?}")
            });
        }
        t.latency_us.push(us);
        t.done_s.push(start_s + us / 1e6);
        t.bytes += reply.bytes as u64;
        match arm {
            Arm::Nl(_) => {
                if matches!(stop, Stop::NlCount(_)) {
                    answer.digest_into(&mut t.digest);
                }
                if let Some(e) = reply.engine_us {
                    t.engine_us.push(e);
                    t.nl_overhead_us.push(us - e);
                }
                if let Some(hit) = reply.cache_hit {
                    t.cache_lookups += 1;
                    t.cache_hits += u64::from(hit);
                }
                if let Some(b) = reply.batch {
                    t.batch_sum += b as u64;
                    t.batch_n += 1;
                }
            }
            Arm::RawSql(_) => t.raw_sql_us.push(us),
            Arm::Healthz => t.healthz_us.push(us),
        }
    }
    t.client_digests.push(t.digest.hex());
    t
}

/// Run all clients through one phase; returns the merged tally and the
/// phase's wall time, up to the last client's last reply (checking the
/// replies afterwards is not part of it).
fn phase<C: Conn + Send>(
    conns: &mut [C],
    inputs: &Inputs<'_>,
    cursors: &mut [usize],
    stop: &Stop,
    traced: bool,
) -> (Tally, f64) {
    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(cursors.iter_mut())
            .enumerate()
            .map(|(c, (conn, cursor))| {
                scope.spawn(move || client_phase(conn, inputs, c, cursor, stop, started, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    let wall = all.sent_until_s;
    (all, wall)
}

/// Length of the segments an untraced serve phase is cut into; the machine
/// is probed between them, while the program idles.
const SEGMENT_S: f64 = 5.0;

/// The digest prefix, then the measured phase, on open connections.
struct Measured {
    digest: Tally,
    /// Every segment's requests, merged.
    phase: Tally,
    /// Seconds the clients sent for, summed over segments.
    wall: f64,
    /// Untraced: each segment's windows, and the machine probe (ms) before
    /// the first segment and after each.
    segments: Vec<Windows>,
    probes_ms: Vec<f64>,
    /// What the program's `obs` recorder saw during a traced phase.
    recorded: Option<obs::Snapshot>,
}

fn measure<C: Conn + Send>(conns: &mut [C], inputs: &Inputs<'_>, params: &Params) -> Measured {
    let mut cursors = vec![0usize; conns.len()];
    let (digest, _) =
        phase(conns, inputs, &mut cursors, &Stop::NlCount(params.scale.serve_digest_prefix), false);
    let mut m = Measured {
        digest,
        phase: Tally::default(),
        wall: 0.0,
        segments: Vec::new(),
        probes_ms: Vec::new(),
        recorded: None,
    };
    if params.trace {
        let recording = crate::record();
        let deadline = Instant::now() + Duration::from_secs_f64(params.seconds);
        (m.phase, m.wall) = phase(conns, inputs, &mut cursors, &Stop::Deadline(deadline), true);
        m.recorded = Some(obs::snapshot());
        drop(recording);
        return m;
    }
    let count = ((params.seconds / SEGMENT_S).round() as usize).max(1);
    let segment = Duration::from_secs_f64(params.seconds / count as f64);
    m.probes_ms.push(stats::machine_probe_ms());
    for _ in 0..count {
        let deadline = Instant::now() + segment;
        let (t, wall) = phase(conns, inputs, &mut cursors, &Stop::Deadline(deadline), false);
        m.probes_ms.push(stats::machine_probe_ms());
        m.segments.push(Windows::of(&t, wall, params.workload.tail_pct()));
        m.wall += wall;
        m.phase.merge(t);
    }
    m
}

/// Poll `ready` every millisecond until it holds or `limit` passes, so the
/// poll interval adds little to a set-up time.
fn poll_until(limit: Duration, mut ready: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while started.elapsed() < limit {
        if ready() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    ready()
}

fn corpus_config(params: &Params) -> CorpusConfig {
    CorpusConfig { dev_samples: params.scale.serve_dev_samples, ..CorpusConfig::tiny(CORPUS_SEED) }
}

fn serve_config() -> ServeConfig {
    ServeConfig::builder()
        .workers(SERVE_WORKERS)
        .admin_addr("127.0.0.1:0".parse().expect("loopback literal parses"))
        .build()
        .expect("default serve config with 2 workers is valid")
}

fn models() -> Vec<SimulatedModel> {
    METHODS
        .iter()
        .map(|m| SimulatedModel::new(method_by_name(m).expect("serve method is registered")))
        .collect()
}

pub fn run(params: &Params) -> Outcome {
    let mut out = Outcome::new();
    let mut setup = Vec::new();
    // The machine is probed before the set-ups, before the first measured
    // segment and after every segment.
    let setup_probe_ms = if params.trace { 0.0 } else { stats::machine_probe_ms() };
    let models = models();
    let config = corpus_config(params);
    let reps = if params.trace { 1 } else { params.workload.setup_reps() };
    let clients = params.workload.clients();
    let mut measured = None;
    let mut layer_setup = (0.0, 0.0);
    let mut requeued = 0u64;
    let mut fingerprint = serde::Value::Null;
    let mut inputs_note = serde::Value::Null;

    match params.workload {
        Workload::ServeHttp => {
            for rep in 0..reps {
                let t = Instant::now();
                let corpus = generate_corpus(CorpusKind::Spider, &config);
                let generate_s = t.elapsed().as_secs_f64();
                let c = Instant::now();
                let ctx = EvalContext::new(&corpus);
                let context_s = c.elapsed().as_secs_f64();
                Service::run_with_methods(serve_config(), &ctx, &METHODS, |handle| {
                    let addr = handle.admin_addr().expect("API listener configured");
                    let up = poll_until(Duration::from_secs(30), || {
                        matches!(serve::http::http_get(addr, "/healthz"), Ok((200, _)))
                    });
                    setup.push(t.elapsed().as_secs_f64());
                    if !up {
                        out.correct = false;
                        return;
                    }
                    if rep + 1 == reps {
                        layer_setup = (generate_s, context_s);
                        let inputs = Inputs::new(&ctx, &models, params.seed, clients, true);
                        let mut conns: Vec<HttpConn> = (0..clients).map(|_| HttpConn { addr }).collect();
                        measured = Some(measure(&mut conns, &inputs, params));
                        fingerprint = crate::fingerprint(params, &corpus, &METHODS, SERVE_WORKERS, clients);
                        inputs_note = inputs_json(&inputs);
                    }
                });
            }
        }
        _ => {
            // The benchmark's own copy of the corpus the worker regenerates:
            // the request streams and the expected answers come from it.
            let t = Instant::now();
            let corpus = generate_corpus(CorpusKind::Spider, &config);
            let generate_s = t.elapsed().as_secs_f64();
            let c = Instant::now();
            let ctx = EvalContext::new(&corpus);
            layer_setup = (generate_s, c.elapsed().as_secs_f64());
            let inputs = Inputs::new(&ctx, &models, params.seed, clients, false);
            fingerprint = crate::fingerprint(params, &corpus, &METHODS, SERVE_WORKERS, clients);
            inputs_note = inputs_json(&inputs);
            for rep in 0..reps {
                let t = Instant::now();
                // The scheduler stops before the worker, so the worker's
                // departure is never reported as a failure.
                let (addr_tx, addr_rx) = std::sync::mpsc::channel();
                let (ready_tx, ready_rx) = std::sync::mpsc::channel();
                let (sched_stop, sched_stop_rx) = std::sync::mpsc::channel::<()>();
                let scheduler = std::thread::spawn(move || {
                    cluster::Scheduler::run(cluster::SchedulerConfig::default(), |handle| {
                        let _ = addr_tx.send(handle.client_addr());
                        let up = poll_until(Duration::from_secs(60), || handle.ready_workers() >= 1);
                        let _ = ready_tx.send(up);
                        let _ = sched_stop_rx.recv();
                        handle.requeued_total()
                    })
                });
                let addr = addr_rx.recv().expect("scheduler binds its listener");
                let (worker_stop, worker_stop_rx) = std::sync::mpsc::channel::<()>();
                let worker = cluster::WorkerConfig {
                    worker_id: "bench-w0".to_string(),
                    scheduler: addr.to_string(),
                    corpus_seed: CORPUS_SEED,
                    corpus_kind: CorpusKind::Spider,
                    corpus_dev_samples: Some(config.dev_samples),
                    methods: METHODS.iter().map(|m| m.to_string()).collect(),
                    serve: ServeConfig::builder()
                        .workers(SERVE_WORKERS)
                        .build()
                        .expect("default serve config with 2 workers is valid"),
                    ..cluster::WorkerConfig::default()
                };
                let worker = std::thread::spawn(move || {
                    cluster::Worker::run(worker, |_| {
                        let _ = worker_stop_rx.recv();
                    })
                });
                let up = ready_rx.recv().unwrap_or(false);
                setup.push(t.elapsed().as_secs_f64());
                out.correct &= up;
                if up && rep + 1 == reps {
                    let addr = addr.to_string();
                    let mut conns: Vec<ClusterConn> = (0..clients)
                        .map(|_| ClusterConn { client: ClusterConn::connect(&addr), addr: addr.clone() })
                        .collect();
                    measured = Some(measure(&mut conns, &inputs, params));
                }
                drop(sched_stop);
                requeued = scheduler.join().expect("scheduler exits cleanly");
                drop(worker_stop);
                worker.join().expect("worker exits cleanly");
            }
        }
    }

    let Some(m) = measured else {
        out.correct = false;
        out.note("error", text("the system under test never became ready"));
        return out;
    };
    for t in [&m.digest, &m.phase] {
        out.attempted += t.attempted;
        out.failed += t.failed;
    }
    let mismatches = m.digest.mismatches + m.phase.mismatches;
    let lost = m.digest.lost + m.phase.lost;
    out.gate("every_reply_matches_evaluator", mismatches == 0);
    out.gate("no_lost_replies", lost == 0);
    out.gate("digest_prefix_complete", m.digest.failed == 0);

    if let Some(recorded) = &m.recorded {
        out.set("datagen.generate_s", layer_setup.0);
        out.set("nl2sql360.context_new_s", layer_setup.1);
        serve_layers(&mut out, params, &m.phase, m.wall, recorded, requeued);
    } else {
        // Each metric is the median over segments, scaled to the reference
        // machine speed by the median of the run's probes.
        let probes: Vec<f64> = std::iter::once(setup_probe_ms).chain(m.probes_ms.iter().copied()).collect();
        let speed = stats::speed_factor(stats::median(&probes));
        let rates: Vec<f64> = m.segments.iter().map(|w| w.rate).collect();
        let p50s: Vec<f64> = m.segments.iter().map(|w| w.latency.p50).collect();
        let tails: Vec<f64> = m.segments.iter().map(|w| w.latency.tail).collect();
        out.set("setup_s", stats::median(&setup) / speed);
        out.set("throughput_per_s", stats::median(&rates) * speed);
        out.set("latency_p50_us", stats::median(&p50s) / speed);
        out.set("latency_tail_us", stats::median(&tails) / speed);
        if m.segments.iter().any(|w| w.latency.undersampled()) {
            out.note(
                "warning",
                text("a segment has fewer than 10 requests beyond the fixed tail percentile"),
            );
        }
        let values = |v: &[f64]| serde::Value::Array(v.iter().map(|&x| num(x)).collect());
        let whole = Dist::at(&m.phase.latency_us, params.workload.tail_pct());
        out.note(
            "end_to_end",
            obj(vec![
                (
                    "setup_s",
                    obj(vec![("reps", int(setup.len() as u64)), ("measured_values", values(&setup))]),
                ),
                ("segments", int(m.segments.len() as u64)),
                ("window_s", num(WINDOW_S)),
                ("probes_ms", values(&probes)),
                ("speed_factor", num(speed)),
                (
                    "throughput_per_s",
                    obj(vec![
                        ("meaning", text("serve_qps: completed requests per second, all arms, closed loop, over the quieter half of each segment's one-second windows, at the reference machine speed; median over segments")),
                        ("completed", int(m.phase.completed)),
                        ("wall_s", num(m.wall)),
                        ("measured_values", values(&rates)),
                        (
                            "measured_window_values",
                            serde::Value::Array(m.segments.iter().map(|w| values(&w.rates)).collect()),
                        ),
                    ]),
                ),
                (
                    "latency_us",
                    obj(vec![
                        ("meaning", text("client-observed latency over all arms, of the requests that completed in the quieter half of each segment's windows, at the reference machine speed; median over segments")),
                        ("tail_percentile", num(params.workload.tail_pct())),
                        ("measured_p50_values", values(&p50s)),
                        ("measured_tail_values", values(&tails)),
                        ("measured_whole_phase", whole.to_json()),
                    ]),
                ),
                ("cache", cache_json(&m.phase)),
            ]),
        );
    }
    out.note("fingerprint", fingerprint);
    out.note("inputs", inputs_note);
    out.note(
        "digests",
        obj(vec![
            // Client c walks the same NL stream in both serve workloads, so
            // client 0's digest is comparable across them.
            ("nl_outcomes", text(m.digest.client_digests.first().cloned().unwrap_or_default())),
            (
                "nl_outcomes_per_client",
                serde::Value::Array(m.digest.client_digests.iter().map(|d| text(d.clone())).collect()),
            ),
            ("nl_prefix_per_client", int(params.scale.serve_digest_prefix as u64)),
        ]),
    );
    out.note(
        "failures",
        obj(vec![
            ("failed", int(out.failed)),
            ("attempted", int(out.attempted)),
            ("lost", int(lost)),
            ("mismatches", int(mismatches)),
            (
                "first_failure",
                text(m.digest.first_failure.clone().or(m.phase.first_failure.clone()).unwrap_or_default()),
            ),
            (
                "first_mismatch",
                text(m.digest.first_mismatch.clone().or(m.phase.first_mismatch.clone()).unwrap_or_default()),
            ),
        ]),
    );
    out
}

/// Length of the windows an untraced serve phase is cut into.
const WINDOW_S: f64 = 1.0;

/// An untraced phase cut into windows, and its quieter half: the windows
/// that completed at least as many requests as the median window.
///
/// Other tenants of the shared host only ever slow the program down, and in
/// second-long stretches that come and go (a fixed loop ran 1.0–1.8× its
/// fastest time from one second to the next, in CPU time as much as in wall
/// time, so it is not the hypervisor taking the CPU away). The end-to-end
/// metrics are measured over the quieter half of the windows, where that
/// interference was least: a change to the program moves every window, so
/// it moves them as well.
struct Windows {
    /// Completed requests per second of each window, in time order.
    rates: Vec<f64>,
    /// Completed requests per second over the kept windows.
    rate: f64,
    /// Latency of the requests that completed in the kept windows.
    latency: Dist,
}

impl Windows {
    fn of(t: &Tally, wall: f64, tail_pct: f64) -> Windows {
        let count = ((wall / WINDOW_S).floor() as usize).max(1);
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); count];
        for (&done, &us) in t.done_s.iter().zip(&t.latency_us) {
            if let Some(w) = lat.get_mut((done / WINDOW_S) as usize) {
                w.push(us);
            }
        }
        let rates: Vec<f64> = lat.iter().map(|v| v.len() as f64 / WINDOW_S).collect();
        let mut kept: Vec<usize> = (0..count).collect();
        kept.sort_by(|&a, &b| rates[b].total_cmp(&rates[a]).then(a.cmp(&b)));
        kept.truncate(count.div_ceil(2));
        let rate = kept.iter().map(|&w| rates[w]).sum::<f64>() / kept.len() as f64;
        let pooled: Vec<f64> = kept.iter().flat_map(|&w| lat[w].iter().copied()).collect();
        Windows { rates, rate, latency: Dist::at(&pooled, tail_pct) }
    }
}

fn inputs_json(inputs: &Inputs<'_>) -> serde::Value {
    obj(vec![
        ("nl_keys", int(inputs.keys.len() as u64)),
        ("distinct_requests", int(inputs.distinct_requests as u64)),
        ("distinct_cache_keys", int(inputs.distinct_cache_keys as u64)),
        ("cache_capacity", int(CACHE_CAPACITY as u64)),
        ("pick", text("dev sample, variant and method each uniform, as serve-loadgen")),
        ("p_raw_sql", num(P_RAW_SQL)),
        ("p_healthz", num(P_HEALTHZ)),
        ("stream_len_per_client", int(inputs.streams.first().map_or(0, Vec::len) as u64)),
    ])
}

fn cache_json(t: &Tally) -> serde::Value {
    obj(vec![
        ("hits", int(t.cache_hits)),
        ("lookups", int(t.cache_lookups)),
        ("hit_ratio", num(stats::ratio(t.cache_hits as f64, t.cache_lookups as f64))),
    ])
}

/// Total seconds and count of the spans the program recorded under `name`.
fn recorded(snapshot: &obs::Snapshot, name: &str) -> (f64, usize) {
    let spans: Vec<&obs::SpanEvent> = snapshot.events.iter().filter(|e| e.name == name).collect();
    (spans.iter().map(|e| e.dur_us as f64).sum::<f64>() / 1e6, spans.len())
}

fn serve_layers(
    out: &mut Outcome,
    params: &Params,
    t: &Tally,
    wall: f64,
    snapshot: &obs::Snapshot,
    requeued: u64,
) {
    let tail_pct = params.workload.tail_pct();
    let engine = Dist::at(&t.engine_us, tail_pct);
    out.set("serve.engine_latency_us.p50", engine.p50);
    out.set("serve.engine_latency_us.tail", engine.tail);
    out.set("serve.cache_hit_ratio", stats::ratio(t.cache_hits as f64, t.cache_lookups as f64));
    out.set("serve.cache_lookups", t.cache_lookups as f64);
    out.set("serve.mean_batch_size", stats::ratio(t.batch_sum as f64, t.batch_n as f64));
    // The translator and its modules, from the spans the program recorded
    // on its engine threads: part of the engine's time, not rows of their own.
    let translate_us: Vec<f64> =
        snapshot.events.iter().filter(|e| e.name == "modelzoo.translate").map(|e| e.dur_us as f64).collect();
    let translate = Dist::at(&translate_us, tail_pct);
    out.set("modelzoo.translate_s", translate_us.iter().sum::<f64>() / 1e6);
    out.set("modelzoo.translate_us.p50", translate.p50);
    out.set("modelzoo.translate_us.tail", translate.tail);
    for (module, s_name, c_name) in [
        ("modelzoo.few_shot", "modelzoo.few_shot_s", "modelzoo.few_shot.calls"),
        ("modelzoo.db_content", "modelzoo.db_content_s", "modelzoo.db_content.calls"),
        ("modelzoo.schema_link", "modelzoo.schema_link_s", "modelzoo.schema_link.calls"),
    ] {
        let (secs, calls) = recorded(snapshot, module);
        out.set(s_name, secs);
        out.set(c_name, calls as f64);
    }
    // minidb's own execution spans, on the engine threads (translation
    // checks and scoring) and, for raw SQL, on the HTTP thread. A compiled
    // plan never calls the interpreter, so the two never nest.
    let (interpret_s, interpret_calls) = recorded(snapshot, "minidb.exec.interpret");
    let (compiled_s, compiled_calls) = recorded(snapshot, "minidb.exec.compiled");
    out.set("minidb.exec_s.interpreter", interpret_s);
    out.set("minidb.calls.interpreter", interpret_calls as f64);
    out.set("minidb.exec_s.compiled", compiled_s);
    out.set("minidb.calls.compiled", compiled_calls as f64);
    out.set(
        "minidb.interpreter_call_ratio",
        stats::ratio(interpret_calls as f64, (interpret_calls + compiled_calls) as f64),
    );
    let overhead = Dist::at(&t.nl_overhead_us, tail_pct);
    let engine_s: f64 = t.engine_us.iter().sum::<f64>() / 1e6;
    let overhead_s: f64 = t.nl_overhead_us.iter().sum::<f64>() / 1e6;
    let raw_s: f64 = t.raw_sql_us.iter().sum::<f64>() / 1e6;
    let healthz_s: f64 = t.healthz_us.iter().sum::<f64>() / 1e6;
    let mut rows = vec![("serve.engine", engine_s, t.engine_us.len())];
    let mut dists = vec![("serve.engine_latency_us", engine.to_json())];
    if params.workload == Workload::ServeHttp {
        let raw = Dist::at(&t.raw_sql_us, tail_pct);
        let healthz = Dist::at(&t.healthz_us, tail_pct);
        out.set("http.overhead_us.p50", overhead.p50);
        out.set("http.overhead_us.tail", overhead.tail);
        out.set("http.raw_sql_us.p50", raw.p50);
        out.set("http.raw_sql_us.tail", raw.tail);
        out.set("http.healthz_us.p50", healthz.p50);
        out.set("http.healthz_us.tail", healthz.tail);
        out.set("http.bytes_per_req", stats::ratio(t.bytes as f64, t.completed as f64));
        rows.push(("http.overhead", overhead_s, t.nl_overhead_us.len()));
        rows.push(("http.raw_sql", raw_s, t.raw_sql_us.len()));
        rows.push(("http.healthz", healthz_s, t.healthz_us.len()));
        dists.extend([
            ("http.overhead_us", overhead.to_json()),
            ("http.raw_sql_us", raw.to_json()),
            ("http.healthz_us", healthz.to_json()),
        ]);
    } else {
        out.set("cluster.hop_us.p50", overhead.p50);
        out.set("cluster.hop_us.tail", overhead.tail);
        out.set("cluster.frame_bytes_per_req", stats::ratio(t.bytes as f64, t.completed as f64));
        out.set("cluster.requeued", requeued as f64);
        rows.push(("cluster.hop", overhead_s, t.nl_overhead_us.len()));
        dists.push(("cluster.hop_us", overhead.to_json()));
    }
    // Closed loop: each client is busy for the whole phase, so the table's
    // base is clients × wall.
    let base = wall * params.workload.clients() as f64;
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    let unattributed_pct = 100.0 * stats::ratio(base - attributed, base);
    // trace.overhead_pct stays absent: one phase, nothing untraced to
    // compare it with.
    out.set("trace.wall_s", wall);
    out.set("trace.unattributed_pct", unattributed_pct);

    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let table_rows = rows
        .iter()
        .map(|(name, secs, calls)| {
            obj(vec![
                ("layer", text(*name)),
                ("self_s", num(*secs)),
                ("share_pct", num(100.0 * stats::ratio(*secs, base))),
                ("calls", int(*calls as u64)),
            ])
        })
        .collect();
    out.note(
        "layer_table",
        obj(vec![
            ("wall_s", num(wall)),
            ("client_busy_base_s", num(base)),
            ("rows", serde::Value::Array(table_rows)),
            ("unattributed_pct", num(unattributed_pct)),
            ("reconciled", serde::Value::Bool(unattributed_pct.abs() <= crate::RECONCILE_TOLERANCE_PCT)),
            ("traced_qps", num(t.completed as f64 / wall)),
            ("cache", cache_json(t)),
            ("dists", obj(dists)),
            (
                "note",
                text(
                    "engine time is the engine-reported latency of each NL request (queue wait included); \
                     the http/cluster rows are client latency minus it; the program's obs recorder was on",
                ),
            ),
        ]),
    );
    out.note("spans_dropped", int(snapshot.dropped_events));
    out.note("spans_file", crate::write_spans(params, &t.spans));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_keep_the_quieter_half() {
        // Five one-second windows completing 3, 1, 4, 2 and 5 requests, each
        // request taking as many microseconds as its window's index + 1.
        let mut t = Tally::default();
        for (w, n) in [3, 1, 4, 2, 5].into_iter().enumerate() {
            for i in 0..n {
                t.done_s.push(w as f64 + (i as f64 + 0.5) / n as f64);
                t.latency_us.push(w as f64 + 1.0);
            }
        }
        // A request completing after the last whole window is not counted.
        t.done_s.push(5.2);
        t.latency_us.push(100.0);
        let w = Windows::of(&t, 5.5, 50.0);
        assert_eq!(w.rates, [3.0, 1.0, 4.0, 2.0, 5.0]);
        // ceil(5 / 2) = 3 windows are kept: the ones with 5, 4 and 3 requests
        assert_eq!(w.rate, 4.0);
        assert_eq!(w.latency.n, 12);
        // 5 requests of 5 µs, 4 of 3 µs and 3 of 1 µs: the median is 3 µs
        assert_eq!(w.latency.p50, 3.0);
    }
}
