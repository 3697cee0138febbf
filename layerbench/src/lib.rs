//! Paper-scale, layer-attributed benchmark of the NL2SQL360 workspace.
//!
//! Four workloads, one per process run:
//!
//! * `eval-spider-fewshot` — `EvalContext::evaluate_with` of SuperSQL on
//!   the full Spider-like corpus (7000 train / 1034 dev): the few-shot
//!   retrieval path of `modelzoo` dominates.
//! * `eval-bird-exec` — `evaluate_with` of `SFT CodeS-7B` on the full
//!   BIRD-like corpus (3000 train / 1534 dev): no similarity few-shot,
//!   `minidb` execution dominates.
//! * `serve-http` — an in-process `serve::Service` with its `/v1` API on
//!   loopback, driven by four closed-loop HTTP clients.
//! * `serve-cluster` — an embedded `cluster::Scheduler` and one
//!   `cluster::Worker` over loopback TCP, driven by two closed-loop
//!   `ClusterClient`s with the same NL request stream.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics; a
//! traced run times each call into a layer's public functions from this
//! crate and reports the per-layer table. See `README.md` beside this crate.

mod eval;
mod serve_wl;
mod spans;
pub mod stats;

use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_us", "us"), ("latency_tail_us", "us")];

/// Per-layer metrics: every traced run reports all of them. A layer the
/// workload does not reach reads 0 and is listed under `absent` in the
/// report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("nl2sql360.context_new_s", "s"),
    ("nl2sql360.task_s", "s"),
    ("nl2sql360.compare_s", "s"),
    ("modelzoo.translate_s", "s"),
    ("modelzoo.translate_self_s", "s"),
    ("modelzoo.translate_us.p50", "us"),
    ("modelzoo.translate_us.tail", "us"),
    ("modelzoo.few_shot_s", "s"),
    ("modelzoo.few_shot.calls", "count"),
    ("modelzoo.db_content_s", "s"),
    ("modelzoo.db_content.calls", "count"),
    ("modelzoo.schema_link_s", "s"),
    ("modelzoo.schema_link.calls", "count"),
    ("minidb.exec_s.interpreter", "s"),
    ("minidb.exec_s.rowwise", "s"),
    ("minidb.exec_s.columnar", "s"),
    ("minidb.exec_s.compiled", "s"),
    ("minidb.calls.interpreter", "count"),
    ("minidb.calls.rowwise", "count"),
    ("minidb.calls.columnar", "count"),
    ("minidb.calls.compiled", "count"),
    ("minidb.exec_us_tail.interpreter", "us"),
    ("minidb.exec_us_tail.rowwise", "us"),
    ("minidb.exec_us_tail.columnar", "us"),
    ("minidb.work_units.interpreter", "count"),
    ("minidb.work_units.rowwise", "count"),
    ("minidb.work_units.columnar", "count"),
    ("minidb.exec_s.in_translate", "s"),
    ("minidb.calls.in_translate", "count"),
    ("minidb.exec_errors", "count"),
    ("minidb.interpreter_call_ratio", "ratio"),
    ("serve.engine_latency_us.p50", "us"),
    ("serve.engine_latency_us.tail", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_lookups", "count"),
    ("serve.mean_batch_size", "count"),
    ("http.overhead_us.p50", "us"),
    ("http.overhead_us.tail", "us"),
    ("http.raw_sql_us.p50", "us"),
    ("http.raw_sql_us.tail", "us"),
    ("http.healthz_us.p50", "us"),
    ("http.healthz_us.tail", "us"),
    ("http.bytes_per_req", "B"),
    ("cluster.hop_us.p50", "us"),
    ("cluster.hop_us.tail", "us"),
    ("cluster.frame_bytes_per_req", "B"),
    ("cluster.requeued", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Largest share of traced wall time the layer table may leave
/// unattributed and still count as reconciled.
pub const RECONCILE_TOLERANCE_PCT: f64 = 5.0;

/// Seed of the corpora every workload runs on. The corpora stand in for the
/// paper's fixed datasets, so they are a fixture of the benchmark; the run's
/// `--seed` decides what is asked of them (the shuffled dev prefix an
/// evaluation covers, the request streams a serve workload sends). With
/// corpus-seeded runs the tiny preset's three dev databases changed size
/// enough between seeds to move serve throughput by a third.
pub const CORPUS_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EvalSpiderFewshot,
    EvalBirdExec,
    ServeHttp,
    ServeCluster,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::EvalSpiderFewshot, Workload::EvalBirdExec, Workload::ServeHttp, Workload::ServeCluster];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EvalSpiderFewshot => "eval-spider-fewshot",
            Workload::EvalBirdExec => "eval-bird-exec",
            Workload::ServeHttp => "serve-http",
            Workload::ServeCluster => "serve-cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The percentile every tail of this workload is reported at:
    /// `latency_tail_us` and each per-layer `.tail`. It is fixed, so a
    /// faster or slower program never changes what the metric means. Each
    /// is the highest rung of [`stats::TAIL_LADDER`] with at least
    /// [`stats::MIN_BEYOND`] samples beyond it at the seed state: ~260
    /// questions per Spider round, some 3500 timed questions per 30-second
    /// BIRD run, and tens of thousands of requests in the kept windows of a
    /// 45-second serve run. A report flags any distribution too small for
    /// it as `undersampled`.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::EvalSpiderFewshot => 95.0,
            Workload::EvalBirdExec | Workload::ServeHttp | Workload::ServeCluster => 99.0,
        }
    }

    /// Closed-loop clients of a serve workload (1 for the eval workloads,
    /// which run on the calling thread). `serve-http` has four so the API's
    /// sequential accept loop always finds a connection waiting: with one or
    /// two, whether a request met the loop's 10 ms accept poll turned on a
    /// thread-wake race, and throughput swung by 25–40% between runs of the
    /// same code.
    pub fn clients(self) -> usize {
        match self {
            Workload::ServeHttp => 4,
            Workload::ServeCluster => 2,
            _ => 1,
        }
    }

    /// Set-ups in an untraced run; `setup_s` is their median. A serve
    /// set-up takes ~0.1 s, so it is repeated more to steady the median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::EvalSpiderFewshot | Workload::EvalBirdExec => 5,
            Workload::ServeHttp | Workload::ServeCluster => 21,
        }
    }
}

/// The program's `obs` recorder is process-global: a traced run holds this
/// lock while it records, so two traced runs in one process (the crate's
/// tests) never clear or read each other's spans.
static RECORDING: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Clear the `obs` recorder and turn it on until the guards drop.
/// The recorder is turned off before the lock is released.
pub(crate) fn record() -> (obs::EnableGuard, std::sync::MutexGuard<'static, ()>) {
    let lock = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    (obs::enable(), lock)
}

/// Corpus and run sizes. `paper()` is what the command line runs; the
/// crate's tests use `smoke()` so a full pass of every workload takes
/// seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Paper-size corpora for the eval workloads (tiny preset otherwise).
    pub paper_corpora: bool,
    /// Dev samples per untraced `evaluate_with` pass and per traced replay:
    /// a Spider prefix (few-shot cost is near uniform per question), the
    /// whole BIRD dev split (execution cost is heavy-tailed, so a prefix
    /// would make the figure depend on which samples the seed put first).
    pub eval_samples_spider: usize,
    pub eval_samples_bird: usize,
    /// Dev split of the serve corpus (Spider tiny preset otherwise).
    pub serve_dev_samples: usize,
    /// NL requests per client that are checked and digested before timing.
    pub serve_digest_prefix: usize,
}

impl Scale {
    pub fn paper() -> Scale {
        Scale {
            paper_corpora: true,
            eval_samples_spider: 128,
            eval_samples_bird: 1534,
            serve_dev_samples: 400,
            serve_digest_prefix: 128,
        }
    }

    pub fn smoke() -> Scale {
        Scale {
            paper_corpora: false,
            eval_samples_spider: 60,
            eval_samples_bird: 60,
            serve_dev_samples: 60,
            serve_digest_prefix: 16,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What one run produced: the contract line's fields plus a report with
/// the fingerprint, the bases of every ratio, the sample count of every
/// percentile, the correctness gates and the layer table.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub report: Vec<(&'static str, serde::Value)>,
    pub gates: Vec<(&'static str, bool)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            report: Vec::new(),
            gates: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: serde::Value) {
        self.report.push((key, value));
    }

    /// Record a correctness gate; any failing gate makes the run incorrect.
    pub fn gate(&mut self, name: &'static str, ok: bool) {
        self.correct &= ok;
        self.gates.push((name, ok));
    }
}

impl Default for Outcome {
    fn default() -> Self {
        Self::new()
    }
}

/// Run one workload.
pub fn run(params: &Params) -> Outcome {
    let cpu = stats::cpu_times();
    let probe_before = stats::machine_probe_ms();
    let mut out = match params.workload {
        Workload::EvalSpiderFewshot | Workload::EvalBirdExec => eval::run(params),
        Workload::ServeHttp | Workload::ServeCluster => serve_wl::run(params),
    };
    out.note("peak_rss_mib", stats::num(stats::peak_rss_mib()));
    out.note(
        "machine",
        stats::obj(vec![
            ("cpu_steal_pct", stats::num(stats::steal_pct(&cpu, &stats::cpu_times()))),
            ("probe_ms_before", stats::num(probe_before)),
            ("probe_ms_after", stats::num(stats::machine_probe_ms())),
        ]),
    );
    out
}

/// The workload and machine fingerprint every result carries.
pub fn fingerprint(
    params: &Params,
    corpus: &datagen::Corpus,
    methods: &[&str],
    workers: usize,
    clients: usize,
) -> serde::Value {
    use stats::{int, obj, text};
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj(vec![
        ("workload", text(params.workload.name())),
        ("seed", int(params.seed)),
        ("corpus_seed", int(CORPUS_SEED)),
        ("seconds", stats::num(params.seconds)),
        ("corpus_hash", text(corpus_hash(corpus))),
        ("corpus_kind", text(corpus.kind.name())),
        ("train_samples", int(corpus.train.len() as u64)),
        ("dev_samples", int(corpus.dev.len() as u64)),
        ("dev_questions", int(corpus.dev.iter().map(|s| s.variants.len() as u64).sum())),
        ("databases", int(corpus.databases.len() as u64)),
        ("methods", serde::Value::Array(methods.iter().map(|m| text(*m)).collect())),
        ("workers", int(workers as u64)),
        ("clients", int(clients as u64)),
        ("nproc", int(nproc as u64)),
        ("commit", text(commit())),
        ("source_hash", text(source_hash())),
    ])
}

/// Content hash of a corpus: every sample's database, question variants and
/// gold SQL, plus each database's schema and row counts. A corpus change
/// (a generator fix, a dedup) changes it; a code change elsewhere does not.
pub fn corpus_hash(corpus: &datagen::Corpus) -> String {
    let mut h = stats::Fnv::default();
    h.add(corpus.kind.name().as_bytes());
    for (id, db) in &corpus.databases {
        h.add(id.as_bytes());
        for t in db.database.tables() {
            h.add(t.schema.create_table_sql().as_bytes());
            h.add(&(t.n_rows() as u64).to_le_bytes());
        }
    }
    for s in corpus.train.iter().chain(&corpus.dev) {
        h.add(s.db_id.as_bytes());
        h.add(s.sql.as_bytes());
        for v in &s.variants {
            h.add(v.as_bytes());
        }
    }
    h.hex()
}

/// The commit being measured, read from `.git` when the run's directory is
/// a git checkout, else "unknown".
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// Content hash of the program's sources (`crates/`, every file, in path
/// order), which identifies the code under test where no `.git` exists.
fn source_hash() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = stats::Fnv::default();
    for f in &files {
        h.add(f.to_string_lossy().as_bytes());
        h.add(&std::fs::read(f).unwrap_or_default());
    }
    if files.is_empty() {
        "unknown".to_string()
    } else {
        h.hex()
    }
}

/// Write a run's spans to `.bench_out/` in the working directory and return
/// the path for the report.
fn write_spans(params: &Params, spans: &[spans::Span]) -> serde::Value {
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "{}-seed{}-spans.jsonl",
        params.workload.name(),
        params.seed
    ));
    match spans::write_jsonl(spans, &path) {
        Ok(()) => stats::text(path.display().to_string()),
        Err(e) => stats::text(format!("not written: {e}")),
    }
}

/// The contract's last line plus the report line printed before it.
pub fn render(params: &Params, out: &Outcome) -> (String, String) {
    use stats::{num, obj, text};
    let names = if params.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    let mut absent = Vec::new();
    for &(name, unit) in names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None => {
                absent.push(text(name));
                0.0
            }
        };
        metrics.push((name.to_string(), obj(vec![("value", num(value)), ("unit", text(unit))])));
    }
    // An untraced run must measure every end-to-end metric, and every run
    // must attempt something.
    let correct = out.correct && out.attempted > 0 && (params.trace || absent.is_empty());
    let result = obj(vec![
        ("correct", serde::Value::Bool(correct)),
        ("attempted", stats::int(out.attempted.max(1))),
        ("failed", stats::int(out.failed)),
        ("metrics", serde::Value::Map(metrics)),
    ]);
    let mut report: Vec<(&str, serde::Value)> = out.report.clone();
    let gates = out.gates.iter().map(|(k, ok)| (k.to_string(), serde::Value::Bool(*ok))).collect();
    report.push(("gates", serde::Value::Map(gates)));
    report.push(("failed_pct", num(100.0 * stats::ratio(out.failed as f64, out.attempted as f64))));
    if params.trace {
        report.push(("absent", serde::Value::Array(absent)));
    }
    let report = obj(vec![("report", obj(report))]);
    (
        serde_json::to_string(&report).unwrap_or_else(|_| "{}".to_string()),
        serde_json::to_string(&result).unwrap_or_else(|_| "{}".to_string()),
    )
}
