//! The two paper-scale evaluation workloads.
//!
//! Untraced: set up `Workload::setup_reps` times, then for the run's seconds repeat
//! rounds over a fixed prefix of the dev split: one `evaluate_with` pass at
//! one worker (throughput), then the NL questions of one slice of the
//! prefix timed one by one through the evaluator's public calls (latency).
//! The slices rotate, so every question is timed once per rotation.
//!
//! Traced: replay the same prefix sample by sample through
//! `ctx.task` → `model.translate` → minidb execution → compare, with the
//! program's `obs` recorder on, a span around every call and the layers' own
//! spans nested inside them; then check the replay against an untraced
//! `evaluate_with` of the same prefix.

use crate::spans::{self, Span};
use crate::stats::{self, int, num, obj, text, Dist, Fnv, SplitMix};
use crate::{Outcome, Params, Workload, CORPUS_SEED};
use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use modelzoo::{method_by_name, Nl2SqlModel, SimulatedModel};
use nl2sql360::{EvalContext, EvalLog, EvalOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Slices of the prefix the latency replay rotates through, one per round.
/// Replaying a slice instead of the whole prefix keeps a round short, so a
/// run holds more `evaluate_with` passes and their median follows the
/// machine's slow stretches less.
const REPLAY_SLICES: usize = 4;

/// Fewest measurement rounds of an untraced run, whatever its seconds: one
/// full rotation, so every question of the prefix is timed.
const MIN_ROUNDS: usize = REPLAY_SLICES;

struct Spec {
    kind: CorpusKind,
    method: &'static str,
    samples: usize,
}

fn spec(params: &Params) -> Spec {
    match params.workload {
        Workload::EvalSpiderFewshot => {
            Spec { kind: CorpusKind::Spider, method: "SuperSQL", samples: params.scale.eval_samples_spider }
        }
        _ => Spec { kind: CorpusKind::Bird, method: "SFT CodeS-7B", samples: params.scale.eval_samples_bird },
    }
}

/// The workload's corpus: the fixed dataset of `CORPUS_SEED`, with its dev
/// split shuffled by the run's seed, so the seed decides which dev samples
/// the evaluated prefix holds and in what order.
fn workload_corpus(kind: CorpusKind, params: &Params) -> Corpus {
    let config = match (params.scale.paper_corpora, kind) {
        (true, CorpusKind::Spider) => CorpusConfig::spider(CORPUS_SEED),
        (true, CorpusKind::Bird) => CorpusConfig::bird(CORPUS_SEED),
        (false, _) => CorpusConfig::tiny(CORPUS_SEED),
    };
    let mut corpus = generate_corpus(kind, &config);
    let mut rng = SplitMix::new(params.seed);
    for i in (1..corpus.dev.len()).rev() {
        corpus.dev.swap(i, rng.below(i + 1));
    }
    corpus
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn run(params: &Params) -> Outcome {
    if params.trace {
        run_traced(params)
    } else {
        run_untraced(params)
    }
}

/// Score a prediction exactly as the evaluator does: execute on the
/// sample's database, compare with the cached gold result, exact-match the
/// ASTs.
fn score(ctx: &EvalContext<'_>, i: usize, pred: &sqlkit::Query) -> (bool, bool) {
    let sample = &ctx.corpus.dev[i];
    let ex = match ctx.corpus.db(sample).database.run_query(pred) {
        Ok(rs) => minidb::results_equivalent(ctx.gold_result(i), &rs),
        Err(_) => false,
    };
    (ex, sqlkit::exact_match(&sample.query, pred))
}

/// Digest of the first `k` sample records of a log.
fn log_digest(log: &EvalLog, k: usize) -> String {
    let mut h = Fnv::default();
    h.add(log.method.as_bytes());
    h.add(log.dataset.as_bytes());
    for r in log.records.iter().take(k) {
        h.add(serde_json::to_string(r).unwrap_or_default().as_bytes());
    }
    h.hex()
}

/// Per-question (ex, em) of the first `k` samples of a log.
fn log_outcomes(log: &EvalLog, k: usize) -> Vec<(bool, bool)> {
    log.records.iter().take(k).flat_map(|r| r.variants.iter().map(|v| (v.ex, v.em))).collect()
}

fn run_untraced(params: &Params) -> Outcome {
    let spec = spec(params);
    let mut out = Outcome::new();

    // The machine is probed before the set-ups, after them and after every
    // round; every figure is scaled to the reference machine speed by the
    // median probe (`stats::speed_factor`).
    let mut probes_ms = vec![stats::machine_probe_ms()];
    let (mut setup, mut generate, mut context) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_setup = || {
        let t = Instant::now();
        let corpus = workload_corpus(spec.kind, params);
        generate.push(secs_since(t));
        let c = Instant::now();
        (t, c, corpus)
    };
    for _ in 1..params.workload.setup_reps() {
        let (t, c, corpus) = timed_setup();
        black_box(EvalContext::new(&corpus));
        context.push(secs_since(c));
        setup.push(secs_since(t));
    }
    let (t, c, corpus) = timed_setup();
    let ctx = EvalContext::new(&corpus);
    context.push(secs_since(c));
    setup.push(secs_since(t));
    probes_ms.push(stats::machine_probe_ms());

    let model = SimulatedModel::new(method_by_name(spec.method).expect("method is registered"));
    let n = spec.samples.min(corpus.dev.len());
    let questions: usize = corpus.dev.iter().take(n).map(|s| s.variants.len()).sum();

    // Rounds over the same dev prefix for the run's seconds: one
    // `evaluate_with` pass (throughput, the median over passes), then every
    // NL question of one slice of the prefix timed one by one through the
    // evaluator's public calls and checked against the pass's log. Latency
    // percentiles pool the timings of complete rotations only, so every
    // question of the prefix weighs the same.
    let one_worker = EvalOptions::new().workers(1).subset(n);
    let tail_pct = params.workload.tail_pct();
    let measure = Instant::now();
    let (mut rates, mut digests) = (Vec::new(), Vec::new());
    let (mut latency_us, mut rotation_us) = (Vec::new(), Vec::with_capacity(questions));
    let mut first: Option<EvalLog> = None;
    let mut replay_ok = true;
    while rates.len() < MIN_ROUNDS || secs_since(measure) < params.seconds {
        let slice = rates.len() % REPLAY_SLICES;
        let t = Instant::now();
        let log = ctx.evaluate_with(&model, &one_worker);
        let pass = secs_since(t);
        out.attempted += n as u64;
        let Some(log) = log else {
            out.failed += n as u64;
            break;
        };
        rates.push(questions as f64 / pass);
        digests.push(log_digest(&log, n));

        for i in n * slice / REPLAY_SLICES..n * (slice + 1) / REPLAY_SLICES {
            let sample = &corpus.dev[i];
            for v in 0..sample.variants.len() {
                let t = Instant::now();
                let task = ctx.task(sample, v);
                let outcome = model.translate(&task).map(|pred| score(&ctx, i, &pred.query));
                rotation_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.attempted += 1;
                out.failed += u64::from(outcome.is_none());
                let want = log.records.get(i).and_then(|r| r.variants.get(v)).map(|w| (w.ex, w.em));
                replay_ok &= outcome.is_some() && outcome == want;
            }
        }
        probes_ms.push(stats::machine_probe_ms());
        if slice + 1 == REPLAY_SLICES {
            latency_us.append(&mut rotation_us);
        }
        first.get_or_insert(log);
    }
    let measured_s = secs_since(measure);
    let latency = Dist::at(&latency_us, tail_pct);
    let speed = stats::speed_factor(stats::median(&probes_ms));
    out.set("setup_s", stats::median(&setup) / speed);
    out.set("throughput_per_s", stats::median(&rates) * speed);
    out.set("latency_p50_us", latency.p50 / speed);
    out.set("latency_tail_us", latency.tail / speed);
    if latency.undersampled() {
        out.note("warning", text("fewer than 10 timed questions lie beyond the fixed tail percentile"));
    }

    // Gate (a): the EvalLog digest repeats across rounds and across worker
    // counts.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let parallel_workers = nproc.max(2);
    let n_gate = n.min(64);
    let parallel = ctx.evaluate_with(&model, &EvalOptions::new().workers(parallel_workers).subset(n_gate));
    out.attempted += n_gate as u64;
    let repeat_ok = !digests.is_empty() && digests.iter().all(|d| d == &digests[0]);
    let workers_ok = match (&first, &parallel) {
        (Some(a), Some(b)) => log_digest(a, n_gate) == log_digest(b, n_gate),
        _ => false,
    };
    out.gate("evallog_digest_repeats", repeat_ok);
    out.gate("evallog_digest_worker_invariant", workers_ok);
    out.gate("latency_replay_matches_evallog", replay_ok && first.is_some());

    let values = |v: &[f64]| serde::Value::Array(v.iter().map(|&x| num(x)).collect());
    out.note("fingerprint", crate::fingerprint(params, &corpus, &[spec.method], 1, 1));
    out.note(
        "end_to_end",
        obj(vec![
            (
                "setup_s",
                obj(vec![
                    ("reps", int(setup.len() as u64)),
                    ("measured_values", values(&setup)),
                    ("generate_s_median", num(stats::median(&generate))),
                    ("context_new_s_median", num(stats::median(&context))),
                ]),
            ),
            ("rounds", int(rates.len() as u64)),
            ("measured_s", num(measured_s)),
            ("probes_ms", values(&probes_ms)),
            ("speed_factor", num(speed)),
            (
                "throughput_per_s",
                obj(vec![
                    ("meaning", text("NL questions (dev sample variants) per second of evaluate_with, 1 worker, untraced, at the reference machine speed; median over rounds")),
                    ("samples_per_pass", int(n as u64)),
                    ("questions_per_pass", int(questions as u64)),
                    ("measured_values", values(&rates)),
                    (
                        "eval_samples_per_s",
                        num(stats::median(&rates) * speed * n as f64 / questions.max(1) as f64),
                    ),
                ]),
            ),
            (
                "latency_us",
                obj(vec![
                    ("meaning", text("one NL question: task + translate + execute + compare, at the reference machine speed; percentiles over every question of the run's complete replay rotations")),
                    ("replay_slices", int(REPLAY_SLICES as u64)),
                    ("rotations", int((rates.len() / REPLAY_SLICES) as u64)),
                    ("measured_dist", latency.to_json()),
                ]),
            ),
        ]),
    );
    out.note(
        "digests",
        obj(vec![
            ("evallog", text(digests.first().cloned().unwrap_or_default())),
            ("parallel_workers", int(parallel_workers as u64)),
            ("parallel_prefix", int(n_gate as u64)),
        ]),
    );
    out
}

/// minidb execution paths of the benchmark's own `minidb.run` span, by its
/// `path` attribute: (span name, report key, then the path's seconds, calls,
/// tail latency and work-unit metrics).
const EXEC_PATHS: [[&str; 6]; 3] = [
    [
        "minidb.interpreter",
        "interpreter",
        "minidb.exec_s.interpreter",
        "minidb.calls.interpreter",
        "minidb.exec_us_tail.interpreter",
        "minidb.work_units.interpreter",
    ],
    [
        "minidb.rowwise",
        "rowwise",
        "minidb.exec_s.rowwise",
        "minidb.calls.rowwise",
        "minidb.exec_us_tail.rowwise",
        "minidb.work_units.rowwise",
    ],
    [
        "minidb.columnar",
        "columnar",
        "minidb.exec_s.columnar",
        "minidb.calls.columnar",
        "minidb.exec_us_tail.columnar",
        "minidb.work_units.columnar",
    ],
];

/// Spans minidb records around one execution.
fn is_minidb_exec(name: &str) -> bool {
    matches!(name, "minidb.exec.compiled" | "minidb.exec.interpret")
}

/// The layer-table row a span's self time belongs to: the nearest span,
/// itself included, that names a row. minidb executions inside
/// `modelzoo.translate` (the translator checking a corrupted prediction
/// against gold) get their own row; the rest of translate's time (decode,
/// post-processing, prompt building) is `modelzoo.translate_self`. The
/// sample span's own time is what no row covers.
fn row_of(spans: &[Span], mut i: usize) -> &'static str {
    let mut in_minidb = false;
    loop {
        let s = &spans[i];
        match s.name {
            n if is_minidb_exec(n) => in_minidb = true,
            "modelzoo.translate" if in_minidb => return "minidb.in_translate",
            "modelzoo.translate" => return "modelzoo.translate_self",
            "modelzoo.few_shot"
            | "modelzoo.db_content"
            | "modelzoo.schema_link"
            | "nl2sql360.task"
            | "nl2sql360.compare"
            | "minidb.interpreter"
            | "minidb.rowwise"
            | "minidb.columnar" => return s.name,
            _ => {}
        }
        match s.parent {
            Some(p) => i = p,
            None => return s.name,
        }
    }
}

fn run_traced(params: &Params) -> Outcome {
    let spec = spec(params);
    let mut out = Outcome::new();

    let t = Instant::now();
    let corpus = workload_corpus(spec.kind, params);
    let generate_s = secs_since(t);
    let t = Instant::now();
    let ctx = EvalContext::new(&corpus);
    let context_new_s = secs_since(t);
    out.set("datagen.generate_s", generate_s);
    out.set("nl2sql360.context_new_s", context_new_s);

    let model = SimulatedModel::new(method_by_name(spec.method).expect("method is registered"));
    let n = spec.samples.min(corpus.dev.len());

    // Traced replay of evaluate_with: one trace per dev sample, so every
    // span, the benchmark's and the layers' own, links to its parent.
    let mut replayed = Vec::new();
    let snapshot = {
        let _recording = crate::record();
        for (i, sample) in corpus.dev.iter().enumerate().take(n) {
            let _trace = obs::with_ctx(obs::TraceCtx { trace_id: i as u64 + 1, span_id: 0 });
            let _sample = obs::span("nl2sql360.sample");
            for v in 0..sample.variants.len() {
                let task = {
                    let _span = obs::span("nl2sql360.task");
                    ctx.task(sample, v)
                };
                let Some(pred) = model.translate(&task) else {
                    replayed.push(None);
                    continue;
                };
                let db = &corpus.db(sample).database;
                let mut run = obs::span("minidb.run");
                let (path, result) = match db.prepare(&pred.query) {
                    Some(plan) if plan.is_vectorized() => (2, plan.execute(db)),
                    Some(plan) => (1, plan.execute(db)),
                    None => (0, minidb::exec::execute(db, &pred.query)),
                };
                run.attr("path", path);
                run.attr("work", result.as_ref().map_or(u64::MAX, |rs| rs.work));
                drop(run);
                let _span = obs::span("nl2sql360.compare");
                let ex = result.is_ok_and(|rs| minidb::results_equivalent(ctx.gold_result(i), &rs));
                let em = sqlkit::exact_match(&sample.query, &pred.query);
                replayed.push(Some((ex, em)));
            }
        }
        obs::snapshot()
    };
    let spans = spans::from_obs(&snapshot.events, "work", |e| {
        (e.name == "minidb.run").then(|| {
            let path = e.attrs.iter().find(|(k, _)| *k == "path").map_or(0, |(_, v)| *v);
            EXEC_PATHS[path as usize][0]
        })
    });
    let traced_wall: f64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::secs).sum();
    out.attempted += replayed.len() as u64;
    out.failed += replayed.iter().filter(|o| o.is_none()).count() as u64;

    // The same prefix untraced: the reference outcome and the overhead base.
    let t = Instant::now();
    let log = ctx.evaluate_with(&model, &EvalOptions::new().workers(1).subset(n));
    let untraced_wall = secs_since(t);
    out.attempted += n as u64;
    if log.is_none() {
        out.failed += n as u64;
    }
    // Gate (b): the replay reproduces every variant's ex/em.
    let replay_ok = log.as_ref().is_some_and(|log| {
        let want = log_outcomes(log, n);
        replayed.len() == want.len() && replayed.iter().zip(&want).all(|(o, w)| *o == Some(*w))
    });
    out.gate("traced_replay_matches_evallog", replay_ok);
    // Every span the replay recorded was kept: the table covers all of it.
    out.gate("no_spans_dropped", snapshot.dropped_events == 0);

    let table = eval_layer_table(&mut out, &spans, params.workload.tail_pct(), traced_wall, untraced_wall);
    out.note("fingerprint", crate::fingerprint(params, &corpus, &[spec.method], 1, 1));
    out.note("layer_table", table);
    out.note("spans_file", crate::write_spans(params, &spans));
    out
}

/// Fill the per-layer metrics of a traced eval replay and return the
/// self-time table, largest row first.
fn eval_layer_table(
    out: &mut Outcome,
    spans: &[Span],
    tail_pct: f64,
    wall: f64,
    untraced_wall: f64,
) -> serde::Value {
    let mut rows: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (i, self_s) in spans::self_times(spans).into_iter().enumerate() {
        let row = row_of(spans, i);
        let entry = rows.entry(row).or_default();
        entry.0 += self_s;
        // A row's calls are the spans that open it.
        let opens = spans[i].name == row
            || (row == "modelzoo.translate_self" && spans[i].name == "modelzoo.translate")
            || (row == "minidb.in_translate"
                && is_minidb_exec(spans[i].name)
                && !spans[i].parent.is_some_and(|p| is_minidb_exec(spans[p].name)));
        entry.1 += usize::from(opens);
    }
    let row = |name: &str| rows.get(name).copied().unwrap_or_default();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);

    let translate_us: Vec<f64> = named("modelzoo.translate").map(|s| s.secs() * 1e6).collect();
    let translate = Dist::at(&translate_us, tail_pct);
    out.set("nl2sql360.task_s", row("nl2sql360.task").0);
    out.set("nl2sql360.compare_s", row("nl2sql360.compare").0);
    out.set("modelzoo.translate_s", translate_us.iter().sum::<f64>() / 1e6);
    out.set("modelzoo.translate_self_s", row("modelzoo.translate_self").0);
    out.set("modelzoo.translate_us.p50", translate.p50);
    out.set("modelzoo.translate_us.tail", translate.tail);
    for (module, s_name, c_name) in [
        ("modelzoo.few_shot", "modelzoo.few_shot_s", "modelzoo.few_shot.calls"),
        ("modelzoo.db_content", "modelzoo.db_content_s", "modelzoo.db_content.calls"),
        ("modelzoo.schema_link", "modelzoo.schema_link_s", "modelzoo.schema_link.calls"),
        ("minidb.in_translate", "minidb.exec_s.in_translate", "minidb.calls.in_translate"),
    ] {
        let (secs, calls) = row(module);
        out.set(s_name, secs);
        out.set(c_name, calls as f64);
    }

    let mut exec_detail = Vec::new();
    let mut all_calls = 0usize;
    let mut errors = 0u64;
    for [span_name, path, s_name, c_name, t_name, w_name] in EXEC_PATHS {
        let calls: Vec<&Span> = named(span_name).collect();
        let us: Vec<f64> = calls.iter().map(|s| s.secs() * 1e6).collect();
        let dist = Dist::at(&us, tail_pct);
        let work: u64 = calls.iter().filter(|s| s.attr != u64::MAX).map(|s| s.attr).sum();
        errors += calls.iter().filter(|s| s.attr == u64::MAX).count() as u64;
        all_calls += calls.len();
        out.set(s_name, row(span_name).0);
        out.set(c_name, calls.len() as f64);
        out.set(t_name, dist.tail);
        out.set(w_name, work as f64);
        exec_detail.push((path, obj(vec![("exec_us", dist.to_json()), ("work_units", int(work))])));
    }
    let interpreter_calls = named("minidb.interpreter").count();
    let compiled_s = out.metrics[EXEC_PATHS[1][2]] + out.metrics[EXEC_PATHS[2][2]];
    out.set("minidb.exec_s.compiled", compiled_s);
    out.set("minidb.calls.compiled", (all_calls - interpreter_calls) as f64);
    out.set("minidb.exec_errors", errors as f64);
    out.set("minidb.interpreter_call_ratio", stats::ratio(interpreter_calls as f64, all_calls as f64));

    // The sample span's own time is the part no layer row covers.
    let sample_self = rows.remove("nl2sql360.sample").unwrap_or_default().0;
    let attributed: f64 = rows.values().map(|r| r.0).sum();
    let unattributed_pct = 100.0 * stats::ratio(wall - attributed, wall);
    out.set("trace.wall_s", wall);
    out.set("trace.overhead_pct", 100.0 * (stats::ratio(wall, untraced_wall) - 1.0));
    out.set("trace.unattributed_pct", unattributed_pct);

    let mut rows: Vec<(&str, f64, usize)> = rows.into_iter().map(|(k, (s, c))| (k, s, c)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let table_rows = rows
        .iter()
        .map(|(name, secs, calls)| {
            obj(vec![
                ("layer", text(*name)),
                ("self_s", num(*secs)),
                ("share_pct", num(100.0 * stats::ratio(*secs, wall))),
                ("calls", int(*calls as u64)),
            ])
        })
        .collect();
    obj(vec![
        ("wall_s", num(wall)),
        ("untraced_wall_s", num(untraced_wall)),
        ("rows", serde::Value::Array(table_rows)),
        ("largest_row", text(rows.first().map_or("", |r| r.0))),
        ("sample_self_s", num(sample_self)),
        ("unattributed_pct", num(unattributed_pct)),
        ("reconciled", serde::Value::Bool(unattributed_pct.abs() <= crate::RECONCILE_TOLERANCE_PCT)),
        ("translate_us", translate.to_json()),
        (
            "minidb",
            obj(exec_detail
                .into_iter()
                .chain([
                    ("calls_interpreter", int(interpreter_calls as u64)),
                    ("calls_all", int(all_calls as u64)),
                ])
                .collect()),
        ),
        (
            "note",
            text(
                "rows are self time of the program's obs spans and the benchmark's call spans, one trace \
                 per dev sample; spans have microsecond resolution",
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_goes_to_the_nearest_row() {
        let span = |name, start, end, parent| Span { name, start, end, parent, item: 0, attr: 0 };
        let spans = vec![
            span("nl2sql360.sample", 0.0, 20.0, None),
            span("modelzoo.translate", 1.0, 10.0, Some(0)),
            span("modelzoo.build_prompt", 2.0, 6.0, Some(1)),
            span("modelzoo.few_shot", 3.0, 5.0, Some(2)),
            span("minidb.exec.compiled", 7.0, 9.0, Some(1)),
            span("minidb.rowwise", 11.0, 15.0, Some(0)),
            span("minidb.exec.compiled", 12.0, 14.0, Some(5)),
        ];
        let rows: Vec<&str> = (0..spans.len()).map(|i| row_of(&spans, i)).collect();
        assert_eq!(
            rows,
            [
                "nl2sql360.sample",
                "modelzoo.translate_self",
                "modelzoo.translate_self",
                "modelzoo.few_shot",
                "minidb.in_translate",
                "minidb.rowwise",
                "minidb.rowwise",
            ]
        );
        let mut out = Outcome::new();
        let table = eval_layer_table(&mut out, &spans, 99.0, 20.0, 10.0);
        assert_eq!(out.metrics["modelzoo.translate_s"], 9.0);
        // translate 9 s = 5 s own and prompt time + 2 s few-shot + 2 s minidb
        assert_eq!(out.metrics["modelzoo.translate_self_s"], 5.0);
        assert_eq!(out.metrics["modelzoo.few_shot_s"], 2.0);
        assert_eq!(out.metrics["minidb.exec_s.in_translate"], 2.0);
        assert_eq!(out.metrics["minidb.calls.in_translate"], 1.0);
        assert_eq!(out.metrics["minidb.exec_s.rowwise"], 4.0);
        assert_eq!(out.metrics["minidb.calls.rowwise"], 1.0);
        // the sample's own 7 s is what no row covers
        assert_eq!(out.metrics["trace.unattributed_pct"], 35.0);
        assert_eq!(out.metrics["trace.overhead_pct"], 100.0);
        assert_eq!(table.get("largest_row"), Some(&text("modelzoo.translate_self")));
    }
}
