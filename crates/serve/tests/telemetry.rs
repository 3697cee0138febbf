//! Behavioral guarantees of the live telemetry plane:
//!
//! * the slow-query log stays bounded at its configured K under load;
//! * windowed reports agree with the cumulative counters;
//! * drain ordering — a submitter refused with `Overloaded` because of a
//!   drain can never observe the service as still ready;
//! * `MetricsSnapshot::lost()` never goes negative under concurrent
//!   recording (the clamped torn-read race);
//! * request outcomes and admission counters are identical with the
//!   telemetry plane on and off — recording is strictly passive.

mod common;

use common::{request, GateModel};
use datagen::{generate_corpus, Corpus, CorpusConfig, CorpusKind};
use modelzoo::Nl2SqlModel;
use nl2sql360::EvalContext;
use serve::{QueryError, ServeConfig, Service};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn corpus() -> Corpus {
    generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(91))
}

#[test]
fn slow_log_is_bounded_at_k() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let config = ServeConfig::builder().workers(2).slow_log(4, 1_000_000).build().unwrap();
    Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        for sample in corpus.dev.iter().take(12) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
        let entries = handle.slow_queries();
        assert_eq!(entries.len(), 4, "log must hold exactly K once K requests finished");
        assert!(entries.windows(2).all(|w| w[0].latency_us >= w[1].latency_us));
        // every retained entry carries the queue-wait vs exec split
        for e in &entries {
            assert!(e.latency_us >= e.exec_us, "{e:?}");
            assert_eq!(e.method, "C3SQL");
        }
        // keep serving: the bound holds under continued load
        for sample in corpus.dev.iter().skip(12).take(8) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
        assert_eq!(handle.slow_queries().len(), 4);
    });
}

#[test]
fn window_report_agrees_with_cumulative_counters() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    Service::run_with_methods(ServeConfig::default(), &ctx, &["C3SQL"], |handle| {
        for sample in corpus.dev.iter().take(10) {
            handle.query(request(sample, 0, "C3SQL")).expect("served");
        }
        // everything just happened, so the widest window saw all of it
        let r = handle.window_report(Duration::from_secs(60));
        let m = handle.metrics();
        assert_eq!(r.requests, m.completed);
        assert!(r.qps > 0.0);
        assert!(r.p50.is_some() && r.p99.is_some());
        assert!(r.p50 <= r.p99);
    });
}

/// Pin for the readiness-before-refusal ordering: a concurrent submitter
/// that gets `Overloaded` from a *drain* (the queue is far from full)
/// must already see `ready() == false` — drain flips readiness before the
/// queue starts refusing.
#[test]
fn drain_refusals_are_never_observed_while_ready() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    let (gate, started_rx) = GateModel::new();
    // queue far larger than the test will fill: the only possible
    // Overloaded is the drain-induced one
    let config = ServeConfig::builder().workers(1).queue_capacity(100_000).build().unwrap();
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(gate.clone())];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        let wedged = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");

        let submitting = AtomicBool::new(false);
        let (mut tickets, ready_at_refusal) = std::thread::scope(|s| {
            let submitter = s.spawn(|| {
                let mut tickets = Vec::new();
                loop {
                    match handle.submit(request(sample, 0, "Gate")) {
                        Ok(t) => tickets.push(t),
                        Err(QueryError::Overloaded) => {
                            // read readiness immediately after the refusal
                            return (tickets, handle.ready());
                        }
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                    submitting.store(true, Ordering::Release);
                }
            });
            // wait until the submitter demonstrably runs, then drain
            while !submitting.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            handle.begin_drain();
            submitter.join().expect("submitter thread")
        });
        assert!(
            !ready_at_refusal,
            "a drain-caused Overloaded was observed while /readyz still said ready"
        );

        // everything admitted before the drain is still answered
        gate.release(tickets.len() + 1);
        tickets.push(wedged);
        for t in tickets {
            assert!(matches!(t.wait(), Err(QueryError::TranslationRefused)));
        }
    });
}

/// Two client threads hammer the service (admission strictly before
/// the reply) while a third snapshots: the raw difference can be read torn
/// (an outcome counted before its admission is seen), but `lost()` must
/// never report that transient as a negative count, and must settle at 0.
#[test]
fn lost_never_goes_negative_under_concurrent_snapshots() {
    let corpus = corpus();
    let ctx = EvalContext::new(&corpus);
    const PER_THREAD: u64 = 1_000;
    let config = ServeConfig::builder().workers(2).build().unwrap();
    let end = Service::run_with_methods(config, &ctx, &["C3SQL"], |handle| {
        std::thread::scope(|s| {
            for t in 0..2 {
                let corpus = &corpus;
                s.spawn(move || {
                    for i in 0..PER_THREAD as usize {
                        let sample = &corpus.dev[(i + t) % 8];
                        let _ = handle.query(request(sample, 0, "C3SQL"));
                    }
                });
            }
            s.spawn(|| loop {
                let snap = handle.metrics();
                assert!(snap.lost() >= 0, "lost() leaked a torn read: {snap:?}");
                if snap.completed + snap.failed + snap.deadline_exceeded == 2 * PER_THREAD {
                    return;
                }
                std::thread::yield_now();
            });
        });
        handle.metrics()
    });
    assert_eq!((end.submitted, end.completed), (2 * PER_THREAD, 2 * PER_THREAD));
    assert_eq!(end.lost(), 0);
}

/// The telemetry plane is strictly passive: outcomes and admission
/// counters are identical with it on and off.
#[test]
fn outcomes_identical_with_telemetry_on_and_off() {
    let corpus = corpus();
    let run = |telemetry: bool| {
        let ctx = EvalContext::new(&corpus);
        let config = ServeConfig::builder().workers(3).telemetry(telemetry).build().unwrap();
        Service::run_with_methods(config, &ctx, &["C3SQL", "DAILSQL"], |handle| {
            let outcomes: Vec<_> = corpus
                .dev
                .iter()
                .enumerate()
                .take(20)
                .map(|(i, sample)| {
                    let method = if i % 2 == 0 { "C3SQL" } else { "DAILSQL" };
                    match handle.query(request(sample, 0, method)) {
                        Ok(r) => Ok((r.ex, r.em, r.pred_sql, r.pred_work, r.exec_failure)),
                        Err(e) => Err(format!("{e}")),
                    }
                })
                .collect();
            let m = handle.metrics();
            (outcomes, m.submitted, m.completed, m.failed, m.exec_failures)
        })
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "telemetry recording must not influence outcomes");
}

/// The tracing + warehouse plane is strictly passive too: serve outcomes
/// AND a full eval run's persisted `EvalLog` rows are byte-identical with
/// both on and both off. The eval run races the serve traffic in each
/// configuration, so the pin also covers plane interference.
#[test]
fn outcomes_and_eval_logs_identical_with_tracing_and_warehouse_on_and_off() {
    let corpus = corpus();
    let run = |traced: bool| {
        let ctx = EvalContext::new(&corpus);
        let config = ServeConfig::builder()
            .workers(3)
            .request_tracing(traced)
            .warehouse(traced)
            .admin_addr("127.0.0.1:0".parse().expect("loopback addr"))
            .build()
            .unwrap();
        Service::run_with_methods(config, &ctx, &["C3SQL", "DAILSQL"], |handle| {
            let admin = handle.admin_addr().expect("admin bound");
            let (status, body) = serve::admin::http_post(
                admin,
                "/v1/evals/spider",
                "{\"method\":\"C3SQL\",\"subset\":8}",
            )
            .expect("eval submits");
            assert_eq!(status, 202, "{body}");
            let outcomes: Vec<_> = corpus
                .dev
                .iter()
                .enumerate()
                .take(20)
                .map(|(i, sample)| {
                    let method = if i % 2 == 0 { "C3SQL" } else { "DAILSQL" };
                    match handle.query(request(sample, 0, method)) {
                        Ok(r) => Ok((r.ex, r.em, r.pred_sql, r.pred_work, r.exec_failure)),
                        Err(e) => Err(format!("{e}")),
                    }
                })
                .collect();
            // wait for the racing eval run to persist its log
            let deadline = std::time::Instant::now() + Duration::from_secs(60);
            let completed = loop {
                let (status, body) =
                    serve::admin::http_get(admin, "/v1/evals/1").expect("eval status");
                assert_eq!(status, 200, "{body}");
                if body.contains("\"status\":\"completed\"") {
                    break true;
                }
                if body.contains("\"status\":\"failed\"") || std::time::Instant::now() > deadline
                {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert!(completed, "eval run never completed");
            // the persisted EvalLog, rendered byte-for-byte
            let rows = handle
                .store_sql(
                    "SELECT run_id, sample_id, variant, db_id, ex, em, pred_sql, \
                     exec_failure_label FROM eval_results ORDER BY sample_id, variant",
                )
                .expect("eval_results query");
            let rendered =
                serde_json::to_string(&serve::http::result_set_json(&rows)).expect("renders");
            let m = handle.metrics();
            (outcomes, rendered, m.submitted, m.completed, m.failed)
        })
    };
    let on = run(true);
    let off = run(false);
    assert_eq!(on, off, "tracing + warehouse must be strictly passive");
}
