//! Concurrency guarantees of the serve subsystem:
//!
//! * outcome determinism — EX/EM/pred_sql per request are identical under
//!   1 worker and N workers (scheduling, batching, and cache timing never
//!   leak into outcomes);
//! * admission control — a saturated queue rejects deterministically with
//!   `Overloaded` and never blocks the submitter;
//! * deadlines — a request stuck behind a slow one is dropped with
//!   `DeadlineExceeded` once its budget passes;
//! * drain — releasing a wedged service answers every admitted request.

mod common;

use common::{request, GateModel};
use datagen::{generate_corpus, CorpusConfig, CorpusKind};
use modelzoo::Nl2SqlModel;
use nl2sql360::EvalContext;
use serve::{QueryError, ServeConfig, Service};
use std::time::Duration;

/// (ex, em, pred_sql) per request — the outcome fields that must not
/// depend on concurrency. Errors map to their variant name.
type Outcome = Result<(bool, bool, String), String>;

fn run_fleet(corpus: &datagen::Corpus, workers: usize) -> Vec<Outcome> {
    let ctx = EvalContext::new(corpus);
    let config = ServeConfig {
        workers,
        queue_capacity: 4096, // no admission rejects: all requests admitted
        ..ServeConfig::default()
    };
    Service::run_with_methods(config, &ctx, &["C3SQL", "DAILSQL", "SuperSQL"], |handle| {
        let methods = ["C3SQL", "DAILSQL", "SuperSQL"];
        let mut tickets = Vec::new();
        for (i, sample) in corpus.dev.iter().enumerate() {
            for variant in 0..sample.variants.len() {
                let method = methods[(i + variant) % methods.len()];
                tickets.push(
                    handle.submit(request(sample, variant, method)).expect("queue never full"),
                );
            }
        }
        tickets
            .into_iter()
            .map(|t| match t.wait() {
                Ok(resp) => Ok((resp.ex, resp.em, resp.pred_sql)),
                Err(e) => Err(format!("{e}")),
            })
            .collect()
    })
}

#[test]
fn outcomes_identical_for_one_and_many_workers() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let serial = run_fleet(&corpus, 1);
    let concurrent = run_fleet(&corpus, 4);
    assert_eq!(serial.len(), concurrent.len());
    assert!(!serial.is_empty());
    for (i, (a, b)) in serial.iter().zip(&concurrent).enumerate() {
        assert_eq!(a, b, "request {i} diverged between 1 and 4 workers");
    }
    // and re-running the same config reproduces itself exactly
    assert_eq!(serial, run_fleet(&corpus, 1));
}

#[test]
fn saturated_queue_rejects_overloaded_without_blocking() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (gate, started_rx) = GateModel::new();
    let config = ServeConfig { workers: 1, queue_capacity: 2, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> = vec![Box::new(gate.clone())];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        // first request occupies the single worker...
        let t1 = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker picked up request");
        // ...two more fill the queue to capacity...
        let t2 = handle.submit(request(sample, 0, "Gate")).expect("fits in queue");
        let t3 = handle.submit(request(sample, 0, "Gate")).expect("fits in queue");
        assert_eq!(handle.queue_len(), 2);
        // ...so the next submit is rejected immediately, not blocked.
        match handle.submit(request(sample, 0, "Gate")) {
            Err(QueryError::Overloaded) => {}
            other => panic!("expected Overloaded, got {:?}", other.map(|_| "ticket")),
        }
        assert_eq!(handle.metrics().rejected_overloaded, 1);

        // release everything; all admitted requests resolve.
        gate.release(3);
        for t in [t1, t2, t3] {
            assert!(matches!(t.wait(), Err(QueryError::TranslationRefused)));
        }
        let m = handle.metrics();
        assert_eq!(m.submitted, 3);
        assert_eq!(m.failed, 3);
        assert_eq!(m.lost(), 0);
    });
}

#[test]
fn queued_requests_past_their_deadline_are_dropped() {
    let corpus = generate_corpus(CorpusKind::Spider, &CorpusConfig::tiny(5));
    let ctx = EvalContext::new(&corpus);
    let (gate, started_rx) = GateModel::new();
    let config = ServeConfig { workers: 1, queue_capacity: 16, ..ServeConfig::default() };
    let models: Vec<Box<dyn Nl2SqlModel>> =
        vec![Box::new(gate.clone()), Box::new(modelzoo::SimulatedModel::new(
            modelzoo::method_by_name("C3SQL").unwrap(),
        ))];
    Service::run(config, &ctx, models, |handle| {
        let sample = &corpus.dev[0];
        // wedge the worker
        let blocker = handle.submit(request(sample, 0, "Gate")).expect("admitted");
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker wedged");
        // a zero-budget request queued behind it must expire, a generous
        // one must survive
        let mut doomed = request(sample, 0, "C3SQL");
        doomed.deadline = Some(Duration::ZERO);
        let doomed = handle.submit(doomed).expect("admitted");
        let mut patient = request(sample, 1, "C3SQL");
        patient.deadline = Some(Duration::from_secs(60));
        let patient = handle.submit(patient).expect("admitted");

        gate.release(1);
        assert!(matches!(blocker.wait(), Err(QueryError::TranslationRefused)));
        assert!(matches!(doomed.wait(), Err(QueryError::DeadlineExceeded)));
        assert!(patient.wait().is_ok(), "in-budget request must be served");
        let m = handle.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.completed, 1);
        assert_eq!(m.lost(), 0);
    });
}
