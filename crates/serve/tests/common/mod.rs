//! Helpers shared by the serve integration tests.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use datagen::Sample;
use modelzoo::{Nl2SqlModel, Prediction, TranslationTask};
use serve::QueryRequest;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// An untraced, deadline-free request for one question variant.
pub fn request(sample: &Sample, variant: usize, method: &str) -> QueryRequest {
    QueryRequest {
        method: method.to_string(),
        db_id: sample.db_id.clone(),
        question: sample.variants[variant].clone(),
        deadline: None,
        trace: None,
    }
}

/// A model named `Gate` whose `translate` announces itself, blocks until
/// released, then declines the task — lets a test wedge a worker and
/// observe queue behavior deterministically. Clones share one gate: hand
/// one to the service and keep one to release it.
#[derive(Clone)]
pub struct GateModel(Arc<Gate>);

struct Gate {
    /// Unbounded, so a test funnelling many requests through the gate
    /// never wedges the worker on `send`.
    started: mpsc::Sender<()>,
    permits: Mutex<usize>,
    released: Condvar,
}

impl GateModel {
    /// The gate (closed) and the receiver of its start signals.
    pub fn new() -> (GateModel, mpsc::Receiver<()>) {
        let (started, rx) = mpsc::channel();
        let gate = Gate { started, permits: Mutex::new(0), released: Condvar::new() };
        (GateModel(Arc::new(gate)), rx)
    }

    /// Allow `n` further `translate` calls to proceed.
    pub fn release(&self, n: usize) {
        *self.0.permits.lock().unwrap() += n;
        self.0.released.notify_all();
    }
}

impl Nl2SqlModel for GateModel {
    fn name(&self) -> &str {
        "Gate"
    }

    fn translate(&self, _task: &TranslationTask<'_>) -> Option<Prediction> {
        let _ = self.0.started.send(());
        let mut permits = self.0.permits.lock().unwrap();
        while *permits == 0 {
            permits = self.0.released.wait(permits).unwrap();
        }
        *permits -= 1;
        None
    }
}

/// A model named `Refuser` that declines every task at once.
pub struct Refuser;

impl Nl2SqlModel for Refuser {
    fn name(&self) -> &str {
        "Refuser"
    }

    fn translate(&self, _task: &TranslationTask<'_>) -> Option<Prediction> {
        None
    }
}
