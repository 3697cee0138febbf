//! The [`MetricsSnapshot`] a [`crate::ServiceHandle`] reports.
//!
//! It holds no state of its own: it is read off the service registry's
//! cells (see `telemetry`), the same cells `/metrics` renders. Quantiles
//! come from [`obs::AtomicHistogram`]s on the one bucket table the obs
//! recorder and every exported histogram use.

use std::time::Duration;

/// Point-in-time metrics view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted: queued for a worker, or answered at admission
    /// as an unknown method or question.
    pub submitted: u64,
    /// Successful responses.
    pub completed: u64,
    /// Admission rejections.
    pub rejected_overloaded: u64,
    /// Deadline drops.
    pub deadline_exceeded: u64,
    /// Other errors.
    pub failed: u64,
    /// Statically-invalid SQL rejections (subset of `failed`).
    pub static_rejected: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when no lookups.
    pub cache_hit_rate: f64,
    /// Mean same-method batch size.
    pub mean_batch_size: f64,
    /// Median submit-to-response latency over every reply a worker sent
    /// (ok, deadline-exceeded, refused, static-rejected); `None` before
    /// the first one.
    pub p50: Option<Duration>,
    /// 95th percentile latency.
    pub p95: Option<Duration>,
    /// 99th percentile latency.
    pub p99: Option<Duration>,
    /// Median queue wait (enqueue → worker pickup).
    pub queue_p50: Option<Duration>,
    /// 95th percentile queue wait.
    pub queue_p95: Option<Duration>,
    /// 99th percentile queue wait.
    pub queue_p99: Option<Duration>,
    /// Median execution time (pickup → response).
    pub exec_p50: Option<Duration>,
    /// 95th percentile execution time.
    pub exec_p95: Option<Duration>,
    /// 99th percentile execution time.
    pub exec_p99: Option<Duration>,
    /// Execution-failure counts by kind (only kinds seen at least once) —
    /// previously tallied internally but dropped from the snapshot, which
    /// lost the failure *mode* breakdown the per-request
    /// [`crate::QueryResponse::exec_failure`] field records.
    pub exec_failures: Vec<(nl2sql360::ExecFailureKind, u64)>,
}

impl MetricsSnapshot {
    /// Requests that entered the system but got no reply of any kind.
    /// Zero once the service has drained.
    ///
    /// Counters are loaded one by one with relaxed ordering while workers
    /// keep recording, so a snapshot can read `submitted` *before* a
    /// request is admitted yet read `completed` *after* that same request
    /// finished — making the raw difference transiently negative. That
    /// transient says nothing about lost requests, so it is clamped to 0;
    /// a genuinely lost request shows up as a *stable* positive value
    /// after drain.
    pub fn lost(&self) -> i64 {
        (self.submitted as i64
            - self.completed as i64
            - self.deadline_exceeded as i64
            - self.failed as i64)
            .max(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;
    use obs::AtomicHistogram;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = AtomicHistogram::default();
        for us in [10u64, 20, 30, 40, 50, 1000, 2000, 4000, 100_000, 200_000] {
            h.record_duration(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_duration(0.5).unwrap();
        assert!(p50 >= Duration::from_micros(32) && p50 <= Duration::from_micros(128), "{p50:?}");
        let p99 = h.quantile_duration(0.99).unwrap();
        assert!(p99 >= Duration::from_micros(100_000), "{p99:?}");
        assert!(h.quantile_duration(0.0).is_some());
        assert_eq!(AtomicHistogram::default().quantile_duration(0.5), None);
    }

    #[test]
    fn snapshot_derives_rates() {
        let t = Telemetry::new(&["a", "b"], &crate::ServeConfig::default());
        t.admitted.add(3);
        t.per_method[0].ok.inc();
        t.per_method[1].ok.inc();
        t.unknown_method.inc();
        t.cache_hit.inc();
        t.cache_miss.inc();
        t.batch_size.record(2);
        t.per_method[0].latency.record(10);
        t.per_method[1].latency.record(1000);
        let s = t.snapshot();
        assert_eq!((s.submitted, s.completed, s.failed), (3, 2, 1));
        assert_eq!(s.cache_hit_rate, 0.5);
        assert_eq!(s.mean_batch_size, 2.0);
        assert_eq!(s.lost(), 0);
        // the per-method histograms merge: one sample in each half
        assert_eq!(s.p50, Some(Duration::from_micros(15)));
        assert_eq!(s.p99, Some(Duration::from_micros(1023)));
    }

    #[test]
    fn lost_is_clamped_against_torn_reads() {
        // A snapshot whose counter loads interleaved badly with recording:
        // completed already includes a request submitted "after" the
        // submitted load. The raw difference is negative; lost() is not.
        let s = MetricsSnapshot { submitted: 5, completed: 6, ..MetricsSnapshot::default() };
        assert_eq!(s.lost(), 0);
    }
}
