//! The service's labeled telemetry plane: registry families keyed by
//! method and failure kind, the sliding-window ring, and the slow-query
//! log, built once at service start so the request hot path only touches
//! pre-registered lock-free cells.
//!
//! The registry cells are the service's one counter set: `/metrics`
//! renders them and [`Telemetry::snapshot`] sums them into the
//! [`MetricsSnapshot`] that `ServiceHandle::metrics` returns, so both
//! report the same numbers.

use crate::metrics::MetricsSnapshot;
use crate::slowlog::SlowLog;
use crate::window::{WindowRing, WindowReport};
use crate::ServeConfig;
use nl2sql360::ExecFailureKind;
use obs::{bucket_upper_bound, Counter, Gauge, HistSnapshot, Histogram, Registry, HIST_BUCKETS};
use std::fmt::Write as _;
use std::time::Duration;

/// The windows exported on `/metrics` (label value, width). Longer
/// windows clamp to the ring's coverage at scrape time.
const EXPORTED_WINDOWS: [(&str, Duration); 3] = [
    ("1s", Duration::from_secs(1)),
    ("10s", Duration::from_secs(10)),
    ("60s", Duration::from_secs(60)),
];

/// Pre-registered cells for one served method.
pub(crate) struct MethodCells {
    /// `serve_requests_total{method=...}` — requests a worker picked up.
    pub requests: Counter,
    /// `serve_responses_total{method,outcome="ok"}`.
    pub ok: Counter,
    /// `outcome="deadline_exceeded"`.
    pub deadline: Counter,
    /// `outcome="refused"`.
    pub refused: Counter,
    /// `outcome="static_rejected"`.
    pub static_rejected: Counter,
    /// `serve_latency_us{method=...}` — submit-to-response.
    pub latency: Histogram,
    /// `serve_exec_us{method=...}` — worker pickup-to-response.
    pub exec: Histogram,
}

/// All live-telemetry state; one instance per running service.
pub(crate) struct Telemetry {
    /// Feeds the window ring and the slow log. The registry cells record
    /// either way; switching this off measures the windows' and the slow
    /// log's own overhead and pins that outcomes never depend on them.
    pub enabled: bool,
    pub registry: Registry,
    /// Indexed like `Inner::models`.
    pub per_method: Vec<MethodCells>,
    /// Indexed by `ExecFailureKind as usize`.
    pub exec_failures: Vec<Counter>,
    /// Indexed by `sqlcheck::Rule as usize` (registry declaration order).
    pub static_rejects: Vec<Counter>,
    pub cache_hit: Counter,
    pub cache_miss: Counter,
    /// `serve_admitted_total` — queued for a worker, or answered at
    /// admission as an unknown method or question.
    pub admitted: Counter,
    pub rejected_overloaded: Counter,
    pub unknown_method: Counter,
    pub unknown_question: Counter,
    pub queue_wait: Histogram,
    /// `serve_batch_size` — requests per worker dequeue round.
    pub batch_size: Histogram,
    pub queue_depth: Gauge,
    pub ready: Gauge,
    pub windows: WindowRing,
    pub slow: SlowLog,
}

/// Prometheus-safe form of an [`ExecFailureKind`] label.
pub(crate) fn kind_label(kind: ExecFailureKind) -> String {
    kind.label().replace(' ', "_")
}

impl Telemetry {
    pub(crate) fn new(method_names: &[&str], config: &ServeConfig) -> Telemetry {
        let registry = Registry::new();
        let requests = registry.counter_vec(
            "serve_requests_total",
            "Requests picked up by a worker, by method.",
            &["method"],
        );
        let responses = registry.counter_vec(
            "serve_responses_total",
            "Worker-answered requests by method and outcome.",
            &["method", "outcome"],
        );
        let latency = registry.histogram_vec(
            "serve_latency_us",
            "Submit-to-response latency in microseconds, by method.",
            &["method"],
        );
        let exec = registry.histogram_vec(
            "serve_exec_us",
            "Worker processing time (translate+execute+compare) in microseconds, by method.",
            &["method"],
        );
        let per_method = method_names
            .iter()
            .map(|m| MethodCells {
                requests: requests.with(&[m]),
                ok: responses.with(&[m, "ok"]),
                deadline: responses.with(&[m, "deadline_exceeded"]),
                refused: responses.with(&[m, "refused"]),
                static_rejected: responses.with(&[m, "static_rejected"]),
                latency: latency.with(&[m]),
                exec: exec.with(&[m]),
            })
            .collect();
        let failures = registry.counter_vec(
            "serve_exec_failures_total",
            "Execution failures by minidb error kind.",
            &["kind"],
        );
        let exec_failures = ExecFailureKind::ALL
            .iter()
            .map(|&k| failures.with(&[&kind_label(k)]))
            .collect();
        let statics = registry.counter_vec(
            "serve_static_rejects_total",
            "Static-check admission rejections by diagnostic rule.",
            &["rule"],
        );
        let static_rejects = sqlcheck::Rule::ALL.iter().map(|r| statics.with(&[r.id()])).collect();
        let cache = registry.counter_vec(
            "serve_cache_requests_total",
            "Execution-cache lookups by result.",
            &["result"],
        );
        let rejects = registry.counter_vec(
            "serve_admission_rejects_total",
            "Requests answered without reaching a worker, by reason.",
            &["reason"],
        );
        Telemetry {
            enabled: config.telemetry,
            per_method,
            exec_failures,
            static_rejects,
            cache_hit: cache.with(&["hit"]),
            cache_miss: cache.with(&["miss"]),
            admitted: registry
                .counter_vec(
                    "serve_admitted_total",
                    "Requests admitted: queued for a worker or answered as unknown at admission.",
                    &[],
                )
                .with(&[]),
            rejected_overloaded: rejects.with(&["overloaded"]),
            unknown_method: rejects.with(&["unknown_method"]),
            unknown_question: rejects.with(&["unknown_question"]),
            queue_wait: registry
                .histogram_vec(
                    "serve_queue_wait_us",
                    "Time spent queued before worker pickup, in microseconds.",
                    &[],
                )
                .with(&[]),
            batch_size: registry
                .histogram_vec(
                    "serve_batch_size",
                    "Requests served per worker dequeue round (same-method micro-batch).",
                    &[],
                )
                .with(&[]),
            queue_depth: registry
                .gauge_vec("serve_queue_depth", "Requests currently queued.", &[])
                .with(&[]),
            ready: registry
                .gauge_vec(
                    "serve_ready",
                    "1 while the service accepts traffic, 0 while draining or saturated.",
                    &[],
                )
                .with(&[]),
            windows: WindowRing::new(config.window_bucket_ms, config.window_buckets),
            slow: SlowLog::new(config.slow_log_k, config.slow_log_rate_per_sec),
            registry,
        }
    }

    /// The [`MetricsSnapshot`] view of the cells: counts sum the
    /// per-method and per-reason counters, and latency quantiles come from
    /// the merged per-method histograms, which share one bucket table so
    /// the merge is exact. `submitted` is read last, after the outcomes
    /// it bounds.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let sum = |cell: fn(&MethodCells) -> &Counter| -> u64 {
            self.per_method.iter().map(|c| cell(c).get()).sum()
        };
        let merged = |cell: fn(&MethodCells) -> &Histogram| {
            let (mut buckets, mut sum) = ([0u64; HIST_BUCKETS], 0u64);
            for c in &self.per_method {
                cell(c).inner().accumulate(&mut buckets, &mut sum);
            }
            HistSnapshot { count: buckets.iter().sum(), buckets: buckets.to_vec(), sum }
        };
        let quantiles =
            |h: &HistSnapshot| [0.50, 0.95, 0.99].map(|q| h.quantile(q).map(Duration::from_micros));
        let [p50, p95, p99] = quantiles(&merged(|c| &c.latency));
        let [exec_p50, exec_p95, exec_p99] = quantiles(&merged(|c| &c.exec));
        let [queue_p50, queue_p95, queue_p99] = quantiles(&self.queue_wait.inner().snapshot());
        let static_rejected = sum(|c| &c.static_rejected);
        let completed = sum(|c| &c.ok);
        let deadline_exceeded = sum(|c| &c.deadline);
        let failed = sum(|c| &c.refused)
            + static_rejected
            + self.unknown_method.get()
            + self.unknown_question.get();
        let (cache_hits, cache_misses) = (self.cache_hit.get(), self.cache_miss.get());
        MetricsSnapshot {
            completed,
            rejected_overloaded: self.rejected_overloaded.get(),
            deadline_exceeded,
            failed,
            static_rejected,
            cache_hits,
            cache_misses,
            cache_hit_rate: if cache_hits + cache_misses == 0 {
                0.0
            } else {
                cache_hits as f64 / (cache_hits + cache_misses) as f64
            },
            mean_batch_size: self.batch_size.inner().snapshot().mean(),
            p50,
            p95,
            p99,
            queue_p50,
            queue_p95,
            queue_p99,
            exec_p50,
            exec_p95,
            exec_p99,
            exec_failures: ExecFailureKind::ALL
                .iter()
                .map(|&k| (k, self.exec_failures[k as usize].get()))
                .filter(|&(_, n)| n > 0)
                .collect(),
            submitted: self.admitted.get(),
        }
    }

    /// Windowed aggregate over the last `window` (clamped to ring
    /// coverage); `now` is service-relative.
    pub(crate) fn window_report(&self, now: Duration, window: Duration) -> WindowReport {
        self.windows.report(now, window)
    }

    /// The exposition body served on `/metrics`: the service registry
    /// (cumulative families), the sliding-window series as of `now`
    /// (service-relative), and the bridged global-recorder families (span
    /// data from the tracing layer, when the recorder is on).
    pub(crate) fn render_prometheus(&self, now: Duration) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str(&self.render_windows(now));
        let snap = obs::snapshot();
        if !snap.counters.is_empty() || !snap.histograms.is_empty() || !snap.events.is_empty() {
            out.push_str(&obs::registry::bridge_recorder(&snap).render_prometheus());
        }
        out
    }

    /// Hand-rendered windowed series, in the same exposition dialect the
    /// registry emits (`window` label values are fixed strings, so no
    /// escaping is needed).
    fn render_windows(&self, now: Duration) -> String {
        let mut out = String::new();
        out.push_str("# HELP serve_window_qps Finished requests per second over the window.\n");
        out.push_str("# TYPE serve_window_qps gauge\n");
        for (label, width) in EXPORTED_WINDOWS {
            let r = self.windows.report(now, width);
            let _ = writeln!(out, "serve_window_qps{{window=\"{label}\"}} {}", r.qps);
        }
        out.push_str(
            "# HELP serve_window_error_rate Fraction of windowed requests that errored.\n",
        );
        out.push_str("# TYPE serve_window_error_rate gauge\n");
        for (label, width) in EXPORTED_WINDOWS {
            let r = self.windows.report(now, width);
            let _ =
                writeln!(out, "serve_window_error_rate{{window=\"{label}\"}} {}", r.error_rate);
        }
        out.push_str(
            "# HELP serve_window_latency_us Windowed request latency in microseconds.\n",
        );
        out.push_str("# TYPE serve_window_latency_us histogram\n");
        for (label, width) in EXPORTED_WINDOWS {
            let snap = self.windows.histogram(now, width);
            let mut cum = 0u64;
            for (i, &n) in snap.buckets.iter().enumerate().take(HIST_BUCKETS) {
                cum += n;
                let le = if i + 1 == HIST_BUCKETS {
                    "+Inf".to_string()
                } else {
                    bucket_upper_bound(i).to_string()
                };
                let _ = writeln!(
                    out,
                    "serve_window_latency_us_bucket{{window=\"{label}\",le=\"{le}\"}} {cum}"
                );
            }
            let _ = writeln!(out, "serve_window_latency_us_sum{{window=\"{label}\"}} {}", snap.sum);
            let _ =
                writeln!(out, "serve_window_latency_us_count{{window=\"{label}\"}} {}", snap.count);
        }
        out
    }
}
