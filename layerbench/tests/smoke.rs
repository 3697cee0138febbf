//! Tiny-corpus smoke runs of every workload: each run is correct, emits
//! exactly the metric names `BENCHMARK.json` declares, and leaves absent
//! exactly the layers the workload does not reach.

use layerbench::{render, run, stats, Params, Scale, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> (serde::Value, serde::Value) {
    let params = Params { workload, seed: 7, seconds: 0.5, trace, scale: Scale::smoke() };
    let out = run(&params);
    let (report, result) = render(&params, &out);
    let report: serde::Value = serde_json::from_str(&report).expect("report line is JSON");
    let result: serde::Value = serde_json::from_str(&result).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&serde::Value::Bool(true)), "{workload:?}: {report:?}");
    assert_eq!(result.get("failed"), Some(&serde::Value::Int(0)), "{workload:?}");
    (report.get("report").cloned().expect("report object"), result)
}

fn names(result: &serde::Value) -> Vec<String> {
    match result.get("metrics") {
        Some(serde::Value::Map(m)) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("metrics is not an object: {other:?}"),
    }
}

fn strings(v: Option<&serde::Value>) -> Vec<String> {
    match v {
        Some(serde::Value::Array(items)) => items
            .iter()
            .map(|i| match i {
                serde::Value::Str(s) => s.clone(),
                other => panic!("not a string: {other:?}"),
            })
            .collect(),
        other => panic!("not an array: {other:?}"),
    }
}

fn metric(result: &serde::Value, name: &str) -> f64 {
    match result.get("metrics").and_then(|m| m.get(name)).and_then(|m| m.get("value")) {
        Some(serde::Value::Float(f)) => *f,
        Some(serde::Value::Int(i)) => *i as f64,
        other => panic!("{name}: {other:?}"),
    }
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let json: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        match json.get(key) {
            Some(serde::Value::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |f: &str| match m.get(f) {
                        Some(serde::Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{f}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = match json.get("workloads") {
        Some(serde::Value::Array(items)) => items
            .iter()
            .map(|w| match w.get("name") {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("workload name: {other:?}"),
            })
            .collect(),
        other => panic!("workloads: {other:?}"),
    };
    for w in &workloads {
        assert!(Workload::parse(w).is_some(), "BENCHMARK.json workload {w} is not runnable");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(stats::valid_name(name), "{name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
    }
}

#[test]
fn eval_workloads_emit_every_metric() {
    for w in [Workload::EvalSpiderFewshot, Workload::EvalBirdExec] {
        let (_, result) = smoke(w, false);
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&result), want);
        for (n, _) in END_TO_END {
            assert!(metric(&result, n) > 0.0, "{w:?} {n} must be nonzero");
        }

        let (report, traced) = smoke(w, true);
        let want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&traced), want);
        let absent = strings(report.get("absent"));
        assert!(
            absent
                .iter()
                .all(|n| n.starts_with("serve.") || n.starts_with("http.") || n.starts_with("cluster.")),
            "{w:?} absent {absent:?}"
        );
        assert!(metric(&traced, "modelzoo.translate_s") > 0.0);
        assert!(
            metric(&traced, "minidb.calls.interpreter")
                + metric(&traced, "minidb.calls.rowwise")
                + metric(&traced, "minidb.calls.columnar")
                > 0.0
        );
        assert_eq!(
            metric(&traced, "minidb.calls.compiled"),
            metric(&traced, "minidb.calls.rowwise") + metric(&traced, "minidb.calls.columnar")
        );
        let few_shot = metric(&traced, "modelzoo.few_shot.calls");
        match w {
            // SuperSQL selects similar examples; SFT CodeS-7B builds no prompt.
            Workload::EvalSpiderFewshot => assert!(few_shot > 0.0),
            _ => assert_eq!(few_shot, 0.0),
        }
    }
}

#[test]
fn serve_workloads_emit_every_metric_and_agree_on_outcomes() {
    let mut digests = Vec::new();
    for w in [Workload::ServeHttp, Workload::ServeCluster] {
        let (report, result) = smoke(w, false);
        let want: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&result), want);
        for (n, _) in END_TO_END {
            assert!(metric(&result, n) > 0.0, "{w:?} {n} must be nonzero");
        }
        digests.push(report.get("digests").and_then(|d| d.get("nl_outcomes")).cloned());

        let (report, traced) = smoke(w, true);
        let want: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names(&traced), want);
        let absent = strings(report.get("absent"));
        let (own, other) = match w {
            Workload::ServeHttp => ("http.", "cluster."),
            _ => ("cluster.", "http."),
        };
        assert!(absent.iter().any(|n| n.starts_with(other)), "{w:?}: {other} rows must be absent");
        assert!(
            absent.iter().all(|n| !n.starts_with(own) && !n.starts_with("serve.")),
            "{w:?}: {own} rows must be present, absent {absent:?}"
        );
        assert!(metric(&traced, "serve.cache_lookups") > 0.0);
        // one measured phase: nothing untraced to compare the traced one with
        assert!(absent.iter().any(|n| n == "trace.overhead_pct"), "{w:?}");
        // the engine's translator and minidb spans come from the program's recorder
        assert!(metric(&traced, "modelzoo.translate_s") > 0.0, "{w:?}");
        assert!(
            metric(&traced, "minidb.calls.compiled") + metric(&traced, "minidb.calls.interpreter") > 0.0,
            "{w:?}"
        );
    }
    // Same seed, same NL stream: the digested outcomes agree across the
    // HTTP front end and the scheduler hop.
    assert!(digests[0].is_some());
    assert_eq!(digests[0], digests[1]);
}
