//! Spans of a traced run, and the self-time arithmetic over them.
//!
//! Eval spans come from the program's own `obs` recorder: the spans the
//! layers record inside their calls plus the ones the benchmark opens
//! around each public call it makes, all under one trace per dev sample so
//! every span knows its parent. Serve spans are built by the benchmark, one
//! per request, from the times its clients took. Either way spans stay in
//! memory while the workload runs and are written out once it ends.

use std::collections::HashMap;
use std::io::Write;

/// One timed call. Times are seconds since the `obs` recorder's epoch
/// (eval) or since the measured phase began (serve).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    /// Dev sample (eval) or client request index (serve).
    pub item: usize,
    /// Workload-specific attribute: work units of a minidb call (`u64::MAX`
    /// when it failed), the engine-reported latency in microseconds of a
    /// served request.
    pub attr: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// The traced spans of an `obs` snapshot (those recorded under a trace
/// context), each linked to its parent by the recorder's span ids. `item`
/// is the trace id minus one; `attr` is the span's attribute named `attr`,
/// if any; `rename` may replace a span's name from its attributes.
pub fn from_obs(
    events: &[obs::SpanEvent],
    attr: &str,
    rename: impl Fn(&obs::SpanEvent) -> Option<&'static str>,
) -> Vec<Span> {
    let traced: Vec<&obs::SpanEvent> = events.iter().filter(|e| e.trace_id != 0).collect();
    let index: HashMap<u64, usize> = traced.iter().enumerate().map(|(i, e)| (e.span_id, i)).collect();
    traced
        .iter()
        .map(|e| Span {
            name: rename(e).unwrap_or(e.name),
            start: e.start_us as f64 / 1e6,
            end: (e.start_us + e.dur_us) as f64 / 1e6,
            parent: index.get(&e.parent_id).copied(),
            item: (e.trace_id - 1) as usize,
            attr: e.attrs.iter().find(|(k, _)| *k == attr).map_or(0, |(_, v)| *v),
        })
        .collect()
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"item\":{},\"attr\":{}}}",
            s.name, s.start, s.end, s.item, s.attr
        )?;
    }
    out.flush()
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are merged first, and a
/// child is clipped to its parent, so self time is never negative.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(parent.start), spans[k].end.min(parent.end)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut current: Option<(f64, f64)> = None;
            for (a, b) in intervals {
                match current {
                    Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        current = Some((a, b));
                    }
                    None => current = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = current {
                covered += cb - ca;
            }
            (parent.secs() - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, item: 0, attr: 0 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("b.inner", 5.0, 6.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![4.0, 2.0, 3.0, 1.0]);
        // self times of a tree sum to the root's duration
        assert_eq!(t.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("x", 2.0, 6.0, Some(0)),
            span("y", 4.0, 7.0, Some(0)),
            span("z", 9.0, 12.0, Some(0)),
        ];
        // covered: [2,7] + [9,10] = 6
        assert_eq!(self_times(&spans)[0], 4.0);
        let nested_beyond = vec![span("p", 0.0, 1.0, None), span("c", 0.0, 5.0, Some(0))];
        assert_eq!(self_times(&nested_beyond)[0], 0.0);
    }

    #[test]
    fn obs_spans_link_to_their_parents() {
        let (on, _lock) = crate::record();
        for trace in [1, 2] {
            let _ctx = obs::with_ctx(obs::TraceCtx { trace_id: trace, span_id: 0 });
            let _root = obs::span("root");
            let mut child = obs::span("child");
            child.attr("attr", 7);
            drop(child);
        }
        let _untraced = obs::span("untraced");
        drop(_untraced);
        drop(on);
        let spans = from_obs(&obs::snapshot().events, "attr", |e| (e.name == "child").then_some("renamed"));
        assert_eq!(spans.len(), 4);
        for s in &spans {
            match s.name {
                "root" => assert_eq!((s.parent, s.attr), (None, 0)),
                "renamed" => {
                    let p = &spans[s.parent.expect("child has a parent")];
                    assert_eq!((p.name, p.item, s.attr), ("root", s.item, 7));
                    assert!(p.start <= s.start);
                }
                other => panic!("unexpected span {other}"),
            }
        }
        assert_eq!(spans.iter().map(|s| s.item).collect::<std::collections::BTreeSet<_>>().len(), 2);
    }
}
