//! Chrome trace-event export: renders drained [`Span`]s as a JSON
//! document loadable by Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`, with **one lane per worker thread**.
//!
//! The format is the Trace Event Format's JSON-object flavour: a
//! `traceEvents` array of complete (`"ph": "X"`) events — one per
//! span, `ts`/`dur` in microseconds on the process's monotonic
//! timebase — preceded by metadata (`"ph": "M"`) events naming the
//! process and each worker lane. Lane ids are the spans' stable
//! [`Span::worker`] ordinals, so the same thread always renders in the
//! same row and `pool_utilization` worker entries in the run report
//! line up with what the timeline shows.
//!
//! `repro --trace out.json` and `bench_pipeline --trace out.json`
//! write this format; `docs/TELEMETRY.md` walks through loading it.

use crate::json::Json;
use crate::trace::Span;
use std::path::Path;

/// Builds the Chrome trace-event document for `spans`.
///
/// `process_name` labels the single process row (e.g. `"repro"`).
/// `worker_names` maps worker ordinals to lane names (pass
/// [`crate::worker_names()`]); ordinals past its end fall back to
/// `thread-<n>`.
#[must_use]
pub fn chrome_trace(process_name: &str, worker_names: &[String], spans: &[Span]) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + worker_names.len() + 1);
    events.push(meta_event("process_name", 0, process_name));

    // One named lane per worker that appears in the span set (plus a
    // sort index so lanes render in ordinal order).
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.worker).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for &w in &lanes {
        let fallback;
        let name = match worker_names.get(w as usize) {
            Some(n) => n.as_str(),
            None => {
                fallback = format!("thread-{w}");
                &fallback
            }
        };
        events.push(meta_event("thread_name", w, name));
        events.push(
            Json::obj()
                .with("name", Json::Str("thread_sort_index".to_owned()))
                .with("ph", Json::Str("M".to_owned()))
                .with("pid", Json::UInt(0))
                .with("tid", Json::UInt(u64::from(w)))
                .with("args", Json::obj().with("sort_index", Json::UInt(u64::from(w)))),
        );
    }

    for s in spans {
        let name = if s.label.is_empty() { s.name.to_owned() } else { s.label.clone() };
        let mut args = Json::obj().with("family", Json::Str(s.name.to_owned()));
        if !s.ctx.is_empty() {
            args = args.with("ctx", Json::Str(s.ctx.clone()));
        }
        events.push(
            Json::obj()
                .with("name", Json::Str(name))
                .with("cat", Json::Str(s.name.to_owned()))
                .with("ph", Json::Str("X".to_owned()))
                .with("ts", Json::UInt(s.start_us))
                .with("dur", Json::UInt(s.duration_us))
                .with("pid", Json::UInt(0))
                .with("tid", Json::UInt(u64::from(s.worker)))
                .with("args", args),
        );
    }

    Json::obj()
        .with("traceEvents", Json::Arr(events))
        .with("displayTimeUnit", Json::Str("ms".to_owned()))
}

fn meta_event(kind: &str, tid: u32, name: &str) -> Json {
    Json::obj()
        .with("name", Json::Str(kind.to_owned()))
        .with("ph", Json::Str("M".to_owned()))
        .with("pid", Json::UInt(0))
        .with("tid", Json::UInt(u64::from(tid)))
        .with("args", Json::obj().with("name", Json::Str(name.to_owned())))
}

/// Serializes [`chrome_trace`] for `spans` (with the process-global
/// worker names) and writes it to `path`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_chrome_trace(path: &Path, process_name: &str, spans: &[Span]) -> std::io::Result<()> {
    let doc = chrome_trace(process_name, &crate::worker_names(), spans);
    std::fs::write(path, doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(worker: u32, label: &str, start: u64) -> Span {
        Span {
            name: "cell",
            label: label.to_owned(),
            ctx: "fig16".to_owned(),
            worker,
            start_us: start,
            duration_us: 10,
        }
    }

    #[test]
    fn trace_has_lane_metadata_and_one_event_per_span() {
        let names = vec!["main".to_owned(), "desc-exec-0".to_owned()];
        let spans = vec![sample(0, "a/b", 5), sample(1, "c/d", 7), sample(1, "e/f", 9)];
        let doc = chrome_trace("repro", &names, &spans);
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let xs: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 3);
        // Every X event's lane has a thread_name metadata event.
        for x in &xs {
            let tid = x.get("tid").and_then(Json::as_u64).expect("tid");
            assert!(events.iter().any(|e| {
                e.get("ph").and_then(Json::as_str) == Some("M")
                    && e.get("name").and_then(Json::as_str) == Some("thread_name")
                    && e.get("tid").and_then(Json::as_u64) == Some(tid)
            }));
        }
        // Labels become event names; family and ctx land in args.
        assert_eq!(xs[0].get("name").and_then(Json::as_str), Some("a/b"));
        let args = xs[0].get("args").expect("args");
        assert_eq!(args.get("family").and_then(Json::as_str), Some("cell"));
        assert_eq!(args.get("ctx").and_then(Json::as_str), Some("fig16"));
        // The document round-trips through the in-tree parser.
        let text = doc.to_pretty();
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn unknown_worker_gets_fallback_lane_name() {
        let doc = chrome_trace("t", &[], &[sample(7, "x", 1)]);
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        assert!(events.iter().any(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("args").and_then(|a| a.get("name")).and_then(Json::as_str)
                    == Some("thread-7")
        }));
    }
}
