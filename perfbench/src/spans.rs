//! The benchmark's own span recorder. Spans are taken only around
//! calls the benchmark makes into the repository's crates, kept in
//! memory, and written out once at the end as a Chrome trace through
//! `desc_telemetry::chrome_trace`. A disabled recorder records nothing.

use desc_telemetry::Span;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded span, at nanosecond resolution (a cache key takes a
/// few microseconds, so µs spans would read the same on every run).
struct Rec {
    name: &'static str,
    label: String,
    worker: u32,
    start: Duration,
    duration: Duration,
}

/// In-memory spans on one timebase.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Rec>>,
}

impl Recorder {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Records a span of `duration` that started at `start`.
    pub fn record(&self, name: &'static str, label: &str, start: Instant, duration: Duration) {
        if !self.enabled {
            return;
        }
        let rec = Rec {
            name,
            label: label.to_owned(),
            worker: desc_telemetry::current_worker(),
            start: start.saturating_duration_since(self.epoch),
            duration,
        };
        self.spans.lock().expect("span list poisoned").push(rec);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, label, start, start.elapsed());
        out
    }

    /// Durations in ms of every span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .collect()
    }

    /// Durations in ms of the spans named `name` whose label is `label`.
    pub fn durations_ms_labeled(&self, name: &str, label: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name && s.label == label)
            .map(|s| s.duration.as_secs_f64() * 1e3)
            .collect()
    }

    /// Writes every span as a Chrome trace-event document.
    pub fn write_chrome(&self, process: &str, path: &std::path::Path) -> std::io::Result<()> {
        let spans: Vec<Span> = self
            .spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .map(|r| Span {
                name: r.name,
                label: r.label.clone(),
                ctx: String::new(),
                worker: r.worker,
                start_us: r.start.as_micros() as u64,
                duration_us: r.duration.as_micros() as u64,
            })
            .collect();
        let doc = desc_telemetry::chrome_trace(process, &desc_telemetry::worker_names(), &spans);
        std::fs::write(path, doc.to_pretty())
    }
}
