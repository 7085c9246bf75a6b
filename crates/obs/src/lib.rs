//! # calm-obs
//!
//! The observability layer: structured run tracing and metrics for every
//! evaluation path in the workspace. §4.3 of the paper characterizes the
//! coordination-free strategies by *observable run behavior* — message
//! volume of the broadcast vs. fact-absence vs. per-value request/OK
//! protocols, heartbeats, quiescence — and this crate records exactly
//! those per-transition/per-message quantities.
//!
//! Dependency-free by design (like `calm_common::rng`): no `tracing`, no
//! `serde`. Four primitives are threaded through the engine, the
//! transducer runtime and the coordination strategies: **spans** (named
//! durations on a `track` lane, one per node), **counters** (monotone
//! totals such as derivations and per-class message counts), **gauges**
//! (sampled levels such as queue depth) and **histograms**
//! ([`Pow2Histogram`] distributions of latencies and batch sizes).
//!
//! Everything funnels through a [`Sink`]. The disabled path is an
//! [`Obs::noop`] handle whose every operation is a single `Option`
//! branch — no clock reads, no formatting, no allocation — so
//! instrumented hot loops stay within noise of uninstrumented ones.
//! Four concrete sinks ship here:
//!
//! * [`JsonlSink`] — one JSON object per line, machine-readable;
//! * [`FlightRecorder`] — the last few thousand of those lines in a ring,
//!   dumped to a file when an anomaly event fires;
//! * [`ChromeTraceSink`] — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or Perfetto;
//! * [`ReportSink`] — an aggregating sink rendering a human-readable
//!   terminal run report.
//!
//! [`MultiSink`] fans one event stream out to several sinks, and
//! [`assemble`] builds the handle a command asked for.

#![warn(missing_docs)]

mod chrome;
mod flight;
mod histogram;
mod json;
mod jsonl;
mod record;
mod report;
pub mod trace;

pub use chrome::ChromeTraceSink;
pub use flight::FlightRecorder;
pub use histogram::Pow2Histogram;
pub use json::{parse_json, JsonValue};
pub use jsonl::JsonlSink;
pub use report::ReportSink;

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The one process-wide timestamp epoch. Every [`Obs`] handle measures
/// microseconds from this shared `Instant`, set on the first live handle
/// created in the process — so latency deltas computed *across* handles
/// (the sequential oracle vs a threaded run, or per-worker clones of one
/// handle on different threads) are on one timebase. A per-handle epoch
/// would make `deliver.ts - send.ts` meaningless whenever the two events
/// were stamped by handles created at different moments.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide epoch (initializing it if this is
/// the first reading).
#[inline]
fn epoch_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// A structured argument value attached to an [`Sink::event`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer.
    U64(u64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A list of strings (e.g. the facts newly output by a transition).
    List(Vec<String>),
}

/// Where observations go. All methods take `&self`: sinks are shared
/// (`Arc`) across the layers of a run and use interior mutability.
///
/// `cat` is a coarse subsystem label (`"eval"`, `"runtime"`,
/// `"strategy"`, ...); `name` identifies the series or span; `track` is a
/// display lane (0 for the engine, one per network node in the
/// simulator); timestamps are microseconds since the process-wide epoch
/// shared by every [`Obs`] handle.
pub trait Sink: Send + Sync {
    /// A completed span: `name` ran on `track` from `start_us` for
    /// `dur_us` microseconds.
    fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64);

    /// A point-in-time structured event with arguments.
    fn event(&self, cat: &str, name: &str, track: u32, ts_us: u64, args: &[(&str, ArgValue)]);

    /// Increment the counter `cat/name` by `delta`.
    fn counter(&self, cat: &str, name: &str, ts_us: u64, delta: u64);

    /// Record an instantaneous sampled value for the gauge `cat/name`.
    fn gauge(&self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64);

    /// Record one observation into the histogram `cat/name`.
    fn histogram(&self, cat: &str, name: &str, value: u64);

    /// Flush and close the sink (file sinks write their trailers here).
    /// Safe to call more than once.
    fn finish(&self) {}
}

/// The handle threaded through instrumented code: either a live sink or
/// a no-op. Cloning is cheap (an `Arc` bump); the no-op handle is a
/// `None` and every operation on it is one branch.
#[derive(Clone, Default)]
pub struct Obs {
    sink: Option<Arc<dyn Sink>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "Obs(live)"
        } else {
            "Obs(noop)"
        })
    }
}

impl Obs {
    /// The disabled handle: every operation compiles to an `Option`
    /// check. This is what un-traced callers pass.
    pub fn noop() -> Obs {
        Obs { sink: None }
    }

    /// A live handle feeding `sink`. Timestamps are measured from the
    /// process-wide epoch shared by every handle (set when the first live
    /// handle in the process is created), so events recorded through
    /// different handles — or clones of one handle on different worker
    /// threads — are directly comparable.
    pub fn new(sink: Arc<dyn Sink>) -> Obs {
        EPOCH.get_or_init(Instant::now);
        Obs { sink: Some(sink) }
    }

    /// Whether observations are being recorded. Callers computing
    /// expensive event payloads (e.g. per-transition output diffs) should
    /// guard on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Microseconds since the shared process-wide epoch (0 when
    /// disabled).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.sink.as_ref().map_or(0, |_| epoch_us())
    }

    /// Open a span on track 0. The name closure only runs when enabled.
    #[inline]
    pub fn span(&self, cat: &'static str, name: impl FnOnce() -> String) -> SpanGuard {
        self.span_on(cat, 0, name)
    }

    /// Open a span on an explicit track. Ends (and reports) on drop.
    #[inline]
    pub fn span_on(
        &self,
        cat: &'static str,
        track: u32,
        name: impl FnOnce() -> String,
    ) -> SpanGuard {
        let state = self.sink.as_ref().map(|sink| SpanState {
            sink: sink.clone(),
            cat,
            name: name(),
            track,
            start_us: epoch_us(),
        });
        SpanGuard { state }
    }

    /// Emit a structured event. The args closure only runs when enabled.
    #[inline]
    pub fn event(
        &self,
        cat: &'static str,
        name: &str,
        track: u32,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &self.sink {
            sink.event(cat, name, track, epoch_us(), &args());
        }
    }

    /// Increment a counter.
    #[inline]
    pub fn counter(&self, cat: &'static str, name: &str, delta: u64) {
        if let Some(sink) = &self.sink {
            sink.counter(cat, name, epoch_us(), delta);
        }
    }

    /// Sample a gauge value.
    #[inline]
    pub fn gauge(&self, cat: &'static str, name: &str, track: u32, value: u64) {
        if let Some(sink) = &self.sink {
            sink.gauge(cat, name, track, epoch_us(), value);
        }
    }

    /// Record a histogram observation.
    #[inline]
    pub fn histogram(&self, cat: &'static str, name: &str, value: u64) {
        if let Some(sink) = &self.sink {
            sink.histogram(cat, name, value);
        }
    }

    /// Finish the underlying sink (flush file trailers).
    pub fn finish(&self) {
        if let Some(sink) = &self.sink {
            sink.finish();
        }
    }
}

struct SpanState {
    sink: Arc<dyn Sink>,
    cat: &'static str,
    name: String,
    track: u32,
    start_us: u64,
}

/// RAII guard returned by [`Obs::span`]: reports the completed span to
/// the sink when dropped. The disabled guard is a `None` and drops for
/// free.
pub struct SpanGuard {
    state: Option<SpanState>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let end = epoch_us();
            s.sink
                .span(s.cat, &s.name, s.track, s.start_us, end - s.start_us);
        }
    }
}

/// Fan-out sink: forwards every observation to each inner sink, so one
/// run can feed a JSONL log, a Chrome trace and a terminal report at
/// once.
#[derive(Default)]
pub struct MultiSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl MultiSink {
    /// Combine sinks.
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> MultiSink {
        MultiSink { sinks }
    }
}

impl Sink for MultiSink {
    fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
        for s in &self.sinks {
            s.span(cat, name, track, start_us, dur_us);
        }
    }

    fn event(&self, cat: &str, name: &str, track: u32, ts_us: u64, args: &[(&str, ArgValue)]) {
        for s in &self.sinks {
            s.event(cat, name, track, ts_us, args);
        }
    }

    fn counter(&self, cat: &str, name: &str, ts_us: u64, delta: u64) {
        for s in &self.sinks {
            s.counter(cat, name, ts_us, delta);
        }
    }

    fn gauge(&self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64) {
        for s in &self.sinks {
            s.gauge(cat, name, track, ts_us, value);
        }
    }

    fn histogram(&self, cat: &str, name: &str, value: u64) {
        for s in &self.sinks {
            s.histogram(cat, name, value);
        }
    }

    fn finish(&self) {
        for s in &self.sinks {
            s.finish();
        }
    }
}

/// `<prefix>.<ext>`: a file of a `--trace-out PREFIX` run, the suffix
/// appended to the file name (never replacing an extension).
pub fn trace_path(prefix: &Path, ext: &str) -> PathBuf {
    let mut name = prefix.as_os_str().to_os_string();
    name.push(".");
    name.push(ext);
    PathBuf::from(name)
}

/// What [`assemble`] builds: a command's handle, and the report sink to
/// render once the run is over (when it asked for `metrics`).
pub type Assembled = (Obs, Option<Arc<ReportSink>>);

/// The handle a command runs on, built from what it asked to record:
/// the `sinks` it brings, then `<prefix>.jsonl` ([`JsonlSink`]) and
/// `<prefix>.trace.json` ([`ChromeTraceSink`]) for `trace_out`, a
/// [`FlightRecorder`] dumping to `flight`, and a [`ReportSink`] when
/// `metrics`. No sink is [`Obs::noop`], one is used as it is, more share
/// a [`MultiSink`].
///
/// # Errors
/// The trace file that could not be created, and why.
pub fn assemble(
    mut sinks: Vec<Arc<dyn Sink>>,
    trace_out: Option<&Path>,
    flight: Option<&Path>,
    metrics: bool,
) -> Result<Assembled, (PathBuf, std::io::Error)> {
    if let Some(prefix) = trace_out {
        let create = |ext: &str| {
            let path = trace_path(prefix, ext);
            std::fs::File::create(&path).map_err(|e| (path, e))
        };
        sinks.push(Arc::new(JsonlSink::to_writer(Box::new(create("jsonl")?))));
        let chrome = create("trace.json")?;
        sinks.push(Arc::new(ChromeTraceSink::to_writer(Box::new(chrome))));
    }
    if let Some(path) = flight {
        sinks.push(Arc::new(FlightRecorder::new(path)));
    }
    let report = metrics.then(|| Arc::new(ReportSink::new()));
    sinks.extend(report.iter().map(|r| r.clone() as Arc<dyn Sink>));
    let obs = match sinks.len() {
        0 => Obs::noop(),
        1 => Obs::new(sinks.pop().expect("one sink")),
        _ => Obs::new(Arc::new(MultiSink::new(sinks))),
    };
    Ok((obs, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Test sink recording everything it sees.
    #[derive(Default)]
    pub struct RecordingSink {
        pub lines: Mutex<Vec<String>>,
    }

    impl Sink for RecordingSink {
        fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
            self.lines.lock().unwrap().push(format!(
                "span {cat}/{name} track={track} start={start_us} dur={dur_us}"
            ));
        }
        fn event(&self, cat: &str, name: &str, track: u32, _ts: u64, args: &[(&str, ArgValue)]) {
            self.lines.lock().unwrap().push(format!(
                "event {cat}/{name} track={track} args={}",
                args.len()
            ));
        }
        fn counter(&self, cat: &str, name: &str, _ts: u64, delta: u64) {
            self.lines
                .lock()
                .unwrap()
                .push(format!("counter {cat}/{name} +{delta}"));
        }
        fn gauge(&self, cat: &str, name: &str, track: u32, _ts: u64, value: u64) {
            self.lines
                .lock()
                .unwrap()
                .push(format!("gauge {cat}/{name} track={track} ={value}"));
        }
        fn histogram(&self, cat: &str, name: &str, value: u64) {
            self.lines
                .lock()
                .unwrap()
                .push(format!("histogram {cat}/{name} {value}"));
        }
    }

    #[test]
    fn noop_handle_runs_nothing() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        // The name/args closures must not run on the disabled handle.
        let _g = obs.span("eval", || panic!("name built on noop path"));
        obs.event("eval", "e", 0, || panic!("args built on noop path"));
        obs.counter("eval", "c", 1);
        obs.gauge("eval", "g", 0, 1);
        obs.histogram("eval", "h", 1);
        obs.finish();
    }

    #[test]
    fn live_handle_reports_all_primitives() {
        let sink = Arc::new(RecordingSink::default());
        let obs = Obs::new(sink.clone());
        assert!(obs.enabled());
        {
            let _g = obs.span("eval", || "fixpoint".into());
            obs.counter("eval", "derivations", 3);
            obs.gauge("runtime", "queue_depth", 2, 7);
            obs.histogram("runtime", "batch", 4);
            obs.event("runtime", "transition", 1, || {
                vec![("node", ArgValue::Str("n1".into()))]
            });
        }
        let lines = sink.lines.lock().unwrap();
        assert_eq!(lines.len(), 5);
        assert!(lines.iter().any(|l| l.starts_with("span eval/fixpoint")));
        assert!(lines.contains(&"counter eval/derivations +3".to_string()));
        assert!(lines.contains(&"gauge runtime/queue_depth track=2 =7".to_string()));
        assert!(lines.contains(&"histogram runtime/batch 4".to_string()));
        assert!(lines.contains(&"event runtime/transition track=1 args=1".to_string()));
    }

    #[test]
    fn span_guard_reports_on_drop_in_order() {
        let sink = Arc::new(RecordingSink::default());
        let obs = Obs::new(sink.clone());
        {
            let _outer = obs.span("a", || "outer".into());
            let _inner = obs.span("a", || "inner".into());
        }
        let lines = sink.lines.lock().unwrap();
        // Inner drops first.
        assert!(lines[0].contains("a/inner"));
        assert!(lines[1].contains("a/outer"));
    }

    #[test]
    fn multi_sink_fans_out() {
        let a = Arc::new(RecordingSink::default());
        let b = Arc::new(RecordingSink::default());
        let multi = MultiSink::new(vec![a.clone(), b.clone()]);
        let obs = Obs::new(Arc::new(multi));
        obs.counter("x", "c", 1);
        obs.finish();
        assert_eq!(a.lines.lock().unwrap().len(), 1);
        assert_eq!(b.lines.lock().unwrap().len(), 1);
    }

    #[test]
    fn assemble_is_noop_one_sink_or_a_fan_out() {
        let (none, report) = assemble(Vec::new(), None, None, false).unwrap();
        assert!(!none.enabled() && report.is_none());
        let (one, report) = assemble(Vec::new(), None, None, true).unwrap();
        one.counter("x", "c", 2);
        assert_eq!(report.expect("metrics").counter_total("x", "c"), 2);
        let extra = Arc::new(RecordingSink::default());
        let (many, report) = assemble(vec![extra.clone()], None, None, true).unwrap();
        many.counter("x", "c", 3);
        assert_eq!(extra.lines.lock().unwrap().len(), 1);
        assert_eq!(report.expect("metrics").counter_total("x", "c"), 3);
        // A trace file that cannot be created is named in the error.
        let dir = std::env::temp_dir().join(format!("calm-obs-absent-{}", std::process::id()));
        let prefix = dir.join("trace");
        let Err((path, _)) = assemble(Vec::new(), Some(&prefix), None, false) else {
            panic!("no directory, no trace file");
        };
        assert_eq!(path, trace_path(&prefix, "jsonl"));
    }

    #[test]
    fn timestamps_are_monotone() {
        let obs = Obs::new(Arc::new(RecordingSink::default()));
        let a = obs.now_us();
        let b = obs.now_us();
        assert!(b >= a);
        assert_eq!(Obs::noop().now_us(), 0);
    }

    #[test]
    fn handles_share_one_epoch() {
        // Two handles created at different moments must report
        // timestamps on the same timebase: a reading through the second
        // handle is never earlier than a prior reading through the
        // first. With per-handle epochs the later handle would restart
        // near zero.
        let first = Obs::new(Arc::new(RecordingSink::default()));
        let before = first.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let second = Obs::new(Arc::new(RecordingSink::default()));
        let after = second.now_us();
        assert!(
            after >= before + 1_000,
            "second handle must continue the shared clock: {before} then {after}"
        );
        // And readings interleave monotonically across handles.
        assert!(first.now_us() >= after);
    }
}
