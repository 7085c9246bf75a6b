//! Aggregating sink rendering a human-readable terminal run report:
//! counter totals, span time breakdowns, gauge high-water marks and
//! histogram summaries.

use crate::histogram::Pow2Histogram;
use crate::record::{key, Totals};
use crate::{ArgValue, Sink};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

#[derive(Default, Clone)]
struct SpanStat {
    count: u64,
    total_us: u64,
    max_us: u64,
}

#[derive(Default, Clone)]
struct GaugeStat {
    last: u64,
    max: u64,
    samples: u64,
}

#[derive(Default)]
struct ReportState {
    counters: Totals,
    /// `cat/name` → duration stats (summed across tracks).
    spans: BTreeMap<String, SpanStat>,
    /// `cat/name[track]` → last/max sample.
    gauges: BTreeMap<String, GaugeStat>,
    /// `cat/name` → distribution.
    histograms: BTreeMap<String, Pow2Histogram>,
    /// `cat/name` → occurrences (structured events, args dropped).
    events: Totals,
}

/// A sink that keeps aggregates only — no per-event storage — and
/// renders them as an aligned plain-text report via [`ReportSink::render`].
#[derive(Default)]
pub struct ReportSink {
    state: Mutex<ReportState>,
}

impl ReportSink {
    /// An empty report.
    pub fn new() -> ReportSink {
        ReportSink::default()
    }

    /// The accumulated total of counter `cat/name` (0 if never seen).
    pub fn counter_total(&self, cat: &str, name: &str) -> u64 {
        let state = self.state.lock().expect("report state");
        state.counters.0.get(&key(cat, name)).copied().unwrap_or(0)
    }

    /// Render the aggregates as a plain-text report.
    pub fn render(&self) -> String {
        let state = self.state.lock().expect("report state");
        let mut out = String::from("== run report ==\n");
        section(
            &mut out,
            "spans (count, total, mean, max)",
            &state.spans,
            |s| {
                let mean = if s.count == 0 {
                    0.0
                } else {
                    s.total_us as f64 / s.count as f64
                };
                format!(
                    "n={:<8} total={}us mean={:.1}us max={}us",
                    s.count, s.total_us, mean, s.max_us
                )
            },
        );
        section(&mut out, "counters", &state.counters.0, u64::to_string);
        section(&mut out, "events", &state.events.0, u64::to_string);
        section(&mut out, "gauges (last, max)", &state.gauges, |g| {
            format!("last={} max={} samples={}", g.last, g.max, g.samples)
        });
        let title = "histograms (count, mean, p50/p90/p99, max)";
        section(&mut out, title, &state.histograms, |h| {
            format!(
                "n={} mean={:.1} p50={:.1} p90={:.1} p99={:.1} max={}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.max()
            )
        });
        out
    }
}

/// One section of the report, when it has rows: its title, then a line
/// per key in key order.
fn section<V>(
    out: &mut String,
    title: &str,
    rows: &BTreeMap<String, V>,
    row: impl Fn(&V) -> String,
) {
    if !rows.is_empty() {
        let _ = writeln!(out, "{title}:");
        for (key, v) in rows {
            let _ = writeln!(out, "  {key:<40} {}", row(v));
        }
    }
}

impl Sink for ReportSink {
    fn span(&self, cat: &str, name: &str, _track: u32, _start_us: u64, dur_us: u64) {
        let mut state = self.state.lock().expect("report state");
        let s = state.spans.entry(key(cat, name)).or_default();
        s.count += 1;
        s.total_us += dur_us;
        s.max_us = s.max_us.max(dur_us);
    }

    fn event(&self, cat: &str, name: &str, _track: u32, _ts_us: u64, _args: &[(&str, ArgValue)]) {
        let mut state = self.state.lock().expect("report state");
        state.events.add(cat, name, 1);
    }

    fn counter(&self, cat: &str, name: &str, _ts_us: u64, delta: u64) {
        let mut state = self.state.lock().expect("report state");
        state.counters.add(cat, name, delta);
    }

    fn gauge(&self, cat: &str, name: &str, track: u32, _ts_us: u64, value: u64) {
        let mut state = self.state.lock().expect("report state");
        let g = state
            .gauges
            .entry(format!("{cat}/{name}[{track}]"))
            .or_default();
        g.last = value;
        g.max = g.max.max(value);
        g.samples += 1;
    }

    fn histogram(&self, cat: &str, name: &str, value: u64) {
        let mut state = self.state.lock().expect("report state");
        state
            .histograms
            .entry(key(cat, name))
            .or_default()
            .record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_counters_and_gauges() {
        let r = ReportSink::new();
        r.counter("strategy", "messages.fact", 0, 2);
        r.counter("strategy", "messages.fact", 1, 3);
        r.gauge("runtime", "queue_depth", 1, 0, 4);
        r.gauge("runtime", "queue_depth", 1, 1, 9);
        r.gauge("runtime", "queue_depth", 1, 2, 2);
        assert_eq!(r.counter_total("strategy", "messages.fact"), 5);
        assert_eq!(r.counter_total("strategy", "missing"), 0);
        let text = r.render();
        assert!(text.contains("runtime/queue_depth[1]                   last=2 max=9 samples=3"));
        assert!(!text.contains("queue_depth[2]"));
    }

    #[test]
    fn render_lists_every_section() {
        let r = ReportSink::new();
        r.span("eval", "fixpoint", 0, 0, 120);
        r.span("eval", "fixpoint", 0, 120, 80);
        r.counter("eval", "derivations", 0, 7);
        r.event("runtime", "transition", 0, 0, &[]);
        r.gauge("runtime", "queue_depth", 3, 0, 5);
        r.histogram("runtime", "batch", 4);
        let text = r.render();
        assert!(text.contains("eval/fixpoint"));
        assert!(text.contains("n=2"));
        assert!(text.contains("total=200us"));
        assert!(text.contains("max=120us"));
        assert!(text.contains("eval/derivations"));
        assert!(text.contains("runtime/transition"));
        assert!(text.contains("runtime/queue_depth[3]"));
        assert!(text.contains("max=5"));
        assert!(text.contains("runtime/batch"));
        // Histogram lines carry quantile estimates, not raw buckets.
        let hist_line = text
            .lines()
            .find(|l| l.contains("runtime/batch"))
            .expect("histogram line");
        assert!(
            hist_line.contains("p50="),
            "quantiles rendered: {hist_line}"
        );
        assert!(
            hist_line.contains("p99="),
            "quantiles rendered: {hist_line}"
        );
        assert!(!hist_line.contains('['), "no raw bucket dump: {hist_line}");
    }

    #[test]
    fn empty_report_renders_header_only() {
        let text = ReportSink::new().render();
        assert_eq!(text, "== run report ==\n");
    }
}
