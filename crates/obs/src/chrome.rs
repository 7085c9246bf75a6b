//! Chrome trace-event JSON sink: the file loads directly in
//! `chrome://tracing` or <https://ui.perfetto.dev>, giving a per-track
//! (per-node) timeline of the run.
//!
//! Format reference: the Trace Event Format's JSON array form. Spans are
//! `"ph":"X"` complete events, structured events are `"ph":"i"` instants,
//! counters and gauges are `"ph":"C"` counter samples. `pid` is always 0;
//! `tid` carries the [`Sink`] track, so Perfetto renders one lane per
//! node.

use crate::json::escape_json;
use crate::record::{args_object, Totals};
use crate::{ArgValue, Sink};
use std::io::{BufWriter, Write};
use std::sync::{Mutex, MutexGuard};

/// A sink writing a Chrome trace-event JSON array.
///
/// The stream is a valid JSON document only after [`Sink::finish`] writes
/// the closing bracket; callers going through [`crate::Obs::finish`] get
/// that for free.
pub struct ChromeTraceSink {
    out: Mutex<ChromeState>,
}

struct ChromeState {
    writer: BufWriter<Box<dyn Write + Send>>,
    /// Running totals per counter series — Chrome "C" events carry the
    /// current value, not a delta.
    totals: Totals,
    any_written: bool,
    finished: bool,
}

impl ChromeState {
    /// Write one event object, handling the array syntax (`[` before the
    /// first event, `,` separators).
    fn record(&mut self, record: &str) {
        if self.finished {
            return;
        }
        if self.any_written {
            let _ = writeln!(self.writer, ",\n{record}");
        } else {
            let _ = write!(self.writer, "[\n{record}");
            self.any_written = true;
        }
    }
}

impl ChromeTraceSink {
    /// Write to an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> ChromeTraceSink {
        ChromeTraceSink {
            out: Mutex::new(ChromeState {
                writer: BufWriter::new(writer),
                totals: Totals::default(),
                any_written: false,
                finished: false,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, ChromeState> {
        self.out.lock().expect("chrome trace writer")
    }
}

impl Sink for ChromeTraceSink {
    fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
        self.state().record(&format!(
            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{track},\"cat\":{},\"name\":{},\"ts\":{start_us},\"dur\":{dur_us}}}",
            escape_json(cat),
            escape_json(name)
        ));
    }

    fn event(&self, cat: &str, name: &str, track: u32, ts_us: u64, args: &[(&str, ArgValue)]) {
        self.state().record(&format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{track},\"cat\":{},\"name\":{},\"ts\":{ts_us},\"args\":{}}}",
            escape_json(cat),
            escape_json(name),
            args_object(args)
        ));
    }

    fn counter(&self, cat: &str, name: &str, ts_us: u64, delta: u64) {
        let mut state = self.state();
        let total = state.totals.add(cat, name, delta);
        state.record(&format!(
            "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"cat\":{},\"name\":{},\"ts\":{ts_us},\"args\":{{\"value\":{total}}}}}",
            escape_json(cat),
            escape_json(name)
        ));
    }

    fn gauge(&self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64) {
        // Gauges are absolute samples: emit the value directly, one
        // counter series per track so per-node queue depths stay apart.
        self.state().record(&format!(
            "{{\"ph\":\"C\",\"pid\":0,\"tid\":{track},\"cat\":{},\"name\":{},\"ts\":{ts_us},\"args\":{{\"value\":{value}}}}}",
            escape_json(cat),
            escape_json(&format!("{name}[{track}]"))
        ));
    }

    fn histogram(&self, _cat: &str, _name: &str, _value: u64) {
        // Distributions have no native Chrome-trace representation; the
        // JSONL and report sinks carry them.
    }

    fn finish(&self) {
        let mut state = self.state();
        if state.finished {
            return;
        }
        if state.any_written {
            let _ = writeln!(state.writer, "\n]");
        } else {
            let _ = writeln!(state.writer, "[]");
        }
        let _ = state.writer.flush();
        state.finished = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn capture(f: impl FnOnce(&ChromeTraceSink)) -> String {
        let buf = SharedBuf::default();
        let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()));
        f(&sink);
        sink.finish();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes).unwrap()
    }

    #[test]
    fn empty_trace_is_empty_array() {
        assert_eq!(capture(|_| ()).trim(), "[]");
    }

    #[test]
    fn spans_become_complete_events() {
        let out = capture(|s| s.span("eval", "stratum#0", 0, 10, 25));
        assert!(out.contains("\"ph\":\"X\""));
        assert!(out.contains("\"ts\":10"));
        assert!(out.contains("\"dur\":25"));
        assert!(out.trim().starts_with('['));
        assert!(out.trim().ends_with(']'));
    }

    #[test]
    fn counters_carry_running_totals() {
        let out = capture(|s| {
            s.counter("strategy", "messages.fact", 1, 2);
            s.counter("strategy", "messages.fact", 2, 3);
            s.counter("strategy", "messages.request", 3, 7);
        });
        assert!(out.contains("{\"value\":2}"));
        assert!(out.contains("{\"value\":5}"));
        assert!(out.contains("{\"value\":7}"));
    }

    #[test]
    fn gauges_are_per_track_series() {
        let out = capture(|s| {
            s.gauge("runtime", "queue_depth", 1, 5, 3);
            s.gauge("runtime", "queue_depth", 2, 6, 9);
        });
        assert!(out.contains("\"queue_depth[1]\""));
        assert!(out.contains("\"queue_depth[2]\""));
        assert!(out.contains("\"tid\":1"));
        assert!(out.contains("\"tid\":2"));
    }

    #[test]
    fn finish_is_idempotent_and_closes_the_array() {
        let buf = SharedBuf::default();
        let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()));
        sink.span("a", "b", 0, 0, 1);
        sink.finish();
        sink.finish();
        // Events after finish are dropped, not appended past the `]`.
        sink.span("a", "late", 0, 2, 1);
        let out = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(out.matches('[').count(), 1);
        assert_eq!(out.matches(']').count(), 1);
        assert!(!out.contains("late"));
        assert!(out.trim().ends_with(']'));
    }

    #[test]
    fn records_are_comma_separated() {
        let out = capture(|s| {
            s.span("a", "x", 0, 0, 1);
            s.span("a", "y", 0, 1, 1);
        });
        // Two objects, one comma between them, inside one array.
        assert_eq!(out.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(out.matches("},\n{").count(), 1);
    }
}
