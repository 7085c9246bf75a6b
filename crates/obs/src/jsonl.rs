//! JSON Lines event log: one self-contained JSON object per line, in
//! arrival order — the machine-readable artifact behind `--trace-out`.

use crate::record::{Lines, Records};
use crate::{ArgValue, Sink};
use std::io::{BufWriter, Write};
use std::sync::{Mutex, MutexGuard};

type Out = BufWriter<Box<dyn Write + Send>>;

/// A sink writing one JSON object per observation, one per line.
///
/// Record shapes (all carry `"type"`, `"cat"`, `"name"`):
///
/// ```text
/// {"type":"span","cat":"eval","name":"stratum#0","track":0,"ts_us":12,"dur_us":340}
/// {"type":"event","cat":"runtime","name":"transition","track":1,"ts_us":99,"args":{...}}
/// {"type":"counter","cat":"strategy","name":"messages.request","ts_us":10,"delta":2,"total":17}
/// {"type":"gauge","cat":"runtime","name":"queue_depth","track":2,"ts_us":40,"value":5}
/// {"type":"histogram","cat":"runtime","name":"delivered_batch","value":3}
/// ```
///
/// Counters also carry the running `total`, so the final line per counter
/// name is the run's total — consumers need not sum deltas.
pub struct JsonlSink {
    records: Mutex<Records<Out>>,
}

impl Lines for Out {
    fn put(&mut self, line: String) {
        let _ = writeln!(self, "{line}");
    }
}

impl JsonlSink {
    /// Write to an arbitrary writer.
    pub fn to_writer(writer: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            records: Mutex::new(Records::new(BufWriter::new(writer))),
        }
    }

    fn records(&self) -> MutexGuard<'_, Records<Out>> {
        self.records.lock().expect("jsonl writer")
    }
}

impl Sink for JsonlSink {
    fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
        self.records().span(cat, name, track, start_us, dur_us);
    }

    fn event(&self, cat: &str, name: &str, track: u32, ts_us: u64, args: &[(&str, ArgValue)]) {
        self.records().event(cat, name, track, ts_us, args);
    }

    fn counter(&self, cat: &str, name: &str, ts_us: u64, delta: u64) {
        self.records().counter(cat, name, ts_us, delta);
    }

    fn gauge(&self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64) {
        self.records().gauge(cat, name, track, ts_us, value);
    }

    fn histogram(&self, cat: &str, name: &str, value: u64) {
        self.records().histogram(cat, name, value);
    }

    fn finish(&self) {
        let _ = self.records().out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// An in-memory writer sharing its buffer with the test.
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

    fn capture(f: impl FnOnce(&JsonlSink)) -> Vec<String> {
        let buf = SharedBuf::default();
        let sink = JsonlSink::to_writer(Box::new(buf.clone()));
        f(&sink);
        sink.finish();
        let bytes = buf.0.lock().unwrap().clone();
        String::from_utf8(bytes)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn one_object_per_line_all_kinds() {
        let lines = capture(|s| {
            s.span("eval", "stratum#0", 0, 1, 2);
            s.event("runtime", "transition", 1, 3, &[("n", ArgValue::U64(4))]);
            s.counter("strategy", "messages.fact", 5, 2);
            s.counter("strategy", "messages.fact", 6, 3);
            s.gauge("runtime", "queue_depth", 2, 7, 9);
            s.histogram("runtime", "batch", 3);
        });
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"type\":\"span\""));
        assert!(lines[1].contains("\"args\":{\"n\":4}"));
        // Running totals.
        assert!(lines[2].contains("\"delta\":2,\"total\":2"));
        assert!(lines[3].contains("\"delta\":3,\"total\":5"));
        assert!(lines[4].contains("\"value\":9"));
        assert!(lines[5].contains("\"type\":\"histogram\""));
    }

    #[test]
    fn lines_are_parseable_json_objects() {
        // A structural sanity check without a JSON parser: every line is
        // brace-balanced, starts with `{"type":` and ends with `}`.
        let lines = capture(|s| {
            s.event(
                "c\"at",
                "na\\me",
                0,
                1,
                &[("list", ArgValue::List(vec!["A(1,\"x\")".into()]))],
            );
            s.span("eval", "with \"quotes\"", 0, 0, 1);
        });
        for line in &lines {
            assert!(line.starts_with("{\"type\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
            let mut depth = 0i32;
            let mut in_str = false;
            let mut esc = false;
            for c in line.chars() {
                if esc {
                    esc = false;
                    continue;
                }
                match c {
                    '\\' if in_str => esc = true,
                    '"' => in_str = !in_str,
                    '{' | '[' if !in_str => depth += 1,
                    '}' | ']' if !in_str => depth -= 1,
                    _ => {}
                }
            }
            assert_eq!(depth, 0, "unbalanced: {line}");
            assert!(!in_str, "unterminated string: {line}");
        }
    }
}
