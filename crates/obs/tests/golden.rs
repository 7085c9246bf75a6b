//! Golden sink bytes: one fixed observation sequence through every
//! shipping sink, compared byte for byte with the output the sinks are
//! pinned to. A change to a record shape, to escaping, to a counter's
//! running total or to the report's layout fails here first.

use calm_obs::{ArgValue, ChromeTraceSink, FlightRecorder, JsonlSink, ReportSink, Sink};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory writer sharing its buffer with the test.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("utf-8 output")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The fixed sequence: a span, an event whose `Str` and `List` args need
/// escaping, two increments of one counter, a gauge and a histogram.
fn observe(sink: &dyn Sink) {
    sink.span("eval", "stratum#0", 0, 10, 25);
    sink.event(
        "runtime",
        "transition",
        2,
        40,
        &[
            ("node", ArgValue::Str("n\"1\"\\x\ty\u{1}".into())),
            (
                "fresh",
                ArgValue::List(vec!["T(1,\"a\")".into(), "line\nbreak".into()]),
            ),
            ("count", ArgValue::U64(2)),
            ("quiet", ArgValue::Bool(false)),
        ],
    );
    sink.counter("strategy", "messages.fact", 50, 2);
    sink.counter("strategy", "messages.fact", 60, 3);
    sink.gauge("runtime", "queue_depth", 1, 70, 4);
    sink.histogram("runtime", "delivered_batch", 5);
}

const JSONL: &str = r##"{"type":"span","cat":"eval","name":"stratum#0","track":0,"ts_us":10,"dur_us":25}
{"type":"event","cat":"runtime","name":"transition","track":2,"ts_us":40,"args":{"node":"n\"1\"\\x\ty\u0001","fresh":["T(1,\"a\")","line\nbreak"],"count":2,"quiet":false}}
{"type":"counter","cat":"strategy","name":"messages.fact","ts_us":50,"delta":2,"total":2}
{"type":"counter","cat":"strategy","name":"messages.fact","ts_us":60,"delta":3,"total":5}
{"type":"gauge","cat":"runtime","name":"queue_depth","track":1,"ts_us":70,"value":4}
{"type":"histogram","cat":"runtime","name":"delivered_batch","value":5}
"##;

const CHROME: &str = r##"[
{"ph":"X","pid":0,"tid":0,"cat":"eval","name":"stratum#0","ts":10,"dur":25},
{"ph":"i","s":"t","pid":0,"tid":2,"cat":"runtime","name":"transition","ts":40,"args":{"node":"n\"1\"\\x\ty\u0001","fresh":["T(1,\"a\")","line\nbreak"],"count":2,"quiet":false}}
,
{"ph":"C","pid":0,"tid":0,"cat":"strategy","name":"messages.fact","ts":50,"args":{"value":2}}
,
{"ph":"C","pid":0,"tid":0,"cat":"strategy","name":"messages.fact","ts":60,"args":{"value":5}}
,
{"ph":"C","pid":0,"tid":1,"cat":"runtime","name":"queue_depth[1]","ts":70,"args":{"value":4}}

]
"##;

const FLIGHT: &str = r##"{"type":"flight_dump","reason":"golden","records":6}
{"type":"span","cat":"eval","name":"stratum#0","track":0,"ts_us":10,"dur_us":25}
{"type":"event","cat":"runtime","name":"transition","track":2,"ts_us":40,"args":{"node":"n\"1\"\\x\ty\u0001","fresh":["T(1,\"a\")","line\nbreak"],"count":2,"quiet":false}}
{"type":"counter","cat":"strategy","name":"messages.fact","ts_us":50,"delta":2,"total":2}
{"type":"counter","cat":"strategy","name":"messages.fact","ts_us":60,"delta":3,"total":5}
{"type":"gauge","cat":"runtime","name":"queue_depth","track":1,"ts_us":70,"value":4}
{"type":"histogram","cat":"runtime","name":"delivered_batch","value":5}
"##;

const REPORT: &str = r##"== run report ==
spans (count, total, mean, max):
  eval/stratum#0                           n=1        total=25us mean=25.0us max=25us
counters:
  strategy/messages.fact                   5
events:
  runtime/transition                       1
gauges (last, max):
  runtime/queue_depth[1]                   last=4 max=4 samples=1
histograms (count, mean, p50/p90/p99, max):
  runtime/delivered_batch                  n=1 mean=5.0 p50=5.0 p90=5.0 p99=5.0 max=5
"##;

#[test]
fn jsonl_sink_bytes() {
    let buf = SharedBuf::default();
    let sink = JsonlSink::to_writer(Box::new(buf.clone()));
    observe(&sink);
    sink.finish();
    assert_eq!(buf.text(), JSONL);
}

#[test]
fn chrome_sink_bytes() {
    let buf = SharedBuf::default();
    let sink = ChromeTraceSink::to_writer(Box::new(buf.clone()));
    observe(&sink);
    sink.finish();
    assert_eq!(buf.text(), CHROME);
}

#[test]
fn flight_dump_bytes() {
    let mut path = std::env::temp_dir();
    path.push(format!("calm-flight-golden-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let recorder = FlightRecorder::new(&path);
    observe(&recorder);
    assert!(recorder.force_dump("golden"));
    let text = std::fs::read_to_string(&path).expect("dump written");
    let _ = std::fs::remove_file(&path);
    assert_eq!(text, FLIGHT);
}

#[test]
fn report_sink_bytes() {
    let sink = ReportSink::new();
    observe(&sink);
    assert_eq!(sink.render(), REPORT);
}
