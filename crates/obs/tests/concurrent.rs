//! Concurrent sink emission: every shipping sink hammered from 8
//! threads must produce valid, line-complete output — no interleaved or
//! torn lines, no broken JSON, every record accounted for.

use calm_obs::{
    parse_json, ArgValue, ChromeTraceSink, FlightRecorder, JsonValue, JsonlSink, MultiSink, Obs,
    Sink,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 500;

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

/// The run's total of the one counter [`hammer`] increments.
const COUNTER_TOTAL: u64 = (THREADS * OPS_PER_THREAD / 5) as u64;

/// A counter's totals in output order must rise with every line, so the
/// last one is the run's total: a sink that takes a total under one lock
/// and writes its line under another can write 5 before 2.
fn assert_totals_in_order(totals: &[u64], last: u64) {
    if let Some(w) = totals.windows(2).find(|w| w[0] >= w[1]) {
        panic!("a counter total went backwards: {} then {}", w[0], w[1]);
    }
    assert_eq!(totals.last(), Some(&last), "the last line holds the total");
}

/// Drive every primitive from `THREADS` threads through one handle.
fn hammer(obs: &Obs) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let obs = obs.clone();
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    match i % 5 {
                        0 => {
                            let _g = obs.span_on("eval", t as u32, || format!("work#{t}:{i}"));
                        }
                        1 => obs.event("trace", "send", t as u32 + 1, || {
                            vec![
                                ("origin", ArgValue::U64(t as u64)),
                                ("seq", ArgValue::U64(i as u64)),
                                ("note", ArgValue::Str(format!("t{t} \"quoted\" i{i}"))),
                            ]
                        }),
                        2 => obs.counter("net", "faults.attempts", 1),
                        3 => obs.gauge("runtime", "queue_depth", t as u32 + 1, i as u64),
                        _ => obs.histogram("runtime", "batch", i as u64),
                    }
                }
            });
        }
    });
}

#[test]
fn jsonl_sink_is_line_complete_under_contention() {
    let buf = SharedBuf::default();
    let sink = Arc::new(JsonlSink::to_writer(Box::new(buf.clone())));
    let obs = Obs::new(sink);
    hammer(&obs);
    obs.finish();

    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines.len(),
        THREADS * OPS_PER_THREAD,
        "every record emitted exactly one line"
    );
    let mut totals = Vec::new();
    for line in &lines {
        let rec = parse_json(line).unwrap_or_else(|e| panic!("torn line ({e}): {line}"));
        let ty = rec.get("type").and_then(JsonValue::as_str).expect("type");
        assert!(
            ["span", "event", "counter", "gauge", "histogram"].contains(&ty),
            "{line}"
        );
        if ty == "counter" {
            totals.push(rec.get("total").and_then(JsonValue::as_u64).unwrap());
        }
    }
    // The running total survived concurrent increments without loss.
    assert_totals_in_order(&totals, COUNTER_TOTAL);
}

#[test]
fn chrome_sink_emits_valid_json_under_contention() {
    let buf = SharedBuf::default();
    let sink = Arc::new(ChromeTraceSink::to_writer(Box::new(buf.clone())));
    let obs = Obs::new(sink);
    hammer(&obs);
    obs.finish();

    let trace = parse_json(&buf.text()).expect("whole trace parses as one JSON document");
    let JsonValue::Arr(events) = trace else {
        panic!("a JSON array");
    };
    assert!(!events.is_empty());
    let mut totals = Vec::new();
    for e in events {
        assert!(e.get("ph").is_some(), "trace event has a phase: {e:?}");
        let name = e.get("name").and_then(JsonValue::as_str);
        assert!(name.is_some(), "trace event has a name: {e:?}");
        if name == Some("faults.attempts") {
            let value = e.get("args").and_then(|a| a.get("value"));
            totals.push(value.and_then(JsonValue::as_u64).unwrap());
        }
    }
    // A Perfetto counter lane never dips.
    assert_totals_in_order(&totals, COUNTER_TOTAL);
}

#[test]
fn multi_sink_keeps_every_fanout_line_complete() {
    let jsonl_buf = SharedBuf::default();
    let chrome_buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlSink::to_writer(Box::new(jsonl_buf.clone())));
    let chrome = Arc::new(ChromeTraceSink::to_writer(Box::new(chrome_buf.clone())));
    let multi = Arc::new(MultiSink::new(vec![jsonl, chrome]));
    let obs = Obs::new(multi);
    hammer(&obs);
    obs.finish();

    let jsonl_lines: Vec<String> = jsonl_buf.text().lines().map(str::to_string).collect();
    assert_eq!(jsonl_lines.len(), THREADS * OPS_PER_THREAD);
    for line in &jsonl_lines {
        parse_json(line).unwrap_or_else(|e| panic!("torn line ({e}): {line}"));
    }
    let trace = parse_json(&chrome_buf.text()).expect("chrome output parses");
    assert!(matches!(trace, JsonValue::Arr(events) if !events.is_empty()));
}

#[test]
fn flight_recorder_dump_is_line_complete_under_contention() {
    let mut path = std::env::temp_dir();
    path.push(format!("calm-flight-hammer-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let recorder = Arc::new(FlightRecorder::new(&path));
    let obs = Obs::new(recorder.clone() as Arc<dyn Sink>);
    hammer(&obs);
    assert!(recorder.force_dump("test"));
    obs.finish();

    let text = std::fs::read_to_string(&path).expect("dump written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 1, "header plus records");
    let header = parse_json(lines[0]).expect("header parses");
    assert_eq!(
        header.get("type").and_then(JsonValue::as_str),
        Some("flight_dump")
    );
    let declared = header.get("records").and_then(JsonValue::as_u64).unwrap() as usize;
    assert_eq!(lines.len() - 1, declared, "record count matches header");
    let mut prev_ts: Option<u64> = None;
    let mut totals = Vec::new();
    for line in &lines[1..] {
        let rec = parse_json(line).unwrap_or_else(|e| panic!("torn line ({e}): {line}"));
        let ty = rec.get("type").and_then(JsonValue::as_str).expect("type");
        assert!(
            ["span", "event", "counter", "gauge", "histogram"].contains(&ty),
            "{line}"
        );
        // Records within one shard keep arrival order; across shards the
        // merge sorts by the global sequence, so timestamps (where
        // present) are near-sorted — just assert they parse and are
        // sane rather than strictly ordered.
        if let Some(ts) = rec.get("ts_us").and_then(JsonValue::as_u64) {
            prev_ts = Some(prev_ts.map_or(ts, |p| p.max(ts)));
        }
        if ty == "counter" {
            totals.push(rec.get("total").and_then(JsonValue::as_u64).unwrap());
        }
    }
    let _ = std::fs::remove_file(&path);
    // The ring keeps the newest lines of the counter's shard: whatever
    // it kept must still count up to the run's total.
    assert_totals_in_order(&totals, COUNTER_TOTAL);
}
