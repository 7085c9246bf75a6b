//! `calm trace report` pinned on hand-made fixtures. `data/trace_a.jsonl`
//! and `data/trace_b.jsonl` are two halves of one run that together
//! reach every arm of the analyzer: a send with a cause and `class.*`
//! counts, deliveries, three retransmits (one without an id), a drop, a
//! dedup, a `net/decode_failure`, queue-depth gauges out of time order
//! across the two files, a flight-dump header, an unknown trace event and
//! a torn last line. `data/trace_orphan.jsonl` is one delivery without a
//! send. The expected texts are the report byte for byte.

use calm_cli::cmd_trace_report;
use std::path::PathBuf;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn two_files() -> [PathBuf; 2] {
    [data("trace_a.jsonl"), data("trace_b.jsonl")]
}

const HUMAN: &str = r##"== trace report ==
events: 2 sends, 4 deliveries, 3 retransmits, 1 drops, 1 dedup-suppressed, 1 decode failures
flight-recorder dumps: 1
unparsed lines: 1
invariants: ok (every delivery traced to its send; causal graph acyclic)
links (origin -> dst):
  0 -> 1: 2 delivered, latency us p50=4 p90=10 p99=10 max=10
  0 -> 2: 1 delivered, latency us p50=90 p90=90 p99=90 max=90, 3 retransmits (gap us p50=24 p90=30 p99=30 max=30), 1 dropped, 1 dedup-suppressed
  1 -> 0: 1 delivered, latency us p50=115 p90=115 p99=115 max=115
critical path (2 hops, newest first):
  (1,1) sent at 25us, delivered to node 0 at 140us (+115us)
  (0,1) sent at 10us, delivered to node 1 at 20us (+10us)
queue depth per node:
  node 0: 3 samples, max=3, final=3
  node 1: 1 samples, max=2, final=2
fan-out per message class:
  absence    1 sends, 2 copies, 2 facts shipped
  fact       2 sends, 3 copies, 5 facts shipped
"##;

const JSON: &str = r##"{"events":{"sends":2,"deliveries":4,"retransmits":3,"drops":1,"dedups":1,"decode_failures":1,"flight_dumps":1,"unparsed_lines":1},"invariants":{"ok":true,"violations":[]},"links":[{"from":0,"to":1,"deliveries":2,"latency_us":{"n":2,"p50":4.0,"p90":10.0,"p99":10.0,"max":10},"retransmits":0,"retransmit_gap_us":{"n":0,"p50":0.0,"p90":0.0,"p99":0.0,"max":0},"drops":0,"dedups":0},{"from":0,"to":2,"deliveries":1,"latency_us":{"n":1,"p50":90.0,"p90":90.0,"p99":90.0,"max":90},"retransmits":3,"retransmit_gap_us":{"n":2,"p50":24.0,"p90":30.0,"p99":30.0,"max":30},"drops":1,"dedups":1},{"from":1,"to":0,"deliveries":1,"latency_us":{"n":1,"p50":115.0,"p90":115.0,"p99":115.0,"max":115},"retransmits":0,"retransmit_gap_us":{"n":0,"p50":0.0,"p90":0.0,"p99":0.0,"max":0},"drops":0,"dedups":0}],"critical_path":[{"origin":1,"seq":1,"sent_us":25,"delivered_us":140,"dst":0},{"origin":0,"seq":1,"sent_us":10,"delivered_us":20,"dst":1}],"queue_depth":[{"node":0,"samples":3,"max":3,"series":[[5,1],[30,2],[50,3]]},{"node":1,"samples":1,"max":2,"series":[[26,2]]}],"classes":[{"class":"absence","sends":1,"fanout":2,"facts":2},{"class":"fact","sends":2,"fanout":3,"facts":5}]}
"##;

const ORPHAN: &str =
    r##"trace invariants violated (1): deliver of (3,9) at node 1 has no matching send"##;

#[test]
fn two_file_report_human() {
    assert_eq!(cmd_trace_report(&two_files(), false).unwrap(), HUMAN);
}

#[test]
fn two_file_report_json() {
    assert_eq!(cmd_trace_report(&two_files(), true).unwrap(), JSON);
}

#[test]
fn orphan_delivery_is_refused() {
    for json in [false, true] {
        let e = cmd_trace_report(&[data("trace_orphan.jsonl")], json).unwrap_err();
        assert_eq!(e.0, ORPHAN);
    }
}
