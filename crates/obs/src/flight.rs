//! The always-on flight recorder: a bounded, overwrite-oldest ring of
//! recent observations that is cheap enough to leave enabled on every
//! run, and that dumps its contents to a JSONL post-mortem file when an
//! anomaly event fires — so a chaos failure produces an artifact showing
//! the events *leading up to* the failure instead of a bare counter.
//!
//! The anomalies are the `net` events of `TRIGGERS`, and
//! `net/termination` with `quiescent=false` (the run ended without
//! reaching quiescence).
//!
//! The ring is sharded (by display track for spans/events/gauges, by
//! name hash for counters/histograms) so concurrent workers rarely
//! contend on one lock; a global sequence number, taken under the
//! shard's lock, restores total arrival order when shards are merged at
//! dump time. Each shard renders its records with the JSONL record
//! writer on entry — the dump path then only writes bytes, and a dump
//! line is a `--trace-out` line.

use crate::record::{dump, key, Lines, Records};
use crate::{ArgValue, Sink};
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Total ring capacity (records), split across shards.
const CAPACITY: usize = 4096;

const SHARDS: usize = 8;

/// The `net` events that make the recorder dump: a link gave up
/// retransmitting, a wire payload failed strict decoding, a node
/// crashed (each restore has a matching dump), or a worker process died,
/// was lost, hung or was killed.
const TRIGGERS: [&str; 7] = [
    "retry_exhausted",
    "decode_failure",
    "crash",
    "worker_die",
    "worker_down",
    "worker_hung",
    "worker_killed",
];

fn is_anomaly(cat: &str, name: &str, args: &[(&str, ArgValue)]) -> bool {
    let unquiescent = || {
        args.iter()
            .any(|(k, v)| *k == "quiescent" && *v == ArgValue::Bool(false))
    };
    cat == "net" && (TRIGGERS.contains(&name) || name == "termination" && unquiescent())
}

/// One shard's ring: `(global_seq, line)`, oldest first.
struct Ring {
    lines: VecDeque<(u64, String)>,
    capacity: usize,
    seq: Arc<AtomicU64>,
}

impl Lines for Ring {
    fn put(&mut self, line: String) {
        // Numbered under the shard's lock: the lines of one counter (one
        // shard per name) are numbered in the order of their totals.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if self.lines.len() >= self.capacity {
            self.lines.pop_front();
        }
        self.lines.push_back((seq, line));
    }
}

/// FNV-1a over a name's bytes: a counter's or histogram's shard, stable
/// for the name, so a counter's running total is shard-local.
fn name_shard(bytes: impl Iterator<Item = u8>) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h as usize
}

/// The flight-recorder sink. See the module docs for the model.
pub struct FlightRecorder {
    shards: Vec<Mutex<Records<Ring>>>,
    path: PathBuf,
}

impl FlightRecorder {
    /// A recorder dumping to `path` (appending — one file collects every
    /// dump of a run).
    pub fn new(path: impl Into<PathBuf>) -> FlightRecorder {
        let seq = Arc::new(AtomicU64::new(0));
        let ring = || Ring {
            lines: VecDeque::new(),
            capacity: CAPACITY / SHARDS,
            seq: seq.clone(),
        };
        FlightRecorder {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Records::new(ring())))
                .collect(),
            path: path.into(),
        }
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, Records<Ring>> {
        self.shards[i % SHARDS].lock().expect("flight shard")
    }

    /// Dump the ring to the post-mortem file now, regardless of
    /// triggers. Returns whether the write succeeded. The ring is *not*
    /// cleared: a later anomaly still sees this history.
    pub fn force_dump(&self, reason: &str) -> bool {
        let mut records: Vec<(u64, String)> = Vec::new();
        for i in 0..SHARDS {
            records.extend(self.shard(i).out.lines.iter().cloned());
        }
        records.sort_unstable_by_key(|(seq, _)| *seq);
        let text = dump(reason, records.iter().map(|(_, line)| line.as_str()));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .and_then(|mut file| file.write_all(text.as_bytes()))
            .is_ok()
    }
}

impl Sink for FlightRecorder {
    fn span(&self, cat: &str, name: &str, track: u32, start_us: u64, dur_us: u64) {
        self.shard(track as usize)
            .span(cat, name, track, start_us, dur_us);
    }

    fn event(&self, cat: &str, name: &str, track: u32, ts_us: u64, args: &[(&str, ArgValue)]) {
        self.shard(track as usize)
            .event(cat, name, track, ts_us, args);
        if is_anomaly(cat, name, args) {
            self.force_dump(&key(cat, name));
        }
    }

    fn counter(&self, cat: &str, name: &str, ts_us: u64, delta: u64) {
        let shard = name_shard(cat.bytes().chain([b'/']).chain(name.bytes()));
        self.shard(shard).counter(cat, name, ts_us, delta);
    }

    fn gauge(&self, cat: &str, name: &str, track: u32, ts_us: u64, value: u64) {
        self.shard(track as usize)
            .gauge(cat, name, track, ts_us, value);
    }

    fn histogram(&self, cat: &str, name: &str, value: u64) {
        self.shard(name_shard(name.bytes()))
            .histogram(cat, name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_json;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("calm-flight-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn ring_overwrites_oldest() {
        let path = temp_path("ring");
        let fr = FlightRecorder::new(&path);
        // All on track 0 → one shard, holding the `CAPACITY / SHARDS`
        // newest of `CAPACITY / SHARDS + 4` records.
        let per_shard = (CAPACITY / SHARDS) as u64;
        for i in 0..per_shard + 4 {
            fr.gauge("runtime", "queue_depth", 0, i, i);
        }
        assert!(fr.force_dump("test"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len() as u64, 1 + per_shard, "{text}");
        assert!(lines[0].contains("\"type\":\"flight_dump\""));
        let value = |line: &str| parse_json(line).ok()?.get("value")?.as_u64();
        assert_eq!(value(lines[1]), Some(4));
        assert_eq!(value(lines[lines.len() - 1]), Some(per_shard + 3));
        let _ = std::fs::remove_file(&path);
    }

    /// How many dumps the file at `path` holds.
    fn dumps(path: &std::path::Path) -> usize {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        text.matches("\"type\":\"flight_dump\"").count()
    }

    #[test]
    fn anomaly_event_triggers_a_dump() {
        let path = temp_path("trigger");
        let fr = FlightRecorder::new(&path);
        fr.counter("net", "faults.dropped", 5, 1);
        assert_eq!(dumps(&path), 0);
        fr.event("net", "retry_exhausted", 1, 9, &[("dst", ArgValue::U64(3))]);
        assert_eq!(dumps(&path), 1);
        // A quiescent termination must NOT trigger; a failed one must.
        fr.event(
            "net",
            "termination",
            0,
            10,
            &[("quiescent", ArgValue::Bool(true))],
        );
        assert_eq!(dumps(&path), 1);
        fr.event(
            "net",
            "termination",
            0,
            11,
            &[("quiescent", ArgValue::Bool(false))],
        );
        assert_eq!(dumps(&path), 2);
        // Every dumped line parses as standalone JSON, and the anomaly
        // event itself is included in its own dump.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut saw_anomaly = false;
        for line in text.lines() {
            let v = parse_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            if v.get("name").and_then(|n| n.as_str()) == Some("retry_exhausted") {
                saw_anomaly = true;
            }
        }
        assert!(saw_anomaly, "dump contains the triggering event");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn counters_keep_running_totals_in_dumps() {
        let path = temp_path("totals");
        let fr = FlightRecorder::new(&path);
        fr.counter("net", "faults.attempts", 1, 2);
        fr.counter("net", "faults.attempts", 2, 3);
        assert!(fr.force_dump("test"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"delta\":3,\"total\":5"), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
