//! Post-mortem trace analysis: rebuild the happens-before message graph
//! from a JSONL event log and report on it.
//!
//! The engines stamp every sent batch with a `(origin_node, origin_seq)`
//! id and the id of the delivery that caused it, and emit `trace/*`
//! events carrying those ids (see `calm-net`). [`analyze_lines`] reads a
//! `--trace-out` log or a flight dump in three passes: ingest, the
//! invariant checks (with per-link latency and retransmit-gap
//! percentiles, queue-depth timelines and per-class fan-out), and the
//! critical path — the latest delivery walked back through
//! `send → cause → send → …` to a send the input distribution caused.
//!
//! Invariants checked (violations fail `calm trace report`):
//!
//! 1. every `deliver` (and `dedup`) id has a matching `send`;
//! 2. every `retransmit` with a known id links to a matching `send`;
//! 3. the causal graph (edges `cause → id`) is acyclic;
//! 4. causes precede effects: a send's cause id was minted by an
//!    earlier send (`cause.seq < id.seq` when same origin, and the
//!    cause's send event exists).

use crate::histogram::Pow2Histogram;
use crate::json::{escape_json, parse_json, push_joined, JsonValue};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// A message id: `(origin_node, origin_seq)`. Minted once per sent
/// batch by the origin node; retransmitted copies carry the same id.
pub type MsgId = (u64, u64);

#[derive(Debug, Clone)]
struct SendEv {
    ts: u64,
    cause: Option<MsgId>,
    fanout: u64,
    classes: Vec<(String, u64)>,
}

#[derive(Debug, Clone)]
struct DeliverEv {
    ts: u64,
    id: MsgId,
    dst: u64,
}

/// Aggregates for one directed link `origin → dst`.
#[derive(Debug, Default, Clone)]
pub struct LinkStats {
    /// Delivered copies over this link.
    pub deliveries: u64,
    /// Latency from the original send to each delivery, µs.
    pub latency_us: Pow2Histogram,
    /// Retransmitted copies on this link (reliability substrate only).
    pub retransmits: u64,
    /// Gaps between successive (re)transmissions of one wire seq, µs.
    pub gap_us: Pow2Histogram,
    /// Copies dropped by the fault plan on this link.
    pub drops: u64,
    /// Copies suppressed by receiver dedup on this link.
    pub dedups: u64,
}

/// One hop of the critical path, newest first.
#[derive(Debug, Clone)]
pub struct PathHop {
    /// The message id of this hop.
    pub id: MsgId,
    /// When the batch was sent, µs.
    pub sent_us: u64,
    /// When it was (last) delivered, µs — `None` when the walk reached
    /// a send whose delivery is not in the log.
    pub delivered_us: Option<u64>,
    /// The delivering destination node, when known.
    pub dst: Option<u64>,
}

/// Fan-out aggregates for one message class.
#[derive(Debug, Default, Clone)]
pub struct ClassStats {
    /// Send batches containing at least one fact of this class.
    pub sends: u64,
    /// Total destination copies of those batches.
    pub fanout: u64,
    /// Total facts of the class across those batches (per copy).
    pub facts: u64,
}

/// The analysis of one JSONL trace. Build with [`analyze_lines`] or
/// [`analyze_files`], inspect programmatically or render with
/// [`TraceAnalysis::render_human`] / [`TraceAnalysis::render_json`].
#[derive(Debug, Default)]
pub struct TraceAnalysis {
    /// Lines that failed to parse as JSON (count only; the analyzer is
    /// lenient to truncated final lines from killed runs).
    pub unparsed_lines: u64,
    /// Event counts by trace kind.
    pub sends: u64,
    /// Delivered copies.
    pub deliveries: u64,
    /// Retransmitted copies.
    pub retransmits: u64,
    /// Dropped copies.
    pub drops: u64,
    /// Dedup-suppressed copies.
    pub dedups: u64,
    /// Wire decode failures.
    pub decode_failures: u64,
    /// Flight-recorder dump headers seen in the log.
    pub flight_dumps: u64,
    /// Invariant violations (empty = the causal graph checks out).
    pub violations: Vec<String>,
    /// Per-link aggregates, keyed `(origin, dst)`.
    pub links: BTreeMap<(u64, u64), LinkStats>,
    /// The critical path, walked back from the latest delivery
    /// (newest hop first).
    pub critical_path: Vec<PathHop>,
    /// Per-node queue-depth samples `(ts_us, depth)`, keyed by node
    /// index (display track − 1).
    pub queue_depth: BTreeMap<u64, Vec<(u64, u64)>>,
    /// Per-message-class fan-out.
    pub classes: BTreeMap<String, ClassStats>,
}

fn arg_u64(args: &JsonValue, key: &str) -> Option<u64> {
    args.get(key).and_then(JsonValue::as_u64)
}

fn str_field<'v>(rec: &'v JsonValue, key: &str) -> &'v str {
    rec.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn id_of(args: &JsonValue) -> Option<MsgId> {
    Some((arg_u64(args, "origin")?, arg_u64(args, "seq")?))
}

/// The link `src -> dst` a reliability-substrate event names.
fn link_of(args: &JsonValue) -> (u64, u64) {
    let end = |key| arg_u64(args, key).unwrap_or(0);
    (end("src"), end("dst"))
}

/// What the ingest pass keeps of a log for the two passes after it.
#[derive(Default)]
struct Log {
    sends: HashMap<MsgId, SendEv>,
    delivers: Vec<DeliverEv>,
    /// Per `(src, dst, link_seq)`: timestamps of transmissions, for gaps.
    link_txs: HashMap<(u64, u64, u64), Vec<u64>>,
    /// `(id, src, dst)` of every retransmit that carries an id.
    retransmit_ids: Vec<(MsgId, u64, u64)>,
}

/// Analyze a JSONL trace given as lines, in three passes: ingest, the
/// invariant checks, the critical path. Unparseable lines are counted
/// in [`TraceAnalysis::unparsed_lines`] rather than failing the whole
/// report (a killed run may leave a torn final line); an input with *no*
/// parseable trace content still produces an (empty) analysis.
pub fn analyze_lines<'a>(lines: impl Iterator<Item = &'a str>) -> TraceAnalysis {
    let mut a = TraceAnalysis::default();
    let mut log = Log::default();
    for line in lines {
        log.ingest(&mut a, line);
    }
    log.check(&mut a);
    a.critical_path = log.critical_path();
    a
}

impl Log {
    /// Pass 1, one line: count it, and keep what the later passes need.
    fn ingest(&mut self, a: &mut TraceAnalysis, line: &str) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        let Ok(rec) = parse_json(line) else {
            a.unparsed_lines += 1;
            return;
        };
        let name = str_field(&rec, "name");
        let ts = arg_u64(&rec, "ts_us").unwrap_or(0);
        match (str_field(&rec, "type"), str_field(&rec, "cat"), name) {
            ("flight_dump", _, _) => a.flight_dumps += 1,
            ("gauge", "runtime", "queue_depth") => {
                let track = arg_u64(&rec, "track").unwrap_or(0);
                let value = arg_u64(&rec, "value").unwrap_or(0);
                if track > 0 {
                    let series = a.queue_depth.entry(track - 1).or_default();
                    series.push((ts, value));
                }
            }
            ("event", "net", "decode_failure") => a.decode_failures += 1,
            ("event", "trace", _) => {
                let empty = JsonValue::Obj(Default::default());
                self.trace_event(a, name, ts, rec.get("args").unwrap_or(&empty));
            }
            _ => {}
        }
    }

    /// Pass 1, one `trace/*` event.
    fn trace_event(&mut self, a: &mut TraceAnalysis, name: &str, ts: u64, args: &JsonValue) {
        match name {
            "send" => {
                let Some(id) = id_of(args) else { return };
                let cause = match (arg_u64(args, "cause_origin"), arg_u64(args, "cause_seq")) {
                    (Some(o), Some(s)) => Some((o, s)),
                    _ => None,
                };
                let mut classes = Vec::new();
                if let JsonValue::Obj(m) = args {
                    for (k, v) in m {
                        if let (Some(class), Some(n)) = (k.strip_prefix("class."), v.as_u64()) {
                            classes.push((class.to_string(), n));
                        }
                    }
                }
                a.sends += 1;
                let fanout = arg_u64(args, "fanout").unwrap_or(0);
                let send = SendEv {
                    ts,
                    cause,
                    fanout,
                    classes,
                };
                self.sends.insert(id, send);
            }
            "deliver" => {
                let Some(id) = id_of(args) else { return };
                let dst = arg_u64(args, "dst").unwrap_or(0);
                a.deliveries += 1;
                self.delivers.push(DeliverEv { ts, id, dst });
            }
            "retransmit" => {
                a.retransmits += 1;
                let (src, dst) = link_of(args);
                let link_seq = arg_u64(args, "link_seq").unwrap_or(0);
                self.link_txs
                    .entry((src, dst, link_seq))
                    .or_default()
                    .push(ts);
                if let Some(id) = id_of(args) {
                    self.retransmit_ids.push((id, src, dst));
                }
                a.links.entry((src, dst)).or_default().retransmits += 1;
            }
            "drop" => {
                a.drops += 1;
                a.links.entry(link_of(args)).or_default().drops += 1;
            }
            "dedup" => {
                a.dedups += 1;
                a.links.entry(link_of(args)).or_default().dedups += 1;
                if let Some(id) = id_of(args).filter(|id| !self.sends.contains_key(id)) {
                    a.violations
                        .push(format!("dedup of ({},{}) has no matching send", id.0, id.1));
                }
            }
            _ => {}
        }
    }

    /// Pass 2: the causal invariants, and the aggregates their loops
    /// pass by (per-link latency and retransmit gaps, sorted queue-depth
    /// timelines, per-class fan-out).
    fn check(&mut self, a: &mut TraceAnalysis) {
        // Invariant 1: every delivery traces to its send; per-link latency.
        for d in &self.delivers {
            match self.sends.get(&d.id) {
                Some(s) => {
                    let link = a.links.entry((d.id.0, d.dst)).or_default();
                    link.deliveries += 1;
                    link.latency_us.record(d.ts.saturating_sub(s.ts));
                }
                None => a.violations.push(format!(
                    "deliver of ({},{}) at node {} has no matching send",
                    d.id.0, d.id.1, d.dst
                )),
            }
        }

        // Invariant 2: every retransmit with a known id links to a send.
        for (id, src, dst) in &self.retransmit_ids {
            if !self.sends.contains_key(id) {
                a.violations.push(format!(
                    "retransmit of ({},{}) on link {src}->{dst} has no matching send",
                    id.0, id.1
                ));
            }
        }

        // Retransmit gaps: the spacing of transmissions per wire seq.
        for ((src, dst, _), txs) in &mut self.link_txs {
            txs.sort_unstable();
            let link = a.links.entry((*src, *dst)).or_default();
            for pair in txs.windows(2) {
                link.gap_us.record(pair[1] - pair[0]);
            }
        }

        // Queue-depth samples arrive in file order, which for merged
        // multi-file input is not time order; sort each node's timeline so
        // the analysis is the same however the lines were interleaved.
        for series in a.queue_depth.values_mut() {
            series.sort_unstable();
        }

        // Invariants 3 + 4: cause edges are acyclic and point backwards.
        // Ids are minted per-origin in strictly increasing seq order, so a
        // cause edge into the *same* origin must decrease seq; cross-origin
        // edges are checked by explicit cycle detection.
        let mut visiting: HashSet<MsgId> = HashSet::new();
        let mut done: HashSet<MsgId> = HashSet::new();
        for &start in self.sends.keys() {
            // Iterative DFS along the single `cause` edge per node.
            let mut chain: Vec<MsgId> = Vec::new();
            let mut cur = Some(start);
            while let Some(id) = cur.filter(|id| !done.contains(id)) {
                if !visiting.insert(id) {
                    a.violations
                        .push(format!("causal cycle through ({},{})", id.0, id.1));
                    break;
                }
                chain.push(id);
                cur = self.sends.get(&id).and_then(|s| s.cause);
                if let Some(c) = cur {
                    if c.0 == id.0 && c.1 >= id.1 {
                        a.violations.push(format!(
                            "cause ({},{}) does not precede send ({},{})",
                            c.0, c.1, id.0, id.1
                        ));
                    }
                    if !self.sends.contains_key(&c) {
                        a.violations.push(format!(
                            "cause ({},{}) of send ({},{}) has no matching send",
                            c.0, c.1, id.0, id.1
                        ));
                        break;
                    }
                }
            }
            for id in chain.drain(..) {
                visiting.remove(&id);
                done.insert(id);
            }
        }

        // Class fan-out.
        for s in self.sends.values() {
            for (class, n) in &s.classes {
                let cs = a.classes.entry(class.clone()).or_default();
                cs.sends += 1;
                cs.fanout += s.fanout;
                cs.facts += n * s.fanout;
            }
        }
    }

    /// Pass 3: the critical path — the latest delivery walked back
    /// through its send's cause chain, each cause to the delivery that
    /// triggered the send: the cause's latest delivery into the sending
    /// node no later than the send. A cycle (reported by pass 2) ends
    /// the walk.
    fn critical_path(&self) -> Vec<PathHop> {
        let mut path = Vec::new();
        let Some(last) = self.delivers.iter().max_by_key(|d| d.ts) else {
            return path;
        };
        // Delivery times by `(id, dst)`, ascending.
        let mut delivered: HashMap<(MsgId, u64), Vec<u64>> = HashMap::new();
        for d in &self.delivers {
            delivered.entry((d.id, d.dst)).or_default().push(d.ts);
        }
        for times in delivered.values_mut() {
            times.sort_unstable();
        }
        let mut seen: HashSet<MsgId> = HashSet::new();
        let mut cur = Some((last.id, Some(last.ts), Some(last.dst)));
        while let Some((id, delivered_us, dst)) = cur {
            if !seen.insert(id) {
                break;
            }
            let Some(s) = self.sends.get(&id) else { break };
            path.push(PathHop {
                id,
                sent_us: s.ts,
                delivered_us,
                dst,
            });
            cur = s.cause.map(|c| {
                let times = delivered.get(&(c, id.0)).map_or(&[][..], Vec::as_slice);
                let trigger = times[..times.partition_point(|&t| t <= s.ts)].last();
                (c, trigger.copied(), trigger.map(|_| id.0))
            });
        }
        path
    }
}

/// Analyze several JSONL traces as *one* happens-before graph — the
/// multi-process case, where each worker wrote its own
/// `PREFIX.workerK.jsonl` and a send recorded in one file pairs with
/// deliveries recorded in others. The analysis is order-insensitive
/// (events are keyed by message id, and the invariants are structural),
/// so concatenating the files loses nothing; per-event timestamps stay
/// meaningful because cross-file latencies already saturate at zero
/// rather than trusting cross-process clock alignment.
///
/// # Errors
/// Fails when any file cannot be read.
pub fn analyze_files(paths: &[std::path::PathBuf]) -> Result<TraceAnalysis, String> {
    let read = |path: &std::path::PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read trace {}: {e}", path.display()))
    };
    let texts = paths.iter().map(read).collect::<Result<Vec<_>, _>>()?;
    Ok(analyze_lines(texts.iter().flat_map(|t| t.lines())))
}

fn quantiles_human(h: &Pow2Histogram) -> String {
    format!(
        "p50={:.0} p90={:.0} p99={:.0} max={}",
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

fn quantiles_json(h: &Pow2Histogram) -> String {
    format!(
        "{{\"n\":{},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{}}}",
        h.count(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
        h.max()
    )
}

/// Downsample a series to at most `cap` evenly spaced points.
fn downsample(series: &[(u64, u64)], cap: usize) -> Vec<(u64, u64)> {
    if series.len() <= cap {
        return series.to_vec();
    }
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        out.push(series[i * (series.len() - 1) / (cap - 1).max(1)]);
    }
    out
}

impl TraceAnalysis {
    /// Whether every causal invariant held.
    pub fn invariants_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str("== trace report ==\n");
        let _ = writeln!(
            out,
            "events: {} sends, {} deliveries, {} retransmits, {} drops, {} dedup-suppressed, {} decode failures",
            self.sends, self.deliveries, self.retransmits, self.drops, self.dedups, self.decode_failures
        );
        if self.flight_dumps > 0 {
            let _ = writeln!(out, "flight-recorder dumps: {}", self.flight_dumps);
        }
        if self.unparsed_lines > 0 {
            let _ = writeln!(out, "unparsed lines: {}", self.unparsed_lines);
        }
        if self.invariants_ok() {
            out.push_str(
                "invariants: ok (every delivery traced to its send; causal graph acyclic)\n",
            );
        } else {
            let _ = writeln!(out, "invariants: {} VIOLATIONS", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  ! {v}");
            }
        }
        if !self.links.is_empty() {
            out.push_str("links (origin -> dst):\n");
            for ((from, to), l) in &self.links {
                let _ = write!(out, "  {from} -> {to}: {} delivered", l.deliveries);
                if l.latency_us.count() > 0 {
                    let _ = write!(out, ", latency us {}", quantiles_human(&l.latency_us));
                }
                if l.retransmits > 0 {
                    let _ = write!(out, ", {} retransmits", l.retransmits);
                    if l.gap_us.count() > 0 {
                        let _ = write!(out, " (gap us {})", quantiles_human(&l.gap_us));
                    }
                }
                if l.drops > 0 {
                    let _ = write!(out, ", {} dropped", l.drops);
                }
                if l.dedups > 0 {
                    let _ = write!(out, ", {} dedup-suppressed", l.dedups);
                }
                out.push('\n');
            }
        }
        if !self.critical_path.is_empty() {
            let _ = writeln!(
                out,
                "critical path ({} hops, newest first):",
                self.critical_path.len()
            );
            for hop in &self.critical_path {
                let _ = write!(
                    out,
                    "  ({},{}) sent at {}us",
                    hop.id.0, hop.id.1, hop.sent_us
                );
                if let (Some(ts), Some(dst)) = (hop.delivered_us, hop.dst) {
                    let lag = ts.saturating_sub(hop.sent_us);
                    let _ = write!(out, ", delivered to node {dst} at {ts}us (+{lag}us)");
                }
                out.push('\n');
            }
        }
        if !self.queue_depth.is_empty() {
            out.push_str("queue depth per node:\n");
            for (node, series) in &self.queue_depth {
                let max = series.iter().map(|&(_, v)| v).max().unwrap_or(0);
                let last = series.last().map(|&(_, v)| v).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "  node {node}: {} samples, max={max}, final={last}",
                    series.len()
                );
            }
        }
        if !self.classes.is_empty() {
            out.push_str("fan-out per message class:\n");
            for (class, cs) in &self.classes {
                let _ = writeln!(
                    out,
                    "  {class:<10} {} sends, {} copies, {} facts shipped",
                    cs.sends, cs.fanout, cs.facts
                );
            }
        }
        out
    }

    /// Render the machine-readable JSON report (one object).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"events\":{{\"sends\":{},\"deliveries\":{},\"retransmits\":{},\"drops\":{},\"dedups\":{},\"decode_failures\":{},\"flight_dumps\":{},\"unparsed_lines\":{}}}",
            self.sends,
            self.deliveries,
            self.retransmits,
            self.drops,
            self.dedups,
            self.decode_failures,
            self.flight_dumps,
            self.unparsed_lines
        );
        let _ = write!(
            out,
            ",\"invariants\":{{\"ok\":{},\"violations\":",
            self.invariants_ok()
        );
        push_joined(&mut out, '[', ']', &self.violations, |out, v| {
            out.push_str(&escape_json(v));
        });
        out.push_str("},\"links\":");
        push_joined(&mut out, '[', ']', &self.links, |out, ((from, to), l)| {
            let _ = write!(
                out,
                "{{\"from\":{from},\"to\":{to},\"deliveries\":{},\"latency_us\":{},\"retransmits\":{},\"retransmit_gap_us\":{},\"drops\":{},\"dedups\":{}}}",
                l.deliveries,
                quantiles_json(&l.latency_us),
                l.retransmits,
                quantiles_json(&l.gap_us),
                l.drops,
                l.dedups
            );
        });
        out.push_str(",\"critical_path\":");
        push_joined(&mut out, '[', ']', &self.critical_path, |out, hop| {
            let _ = write!(
                out,
                "{{\"origin\":{},\"seq\":{},\"sent_us\":{}",
                hop.id.0, hop.id.1, hop.sent_us
            );
            if let Some(ts) = hop.delivered_us {
                let _ = write!(out, ",\"delivered_us\":{ts}");
            }
            if let Some(dst) = hop.dst {
                let _ = write!(out, ",\"dst\":{dst}");
            }
            out.push('}');
        });
        out.push_str(",\"queue_depth\":");
        push_joined(
            &mut out,
            '[',
            ']',
            &self.queue_depth,
            |out, (node, series)| {
                let max = series.iter().map(|&(_, v)| v).max().unwrap_or(0);
                let _ = write!(
                    out,
                    "{{\"node\":{node},\"samples\":{},\"max\":{max},\"series\":",
                    series.len()
                );
                push_joined(out, '[', ']', downsample(series, 64), |out, (ts, v)| {
                    let _ = write!(out, "[{ts},{v}]");
                });
                out.push('}');
            },
        );
        out.push_str(",\"classes\":");
        push_joined(&mut out, '[', ']', &self.classes, |out, (class, cs)| {
            let _ = write!(
                out,
                "{{\"class\":{},\"sends\":{},\"fanout\":{},\"facts\":{}}}",
                escape_json(class),
                cs.sends,
                cs.fanout,
                cs.facts
            );
        });
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(ts: u64, origin: u64, seq: u64, cause: Option<MsgId>, fanout: u64) -> String {
        let cause_args = match cause {
            Some((o, s)) => format!(",\"cause_origin\":{o},\"cause_seq\":{s}"),
            None => String::new(),
        };
        format!(
            "{{\"type\":\"event\",\"cat\":\"trace\",\"name\":\"send\",\"track\":{},\"ts_us\":{ts},\"args\":{{\"origin\":{origin},\"seq\":{seq}{cause_args},\"fanout\":{fanout},\"facts\":2,\"class.fact\":2}}}}",
            origin + 1
        )
    }

    fn deliver(ts: u64, origin: u64, seq: u64, dst: u64) -> String {
        format!(
            "{{\"type\":\"event\",\"cat\":\"trace\",\"name\":\"deliver\",\"track\":{},\"ts_us\":{ts},\"args\":{{\"origin\":{origin},\"seq\":{seq},\"dst\":{dst},\"facts\":2}}}}",
            dst + 1
        )
    }

    #[test]
    fn happy_chain_passes_invariants() {
        // 0 sends m1 (root), 1 receives it and sends m2 caused by m1,
        // 0 receives m2.
        let lines = [
            send(10, 0, 1, None, 1),
            deliver(15, 0, 1, 1),
            send(20, 1, 1, Some((0, 1)), 1),
            deliver(30, 1, 1, 0),
        ];
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert!(a.invariants_ok(), "{:?}", a.violations);
        assert_eq!(a.sends, 2);
        assert_eq!(a.deliveries, 2);
        // Latency on link 1 -> 0 is 10us.
        let l = &a.links[&(1, 0)];
        assert_eq!(l.deliveries, 1);
        assert_eq!(l.latency_us.max(), 10);
        // Critical path: m2 (delivered at 30) back to root m1.
        assert_eq!(a.critical_path.len(), 2);
        assert_eq!(a.critical_path[0].id, (1, 1));
        assert_eq!(a.critical_path[1].id, (0, 1));
        assert_eq!(a.critical_path[1].delivered_us, Some(15));
        // Class fan-out picked up the class.fact counts.
        assert_eq!(a.classes["fact"].sends, 2);
        // Render paths do not panic and carry the verdict.
        assert!(a.render_human().contains("invariants: ok"));
        assert!(a.render_json().contains("\"ok\":true"));
        let parsed = parse_json(&a.render_json()).expect("report is valid JSON");
        assert_eq!(
            parsed
                .get("events")
                .and_then(|e| e.get("sends"))
                .and_then(JsonValue::as_u64),
            Some(2)
        );
    }

    #[test]
    fn orphan_delivery_is_a_violation() {
        let lines = [deliver(5, 3, 9, 1)];
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert!(!a.invariants_ok());
        assert!(
            a.violations[0].contains("no matching send"),
            "{:?}",
            a.violations
        );
        assert!(a.render_json().contains("\"ok\":false"));
    }

    #[test]
    fn causal_cycle_is_a_violation() {
        // Two sends each claiming the other as cause (impossible for a
        // real run; the analyzer must detect rather than hang).
        let lines = [
            send(10, 0, 1, Some((1, 1)), 1),
            send(10, 1, 1, Some((0, 1)), 1),
        ];
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert!(!a.invariants_ok());
        assert!(
            a.violations.iter().any(|v| v.contains("cycle")),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn same_origin_cause_must_precede() {
        let lines = [send(10, 0, 1, Some((0, 1)), 1)];
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert!(
            a.violations.iter().any(|v| v.contains("does not precede")),
            "{:?}",
            a.violations
        );
    }

    #[test]
    fn retransmit_gaps_and_unparsed_lines() {
        let retransmit = |ts: u64, attempt: u64| {
            format!(
                "{{\"type\":\"event\",\"cat\":\"trace\",\"name\":\"retransmit\",\"track\":1,\"ts_us\":{ts},\"args\":{{\"src\":0,\"dst\":1,\"link_seq\":7,\"attempt\":{attempt},\"origin\":0,\"seq\":1}}}}"
            )
        };
        let lines = [
            send(0, 0, 1, None, 1),
            retransmit(100, 1),
            retransmit(300, 2),
            retransmit(700, 3),
            "{torn line".to_string(),
        ];
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert!(a.invariants_ok(), "{:?}", a.violations);
        assert_eq!(a.retransmits, 3);
        assert_eq!(a.unparsed_lines, 1);
        let l = &a.links[&(0, 1)];
        // Gaps 200 and 400.
        assert_eq!(l.gap_us.count(), 2);
        assert_eq!(l.gap_us.max(), 400);
    }

    #[test]
    fn queue_depth_series_downsamples_in_json() {
        let mut lines: Vec<String> = Vec::new();
        for i in 0..200u64 {
            lines.push(format!(
                "{{\"type\":\"gauge\",\"cat\":\"runtime\",\"name\":\"queue_depth\",\"track\":2,\"ts_us\":{i},\"value\":{}}}",
                i % 10
            ));
        }
        let a = analyze_lines(lines.iter().map(String::as_str));
        assert_eq!(a.queue_depth[&1].len(), 200);
        let json = a.render_json();
        let parsed = parse_json(&json).unwrap();
        let Some(JsonValue::Arr(nodes)) = parsed.get("queue_depth") else {
            panic!("queue_depth is an array: {json}");
        };
        assert_eq!(nodes.len(), 1);
        let Some(JsonValue::Arr(series)) = nodes[0].get("series") else {
            panic!("series is an array: {json}");
        };
        assert!(series.len() <= 64, "downsampled: {}", series.len());
        assert_eq!(
            nodes[0].get("samples").and_then(JsonValue::as_u64),
            Some(200)
        );
    }
}
