//! Fault injection: a seeded, deterministic description of how the
//! network misbehaves.
//!
//! The paper's asynchronous semantics (§4) promises convergence only on
//! *fair* runs: every sent message is eventually delivered, every node
//! keeps taking heartbeat steps. The perfect in-process channels of the
//! threaded executor deliver that fairness for free — which means the
//! fairness boundary was never actually exercised. A [`FaultPlan`] makes
//! the network adversarial: per-link drop probability, duplication,
//! bounded delay/reordering, one-way partitions with a scheduled heal,
//! node crash points and whole-process kills. Every per-message decision
//! is a pure function of `(seed, link, seq, attempt)`, so a plan is
//! reproducible independent of thread timing. [`FaultStats`] counts what
//! the plan did to a run.
//!
//! Fairness is earned back by the reliability substrate in
//! `crate::reliable`, which a fault-free run never touches.

use calm_common::rng::Rng;
use std::collections::BTreeMap;

/// Logical time: one tick per worker loop iteration (or per timed-out
/// wait while passive-with-obligations). Delays, backoff and partition
/// windows are measured in ticks.
pub type Tick = u64;

/// The longest backoff, crash downtime or delay a plan may ask for: a
/// clock that ticks once per worker loop adds it to itself without overflow.
pub const MAX_TICKS: Tick = 1 << 32;

/// Fault probabilities of one directed link.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability that a transmission attempt is silently dropped.
    pub drop_p: f64,
    /// Probability that an attempt is duplicated (one extra copy).
    pub dup_p: f64,
    /// Probability that a copy is delayed rather than delivered
    /// immediately.
    pub delay_p: f64,
    /// Maximum delay in ticks. Because each copy draws its own delay,
    /// this also bounds the reordering window: a delayed copy can
    /// overtake up to `max_delay` later sends.
    pub max_delay: Tick,
}

impl LinkFaults {
    /// A perfectly-behaved link.
    pub const NONE: LinkFaults = LinkFaults {
        drop_p: 0.0,
        dup_p: 0.0,
        delay_p: 0.0,
        max_delay: 0,
    };

    /// Whether this link never misbehaves.
    pub(crate) fn is_none(&self) -> bool {
        self.drop_p <= 0.0 && self.dup_p <= 0.0 && self.delay_p <= 0.0
    }
}

/// A one-way link partition: every transmission attempt `src → dst`
/// during `[from, heal)` (in sender ticks) is dropped. Retransmission
/// carries the traffic across the heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Sending node (global index).
    pub src: usize,
    /// Receiving node (global index).
    pub dst: usize,
    /// First tick of the outage.
    pub from: Tick,
    /// First tick after the outage (the heal).
    pub heal: Tick,
}

/// A scheduled node crash: after the node completes its
/// `at_transition`-th transition (counted monotonically — the counter
/// does not roll back with the state, so each point fires at most
/// once), the node is restored from its last snapshot, its in-flight
/// buffers are dropped, and it stays down for `down_ticks` before
/// restarting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The crashing node (global index).
    pub node: usize,
    /// Fires after the node's transition counter reaches this value.
    pub at_transition: usize,
    /// Recovery window: incoming data is refused (dropped, to be
    /// retransmitted) and the node takes no steps while down.
    pub down_ticks: Tick,
}

/// A scheduled *process-level* kill (process engine only): after worker
/// `worker`'s current incarnation completes its `at_step`-th executor
/// step, the whole worker process dies abruptly — no `Final` frame, no
/// ack flush, a nonzero exit — exactly the socket-level signature of a
/// `kill -9`. A respawned incarnation skips as many `pkill` entries for
/// its index as it has predecessors, so two entries for the same worker
/// model two staggered kills across incarnations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PKill {
    /// The worker (ring position) to kill.
    pub worker: usize,
    /// Fires after the incarnation's executor step counter reaches
    /// this value.
    pub at_step: u64,
}

/// A seeded, deterministic description of network misbehavior, plus the
/// knobs of the reliability substrate that repairs it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every per-message fault decision.
    pub seed: u64,
    /// Default faults applied to every link.
    pub link: LinkFaults,
    /// Per-link overrides, keyed by `(src, dst)` global node indexes.
    pub per_link: BTreeMap<(usize, usize), LinkFaults>,
    /// One-way partitions with scheduled heals.
    pub partitions: Vec<Partition>,
    /// Node crash points.
    pub crashes: Vec<CrashPoint>,
    /// Process-level worker kills (process engine only; the threaded
    /// engine rejects plans that contain any).
    pub pkills: Vec<PKill>,
    /// Transitions between periodic snapshots of a node (snapshots are
    /// also forced whenever a worker goes passive with unacked
    /// receipts, so acks always flush).
    pub snapshot_every: usize,
    /// Transmission attempts per message before the substrate gives up
    /// (a budget exhaustion is counted and makes the run report
    /// `quiescent: false` — fairness could not be restored).
    pub retry_budget: u32,
    /// Initial retransmission backoff, in ticks (doubles per attempt).
    pub backoff_base: Tick,
    /// Backoff cap, in ticks.
    pub max_backoff: Tick,
}

impl FaultPlan {
    /// A plan that injects no faults at all (but still runs the full
    /// seq/ack/snapshot machinery — useful for measuring its cost).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            link: LinkFaults::NONE,
            per_link: BTreeMap::new(),
            partitions: Vec::new(),
            crashes: Vec::new(),
            pkills: Vec::new(),
            snapshot_every: 8,
            retry_budget: 30,
            backoff_base: 8,
            max_backoff: 512,
        }
    }

    /// A uniform drop/dup plan — the common chaos-test shape.
    pub fn uniform(seed: u64, drop_p: f64, dup_p: f64) -> FaultPlan {
        let mut p = FaultPlan::none(seed);
        p.link.drop_p = drop_p;
        p.link.dup_p = dup_p;
        p
    }

    /// Parse a `--faults` spec: comma-separated `key=value` clauses.
    ///
    /// ```text
    /// drop=0.2                  default per-attempt drop probability
    /// dup=0.05                  default duplication probability
    /// delay=0.3/6               delay probability / max ticks
    /// link=1>2:drop=0.9:dup=0.5 per-link override (colon-separated)
    /// partition=0>1@10..80      one-way outage over a tick window
    /// crash=2@5~20              node 2 after transition 5, down 20 ticks
    /// crash=2@5                 as above with the default downtime (4)
    /// pkill(worker=1@step=40)   kill worker 1's process at its 40th step
    /// seed=7 snapshot=4 retries=16 backoff=8
    /// ```
    ///
    /// A backoff, a downtime or a delay above [`MAX_TICKS`] is refused.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none(0);
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let clause_t = clause.trim();
            // `pkill(worker=K@step=S)` is parenthesized, not key=value.
            if let Some(inner) = clause_t
                .strip_prefix("pkill(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                let (w, s) = inner
                    .split_once('@')
                    .ok_or_else(|| format!("pkill wants worker=K@step=S, got '{inner}'"))?;
                let worker = w
                    .strip_prefix("worker=")
                    .ok_or_else(|| format!("pkill clause '{w}' is not worker=K"))?;
                let step = s
                    .strip_prefix("step=")
                    .ok_or_else(|| format!("pkill clause '{s}' is not step=S"))?;
                plan.pkills.push(PKill {
                    worker: parse_num(worker, "pkill worker")?,
                    at_step: parse_num(step, "pkill step")?,
                });
                continue;
            }
            let (key, value) = clause
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("fault clause '{clause}' is not key=value"))?;
            match key {
                "seed" => plan.seed = parse_num(value, "seed")?,
                "drop" => plan.link.drop_p = parse_prob(value, "drop")?,
                "dup" => plan.link.dup_p = parse_prob(value, "dup")?,
                "delay" => {
                    let (p, max) = value
                        .split_once('/')
                        .ok_or_else(|| format!("delay wants P/MAXTICKS, got '{value}'"))?;
                    plan.link.delay_p = parse_prob(p, "delay")?;
                    plan.link.max_delay = parse_ticks(max, "delay max")?;
                }
                "link" => {
                    let (ends, faults) = value
                        .split_once(':')
                        .ok_or_else(|| format!("link wants SRC>DST:k=v..., got '{value}'"))?;
                    let (src, dst) = parse_edge(ends)?;
                    let mut lf = LinkFaults::NONE;
                    for kv in faults.split(':') {
                        let (k, v) = kv
                            .split_once('=')
                            .ok_or_else(|| format!("link clause '{kv}' is not k=v"))?;
                        match k {
                            "drop" => lf.drop_p = parse_prob(v, "link drop")?,
                            "dup" => lf.dup_p = parse_prob(v, "link dup")?,
                            "delay" => {
                                let (p, max) = v
                                    .split_once('/')
                                    .ok_or_else(|| format!("link delay wants P/MAX, got '{v}'"))?;
                                lf.delay_p = parse_prob(p, "link delay")?;
                                lf.max_delay = parse_ticks(max, "link delay max")?;
                            }
                            other => return Err(format!("unknown link fault '{other}'")),
                        }
                    }
                    plan.per_link.insert((src, dst), lf);
                }
                "partition" => {
                    let (ends, window) = value.split_once('@').ok_or_else(|| {
                        format!("partition wants SRC>DST@FROM..HEAL, got '{value}'")
                    })?;
                    let (src, dst) = parse_edge(ends)?;
                    let (from, heal) = window.split_once("..").ok_or_else(|| {
                        format!("partition window wants FROM..HEAL, got '{window}'")
                    })?;
                    plan.partitions.push(Partition {
                        src,
                        dst,
                        from: parse_num(from, "partition from")?,
                        heal: parse_num(heal, "partition heal")?,
                    });
                }
                "crash" => {
                    let (node, rest) = value.split_once('@').ok_or_else(|| {
                        format!("crash wants NODE@TRANSITION[~DOWN], got '{value}'")
                    })?;
                    let (at, down) = match rest.split_once('~') {
                        Some((at, down)) => (at, parse_ticks(down, "crash downtime")?),
                        None => (rest, 4),
                    };
                    plan.crashes.push(CrashPoint {
                        node: parse_num::<usize>(node, "crash node")?,
                        at_transition: parse_num(at, "crash transition")?,
                        down_ticks: down,
                    });
                }
                "snapshot" => plan.snapshot_every = parse_num(value, "snapshot")?,
                "retries" => plan.retry_budget = parse_num(value, "retries")?,
                "backoff" => plan.backoff_base = parse_ticks(value, "backoff")?,
                other => return Err(format!("unknown fault key '{other}'")),
            }
        }
        if plan.snapshot_every == 0 {
            return Err("snapshot interval must be at least 1".into());
        }
        if plan.retry_budget == 0 {
            return Err("retry budget must be at least 1".into());
        }
        Ok(plan)
    }

    /// The faults of one directed link.
    pub(crate) fn link_faults(&self, src: usize, dst: usize) -> &LinkFaults {
        self.per_link.get(&(src, dst)).unwrap_or(&self.link)
    }

    /// Whether the plan injects any fault at all (zero-fault plans still
    /// pay for the reliability machinery; `None` plans pay nothing).
    pub fn injects_faults(&self) -> bool {
        !self.link.is_none()
            || self.per_link.values().any(|l| !l.is_none())
            || !self.partitions.is_empty()
            || !self.crashes.is_empty()
            || !self.pkills.is_empty()
    }

    /// The kill steps of `worker`'s incarnation number `incarnation`,
    /// in firing order: entries for the worker sorted by step, the
    /// first `incarnation` of them already consumed by the
    /// predecessors. The incarnation dies at the first remaining step
    /// (if its run lasts that long).
    pub(crate) fn pkill_steps(&self, worker: usize, incarnation: u64) -> Vec<u64> {
        let mut steps: Vec<u64> = self
            .pkills
            .iter()
            .filter(|p| p.worker == worker)
            .map(|p| p.at_step)
            .collect();
        steps.sort_unstable();
        steps.split_off((incarnation as usize).min(steps.len()))
    }

    /// The deterministic decision stream for one transmission copy:
    /// a pure function of the plan seed and the copy's identity.
    pub(crate) fn rolls(&self, src: usize, dst: usize, seq: u64, attempt: u32, copy: u32) -> Rng {
        let mut h = self.seed ^ 0x6a09_e667_f3bc_c909;
        for v in [src as u64, dst as u64, seq, attempt as u64, copy as u64] {
            h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        Rng::seed_from_u64(h)
    }

    pub(crate) fn partitioned(&self, src: usize, dst: usize, tick: Tick) -> bool {
        self.partitions
            .iter()
            .any(|p| p.src == src && p.dst == dst && p.from <= tick && tick < p.heal)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.trim()
        .parse()
        .map_err(|_| format!("{what}: '{s}' is not a number"))
}

fn parse_ticks(s: &str, what: &str) -> Result<Tick, String> {
    match parse_num(s, what)? {
        ticks if ticks > MAX_TICKS => Err(format!("{what}: {ticks} ticks, more than {MAX_TICKS}")),
        ticks => Ok(ticks),
    }
}

fn parse_prob(s: &str, what: &str) -> Result<f64, String> {
    let p: f64 = parse_num(s, what)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what}: probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_edge(s: &str) -> Result<(usize, usize), String> {
    let (a, b) = s
        .split_once('>')
        .ok_or_else(|| format!("link endpoint wants SRC>DST, got '{s}'"))?;
    Ok((parse_num(a, "link src")?, parse_num(b, "link dst")?))
}

crate::codec::counters! {
    /// Per-fault-class counters, merged across workers at join and threaded
    /// through `calm-obs` as `net/faults.*` counters.
    pub struct FaultStats {
        /// Wire data transmissions attempted (first sends + retransmits +
        /// injected duplicate copies).
        pub attempts: u64,
        /// Retransmission events (an unacked entry re-entering the wire).
        pub retransmissions: u64,
        /// Extra copies injected by the duplication fault.
        pub duplicates_injected: u64,
        /// Attempts lost: fault drops, partition drops, crash-cleared
        /// in-flight wires, and arrivals refused by a down node.
        pub dropped: u64,
        /// Attempts that took the delay path.
        pub delayed: u64,
        /// Data wires accepted (fresh sequence number, facts delivered).
        pub delivered_batches: u64,
        /// Data wires suppressed by receiver-side dedup.
        pub duplicates_suppressed: u64,
        /// Fact occurrences filtered by the end-to-end per-source dedup: a
        /// crashed sender, its marks rolled back, re-sent them under
        /// fresh sequence numbers, but this node had already accepted them.
        pub replayed_facts_suppressed: u64,
        /// Cumulative acks emitted.
        pub acks_sent: u64,
        /// Node snapshots taken.
        pub snapshots: u64,
        /// Crash points fired.
        pub crashes: u64,
        /// Messages abandoned after the retry budget (> 0 means fairness
        /// could not be restored; the run reports `quiescent: false`).
        pub retry_exhausted: u64,
        /// Data wires whose payload failed wire-format validation at the
        /// receiver (corruption): refused and counted as dropped, so the
        /// sender's retransmission path covers them like any other loss.
        /// Also a recovery hand-off the worker refused — a checkpoint
        /// that does not decode, a topology that does not fit — after
        /// which the worker stops, non-clean.
        pub decode_failures: u64,
        /// Outbox entries re-armed for retransmission by a restore —
        /// in-flight traffic replayed after a crash (node rollback or a
        /// respawned worker restoring a shipped snapshot). Each replayed
        /// entry re-enters the wire through `transmit`, so the per-link
        /// identity `attempts == delivered + suppressed + dropped +
        /// buffered` still holds with replays counted inside `attempts`.
        pub replayed: u64,
        /// Encoded snapshot-blob bytes shipped to the coordinator
        /// (supervised process engine only; zero in-process).
        pub snapshot_bytes: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_grammar() {
        let plan = FaultPlan::parse(
            "seed=7,drop=0.2,dup=0.05,delay=0.3/6,link=1>2:drop=0.9,\
             partition=0>1@10..80,crash=2@5~20,crash=3@1,snapshot=4,retries=16,backoff=2",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.link.drop_p, 0.2);
        assert_eq!(plan.link.dup_p, 0.05);
        assert_eq!(plan.link.delay_p, 0.3);
        assert_eq!(plan.link.max_delay, 6);
        assert_eq!(plan.link_faults(1, 2).drop_p, 0.9);
        assert_eq!(plan.link_faults(2, 1).drop_p, 0.2); // directed
        assert_eq!(
            plan.partitions,
            vec![Partition {
                src: 0,
                dst: 1,
                from: 10,
                heal: 80
            }]
        );
        assert_eq!(plan.crashes.len(), 2);
        assert_eq!(plan.crashes[0].down_ticks, 20);
        assert_eq!(plan.crashes[1].down_ticks, 4); // default downtime
        assert_eq!(plan.snapshot_every, 4);
        assert_eq!(plan.retry_budget, 16);
        assert_eq!(plan.backoff_base, 2);
        assert!(plan.injects_faults());
        assert!(!FaultPlan::none(0).injects_faults());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "drop",            // not key=value
            "drop=2.0",        // probability out of range
            "delay=0.5",       // missing /MAX
            "warp=0.1",        // unknown key
            "partition=0>1",   // missing window
            "crash=1",         // missing transition
            "snapshot=0",      // zero interval
            "retries=0",       // zero budget
            "link=0:drop=0.1", // malformed endpoints
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn tick_spans_past_the_bound_are_refused() {
        // Each of these once reached `now + span` in a worker: an overflow
        // panic in a debug build (the run then hung), a wrap in release.
        for spec in [
            format!("backoff={}", u64::MAX),
            format!("crash=0@1~{}", u64::MAX),
            format!("delay=0.1/{}", u64::MAX),
            format!("link=0>1:delay=0.1/{}", MAX_TICKS + 1),
        ] {
            let refusal = FaultPlan::parse(&spec).expect_err(&spec);
            assert!(refusal.contains("ticks, more than"), "{spec}: {refusal}");
        }
        // The bound itself is a plan, and the substrate adds it to a
        // clock without overflow.
        let spec = format!("backoff={MAX_TICKS},crash=0@1~{MAX_TICKS},delay=1/{MAX_TICKS}");
        let plan = FaultPlan::parse(&spec).expect("at the bound");
        let mut net = crate::reliable::ReliableNet::new(&plan, &calm_obs::Obs::noop());
        net.adopt(0);
        let mut out = Vec::new();
        net.send_payload(0, 1, crate::wirefmt::encode(&Default::default()).into());
        net.snapshot(0, &mut out);
        net.advance(&mut out);
        net.crash(0, plan.crashes[0].down_ticks);
        assert!(net.node_down(0) && net.has_obligations());
    }

    #[test]
    fn any_spec_is_a_plan_inside_the_bound_or_a_refusal() {
        // The `--faults` grammar's mutation target: seeded edits of
        // specs (`codec::tests::mutate`), read as text. Nothing panics,
        // and every plan that parses keeps each span within the bound.
        let corpus = [
            "seed=7,drop=0.2,dup=0.05,delay=0.3/6,link=1>2:drop=0.9:delay=0.5/9",
            "partition=0>1@10..80,crash=2@5~20,crash=3@1,snapshot=4,retries=16,backoff=2",
            "pkill(worker=1@step=40),backoff=4294967296,crash=0@1~4294967296",
            "delay=1/4294967295,link=0>1:delay=0/4294967296,backoff=99999",
        ]
        .map(|spec| ("spec", spec.as_bytes().to_vec()));
        let mut rng = Rng::seed_from_u64(0xfa17_5bec);
        let (mut plans, mut refused) = (0, 0);
        for _ in 0..24_000 {
            let mut bytes = rng.choose(&corpus).unwrap().1.clone();
            crate::codec::tests::mutate(&mut rng, &mut bytes, &corpus);
            let spec = String::from_utf8_lossy(&bytes);
            let Ok(plan) = FaultPlan::parse(&spec) else {
                refused += 1;
                continue;
            };
            plans += 1;
            let delays = plan
                .per_link
                .values()
                .chain([&plan.link])
                .map(|l| l.max_delay);
            let downtimes = plan.crashes.iter().map(|c| c.down_ticks);
            let mut spans = delays.chain(downtimes).chain([plan.backoff_base]);
            assert!(spans.all(|ticks| ticks <= MAX_TICKS), "{spec}");
        }
        assert!(
            plans > 1_000 && refused > 1_000,
            "{plans} plans, {refused} refused"
        );
    }

    #[test]
    fn fault_decisions_are_deterministic() {
        let plan = FaultPlan::uniform(42, 0.5, 0.3);
        for seq in 0..20u64 {
            for attempt in 1..4u32 {
                let a: Vec<u64> = {
                    let mut r = plan.rolls(0, 1, seq, attempt, 1);
                    (0..4).map(|_| r.gen_u64()).collect()
                };
                let b: Vec<u64> = {
                    let mut r = plan.rolls(0, 1, seq, attempt, 1);
                    (0..4).map(|_| r.gen_u64()).collect()
                };
                assert_eq!(a, b);
            }
        }
        // Different identities give different streams.
        let x = plan.rolls(0, 1, 3, 1, 1).gen_u64();
        let y = plan.rolls(0, 1, 4, 1, 1).gen_u64();
        let z = plan.rolls(0, 1, 3, 2, 1).gen_u64();
        assert!(
            x != y || x != z,
            "decision streams should differ by identity"
        );
    }
    #[test]
    fn stats_merge_is_fieldwise() {
        let mut a = FaultStats {
            attempts: 3,
            dropped: 1,
            ..Default::default()
        };
        let b = FaultStats {
            attempts: 2,
            retransmissions: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.attempts, 5);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.retransmissions, 4);
        let mut id = FaultStats::default();
        id.merge(&a);
        assert_eq!(id, a);
    }
}
