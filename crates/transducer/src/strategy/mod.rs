//! The three generic coordination-free evaluation strategies from the
//! proofs of Theorems 4.3 and 4.4 and the discussion in Section 4.3:
//!
//! | Strategy | Class | A node originates | and stores | Output |
//! |---|---|---|---|---|
//! | [`MonotoneBroadcast`] | `M` (`F0`) | `m_R`: the facts of `H(x)` | every delivered fact (`c_R`) | `Q` of everything known, immediately |
//! | [`DistinctStrategy`] | `Mdistinct` (`F1`) | `m_R`: the facts of `H(x)`; `n_R`: the **non-facts** it deduced itself (`policy_R` says mine, fact not local) | every delivered fact and absence (`c_R`, `ab_R`) | `Q` on complete value-subsets |
//! | [`DisjointStrategy`] | `Mdisjoint` (`F2`) | `v_a`: the active domain of `H(x)`; per known value it does not own, one `rq`; to a requester, the `m_R` facts of `H(x)` that hold the value, then `okm`; per collected fact, one `k_R` ack | delivered facts, requests, acks, OKs | `Q` on complete components |
//!
//! **A node originates only what is its own, once, and forwards
//! nothing.** §4.1.3's network is a clique: a send puts `snd` in the
//! buffer of *every* other node. So the constructions behind `F0 = M`
//! and Theorem 4.3 have a node send the input facts it *holds* and the
//! non-facts it is *responsible for*, and that is all the code sends: a
//! tuple crosses the network `n − 1` times per holder
//! (`crates/net/tests/originate_once.rs`), and a node restored from its
//! state re-sends exactly the own tuples its marks do not cover.
//! Forwarding is how a fact reaches a non-neighbour in the
//! arbitrary-topology networks of Ameloot–Neven–Van den Bussche's
//! *Relational transducers for declarative networking*; it belongs there.
//!
//! Each strategy is a native [`Transducer`](crate::transducer::Transducer)
//! parameterized by the query it
//! evaluates; none of them reads the `All` relation, which is why the same
//! transducers witness `Mdistinct ⊆ A1` and `Mdisjoint ⊆ A2`
//! (Theorem 4.5).

mod disjoint;
mod distinct;
mod monotone;

pub use disjoint::DisjointStrategy;
pub use distinct::DistinctStrategy;
pub use monotone::MonotoneBroadcast;

use crate::transducer::{NodeView, TransducerStep};
use calm_common::fact::{rel, Fact};
use calm_common::instance::{Instance, Tuple};
use calm_common::query::Query;
use calm_common::schema::Schema;
use calm_common::storage::{RelId, Sym, SymbolTable};

/// The protocol class of a message fact, keyed by the message-relation
/// naming convention shared by the three strategies. This is the
/// vocabulary of the paper's §4.3 cost comparison: `M` sends only fact
/// broadcasts; `Mdistinct` adds absence broadcasts; `Mdisjoint` trades
/// fact broadcasts for a per-value request/OK/ack protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum MessageClass {
    /// `m_R` — a broadcast input fact (all strategies).
    FactBroadcast,
    /// `n_R` — a broadcast input *non-fact* (`DistinctStrategy`).
    AbsenceBroadcast,
    /// `v_a` — an active-domain value broadcast (`DisjointStrategy`).
    ValueBroadcast,
    /// `rq` — a per-value request to the responsible nodes
    /// (`DisjointStrategy`).
    Request,
    /// `okm` — a per-value completion acknowledgement
    /// (`DisjointStrategy`).
    Ok,
    /// `k_R` — a per-fact answer to a request (`DisjointStrategy`).
    Ack,
    /// Anything else (custom transducers outside the three strategies).
    Other,
}

/// Classify a message relation by its name: the one definition of a
/// class. A node asks once per relation, when it first meets the
/// relation's id, and counts sends by the cached answer.
pub(crate) fn classify_message(name: &str) -> MessageClass {
    match name {
        "v_a" => MessageClass::ValueBroadcast,
        "rq" => MessageClass::Request,
        "okm" => MessageClass::Ok,
        _ => {
            if name.starts_with("m_") {
                MessageClass::FactBroadcast
            } else if name.starts_with("n_") {
                MessageClass::AbsenceBroadcast
            } else if name.starts_with("k_") {
                MessageClass::Ack
            } else {
                MessageClass::Other
            }
        }
    }
}

/// Per-class message counts for one run: one counter per
/// `MessageClass`, each counting (fact, recipient) pairs like
/// `messages_sent`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageClassCounts {
    /// `m_R` fact broadcasts.
    pub fact: usize,
    /// `n_R` absence broadcasts.
    pub absence: usize,
    /// `v_a` value broadcasts.
    pub value: usize,
    /// `rq` requests.
    pub request: usize,
    /// `okm` completion acknowledgements.
    pub ok: usize,
    /// `k_R` per-fact answers.
    pub ack: usize,
    /// Unclassified messages.
    pub other: usize,
}

impl MessageClassCounts {
    /// Count `n` messages of `class`.
    pub(crate) fn record(&mut self, class: MessageClass, n: usize) {
        match class {
            MessageClass::FactBroadcast => self.fact += n,
            MessageClass::AbsenceBroadcast => self.absence += n,
            MessageClass::ValueBroadcast => self.value += n,
            MessageClass::Request => self.request += n,
            MessageClass::Ok => self.ok += n,
            MessageClass::Ack => self.ack += n,
            MessageClass::Other => self.other += n,
        }
    }

    /// Total across all classes (equals `messages_sent` at all times).
    pub fn total(&self) -> usize {
        self.fact + self.absence + self.value + self.request + self.ok + self.ack + self.other
    }

    /// `(label, count)` pairs in declaration order, including zeros.
    pub fn as_pairs(&self) -> [(&'static str, usize); 7] {
        [
            ("fact", self.fact),
            ("absence", self.absence),
            ("value", self.value),
            ("request", self.request),
            ("ok", self.ok),
            ("ack", self.ack),
            ("other", self.other),
        ]
    }

    /// Messages of the per-value coordination protocol (request + ok +
    /// ack): nonzero exactly for the `Mdisjoint` strategy.
    pub fn coordination(&self) -> usize {
        self.request + self.ok + self.ack
    }

    /// Fold another count set into this one. Associative and
    /// commutative with the default as identity — the threaded executor
    /// relies on this when merging per-worker metrics at join.
    pub fn merge(&mut self, other: &MessageClassCounts) {
        self.fact += other.fact;
        self.absence += other.absence;
        self.value += other.value;
        self.request += other.request;
        self.ok += other.ok;
        self.ack += other.ack;
        self.other += other.other;
    }
}

/// Per-class counts of one step's send — `n` rows of each `class` — as
/// `class.<label>` trace-event argument names. Zero classes are
/// skipped, so a `trace/send` event carries only the classes the send
/// actually contains.
pub(crate) fn class_arg_counts(
    sent: impl Iterator<Item = (MessageClass, usize)>,
) -> Vec<(&'static str, u64)> {
    let mut counts = MessageClassCounts::default();
    for (class, n) in sent {
        counts.record(class, n);
    }
    [
        ("class.fact", counts.fact),
        ("class.absence", counts.absence),
        ("class.value", counts.value),
        ("class.request", counts.request),
        ("class.ok", counts.ok),
        ("class.ack", counts.ack),
        ("class.other", counts.other),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .map(|(name, n)| (name, n as u64))
    .collect()
}

/// Message relation carrying facts of input relation `R`.
pub fn msg_rel(r: &str) -> String {
    format!("m_{r}")
}

/// Message relation carrying *absences* of input relation `R`.
pub(crate) fn absence_rel(r: &str) -> String {
    format!("n_{r}")
}

/// Memory relation storing collected facts of input relation `R`.
pub fn coll_rel(r: &str) -> String {
    format!("c_{r}")
}

/// Output relation for query-output relation `R` (transducer schemas
/// require `Υout` disjoint from `Υin`, so query outputs are prefixed).
pub fn out_rel(r: &str) -> String {
    format!("out_{r}")
}

/// The renamed output schema of a query: `R ↦ out_R`.
pub(crate) fn renamed_output_schema(q: &dyn Query) -> Schema {
    let mut s = Schema::new();
    for (name, arity) in q.output_schema().iter() {
        s.add(&out_rel(name), arity);
    }
    s
}

/// What a strategy network is expected to output for input `I`:
/// `Q(I)` with every output relation `R` renamed to `out_R`.
pub fn expected_output(q: &dyn Query, input: &Instance) -> Instance {
    rename_to_out(q.eval(input))
}

/// Rename every relation `R` of a query answer to `out_R`.
pub(crate) fn rename_to_out(answer: Instance) -> Instance {
    let mut out = Instance::new();
    for r in answer.relation_names() {
        out.extend_relation(&rel(out_rel(r)), answer.tuples(r).cloned());
    }
    out
}

/// One kind of knowledge about the tuples of an input relation (that
/// they are facts; that they are absent) as a node's program handles
/// it: remembered in `known`, broadcast as `msg`, the broadcast marked
/// in `sent`. The names are interned once, when the program opens.
pub(crate) struct Gossip {
    pub(crate) known: RelId,
    pub(crate) sent: RelId,
    pub(crate) msg: RelId,
}

impl Gossip {
    pub(crate) fn new(table: &mut SymbolTable, known: &str, sent: &str, msg: &str) -> Self {
        Gossip {
            known: table.rel(known),
            sent: table.rel(sent),
            msg: table.rel(msg),
        }
    }

    /// `t` became known, wherever from: remember it; `true` when new.
    pub(crate) fn store(&self, view: &mut NodeView<'_>, t: &[Sym]) -> bool {
        view.insert(self.known, t)
    }

    /// `t` is this node's own (a fact of `H(x)`, an absence it deduced
    /// itself): broadcast it, unless the mark says that happened.
    pub(crate) fn originate(&self, view: &mut NodeView<'_>, t: &[Sym]) {
        if view.insert(self.sent, t) {
            view.send(self.msg, t);
        }
    }
}

/// The relations a node's answer goes to: by the id of each output
/// relation `R` of `q` in the node's table, the id of `out_R` — the map
/// a session's answer rows cross into `D` by ([`NodeView::answer`]).
pub(crate) fn out_relations(q: &dyn Query, table: &mut SymbolTable) -> Vec<(RelId, RelId)> {
    (q.output_schema().names())
        .map(|r| (table.rel(r), table.rel(&out_rel(r))))
        .collect()
}

/// [`Gossip::originate`] as specified on an instance: the `own` tuples
/// not marked in `sent` are sent as `msg` and marked.
pub(crate) fn originate<'t>(
    d: &Instance,
    step: &mut TransducerStep,
    own: impl Iterator<Item = &'t Tuple>,
    (sent, msg): (&str, &str),
) {
    for t in own.filter(|t| !d.contains_tuple(sent, t)) {
        step.snd.insert(Fact::new(msg, t.clone()));
        step.ins.insert(Fact::new(sent, t.clone()));
    }
}

/// Gather the "collected input" visible in `D`: for each input relation
/// `R`, the union of local `R` facts, remembered `c_R` facts and freshly
/// delivered `m_R` facts — under the original relation name `R`, ready
/// for query evaluation.
pub(crate) fn collected_input(input_schema: &Schema, d: &Instance) -> Instance {
    let mut out = Instance::new();
    for (r, _) in input_schema.iter() {
        for source in [r.as_ref(), &coll_rel(r), &msg_rel(r)] {
            for t in d.tuples(source) {
                out.insert_tuple(r, t.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use calm_common::fact::fact;
    use calm_common::query::FnQuery;

    #[test]
    fn message_classification_follows_naming_convention() {
        assert_eq!(classify_message("m_E"), MessageClass::FactBroadcast);
        assert_eq!(classify_message("n_E"), MessageClass::AbsenceBroadcast);
        assert_eq!(classify_message("v_a"), MessageClass::ValueBroadcast);
        assert_eq!(classify_message("rq"), MessageClass::Request);
        assert_eq!(classify_message("okm"), MessageClass::Ok);
        assert_eq!(classify_message("k_E"), MessageClass::Ack);
        assert_eq!(classify_message("weird"), MessageClass::Other);
    }

    #[test]
    fn class_counts_sum_to_total() {
        let mut c = MessageClassCounts::default();
        c.record(MessageClass::FactBroadcast, 3);
        c.record(MessageClass::Request, 2);
        c.record(MessageClass::Ok, 1);
        c.record(MessageClass::Ack, 4);
        assert_eq!(c.total(), 10);
        assert_eq!(c.coordination(), 7);
        let pairs = c.as_pairs();
        assert_eq!(pairs.iter().map(|(_, n)| n).sum::<usize>(), c.total());
        assert_eq!(pairs[0], ("fact", 3));
    }

    #[test]
    fn relation_namers() {
        assert_eq!(msg_rel("E"), "m_E");
        assert_eq!(absence_rel("E"), "n_E");
        assert_eq!(coll_rel("E"), "c_E");
        assert_eq!(out_rel("T"), "out_T");
    }

    #[test]
    fn collected_merges_three_sources() {
        let schema = Schema::from_pairs([("E", 2)]);
        let d = Instance::from_facts([
            fact("E", [1, 2]),
            fact("c_E", [3, 4]),
            fact("m_E", [5, 6]),
            fact("Other", [9]),
        ]);
        let c = collected_input(&schema, &d);
        assert_eq!(c.relation_len("E"), 3);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn expected_output_renames() {
        let q = FnQuery::new(
            "copy",
            Schema::from_pairs([("E", 2)]),
            Schema::from_pairs([("T", 2)]),
            |i: &Instance| {
                Instance::from_facts(
                    i.tuples("E")
                        .map(|t| fact("T", [t[0].clone(), t[1].clone()])),
                )
            },
        );
        let input = Instance::from_facts([fact("E", [1, 2])]);
        let e = expected_output(&q, &input);
        assert_eq!(e, Instance::from_facts([fact("out_T", [1, 2])]));
        assert_eq!(renamed_output_schema(&q).arity("out_T"), Some(2));
    }
}
