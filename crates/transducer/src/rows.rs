//! What a node holds and moves between transitions, as interned rows:
//! a [`Batch`] of message rows (one send, one decoded wire batch, the
//! node's input fragment), the [`Inbox`] of batches waiting to be
//! delivered, `SymSet`, a set of values, and [`StateRows`], the final
//! states of an engine instance's nodes.
//!
//! Every [`Sym`] and [`RelId`] here is an index into the one
//! [`SymbolTable`] of the engine instance the node runs in — a
//! [`crate::runtime::run_with`] call, a `calm-net` worker — and means
//! nothing outside it: a frame or a snapshot blob carries the values the
//! rows stand for, written and read by `calm-net`'s codec over the
//! worker's table, and a configuration `(s, b)` of the specification
//! (`calm-spec`) holds facts.
//! [`input_batches`] interns the input `I` into the `H(x)` of every node,
//! [`Batch::of_facts`] and [`Batch::add_to`] are the conversions to and
//! from facts at the specification's edges (DESIGN §17), and
//! [`canonical_rows`] orders rows as the facts they stand for.
//! [`StateRows`] carries its table with it.

use crate::multiset::Multiset;
use crate::network::NodeId;
use crate::policy::DistributionPolicy;
use calm_common::fact::Fact;
use calm_common::instance::Instance;
use calm_common::storage::{CanonicalOrder, RelId, Rows, SharedSymbols, Storage, Sym, SymbolTable};
use calm_common::value::Value;
use std::sync::Arc;

/// Message rows grouped by relation: what one step sent, what one wire
/// batch decoded into. Built by pushing, then shared behind an [`Arc`]
/// and never changed again — every recipient's inbox holds the handle.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The rows in push order, a run per relation and arity: the arity
    /// is the run's, not the relation's — a wire batch may hold `m_E(1)`
    /// beside `m_E(1,2)`.
    rows: Rows,
    /// How often each row occurs, in row order — empty while every row
    /// occurs once (every send; most wire batches).
    counts: Vec<u32>,
    /// How many rows were pushed.
    pushed: usize,
    occurrences: usize,
}

impl Batch {
    /// One occurrence of `row` of relation `rel`.
    pub(crate) fn push(&mut self, rel: RelId, row: &[Sym]) {
        self.push_n(rel, row, 1);
    }

    /// `n` occurrences of `row` of relation `rel` (at most `u32::MAX`).
    pub fn push_n(&mut self, rel: RelId, row: &[Sym], n: usize) {
        if n == 0 {
            return;
        }
        if n > 1 && self.counts.is_empty() {
            self.counts.resize(self.pushed, 1);
        }
        if n > 1 || !self.counts.is_empty() {
            self.counts
                .push(u32::try_from(n).expect("occurrences of one fact in one batch"));
        }
        self.rows.push(rel, row);
        self.pushed += 1;
        self.occurrences += n;
    }

    /// The occurrences the batch holds (`|m|` when it is delivered).
    pub fn len(&self) -> usize {
        self.occurrences
    }

    /// Whether the batch holds nothing.
    pub fn is_empty(&self) -> bool {
        self.occurrences == 0
    }

    /// The runs in push order: relation, and its rows of one arity.
    pub(crate) fn groups(
        &self,
    ) -> impl Iterator<Item = (RelId, std::slice::ChunksExact<'_, Sym>)> + '_ {
        self.rows.runs()
    }

    /// Every row with how often it occurs, in push order.
    pub fn rows(&self) -> impl Iterator<Item = (RelId, &[Sym], usize)> + '_ {
        let mut counts = self.counts.iter();
        self.groups()
            .flat_map(|(rel, rows)| rows.map(move |row| (rel, row)))
            .map(move |(rel, row)| (rel, row, counts.next().map_or(1, |&n| n as usize)))
    }

    /// Intern a multiset of facts against `table`: the way a
    /// configuration's facts enter a node (its input fragment and its
    /// buffer, in `calm-spec`'s `transition`).
    pub fn of_facts(facts: &Multiset<Fact>, table: &mut SymbolTable) -> Batch {
        let (mut batch, mut row) = (Batch::default(), Vec::new());
        for (f, n) in facts.iter() {
            let rel = intern_row(table, f.relation(), f.args(), &mut row);
            batch.push_n(rel, &row, n);
        }
        batch
    }

    /// Add the batch's facts, un-interned, to `out`: the way rows leave
    /// a node as facts (a configuration).
    pub fn add_to(&self, table: &SymbolTable, out: &mut Multiset<Fact>) {
        for (rel, row, n) in self.rows() {
            out.insert_n(fact_of(table, rel, row), n);
        }
    }
}

/// Intern one fact — relation and arguments — against `table`: the
/// relation's id, and the row in `row` (overwritten).
pub(crate) fn intern_row(
    table: &mut SymbolTable,
    relation: &str,
    args: &[Value],
    row: &mut Vec<Sym>,
) -> RelId {
    row.clear();
    row.extend(args.iter().map(|v| table.sym(v)));
    table.rel(relation)
}

/// The fact a row stands for under `table`.
pub(crate) fn fact_of(table: &SymbolTable, rel: RelId, row: &[Sym]) -> Fact {
    Fact::from_rel(table.rel_name(rel).clone(), values_of(table, row))
}

/// The values a row stands for under `table`.
pub(crate) fn values_of(table: &SymbolTable, row: &[Sym]) -> Vec<Value> {
    row.iter().map(|&s| table.value(s).clone()).collect()
}

/// `dist_P(I)` ([`crate::policy::distribute`]) in rows over `table`: the
/// `H(x)` of every node, in network order — `I` walked once, each fact
/// interned into the batch of every node the policy assigns it to.
pub fn input_batches(
    policy: &dyn DistributionPolicy,
    input: &Instance,
    table: &mut SymbolTable,
) -> Vec<Batch> {
    let nodes: Vec<&NodeId> = policy.network().nodes().collect();
    let (mut batches, mut row) = (vec![Batch::default(); nodes.len()], Vec::new());
    for f in input.facts() {
        let rel = intern_row(table, f.relation(), f.args(), &mut row);
        for x in policy.assign(&f) {
            batches[nodes.binary_search(&&x).expect("a node of the network")].push(rel, &row);
        }
    }
    batches
}

/// `rows` over `table` (every symbol taken in by `order`), each distinct
/// row once with its occurrences summed, in the order of the facts they
/// stand for — by name, value ranks, a prefix first — or, `by_arity`, by
/// name, arity and ranks: the wire's groups.
pub fn canonical_rows<'r>(
    rows: impl Iterator<Item = (RelId, &'r [Sym], usize)>,
    table: &SymbolTable,
    order: &CanonicalOrder,
    by_arity: bool,
) -> Vec<(RelId, &'r [Sym], usize)> {
    let mut rows: Vec<_> = rows.collect();
    let group = |r: RelId, row: &[Sym]| (&**table.rel_name(r), by_arity.then_some(row.len()));
    let ranks = |row: &'r [Sym]| row.iter().map(|&s| order.rank(s));
    rows.sort_unstable_by(|a, b| {
        let by_group = group(a.0, a.1).cmp(&group(b.0, b.1));
        by_group.then_with(|| ranks(a.1).cmp(ranks(b.1)))
    });
    rows.dedup_by(|next, kept| {
        let same = next.0 == kept.0 && next.1 == kept.1;
        kept.2 += if same { next.2 } else { 0 };
        same
    });
    rows
}

/// The final `s(x)` of the nodes of one engine instance — a
/// [`crate::runtime::run_with`] call, a `calm-net` worker, one decoded
/// final report — as the instance held them: each node's rows over the
/// relations of `Υout ∪ Υmem` ([`crate::engine::NodeEngine::into_rows`]),
/// all over the one table `symbols`. What a run hands over when it
/// ends; facts are made of it only for a caller that asks
/// ([`crate::runtime::FinalStates`]).
#[derive(Debug, Clone, Default)]
pub struct StateRows {
    /// The table every row of `nodes` is over.
    pub symbols: SharedSymbols,
    /// Each node with its state.
    pub nodes: Vec<(NodeId, Storage)>,
}

/// `b(x)`: the batches sent to a node and not yet delivered, each
/// behind the handle its sender made, and how many occurrences they hold
/// together — enqueueing is a push, and the depth is a read.
#[derive(Debug, Clone, Default)]
pub struct Inbox {
    batches: Vec<Arc<Batch>>,
    buffered: usize,
}

impl Inbox {
    /// Take one more batch.
    pub(crate) fn push(&mut self, batch: Arc<Batch>) {
        self.buffered += batch.len();
        self.batches.push(batch);
    }

    /// The occurrences buffered.
    pub(crate) fn len(&self) -> usize {
        self.buffered
    }

    /// The buffered batches, oldest first.
    pub(crate) fn batches(&self) -> &[Arc<Batch>] {
        &self.batches
    }

    /// Empty the inbox, returning what it held.
    pub(crate) fn take(&mut self) -> Vec<Arc<Batch>> {
        self.buffered = 0;
        std::mem::take(&mut self.batches)
    }

    /// The buffer as the multiset of facts it is (for a configuration,
    /// [`crate::runtime::RunReport::buffers`]).
    pub(crate) fn to_multiset(&self, table: &SymbolTable) -> Multiset<Fact> {
        let mut out = Multiset::new();
        for batch in &self.batches {
            batch.add_to(table, &mut out);
        }
        out
    }
}

/// A set of interned values: a membership flag per symbol of the table,
/// and the members as a list.
#[derive(Debug, Clone, Default)]
pub(crate) struct SymSet {
    member: Vec<bool>,
    listed: Vec<Sym>,
}

impl SymSet {
    /// Whether `s` is a member.
    pub(crate) fn contains(&self, s: Sym) -> bool {
        self.member.get(s.0 as usize).copied().unwrap_or(false)
    }

    /// Add `s`; `true` when it was not a member.
    pub(crate) fn insert(&mut self, s: Sym) -> bool {
        let i = s.0 as usize;
        if self.member.len() <= i {
            self.member.resize(i + 1, false);
        }
        let new = !std::mem::replace(&mut self.member[i], true);
        if new {
            self.listed.push(s);
        }
        new
    }

    /// Take `s` out; `true` when it was a member. Costs a scan of the
    /// members when it was — for the few values a delivery brings.
    pub(crate) fn remove(&mut self, s: Sym) -> bool {
        let was = self.contains(s);
        if was {
            self.member[s.0 as usize] = false;
            let at = self.listed.iter().position(|&m| m == s);
            self.listed.swap_remove(at.expect("a member is listed"));
        }
        was
    }

    /// Whether the set has no member.
    pub(crate) fn is_empty(&self) -> bool {
        self.listed.is_empty()
    }

    /// The members, in no particular order.
    pub(crate) fn as_slice(&self) -> &[Sym] {
        &self.listed
    }

    /// Remove every member, keeping the allocation.
    pub(crate) fn clear(&mut self) {
        for s in self.listed.drain(..) {
            self.member[s.0 as usize] = false;
        }
    }
}
