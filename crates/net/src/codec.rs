//! Every layout once.
//!
//! What `calm-net` puts in a frame or a snapshot blob is built from a
//! handful of conventions — varint integers, zig-zag for the signed
//! one, a strict `0`/`1` byte for a bool or an option's flag, a varint
//! length before a blob or a string, a varint count before a sequence —
//! and [`Codec`] says each of them one time, for the primitive or the
//! container it belongs to. A struct's layout is then its field list in
//! wire order ([`wire_struct!`], [`counters!`]); both directions come
//! from that list, so they cannot disagree, and a field that is declared
//! and not laid out does not compile.
//!
//! What the one reader guarantees, for every type below: a truncated
//! buffer is [`WireError::Truncated`] wherever it is cut; a count is
//! checked against what is left of the buffer ([`Reader::count`]) before
//! anything is reserved for it; bools and option flags other than `0` /
//! `1`, nullary facts, values nested deeper than the bound and
//! multiplicities outside `1..=u32::MAX` are refused. Trailing bytes are
//! the caller's to refuse, with [`decode_all`].
//!
//! Facts cross as wire batches ([`crate::wirefmt`]), written from rows
//! and read into rows ([`decode_state`]): a node's state in the final
//! report ([`StateRows`]), and a checkpoint's state, inbox and receive
//! filter. A record per fact is left only in the naive E23 baseline
//! (`Codec for Multiset<Fact>`).

use crate::wirefmt::{
    decode_rows_into, encode_state, put_bytes, put_value, put_varint, unzigzag, zigzag, Reader,
    WireError,
};
use calm_common::fact::Fact;
use calm_common::storage::{CanonicalOrder, Rows, SharedSymbols, Storage, SymbolTable};
use calm_common::value::Value;
use calm_transducer::multiset::Multiset;
use calm_transducer::rows::StateRows;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A type with one wire layout: `read` accepts what `put` wrote.
pub(crate) trait Codec: Sized {
    /// Append this value's encoding.
    fn put(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Decode a whole buffer as one `T`. Strict: bytes left over are an
/// error, like truncation.
pub(crate) fn decode_all<T: Codec>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::read(&mut r)?;
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

/// The leaves, one line each: how a value of the type is written, how
/// it is read. Byte blobs — batch payloads, snapshot blobs — are a length
/// and the bytes verbatim (`u8` is no [`Codec`], so they are not sequences).
macro_rules! leaves {
    ($($ty:ty: |$value:ident, $out:ident| $put:expr, |$r:ident| $read:expr;)+) => {$(
        impl Codec for $ty {
            fn put(&self, $out: &mut Vec<u8>) {
                let $value = self;
                $put
            }
            fn read($r: &mut Reader<'_>) -> Result<Self, WireError> {
                $read
            }
        }
    )+};
}
leaves! {
    u64:       |v, out| put_varint(out, *v),          |r| r.varint();
    usize:     |v, out| put_varint(out, *v as u64),   |r| narrow(r.varint()?);
    u32:       |v, out| put_varint(out, *v as u64),   |r| narrow(r.varint()?);
    i64:       |v, out| put_varint(out, zigzag(*v)),  |r| Ok(unzigzag(r.varint()?));
    bool:      |v, out| out.push(*v as u8),           |r| r.bool();
    String:    |v, out| put_bytes(out, v.as_bytes()), |r| Ok(r.str()?.to_string());
    Value:     |v, out| put_value(out, v),            |r| r.value(0);
    Vec<u8>:   |v, out| put_bytes(out, v),            |r| Ok(r.prefixed_bytes()?.into());
    Arc<[u8]>: |v, out| put_bytes(out, v),            |r| Ok(r.prefixed_bytes()?.into());
}

fn narrow<T: TryFrom<u64>>(v: u64) -> Result<T, WireError> {
    T::try_from(v).map_err(|_| WireError::NonCanonical("integer out of range"))
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.is_some() as u8);
        if let Some(value) = self {
            value.put(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => None,
            1 => Some(T::read(r)?),
            _ => return Err(WireError::NonCanonical("bad option flag")),
        })
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|item| item.put(out));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::read(r)?);
        }
        Ok(items)
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.iter().for_each(|item| item.put(out));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        (0..r.count()?).map(|_| T::read(r)).collect()
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (key, value) in self {
            key.put(out);
            value.put(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        (0..r.count()?).map(|_| <(K, V)>::read(r)).collect()
    }
}

macro_rules! tuple {
    ($($part:ident),+) => {
        impl<$($part: Codec),+> Codec for ($($part,)+) {
            #[allow(non_snake_case)]
            fn put(&self, out: &mut Vec<u8>) {
                let ($($part,)+) = self;
                $($part.put(out);)+
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($part::read(r)?,)+))
            }
        }
    };
}
tuple!(A, B);
tuple!(A, B, C);

/// The one record for a fact: relation name, arity, values.
impl Codec for Fact {
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.relation().as_bytes());
        self.arity().put(out);
        self.args().iter().for_each(|value| put_value(out, value));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (name, arity) = (r.str()?, r.count()?);
        if arity == 0 {
            // The paper's model has no nullary relations and `Fact` asserts
            // arity >= 1: a zero here is a corrupt or hostile frame.
            return Err(WireError::NonCanonical("nullary fact"));
        }
        let args = (0..arity).map(|_| r.value(0)).collect::<Result<_, _>>()?;
        Ok(Fact::new(name, args))
    }
}

/// A set of facts as one wire batch ([`encode_state`]), into rows over
/// `table` with one `insert_batch` per relation run: a row said twice, or
/// with a count above one, is one fact, as in a set. `rows` is scratch,
/// kept by the caller from one state to the next.
pub(crate) fn decode_state(
    bytes: &[u8],
    table: &mut SymbolTable,
    rows: &mut Rows,
) -> Result<Storage, WireError> {
    rows.clear();
    decode_rows_into(bytes, table, |rel, row, _| rows.push(rel, row))?;
    let mut state = Storage::new();
    for (rel, run) in rows.runs() {
        state.insert_batch(rel, run);
    }
    Ok(state)
}

/// A worker's final states: per node, its id and its state as one
/// length-prefixed wire batch ([`encode_state`]), read back with
/// [`decode_state`] into rows over a table of the frame's own.
impl Codec for StateRows {
    fn put(&self, out: &mut Vec<u8>) {
        let table = &*self.symbols.read();
        let mut order = CanonicalOrder::default();
        order.extend(table);
        self.nodes.len().put(out);
        for (node, state) in &self.nodes {
            node.put(out);
            put_bytes(out, &encode_state(state, table, &order));
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (symbols, mut nodes, mut rows) = (SharedSymbols::new(), Vec::new(), Rows::default());
        for _ in 0..r.count()? {
            let node = Value::read(r)?;
            let state = decode_state(r.prefixed_bytes()?, &mut symbols.write(), &mut rows)?;
            nodes.push((node, state));
        }
        Ok(StateRows { symbols, nodes })
    }
}

/// A message buffer (§4.1.3) in the naive E23 baseline
/// ([`crate::wirefmt::encode_naive`]): one record and a bounded
/// multiplicity ([`Reader::multiplicity`]) per distinct fact.
impl Codec for Multiset<Fact> {
    fn put(&self, out: &mut Vec<u8>) {
        self.support().count().put(out);
        for (fact, n) in self.iter() {
            fact.put(out);
            n.put(out);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut batch = Multiset::new();
        for _ in 0..r.count()? {
            batch.insert_n(Fact::read(r)?, r.multiplicity()?);
        }
        Ok(batch)
    }
}

/// Lay a struct out: its fields once, in wire order, each a [`Codec`].
/// The encoder destructures the struct exhaustively and the decoder is a
/// struct literal, so a field added to the struct and not to this list is
/// two compile errors ("pattern requires `..`", E0063 "missing field"),
/// not a silent zero. Fields after
/// `not shipped:` stay on this side of the wire and are read back as the
/// given constants.
macro_rules! wire_struct {
    ($ty:ident: $($field:ident),+ $(; not shipped: $($local:ident = $init:expr),+)?) => {
        impl $crate::codec::Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($field,)+ $($($local: _,)+)? } = self;
                $($crate::codec::Codec::put($field, out);)+
            }
            fn read(
                r: &mut $crate::wirefmt::Reader<'_>,
            ) -> Result<Self, $crate::wirefmt::WireError> {
                Ok($ty {
                    $($field: $crate::codec::Codec::read(r)?,)+
                    $($($local: $init,)+)?
                })
            }
        }
    };
}
pub(crate) use wire_struct;

/// A struct of `u64` event counters, declared from one list: the fields,
/// `merge` (the field-wise sum), `as_pairs` (every counter under its
/// field name, in declaration order) and the wire layout (one varint
/// each, same order).
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $ty:ident { $($(#[$doc:meta])* pub $field:ident: u64,)+ }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $ty { $($(#[$doc])* pub $field: u64,)+ }

        impl $ty {
            /// Field-wise sum (associative, commutative, `Default` identity).
            pub fn merge(&mut self, other: &$ty) {
                $(self.$field += other.$field;)+
            }

            /// Every counter as a `(label, value)` pair — the label is the
            /// field's name — in declaration order, zeros included.
            pub fn as_pairs(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }

        $crate::codec::wire_struct!($ty: $($field),+);
    };
}
pub(crate) use counters;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::reliable::{NodeLinks, NodeSnapshot};
    use crate::transport::proto::{decode_snapshot_blob, encode_snapshot_blob};
    use calm_common::fact::{fact, RelName};
    use calm_common::instance::Instance;
    use calm_common::rng::Rng;
    use calm_common::storage::{load_instance, store_to_instance, Sym};
    use calm_transducer::rows::Batch;

    /// `states` as the rows a worker would hold them in.
    pub(crate) fn rows_of(states: &[(Value, Instance)]) -> StateRows {
        let mut rows = StateRows::default();
        for (node, state) in states {
            let mut storage = Storage::new();
            load_instance(state, &rows.symbols, &mut storage);
            rows.nodes.push((node.clone(), storage));
        }
        rows
    }

    /// The facts `rows` stand for, node by node as they were read.
    fn facts_of(rows: &StateRows) -> Vec<(Value, Instance)> {
        let facts = |(node, state): &(Value, Storage)| {
            (node.clone(), store_to_instance(state, &rows.symbols))
        };
        rows.nodes.iter().map(facts).collect()
    }

    fn encoded(value: &impl Codec) -> Vec<u8> {
        let mut out = Vec::new();
        value.put(&mut out);
        out
    }

    /// One to three seeded edits of `bytes` — a hostile varint or byte
    /// inserted (a length used before it is checked against what is left
    /// would abort or overflow a capacity), a byte deleted, a bit
    /// flipped, a run of another frame of `corpus` spliced in: the shape
    /// of `parser.rs::scanner_is_the_reference_on_mutated_bytes`.
    pub(crate) fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, corpus: &[(&str, Vec<u8>)]) {
        let hostile: Vec<Vec<u8>> = [0, 1, 2, 0x7f, 0x80, 0xff]
            .iter()
            .map(|&b| vec![b])
            .chain([1 << 32, 1 << 40, 1 << 62, 1 << 63, u64::MAX].map(|v| encoded(&v)))
            .collect();
        for _ in 0..rng.gen_range(1..=3usize) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..4u32) {
                0 => drop(bytes.splice(at..at, rng.choose(&hostile).unwrap().iter().copied())),
                1 if at < bytes.len() => drop(bytes.remove(at)),
                2 if at < bytes.len() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
                _ => {
                    let other = &rng.choose(corpus).unwrap().1;
                    let from = rng.gen_range(0..=other.len());
                    let to = rng.gen_range(from..=other.len());
                    bytes.splice(at..at, other[from..to].iter().copied());
                }
            }
        }
    }

    fn random_value(rng: &mut Rng, depth: usize) -> Value {
        match rng.gen_range(0..if depth < 2 { 4u32 } else { 3 }) {
            0 => Value::Int(rng.gen_range(0..7u64) as i64 - 3),
            1 => Value::Int(rng.gen_u64() as i64),
            2 => Value::str(rng.choose(&["", "a", "ab", "b", "Z", "é"]).unwrap()),
            _ => {
                let args = (0..rng.gen_range(0..3usize)).map(|_| random_value(rng, depth + 1));
                let args = args.collect();
                Value::skolem(rng.choose(&["f", "g"]).unwrap(), args)
            }
        }
    }

    /// Up to three nodes' states over four relations — negative ints,
    /// strings, Skolem terms — where a tuple may sit beside the longer
    /// one it is a prefix of; some states are empty.
    fn random_states(rng: &mut Rng) -> Vec<(Value, Instance)> {
        let relations = ["T", "Ta", "out_T", "c_E"].map(calm_common::fact::rel);
        let nodes = rng.gen_range(0..4usize);
        let mut state = |node: usize| {
            let mut state = Instance::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let relation = rng.choose(&relations).unwrap();
                let arity = rng.gen_range(1..4usize);
                let tuple: Vec<Value> = (0..arity).map(|_| random_value(rng, 0)).collect();
                if arity > 1 && rng.gen_bool(0.3) {
                    state.insert_tuple(relation, tuple[..arity - 1].to_vec());
                }
                state.insert_tuple(relation, tuple);
            }
            (Value::Int(node as i64 * 4 + 2), state)
        };
        (0..nodes).map(&mut state).collect()
    }

    /// `states` as rows that look nothing like them: symbols and
    /// relations interned in a shuffled order, rows inserted in another,
    /// tombstones among them, and a relation that was emptied again.
    fn scrambled_rows(rng: &mut Rng, states: &[(Value, Instance)]) -> StateRows {
        let symbols = SharedSymbols::new();
        let table = &mut *symbols.write();
        let mut facts: Vec<_> = states.iter().flat_map(|(_, state)| state.iter()).collect();
        rng.shuffle(&mut facts);
        for (relation, tuple) in &facts {
            for value in tuple.iter().rev() {
                table.sym(value);
            }
            table.rel(relation);
        }
        let (ghost, gone) = (table.rel("ghost"), table.sym(&Value::str("gone")));
        let nodes = states.iter().map(|(node, state)| {
            let mut storage = Storage::new();
            storage.insert(ghost, &[gone]);
            storage.retract(ghost, &[gone]);
            let mut facts: Vec<_> = state.iter().collect();
            rng.shuffle(&mut facts);
            for (relation, tuple) in facts {
                let relation = table.rel(relation);
                let mut row: Vec<_> = tuple.iter().map(|value| table.sym(value)).collect();
                storage.insert(relation, &row);
                if rng.gen_bool(0.3) {
                    // No live row ends in this value.
                    row.push(gone);
                    storage.insert(relation, &row);
                    storage.retract(relation, &row);
                }
            }
            (node.clone(), storage)
        });
        let nodes = nodes.collect();
        StateRows {
            symbols: symbols.clone(),
            nodes,
        }
    }

    /// The final report's states as the fact codecs say them: per node,
    /// its id and the bytes [`crate::wirefmt::encode`] writes for its
    /// facts — the reference the row encoder is held to.
    fn reference_states(states: &[(Value, Instance)]) -> Vec<u8> {
        let batch = |state: &Instance| crate::wirefmt::encode(&state.facts().collect());
        let blobs: Vec<(Value, Vec<u8>)> = (states.iter())
            .map(|(node, state)| (node.clone(), batch(state)))
            .collect();
        encoded(&blobs)
    }

    /// Read a final report's states with the fact decoder
    /// ([`crate::wirefmt::decode`]), node by node: a fact said with a
    /// count above one is one fact, as it is in a set.
    fn reference_facts(bytes: &[u8]) -> Result<Vec<(Value, Instance)>, WireError> {
        let mut r = Reader::new(bytes);
        let mut states = Vec::new();
        for _ in 0..r.count()? {
            let node = Value::read(&mut r)?;
            let facts = crate::wirefmt::decode(r.prefixed_bytes()?)?;
            states.push((node, Instance::from_facts(facts.support().cloned())));
        }
        match r.remaining() {
            0 => Ok(states),
            _ => Err(WireError::TrailingBytes),
        }
    }

    #[test]
    fn the_final_states_are_the_bytes_of_the_fact_batch_encoder() {
        let mut rng = Rng::seed_from_u64(0xf1a7);
        let (mut facts, mut two_arities) = (0, 0);
        for case in 0..400 {
            let states = random_states(&mut rng);
            let rows = scrambled_rows(&mut rng, &states);
            let bytes = encoded(&rows);
            assert_eq!(bytes, reference_states(&states), "case {case}: {states:?}");
            // Read into rows, the frame is the states again — as it is
            // through the fact decoder.
            let back: StateRows = decode_all(&bytes).expect("what was written reads");
            assert_eq!(facts_of(&back), states, "case {case}");
            assert_eq!(reference_facts(&bytes), Ok(states.clone()));
            assert_eq!(encoded(&back), bytes, "case {case}: re-encoded");
            for (_, state) in &states {
                facts += state.len();
                let prefixed = |(r, t): (&RelName, &Vec<Value>)| {
                    t.len() > 1 && state.contains_tuple(r, &t[..t.len() - 1])
                };
                two_arities += state.iter().filter(|&f| prefixed(f)).count();
            }
        }
        assert!(
            facts > 5_000 && two_arities > 500,
            "{facts} facts, {two_arities} beside their prefix"
        );
    }

    /// One to three batches of messages over `table`, pushed in no order:
    /// arities 1–3, a count sometimes above one, and the first message in
    /// the last batch a second time. With the multiset they are.
    fn random_inbox(rng: &mut Rng, table: &mut SymbolTable) -> (Vec<Arc<Batch>>, Multiset<Fact>) {
        let (mut batches, mut all, mut first) = (Vec::new(), Multiset::new(), None);
        for b in 0..rng.gen_range(1..4usize) {
            let mut facts: Vec<(Fact, usize)> = (0..rng.gen_range(0..6usize))
                .map(|_| {
                    let args = (0..rng.gen_range(1..4usize)).map(|_| random_value(rng, 0));
                    let args = args.collect();
                    let relation = rng.choose(&["m_E", "n_E"]).unwrap();
                    (Fact::new(relation, args), rng.gen_range(1..4usize))
                })
                .collect();
            match &first {
                Some(f) if b > 0 => facts.push((Fact::clone(f), 1)),
                _ => first = facts.first().map(|(f, _)| f.clone()),
            }
            let mut batch = Batch::default();
            for (f, n) in facts {
                let row: Vec<Sym> = f.args().iter().map(|v| table.sym(v)).collect();
                batch.push_n(table.rel(f.relation()), &row, n);
                all.insert_n(f, n);
            }
            batches.push(Arc::new(batch));
        }
        (batches, all)
    }

    /// A receive filter of one to three sources over `table`, rows
    /// inserted in no order, with the sets of facts it holds: arities 1–3,
    /// a fact beside the longer one it is a prefix of.
    fn random_filter(
        rng: &mut Rng,
        table: &mut SymbolTable,
    ) -> (BTreeMap<usize, Storage>, FactSets) {
        let (mut rows, mut facts) = (BTreeMap::new(), FactSets::new());
        for _ in 0..rng.gen_range(1..4usize) {
            let src = rng.gen_range(0..6usize);
            let mut set: Vec<Fact> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    let relation = rng.choose(&["m_E", "n_E"]).unwrap();
                    let args = (0..rng.gen_range(1..4usize)).map(|_| random_value(rng, 0));
                    Fact::new(relation, args.collect())
                })
                .collect();
            if let Some(f) = set.first().filter(|f| f.arity() > 1) {
                set.push(Fact::new(f.relation(), f.args()[..f.arity() - 1].to_vec()));
            }
            rng.shuffle(&mut set);
            let held: &mut Storage = rows.entry(src).or_default();
            for f in &set {
                let row: Vec<Sym> = f.args().iter().map(|v| table.sym(v)).collect();
                held.insert(table.rel(f.relation()), &row);
            }
            facts.entry(src).or_default().extend(set);
        }
        (rows, facts)
    }

    /// A receive filter as the facts it held.
    type FactSets = BTreeMap<usize, BTreeSet<Fact>>;

    /// What a snapshot blob holds, as facts: state, inbox, link state
    /// (as its bytes), receive filter, transition count and trace seq.
    type BlobFacts = (Instance, Multiset<Fact>, Vec<u8>, FactSets, (u64, u64));

    /// The bytes [`crate::wirefmt::encode`] writes for `facts`, each once.
    fn fact_batch(facts: impl IntoIterator<Item = Fact>) -> Vec<u8> {
        crate::wirefmt::encode(&facts.into_iter().collect())
    }

    /// A snapshot blob as the fact codecs say it: the state, the inbox and
    /// each source's filter the length-prefixed bytes
    /// [`crate::wirefmt::encode`] writes for their facts, around the link
    /// state — the reference the blob writer is held to.
    fn reference_blob((state, inbox, links, filter, tail): &BlobFacts) -> Vec<u8> {
        let filter: BTreeMap<usize, Vec<u8>> = (filter.iter())
            .map(|(&src, set)| (src, fact_batch(set.iter().cloned())))
            .collect();
        let (state, inbox) = (fact_batch(state.facts()), crate::wirefmt::encode(inbox));
        let parts = [encoded(&state), encoded(&inbox), links.clone()];
        [parts.concat(), encoded(&filter), encoded(tail)].concat()
    }

    /// Read a snapshot blob part by part with the fact decoder
    /// ([`crate::wirefmt::decode`]): a fact said with a count above one in
    /// a set is one fact.
    fn reference_read(bytes: &[u8]) -> Result<BlobFacts, WireError> {
        let mut r = Reader::new(bytes);
        let set = |bytes| -> Result<BTreeSet<Fact>, WireError> {
            Ok(crate::wirefmt::decode(bytes)?.support().cloned().collect())
        };
        let state = Instance::from_facts(set(r.prefixed_bytes()?)?);
        let inbox = crate::wirefmt::decode(r.prefixed_bytes()?)?;
        let links = encoded(&NodeLinks::read(&mut r)?);
        let mut filter = FactSets::new();
        for _ in 0..r.count()? {
            let src = usize::read(&mut r)?;
            filter.insert(src, set(r.prefixed_bytes()?)?);
        }
        let tail = Codec::read(&mut r)?;
        match r.remaining() {
            0 => Ok((state, inbox, links, filter, tail)),
            _ => Err(WireError::TrailingBytes),
        }
    }

    /// The blob decoder into a table where the indexes mean other values:
    /// the facts its rows stand for there, and the blob written from them.
    fn blob_read(bytes: &[u8]) -> Result<(BlobFacts, Vec<u8>), WireError> {
        let restorer = SharedSymbols::new();
        restorer.write().sym(&Value::str("x"));
        let (snap, transitions, seq) = decode_snapshot_blob(bytes, &mut restorer.write())?;
        let mut inbox = Multiset::new();
        for batch in &snap.pending {
            batch.add_to(&restorer.read(), &mut inbox);
        }
        let filter = snap.links.recv_dedup.iter();
        let filter = filter.map(|(&src, rows)| (src, store_to_instance(rows, &restorer)));
        let filter = filter.map(|(src, set)| (src, set.facts().collect()));
        let state = store_to_instance(&snap.state, &restorer);
        let order = order_of(&restorer);
        let written = encode_snapshot_blob(&snap, &restorer.read(), &order, transitions, seq);
        let links = encoded(&snap.links);
        Ok((
            (state, inbox, links, filter.collect(), (transitions, seq)),
            written,
        ))
    }

    /// The canonical order of `symbols`'s table as it stands.
    fn order_of(symbols: &SharedSymbols) -> CanonicalOrder {
        let mut order = CanonicalOrder::default();
        order.extend(&symbols.read());
        order
    }

    /// A checkpoint — the first of [`random_states`], a [`random_inbox`] and
    /// a [`random_filter`], in rows over one scrambled table — as its blob
    /// and as the facts it holds, `case` its one receive cursor; and
    /// whether a fact of its inbox sits in two of its batches.
    fn random_blob(rng: &mut Rng, case: u64) -> (Vec<u8>, BlobFacts, bool) {
        let states = random_states(rng);
        let state = states
            .first()
            .map_or_else(Instance::new, |(_, s)| s.clone());
        let rows = scrambled_rows(rng, &states[..states.len().min(1)]);
        let (pending, inbox) = random_inbox(rng, &mut rows.symbols.write());
        let (filter, filter_facts) = random_filter(rng, &mut rows.symbols.write());
        let mut links = NodeLinks::default();
        links.cum.insert(0, case);
        let link_bytes = encoded(&links);
        links.recv_dedup = filter;
        let table = &*rows.symbols.read();
        let holds = |f: &Fact| pending.iter().filter(|b| batch_holds(b, table, f)).count();
        let shared = inbox.support().any(|f| holds(f) > 1);
        let snap = NodeSnapshot {
            state: rows
                .nodes
                .first()
                .map_or_else(Storage::new, |(_, s)| s.clone()),
            pending,
            links,
        };
        let blob = encode_snapshot_blob(&snap, table, &order_of(&rows.symbols), 17, case);
        (
            blob,
            (state, inbox, link_bytes, filter_facts, (17, case)),
            shared,
        )
    }

    #[test]
    fn the_snapshot_writer_writes_the_bytes_of_the_fact_batch_encoder() {
        let mut rng = Rng::seed_from_u64(0x5a_a9);
        let (mut facts, mut pending, mut shared, mut filtered) = (0, 0, 0, 0);
        for case in 0..400u64 {
            let (blob, held, two_batches) = random_blob(&mut rng, case);
            assert_eq!(blob, reference_blob(&held), "case {case}: {held:?}");
            // Read into rows over another table, the blob is the facts
            // again — those the fact decoder reads from its parts — and
            // written from there, the same bytes.
            assert_eq!(
                blob_read(&blob),
                Ok((held.clone(), blob.clone())),
                "case {case}"
            );
            assert_eq!(reference_read(&blob), Ok(held.clone()), "case {case}");
            facts += held.0.len();
            pending += held.1.len();
            filtered += held.3.values().map(BTreeSet::len).sum::<usize>();
            shared += usize::from(two_batches);
        }
        assert!(
            facts > 1_000 && pending > 2_000 && shared > 150 && filtered > 1_500,
            "{facts} facts, {pending} pending, {shared} inboxes with a fact in two batches, \
             {filtered} in receive filters"
        );
    }

    #[test]
    fn the_snapshot_reader_is_the_fact_batch_decoder_on_mutated_blobs() {
        // 24 000 seeded edits of small blobs (`mutate`): the blob decoder,
        // into rows, and the fact decoder on each part give the same facts
        // or the same refusal, and neither panics; what is accepted is
        // written again in at most the bytes it was read from.
        let mut rng = Rng::seed_from_u64(0xb10b_f1a7);
        // Small checkpoints, every other one with no receive filter: an
        // edit of a long batch is nearly always a refusal, and one of a
        // blob's five parts is mostly one. Their bytes are the writer's
        // (`the_snapshot_writer_writes_the_bytes_of_the_fact_batch_encoder`).
        let mut corpus = Vec::new();
        while corpus.len() < 12 {
            let (_, mut held, _) = random_blob(&mut rng, corpus.len() as u64);
            if corpus.len() % 2 == 0 {
                held.3.clear();
            }
            let filtered: usize = held.3.values().map(BTreeSet::len).sum();
            if held.0.len() + held.1.len() + filtered <= 2 {
                corpus.push(("blob", reference_blob(&held)));
            }
        }
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let mut bytes = rng.choose(&corpus).unwrap().1.clone();
            mutate(&mut rng, &mut bytes, &corpus);
            let read = blob_read(&bytes);
            let facts = read.as_ref().map(|(facts, _)| facts.clone());
            assert_eq!(facts.map_err(|e| *e), reference_read(&bytes), "{bytes:?}");
            match read {
                Err(_) => rejected += 1,
                Ok((_, written)) => {
                    accepted += 1;
                    assert!(written.len() <= bytes.len(), "{bytes:?}");
                }
            }
        }
        assert!(
            accepted > 800 && rejected > 20_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }

    /// Whether `batch`, rows over `table`, holds `fact`.
    fn batch_holds(batch: &Batch, table: &SymbolTable, fact: &Fact) -> bool {
        let mut facts = Multiset::new();
        batch.add_to(table, &mut facts);
        facts.count(fact) > 0
    }

    /// A final report's states written by hand, so that they can lie:
    /// one node, and a batch of `claimed` bytes holding `batch`.
    fn states_frame(claimed: u64, batch: &[u8]) -> Vec<u8> {
        [
            &[1][..],
            &encoded(&Value::Int(2)),
            &encoded(&claimed),
            batch,
        ]
        .concat()
    }

    /// A batch by hand: the header, a dictionary of `values`, and one
    /// group of `T` rows of `arity`, each its column bytes and a count.
    fn batch_of(values: &[Value], arity: u8, rows: &[&[u8]]) -> Vec<u8> {
        let mut out = vec![crate::wirefmt::MAGIC, crate::wirefmt::FORMAT_DELTA];
        out.push(values.len() as u8);
        values.iter().for_each(|v| put_value(&mut out, v));
        out.extend([1, 1, b'T', arity, rows.len() as u8]);
        rows.iter().for_each(|row| out.extend_from_slice(row));
        out
    }

    #[test]
    fn the_final_states_decoder_refuses_what_the_fact_batch_decoder_refused() {
        let decode = |bytes: &[u8]| decode_all::<StateRows>(bytes).map(|rows| facts_of(&rows));
        let (one, minus_two) = (Value::Int(1), Value::Int(-2));
        let batch = batch_of(&[minus_two, one], 2, &[&[1, 0, 1]]);
        let state = Instance::from_facts([fact("T", [1, -2])]);
        let honest = states_frame(batch.len() as u64, &batch);
        assert_eq!(honest, reference_states(&[(Value::Int(2), state.clone())]));
        assert_eq!(decode(&honest), Ok(vec![(Value::Int(2), state.clone())]));
        for cut in 0..honest.len() {
            assert_eq!(
                decode(&honest[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        let trailing = [&honest[..], &[0]].concat();
        assert_eq!(decode(&trailing), Err(WireError::TrailingBytes));
        // A count above what is left of the buffer is refused where it is
        // read: reserving for this one would abort.
        for claimed in [batch.len() as u64 + 1, 1 << 40, u64::MAX] {
            let lie = states_frame(claimed, &batch);
            assert_eq!(decode(&lie), Err(WireError::Truncated), "{claimed} bytes");
            let nodes = [&encoded(&claimed)[..], &honest[1..]].concat();
            assert_eq!(decode(&nodes), Err(WireError::Truncated), "{claimed} nodes");
        }
        let nullary = batch_of(&[], 0, &[]);
        assert_eq!(
            decode(&states_frame(nullary.len() as u64, &nullary)),
            Err(WireError::NonCanonical("zero arity"))
        );
        let mut nested = Value::Int(0);
        for _ in 0..70 {
            nested = Value::skolem("f", vec![nested]);
        }
        let deep = batch_of(&[nested], 1, &[&[0, 1]]);
        let deep = states_frame(deep.len() as u64, &deep);
        assert_eq!(decode(&deep), Err(WireError::TooDeep));
        // A row said twice in a state is one fact, as it is in a set.
        let twice = batch_of(&[Value::Int(-2), Value::Int(1)], 2, &[&[1, 0, 2]]);
        let twice = states_frame(twice.len() as u64, &twice);
        assert_eq!(decode(&twice), Ok(vec![(Value::Int(2), state)]));
        let reread: StateRows = decode_all(&twice).unwrap();
        assert_eq!(encoded(&reread), honest);

        // The 24 000 mutations of `proto.rs::decoders_survive_mutated_frames`
        // against this decoder alone, with the fact batch decoder as the
        // reference: the same facts or the same refusal, never a panic.
        let mut rng = Rng::seed_from_u64(0xc0de_f1a7);
        // Small states: an edit of a long batch is nearly always a refusal.
        let mut corpus = vec![("by hand", honest), ("twice", twice)];
        while corpus.len() < 12 {
            let states = random_states(&mut rng);
            if states.iter().map(|(_, state)| state.len()).sum::<usize>() <= 3 {
                corpus.push(("random", encoded(&rows_of(&states))));
            }
        }
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let mut bytes = rng.choose(&corpus).unwrap().1.clone();
            mutate(&mut rng, &mut bytes, &corpus);
            let read = decode_all::<StateRows>(&bytes);
            let facts = read.as_ref().map(facts_of).map_err(|e| *e);
            assert_eq!(facts, reference_facts(&bytes), "{bytes:?}");
            match read {
                Err(_) => rejected += 1,
                Ok(rows) => {
                    accepted += 1;
                    let again = encoded(&rows);
                    assert!(again.len() <= bytes.len(), "{bytes:?}");
                    assert_eq!(
                        decode_all(&again).map(|r: StateRows| encoded(&r)),
                        Ok(again)
                    );
                }
            }
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }
}
