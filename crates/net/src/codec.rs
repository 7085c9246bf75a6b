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
//! Facts are written from rows in [`CanonicalOrder`] and read into rows
//! ([`put_state`], [`put_pending`], [`read_rows`]): a node's state, inbox
//! and receive filter in a checkpoint. The states of the final report
//! ([`StateRows`]) are one wire batch per node ([`encode_state`]).

use crate::wirefmt::{
    decode_rows_into, encode_state, put_bytes, put_value, put_varint, unzigzag, zigzag, Reader,
    WireError,
};
use calm_common::fact::Fact;
use calm_common::storage::{
    relations_by_name, CanonicalOrder, RelId, Rows, SharedSymbols, Storage, Sym, SymbolTable,
};
use calm_common::value::Value;
use calm_transducer::multiset::Multiset;
use calm_transducer::rows::{canonical_rows, Batch, StateRows};
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
fn put_record<'v>(
    out: &mut Vec<u8>,
    relation: &str,
    args: impl ExactSizeIterator<Item = &'v Value>,
) {
    put_bytes(out, relation.as_bytes());
    args.len().put(out);
    args.for_each(|value| put_value(out, value));
}

/// Read one record up to its values: the relation name and how many
/// values follow, each for the caller to read with [`Reader::value`].
fn read_record_head<'b>(r: &mut Reader<'b>) -> Result<(&'b str, usize), WireError> {
    let (name, arity) = (r.str()?, r.count()?);
    if arity == 0 {
        // The paper's model has no nullary relations and `Fact` asserts
        // arity >= 1: a zero here is a corrupt or hostile frame.
        return Err(WireError::NonCanonical("nullary fact"));
    }
    Ok((name, arity))
}

impl Codec for Fact {
    fn put(&self, out: &mut Vec<u8>) {
        put_record(out, self.relation(), self.args().iter());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (name, arity) = read_record_head(r)?;
        let args = (0..arity).map(|_| r.value(0)).collect::<Result<_, _>>()?;
        Ok(Fact::new(name, args))
    }
}

/// A set of facts from rows: the count, then a record per live row of
/// `state`, in the order of the facts they stand for (`order` has taken
/// in `table`).
pub(crate) fn put_state(
    out: &mut Vec<u8>,
    state: &Storage,
    table: &SymbolTable,
    order: &CanonicalOrder,
) {
    state.len().put(out);
    for (name, r) in relations_by_name(state, table) {
        let relation = state.relation(r).expect("a listed relation");
        for id in order.sorted_ids(relation, None) {
            let row = relation.row(id).iter();
            put_record(out, name, row.map(|&s| table.value(s)));
        }
    }
}

/// A message buffer from rows, in `Codec for Multiset<Fact>`'s layout: a
/// record per distinct row of `batches`, occurrences summed across them.
pub(crate) fn put_pending(
    out: &mut Vec<u8>,
    batches: &[Arc<Batch>],
    table: &SymbolTable,
    order: &CanonicalOrder,
) {
    let rows = canonical_rows(batches.iter().flat_map(|b| b.rows()), table, order, false);
    rows.len().put(out);
    for (r, row, n) in rows {
        put_record(out, table.rel_name(r), row.iter().map(|&s| table.value(s)));
        n.put(out);
    }
}

/// Read a count of records into rows over `table`, each handed to `take`
/// with the reader after its values; a run of one relation's records
/// interns its name once.
pub(crate) fn read_rows<'b>(
    r: &mut Reader<'b>,
    table: &mut SymbolTable,
    mut take: impl FnMut(&mut Reader<'b>, RelId, &[Sym]) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let (mut row, mut last) = (Vec::new(), None);
    for _ in 0..r.count()? {
        let (name, arity) = read_record_head(r)?;
        let relation = match last {
            Some((named, relation)) if named == name => relation,
            _ => last.insert((name, table.rel(name))).1,
        };
        row.clear();
        for _ in 0..arity {
            row.push(r.sym(table)?);
        }
        take(r, relation, &row)?;
    }
    Ok(())
}

/// A set of facts as [`put_state`] writes it, into rows over `table`: a
/// repeated record collapses, as it does in a set.
pub(crate) fn read_state(
    r: &mut Reader<'_>,
    table: &mut SymbolTable,
) -> Result<Storage, WireError> {
    let mut state = Storage::new();
    read_rows(r, table, |_, relation, row| {
        state.insert(relation, row);
        Ok(())
    })?;
    Ok(state)
}

/// A worker's final states: per node, its id and its state as one
/// length-prefixed wire batch ([`encode_state`]), read back with
/// [`decode_rows_into`] into rows over a table of the frame's own, one
/// `insert_batch` per relation run — a row counted twice is one fact, as
/// in a set.
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
            let (node, mut state) = (Value::read(r)?, Storage::new());
            let (bytes, table) = (r.prefixed_bytes()?, &mut symbols.write());
            decode_rows_into(bytes, table, |rel, row, _| rows.push(rel, row))?;
            for (rel, run) in rows.runs() {
                state.insert_batch(rel, run);
            }
            rows.clear();
            nodes.push((node, state));
        }
        Ok(StateRows { symbols, nodes })
    }
}

/// A message buffer (§4.1.3): one record and a bounded multiplicity
/// ([`Reader::multiplicity`]) per distinct fact.
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
    use calm_common::fact::{fact, RelName};
    use calm_common::instance::Instance;
    use calm_common::rng::Rng;
    use calm_common::storage::{load_instance, store_to_instance};

    /// The instance codec the row writers replaced: the reference
    /// [`put_state`] and [`read_state`] are held to.
    impl Codec for Instance {
        fn put(&self, out: &mut Vec<u8>) {
            self.len().put(out);
            for (relation, tuple) in self.iter() {
                put_record(out, relation, tuple.iter());
            }
        }
        fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
            let mut instance = Instance::new();
            for _ in 0..r.count()? {
                instance.insert(Fact::read(r)?);
            }
            Ok(instance)
        }
    }

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

    #[test]
    fn the_snapshot_writer_writes_the_bytes_of_the_instance_and_multiset_encoders() {
        use crate::reliable::{NodeLinks, NodeSnapshot};
        use crate::transport::proto::{decode_snapshot_blob, encode_snapshot_blob};
        let mut rng = Rng::seed_from_u64(0x5a_a9);
        let (mut facts, mut pending, mut shared, mut filtered) = (0, 0, 0, 0);
        for case in 0..400u64 {
            let states = random_states(&mut rng);
            let state = states
                .first()
                .map_or_else(Instance::new, |(_, s)| s.clone());
            let rows = scrambled_rows(&mut rng, &states[..states.len().min(1)]);
            let (inbox, all) = random_inbox(&mut rng, &mut rows.symbols.write());
            let (filter, filter_facts) = random_filter(&mut rng, &mut rows.symbols.write());
            let mut links = NodeLinks::default();
            links.cum.insert(0, case);
            // The layout of the links with the filter kept in facts.
            let reference = [
                encoded(&state),
                encoded(&all),
                encoded(&links),
                encoded(&filter_facts),
                encoded(&(17u64, case)),
            ]
            .concat();
            links.recv_dedup = filter;
            let table = &*rows.symbols.read();
            let mut order = CanonicalOrder::default();
            order.extend(table);
            let (nodes, state_rows) = (rows.nodes.len(), rows.nodes.first());
            let snap = NodeSnapshot {
                state: state_rows.map_or_else(Storage::new, |(_, s)| s.clone()),
                pending: inbox,
                links,
            };
            let blob = encode_snapshot_blob(&snap, table, &order, 17, case);
            assert_eq!(blob, reference, "case {case}: {state:?} {all:?}");
            // Read into a table where the indexes mean other values: the
            // same facts, and written from there, the same bytes.
            let restorer = SharedSymbols::new();
            restorer.write().sym(&Value::str("x"));
            let (back, ..) = decode_snapshot_blob(&blob, &mut restorer.write()).expect("reads");
            let mut again = Multiset::new();
            back.pending
                .iter()
                .for_each(|b| b.add_to(&restorer.read(), &mut again));
            assert_eq!(
                store_to_instance(&back.state, &restorer),
                state,
                "case {case}"
            );
            assert_eq!(again, all, "case {case}");
            let held = back.links.recv_dedup.iter();
            let held = held.map(|(&src, rows)| (src, store_to_instance(rows, &restorer)));
            let held: FactSets = held
                .map(|(src, set)| (src, set.facts().collect()))
                .collect();
            assert_eq!(held, filter_facts, "case {case}");
            let mut order = CanonicalOrder::default();
            order.extend(&restorer.read());
            let rewritten = encode_snapshot_blob(&back, &restorer.read(), &order, 17, case);
            assert_eq!(rewritten, blob, "case {case}");
            // And the decoders the rows replaced read what they wrote.
            let mut r = Reader::new(&blob);
            assert_eq!(Instance::read(&mut r), Ok(state.clone()));
            assert_eq!(Multiset::<Fact>::read(&mut r), Ok(all.clone()));
            assert!(NodeLinks::read(&mut r).is_ok());
            assert_eq!(FactSets::read(&mut r), Ok(filter_facts.clone()));
            facts += state.len() * usize::from(nodes > 0);
            pending += all.len();
            filtered += filter_facts.values().map(BTreeSet::len).sum::<usize>();
            let held = |f: &Fact| {
                snap.pending
                    .iter()
                    .filter(|b| batch_holds(b, table, f))
                    .count()
            };
            shared += usize::from(all.support().any(|f| held(f) > 1));
        }
        assert!(
            facts > 1_000 && pending > 2_000 && shared > 150 && filtered > 1_500,
            "{facts} facts, {pending} pending, {shared} inboxes with a fact in two batches, \
             {filtered} in receive filters"
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
