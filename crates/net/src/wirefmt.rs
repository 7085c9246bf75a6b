//! The delta-encoded wire format for fact batches.
//!
//! A step's send crosses between workers as bytes ([`crate::executor`]'s
//! `Msg::Batch`, [`crate::reliable::Wire::Data`]), retransmitted
//! verbatim under a fault plan. The layout applies the storage idea
//! (sorted rows, leading-column runs) to one message:
//!
//! * a per-message **value dictionary**: the distinct [`Value`]s of the
//!   batch, sorted, each written once — workers intern symbols
//!   independently, so the wire carries values, never a `Sym`;
//! * rows grouped by `(relation, arity)` in name order, each row a tuple
//!   of dictionary indexes;
//! * the rows of a group sorted lexicographically, then
//!   **delta-encoded**: column 0 as a plain varint delta, the other
//!   columns as zigzag varint deltas against the previous row, and a
//!   per-row multiplicity varint.
//!
//! Sorting is what makes deltas small, and it makes the encoding
//! canonical: equal multisets of facts encode to identical bytes, so a
//! retransmitted payload is byte-for-byte the original and tests compare
//! payloads with `==`.
//!
//! **One codec, on rows.** [`encode_rows`] writes a [`Batch`] over a
//! worker's table as it stands — the dictionary ranked by the worker's
//! [`CanonicalOrder`], no fact built — and [`decode_rows`] reads the
//! dictionary into the receiving worker's table ([`Reader::sym`]) and the
//! rows into one [`Batch`]. [`encode`] and [`decode`] are the same codec
//! behind a `Multiset<Fact>` door, over a table of their own.
//!
//! Decoding is strict: bad magic, truncation, a dictionary that is not
//! strictly sorted, unsorted groups or rows, zero arity, out-of-range
//! indexes, multiplicities outside `1..=u32::MAX`, nesting past
//! `MAX_VALUE_DEPTH` and trailing bytes are each a [`WireError`] (counted
//! as a drop by the reliability substrate), never a garbled batch.
//!
//! [`encode_naive`] is the reference format the delta encoding is
//! measured against (`tests/wire.rs`, experiment E23): every fact
//! carries its full relation name and self-described values, no
//! dictionary and no deltas. No engine sends or counts it.

use crate::codec::{decode_all, Codec};
use calm_common::fact::Fact;
use calm_common::storage::{relations_by_name, CanonicalOrder, RelId, Storage, Sym, SymbolTable};
use calm_common::value::{SkolemTerm, Value};
use calm_transducer::multiset::Multiset;
use calm_transducer::rows::{canonical_rows, Batch};
use std::fmt;
use std::sync::Arc;

/// First byte of every encoded batch.
pub(crate) const MAGIC: u8 = 0xCA;
/// Second byte of a delta-encoded batch (format discriminator).
pub(crate) const FORMAT_DELTA: u8 = 0x01;
/// Second byte of a naive-encoded batch (the E23 baseline).
pub(crate) const FORMAT_NAIVE: u8 = 0x02;
/// Flag OR'd into the format byte when a [`TraceCtx`] extension sits
/// between the header and the body. Tracing off ⇒ the flag is clear and
/// the payload is byte-identical to the untraced encoding — the
/// extension costs zero bytes unless used.
pub(crate) const FLAG_TRACE: u8 = 0x80;

/// The causal trace context carried on a traced payload: the message's
/// own id (minted by the origin node, strictly increasing per origin)
/// and, when the send was triggered by a delivery, the id of that
/// triggering message. Retransmitted copies are byte-verbatim, so the
/// context survives retransmission for free.
///
/// Wire layout (after the 2-byte header, before the batch body):
///
/// ```text
/// varint origin_node | varint origin_seq | u8 cause? (0|1)
///   [ varint cause_node | varint cause_seq ]   -- iff cause? == 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TraceCtx {
    /// The node that minted this message id.
    pub(crate) origin_node: u64,
    /// The per-origin sequence number (strictly increasing).
    pub(crate) origin_seq: u64,
    /// The id of the delivery that causally triggered this send, or
    /// `None` for a root send triggered by input distribution alone.
    pub(crate) cause: Option<(u64, u64)>,
}

impl TraceCtx {
    /// This context's message id as a `(origin_node, origin_seq)` pair.
    pub(crate) fn id(&self) -> (u64, u64) {
        (self.origin_node, self.origin_seq)
    }
}

/// Maximum Skolem-term nesting the decoder will follow (corruption
/// guard: a crafted payload must not recurse the decoder off the
/// stack).
const MAX_VALUE_DEPTH: usize = 64;

/// Why a payload failed to decode. Any error means the payload is not
/// a well-formed batch; the reliability layer counts it as a drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload does not start with the magic byte and the expected
    /// format byte, or is shorter than the header.
    BadHeader,
    /// The payload ended inside a field.
    Truncated,
    /// A varint ran past 10 bytes (would overflow 64 bits).
    VarintOverflow,
    /// A relation or functor name is not valid UTF-8.
    BadUtf8,
    /// A row column decoded to an index outside the dictionary.
    IndexOutOfRange,
    /// A Skolem term nests deeper than [`MAX_VALUE_DEPTH`].
    TooDeep,
    /// A structural invariant of the canonical encoding is violated
    /// (unsorted dictionary/groups/rows, zero arity, zero multiplicity,
    /// an unknown value tag, an implausible length prefix).
    NonCanonical(&'static str),
    /// Bytes remained after the last group.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadHeader => write!(f, "bad magic or format byte"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::VarintOverflow => write!(f, "varint overflows 64 bits"),
            WireError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            WireError::IndexOutOfRange => write!(f, "dictionary index out of range"),
            WireError::TooDeep => write!(f, "value nesting too deep"),
            WireError::NonCanonical(what) => write!(f, "non-canonical encoding: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after last group"),
        }
    }
}

impl std::error::Error for WireError {}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A value, self-described: tag byte, then the payload.
pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            put_varint(out, zigzag(*i));
        }
        Value::Str(s) => {
            out.push(1);
            put_bytes(out, s.as_bytes());
        }
        Value::Skolem(t) => {
            out.push(2);
            put_bytes(out, t.functor.as_bytes());
            put_varint(out, t.args.len() as u64);
            for a in &t.args {
                put_value(out, a);
            }
        }
    }
}

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = (byte & 0x7f) as u64;
            if shift == 63 && bits > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// A varint element count. Every element takes at least one byte, so
    /// a count above what is left of the buffer is a truncated (or
    /// hostile) frame — rejected here, before anything is allocated.
    pub(crate) fn count(&mut self) -> Result<usize, WireError> {
        let n = self.varint()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A strict bool: one byte, `0` or `1`.
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::NonCanonical("bad bool")),
        }
    }

    /// A fact's multiplicity in a batch, `1..=u32::MAX`: zero is not
    /// canonical, and more is no buffer an engine produced (so the sum
    /// over what one frame can hold stays far inside a `usize`).
    pub(crate) fn multiplicity(&mut self) -> Result<usize, WireError> {
        match self.varint()? {
            0 => Err(WireError::NonCanonical("zero multiplicity")),
            n if n > u32::MAX as u64 => Err(WireError::NonCanonical("implausible multiplicity")),
            n => Ok(n as usize),
        }
    }

    /// A varint length prefix followed by that many bytes.
    pub(crate) fn prefixed_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.varint()? as usize;
        self.bytes(n)
    }

    pub(crate) fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.prefixed_bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// A value as [`Reader::value`] reads it — the same layout, the same
    /// refusals — interned into `table`: an integer or a string cell
    /// goes in by its borrowed form, no [`Value`] built for it.
    pub(crate) fn sym(&mut self, table: &mut SymbolTable) -> Result<Sym, WireError> {
        match self.buf.get(self.pos) {
            Some(0) => {
                self.pos += 1;
                Ok(table.sym_int(unzigzag(self.varint()?)))
            }
            Some(1) => {
                self.pos += 1;
                Ok(table.sym_str(self.str()?))
            }
            _ => Ok(table.sym(&self.value(0)?)),
        }
    }

    pub(crate) fn value(&mut self, depth: usize) -> Result<Value, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep);
        }
        match self.u8()? {
            0 => Ok(Value::Int(unzigzag(self.varint()?))),
            1 => Ok(Value::Str(Arc::from(self.str()?))),
            2 => {
                let functor: Arc<str> = Arc::from(self.str()?);
                let argc = self.count()?;
                let mut args = Vec::with_capacity(argc);
                for _ in 0..argc {
                    args.push(self.value(depth + 1)?);
                }
                Ok(Value::Skolem(Arc::new(SkolemTerm { functor, args })))
            }
            _ => Err(WireError::NonCanonical("unknown value tag")),
        }
    }
}

/// Encode a batch into the delta wire format. The encoding is
/// canonical: equal multisets produce identical bytes.
pub fn encode(batch: &Multiset<Fact>) -> Vec<u8> {
    let mut table = SymbolTable::new();
    let rows = Batch::of_facts(batch, &mut table);
    let mut order = CanonicalOrder::default();
    order.extend(&table);
    encode_rows(rows.rows(), &table, &order, None)
}

/// Decode a delta wire payload back into a batch, discarding any trace
/// context. Strict: every structural invariant of [`encode`]'s output
/// is checked, so a corrupted payload fails instead of producing a
/// garbled batch.
pub fn decode(bytes: &[u8]) -> Result<Multiset<Fact>, WireError> {
    let mut table = SymbolTable::new();
    let (rows, _) = decode_rows(bytes, &mut table)?;
    let mut batch = Multiset::new();
    rows.add_to(&table, &mut batch);
    Ok(batch)
}

/// Read just the header + trace extension of a delta payload, without
/// touching the body. `None` when the payload is untraced or too
/// corrupt to carry a context — cheap enough to call on every hand-off.
pub(crate) fn peek_trace(bytes: &[u8]) -> Option<TraceCtx> {
    read_header(&mut Reader::new(bytes)).ok().flatten()
}

/// The header of a payload: magic, format byte and — for a traced send —
/// the context.
fn header(ctx: Option<&TraceCtx>) -> Vec<u8> {
    let Some(ctx) = ctx else {
        return vec![MAGIC, FORMAT_DELTA];
    };
    let mut out = vec![MAGIC, FORMAT_DELTA | FLAG_TRACE];
    (ctx.origin_node, ctx.origin_seq, ctx.cause).put(&mut out);
    out
}

/// Read a header as [`header`] writes it: the context, if it has one.
fn read_header(r: &mut Reader<'_>) -> Result<Option<TraceCtx>, WireError> {
    if r.u8().map_err(|_| WireError::BadHeader)? != MAGIC {
        return Err(WireError::BadHeader);
    }
    match r.u8().map_err(|_| WireError::BadHeader)? {
        f if f == FORMAT_DELTA => Ok(None),
        f if f == FORMAT_DELTA | FLAG_TRACE => {
            let (origin_node, origin_seq) = (r.varint()?, r.varint()?);
            let cause = match r.u8()? {
                0 => None,
                1 => Some((r.varint()?, r.varint()?)),
                _ => return Err(WireError::NonCanonical("bad cause flag")),
            };
            Ok(Some(TraceCtx {
                origin_node,
                origin_seq,
                cause,
            }))
        }
        _ => Err(WireError::BadHeader),
    }
}

/// Encode `rows` — each over `table`, ranked by `order`, with how often
/// it occurs — with `ctx` when the send was traced: the bytes of the
/// multiset of facts they stand for.
pub(crate) fn encode_rows<'r>(
    rows: impl Iterator<Item = (RelId, &'r [Sym], usize)>,
    table: &SymbolTable,
    order: &CanonicalOrder,
    ctx: Option<&TraceCtx>,
) -> Vec<u8> {
    let rank = |s: Sym| order.rank(s);
    let rows = canonical_rows(rows, table, order, true);
    // A step's send is small against the table: sort all its cells.
    let mut dict: Vec<Sym> = rows.iter().flat_map(|row| row.1).copied().collect();
    dict.sort_unstable_by_key(|&s| rank(s));
    dict.dedup();
    let index = |s: Sym| dict.partition_point(|&d| rank(d) < rank(s)) as u64;
    put_rows(header(ctx), || rows.iter().copied(), table, &dict, index)
}

/// A node's final state as one batch: the bytes [`encode`] writes for
/// its facts, each relation's rows sorted by [`CanonicalOrder::sorted_ids`].
pub(crate) fn encode_state(
    state: &Storage,
    table: &SymbolTable,
    order: &CanonicalOrder,
) -> Vec<u8> {
    let sorted: Vec<_> = (relations_by_name(state, table).into_iter())
        .map(|(_, r)| {
            let relation = state.relation(r).expect("a listed relation");
            let mut ids = order.sorted_ids(relation, None);
            ids.sort_by_key(|&id| relation.row(id).len());
            (r, relation, ids)
        })
        .collect();
    let rows =
        || (sorted.iter()).flat_map(|(r, rel, ids)| ids.iter().map(|&id| (*r, rel.row(id), 1)));
    // A whole state is large against its table: a slot per symbol marks
    // it seen, then holds its index.
    let mut slots = vec![u32::MAX; table.sym_count()];
    let mut dict: Vec<Sym> = (rows().flat_map(|row| row.1.iter().copied()))
        .filter(|s| std::mem::replace(&mut slots[s.0 as usize], 0) != 0)
        .collect();
    dict.sort_unstable_by_key(|&s| order.rank(s));
    for (i, &s) in dict.iter().enumerate() {
        slots[s.0 as usize] = i as u32;
    }
    put_rows(header(None), rows, table, &dict, |s| {
        u64::from(slots[s.0 as usize])
    })
}

/// Append `dict` — every symbol of the rows, once, by rank — and the
/// groups of `rows()` (distinct, in the wire's order) to `out`, each
/// symbol written as its `index` in `dict`; the rows are read twice and
/// none is held.
fn put_rows<'r, I: Iterator<Item = (RelId, &'r [Sym], usize)>>(
    mut out: Vec<u8>,
    rows: impl Fn() -> I,
    table: &SymbolTable,
    dict: &[Sym],
    index: impl Fn(Sym) -> u64,
) -> Vec<u8> {
    // The groups: relation, arity and row count.
    let mut groups = Vec::<(RelId, usize, usize)>::new();
    for (r, row, _) in rows() {
        match groups.last_mut() {
            Some((g, arity, n)) if *g == r && *arity == row.len() => *n += 1,
            _ => groups.push((r, row.len(), 1)),
        }
    }
    put_varint(&mut out, dict.len() as u64);
    for &s in dict {
        put_value(&mut out, table.value(s));
    }
    put_varint(&mut out, groups.len() as u64);
    let (mut rows, mut prev) = (rows(), Vec::new());
    for &(r, arity, len) in &groups {
        put_bytes(&mut out, table.rel_name(r).as_bytes());
        put_varint(&mut out, arity as u64);
        put_varint(&mut out, len as u64);
        prev.clear();
        prev.resize(arity, 0);
        for (_, row, n) in rows.by_ref().take(len) {
            // Column 0 is non-decreasing down a sorted group.
            put_varint(&mut out, index(row[0]) - prev[0]);
            prev[0] = index(row[0]);
            for (&s, p) in row[1..].iter().zip(&mut prev[1..]) {
                put_varint(&mut out, zigzag(index(s) as i64 - *p as i64));
                *p = index(s);
            }
            put_varint(&mut out, n as u64);
        }
    }
    out
}

/// Decode a delta payload into one [`Batch`] over `table` — values
/// interned as read, rows pushed as read — and its trace context.
pub(crate) fn decode_rows(
    bytes: &[u8],
    table: &mut SymbolTable,
) -> Result<(Batch, Option<TraceCtx>), WireError> {
    let mut batch = Batch::default();
    let ctx = decode_rows_into(bytes, table, |rel, row, n| batch.push_n(rel, row, n))?;
    Ok((batch, ctx))
}

/// [`decode_rows`], each row — with how often it occurs — handed to
/// `take` as it is read instead of kept.
pub(crate) fn decode_rows_into(
    bytes: &[u8],
    table: &mut SymbolTable,
    mut take: impl FnMut(RelId, &[Sym], usize),
) -> Result<Option<TraceCtx>, WireError> {
    let mut r = Reader::new(bytes);
    let ctx = read_header(&mut r)?;
    let dict_len = r.count()?;
    let mut dict: Vec<Sym> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        let s = r.sym(table)?;
        let v = table.value(s);
        if dict.last().is_some_and(|&p| table.value(p) >= v) {
            return Err(WireError::NonCanonical("dictionary not strictly sorted"));
        }
        dict.push(s);
    }
    let mut prev_group: Option<(&str, usize)> = None;
    let (mut prev, mut cells, mut row) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..r.count()? {
        let (name, arity) = (r.str()?, r.count()?);
        if arity == 0 {
            return Err(WireError::NonCanonical("zero arity"));
        }
        if prev_group.is_some_and(|p| p >= (name, arity)) {
            return Err(WireError::NonCanonical("groups not strictly sorted"));
        }
        prev_group = Some((name, arity));
        let rel = table.rel(name);
        let row_count = r.varint()? as usize;
        if row_count == 0 {
            return Err(WireError::NonCanonical("empty group"));
        }
        // Every row takes at least arity + 1 bytes.
        let need = row_count.checked_mul(arity + 1);
        if need.is_none_or(|need| need > r.remaining()) {
            return Err(WireError::Truncated);
        }
        prev.clear();
        prev.resize(arity, 0u64);
        for i in 0..row_count {
            cells.clear();
            let first = prev[0].checked_add(r.varint()?);
            cells.push(first.ok_or(WireError::IndexOutOfRange)?);
            for &p in &prev[1..] {
                let v = (p as i64).checked_add(unzigzag(r.varint()?));
                match v.ok_or(WireError::IndexOutOfRange)? {
                    v if v < 0 => return Err(WireError::IndexOutOfRange),
                    v => cells.push(v as u64),
                }
            }
            if cells.iter().any(|&c| c as usize >= dict_len) {
                return Err(WireError::IndexOutOfRange);
            }
            if i > 0 && cells <= prev {
                return Err(WireError::NonCanonical("rows not strictly sorted"));
            }
            let n = r.multiplicity()?;
            row.clear();
            row.extend(cells.iter().map(|&c| dict[c as usize]));
            take(rel, &row, n);
            std::mem::swap(&mut prev, &mut cells);
        }
    }
    if r.remaining() > 0 {
        return Err(WireError::TrailingBytes);
    }
    Ok(ctx)
}

/// Encode a batch the pre-v2 way: one record per distinct fact, each
/// carrying its full relation name and self-described argument values,
/// plus a multiplicity — no dictionary, no deltas. This is the E23
/// baseline ("old fact payloads").
pub fn encode_naive(batch: &Multiset<Fact>) -> Vec<u8> {
    let mut out = vec![MAGIC, FORMAT_NAIVE];
    batch.put(&mut out);
    out
}

/// Decode a naive payload (the E23 baseline decoder).
pub fn decode_naive(bytes: &[u8]) -> Result<Multiset<Fact>, WireError> {
    match bytes {
        [MAGIC, FORMAT_NAIVE, body @ ..] => decode_all(body),
        _ => Err(WireError::BadHeader),
    }
}

/// Bytes the naive encoding would spend on this batch — the
/// per-message baseline of E23's byte table.
pub fn naive_len(batch: &Multiset<Fact>) -> usize {
    encode_naive(batch).len()
}

/// As [`encode`], carrying `ctx` when the send was traced: the
/// [`FLAG_TRACE`] bit set and the context between header and body.
#[cfg(test)]
pub(crate) fn encode_traced(batch: &Multiset<Fact>, ctx: Option<&TraceCtx>) -> Vec<u8> {
    [header(ctx), encode(batch).split_off(2)].concat()
}

/// As [`decode`], with the [`TraceCtx`] the payload carries, if any.
#[cfg(test)]
pub(crate) fn decode_traced(bytes: &[u8]) -> Result<(Multiset<Fact>, Option<TraceCtx>), WireError> {
    Ok((decode(bytes)?, peek_trace(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::mutate;
    use calm_common::fact::{fact, RelName};
    use calm_common::rng::Rng;
    use std::collections::{BTreeMap, BTreeSet};

    /// The multiset encoder the row encoder replaced, kept as the
    /// reference its bytes are held to.
    fn reference_encode(batch: &Multiset<Fact>, ctx: Option<&TraceCtx>) -> Vec<u8> {
        let mut out = header(ctx);
        // The message's own interner: distinct values, sorted. Sorting
        // makes the index map monotone in `Value` order, so args-sorted
        // fact iteration yields lexicographically sorted index rows.
        let mut values: BTreeSet<&Value> = BTreeSet::new();
        for (f, _) in batch.iter() {
            for v in f.values() {
                values.insert(v);
            }
        }
        let index: BTreeMap<&Value, u64> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u64))
            .collect();

        put_varint(&mut out, values.len() as u64);
        for v in &values {
            put_value(&mut out, v);
        }

        // Group rows by (relation, arity). `Multiset` iterates facts in
        // (relation, args) order, so each group's rows arrive sorted.
        // Rows are (dictionary-index columns, multiplicity).
        type RowGroups<'a> = BTreeMap<(&'a str, usize), Vec<(Vec<u64>, u64)>>;
        let mut groups: RowGroups = BTreeMap::new();
        for (f, n) in batch.iter() {
            let row: Vec<u64> = f.args().iter().map(|v| index[v]).collect();
            groups
                .entry((f.relation().as_ref(), f.arity()))
                .or_default()
                .push((row, n as u64));
        }
        put_varint(&mut out, groups.len() as u64);
        for ((name, arity), rows) in &groups {
            put_bytes(&mut out, name.as_bytes());
            put_varint(&mut out, *arity as u64);
            put_varint(&mut out, rows.len() as u64);
            let mut prev = vec![0u64; *arity];
            for (row, n) in rows {
                put_varint(&mut out, row[0] - prev[0]);
                for j in 1..*arity {
                    put_varint(&mut out, zigzag(row[j] as i64 - prev[j] as i64));
                }
                put_varint(&mut out, *n);
                prev.clone_from(row);
            }
        }
        out
    }

    /// The multiset decoder the row decoder replaced, kept as the
    /// reference it is held to.
    fn reference_decode(bytes: &[u8]) -> Result<(Multiset<Fact>, Option<TraceCtx>), WireError> {
        let mut r = Reader::new(bytes);
        let ctx = read_header(&mut r)?;

        let dict_len = r.count()?;
        let mut dict: Vec<Value> = Vec::with_capacity(dict_len);
        for _ in 0..dict_len {
            let v = r.value(0)?;
            if dict.last().is_some_and(|p| *p >= v) {
                return Err(WireError::NonCanonical("dictionary not strictly sorted"));
            }
            dict.push(v);
        }

        let group_count = r.count()?;
        let mut batch: Multiset<Fact> = Multiset::new();
        let mut prev_group: Option<(RelName, usize)> = None;
        for _ in 0..group_count {
            let name: RelName = Arc::from(r.str()?);
            let arity = r.count()?;
            if arity == 0 {
                return Err(WireError::NonCanonical("zero arity"));
            }
            let key = (name.clone(), arity);
            if prev_group
                .as_ref()
                .is_some_and(|p| (p.0.as_ref(), p.1) >= (key.0.as_ref(), key.1))
            {
                return Err(WireError::NonCanonical("groups not strictly sorted"));
            }
            prev_group = Some(key);
            let row_count = r.varint()? as usize;
            if row_count == 0 {
                return Err(WireError::NonCanonical("empty group"));
            }
            // Every row takes at least arity + 1 bytes.
            if row_count
                .checked_mul(arity + 1)
                .is_none_or(|need| need > r.remaining())
            {
                return Err(WireError::Truncated);
            }
            let mut prev = vec![0u64; arity];
            for i in 0..row_count {
                let mut row = vec![0u64; arity];
                row[0] = prev[0]
                    .checked_add(r.varint()?)
                    .ok_or(WireError::IndexOutOfRange)?;
                for j in 1..arity {
                    let v = (prev[j] as i64)
                        .checked_add(unzigzag(r.varint()?))
                        .ok_or(WireError::IndexOutOfRange)?;
                    if v < 0 {
                        return Err(WireError::IndexOutOfRange);
                    }
                    row[j] = v as u64;
                }
                if row.iter().any(|&c| c as usize >= dict_len) {
                    return Err(WireError::IndexOutOfRange);
                }
                if i > 0 && row <= prev {
                    return Err(WireError::NonCanonical("rows not strictly sorted"));
                }
                let mult = r.multiplicity()?;
                let args: Vec<Value> = row.iter().map(|&c| dict[c as usize].clone()).collect();
                let name = prev_group.as_ref().expect("group name set above").0.clone();
                batch.insert_n(Fact::from_rel(name, args), mult);
                prev = row;
            }
        }
        if r.remaining() > 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok((batch, ctx))
    }

    /// The facts `batch` stands for under `table`.
    fn facts_of(batch: &Batch, table: &SymbolTable) -> Multiset<Fact> {
        let mut facts = Multiset::new();
        batch.add_to(table, &mut facts);
        facts
    }

    fn random_value(rng: &mut Rng) -> Value {
        match rng.gen_range(0..5u32) {
            0 => Value::Int(rng.gen_range(0..9u64) as i64 - 4),
            1 => Value::Int(rng.gen_u64() as i64),
            // Strings that read like the integers beside them.
            2 => Value::str(rng.choose(&["", "1", "-3", "10", "a", "é"]).unwrap()),
            3 => Value::skolem("f", vec![Value::Int(rng.gen_range(0..3u64) as i64)]),
            _ => Value::skolem("g", vec![Value::str("1"), Value::skolem("f", vec![])]),
        }
    }

    /// Up to twenty facts over four relations, arities 1–3 (one name at
    /// several arities is common), multiplicities up to 3; one batch in
    /// twenty is empty.
    fn random_batch(rng: &mut Rng) -> Multiset<Fact> {
        let mut batch = Multiset::new();
        if rng.gen_bool(0.05) {
            return batch;
        }
        for _ in 0..rng.gen_range(1..20usize) {
            let relation = rng.choose(&["E", "Ea", "m_E", "n_E"]).unwrap();
            let args = (0..rng.gen_range(1..4usize)).map(|_| random_value(rng));
            batch.insert_n(
                Fact::new(relation, args.collect()),
                rng.gen_range(1..4usize),
            );
        }
        batch
    }

    fn random_ctx(rng: &mut Rng) -> TraceCtx {
        TraceCtx {
            origin_node: rng.gen_range(0..4u64),
            origin_seq: rng.gen_range(0..300u64),
            cause: rng
                .gen_bool(0.5)
                .then(|| (rng.gen_range(0..4u64), rng.gen_u64())),
        }
    }

    /// `facts` as rows that look nothing like them, pushed onto `table`:
    /// symbols and relations interned in a shuffled order beside others,
    /// rows pushed in another, a count sometimes split over two pushes.
    fn scrambled(rng: &mut Rng, facts: &Multiset<Fact>, table: &mut SymbolTable) -> Batch {
        let mut facts: Vec<(&Fact, usize)> = facts.iter().collect();
        rng.shuffle(&mut facts);
        for (f, _) in &facts {
            table.sym(&Value::Int(rng.gen_range(0..1000u64) as i64));
            for v in f.args().iter().rev() {
                table.sym(v);
            }
            table.rel(f.relation());
        }
        rng.shuffle(&mut facts);
        let mut batch = Batch::default();
        for (f, n) in facts {
            let rel = table.rel(f.relation());
            let row: Vec<Sym> = f.args().iter().map(|v| table.sym(v)).collect();
            if n > 1 && rng.gen_bool(0.3) {
                batch.push_n(rel, &row, 1);
                batch.push_n(rel, &row, n - 1);
            } else {
                batch.push_n(rel, &row, n);
            }
        }
        batch
    }

    #[test]
    fn the_row_encoder_writes_the_bytes_of_the_multiset_encoder() {
        let mut rng = Rng::seed_from_u64(0xde17a);
        let (mut facts, mut two_arities, mut counted, mut empty) = (0, 0, 0, 0);
        // A worker's table and order, extended from send to send and
        // started afresh every eight; every other fresh table already
        // holds 4 096 values, far more than any send names.
        let (mut table, mut order) = (SymbolTable::new(), CanonicalOrder::default());
        for case in 0..480 {
            if case % 8 == 0 {
                (table, order) = (SymbolTable::new(), CanonicalOrder::default());
            }
            if case % 16 == 8 {
                for i in 0..4_096 {
                    table.sym(&Value::str(format!("w{i}")));
                }
            }
            let batch = random_batch(&mut rng);
            let rows = scrambled(&mut rng, &batch, &mut table);
            order.extend(&table);
            for ctx in [None, Some(random_ctx(&mut rng))] {
                let bytes = encode_rows(rows.rows(), &table, &order, ctx.as_ref());
                let reference = reference_encode(&batch, ctx.as_ref());
                assert_eq!(bytes, reference, "case {case}: {batch:?}");
                assert_eq!(encode_traced(&batch, ctx.as_ref()), bytes, "case {case}");
                // Read into rows over a table where the indexes mean
                // other values, the payload is the batch again.
                let mut other = SymbolTable::new();
                other.sym(&Value::str("x"));
                let (back, got) = decode_rows(&bytes, &mut other).expect("what was written reads");
                assert_eq!(
                    (facts_of(&back, &other), got),
                    (batch.clone(), ctx),
                    "case {case}"
                );
            }
            facts += batch.support().count();
            counted += batch.iter().filter(|&(_, n)| n > 1).count();
            empty += usize::from(batch.is_empty());
            let mut arities: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
            for f in batch.support() {
                arities.entry(f.relation()).or_default().insert(f.arity());
            }
            two_arities += usize::from(arities.values().any(|a| a.len() > 1));
        }
        assert!(
            facts > 4_000 && counted > 2_000 && two_arities > 300 && empty > 10,
            "{facts} facts, {counted} counted, {two_arities} with two arities, {empty} empty"
        );
    }

    #[test]
    fn the_row_decoder_is_the_reference_on_mutated_payloads() {
        // The delta decoder's mutation target: 24 000 seeded edits of
        // traced and untraced payloads (`codec::tests::mutate`). The row
        // decoder and the one it replaced give the same facts or the same
        // refusal, neither panics, and what is accepted encodes again to
        // at most the bytes it was read from, and to a fixed point.
        let mut rng = Rng::seed_from_u64(0xde17_a0ff);
        // Small batches, most of them traced: an edit of a long payload
        // is nearly always a refusal, one of a trace context seldom.
        let mut corpus = Vec::new();
        while corpus.len() < 16 {
            let batch = random_batch(&mut rng);
            if batch.support().count() > 2 {
                continue;
            }
            let ctx = (corpus.len() % 4 != 0).then(|| random_ctx(&mut rng));
            corpus.push(("payload", reference_encode(&batch, ctx.as_ref())));
        }
        let (mut accepted, mut rejected) = (0, 0);
        for _ in 0..24_000 {
            let mut bytes = rng.choose(&corpus).unwrap().1.clone();
            mutate(&mut rng, &mut bytes, &corpus);
            let mut table = SymbolTable::new();
            let read = decode_rows(&bytes, &mut table);
            let facts = (read.as_ref())
                .map(|(rows, ctx)| (facts_of(rows, &table), *ctx))
                .map_err(|e| *e);
            assert_eq!(facts, reference_decode(&bytes), "{bytes:?}");
            let Ok((rows, ctx)) = read else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            let mut order = CanonicalOrder::default();
            order.extend(&table);
            let again = encode_rows(rows.rows(), &table, &order, ctx.as_ref());
            assert!(again.len() <= bytes.len(), "{bytes:?}");
            let twice = decode_traced(&again).map(|(m, ctx)| encode_traced(&m, ctx.as_ref()));
            assert_eq!(twice, Ok(again), "{bytes:?}");
        }
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "accepted {accepted}, rejected {rejected}"
        );
    }

    fn batch_of(facts: &[(Fact, usize)]) -> Multiset<Fact> {
        let mut m = Multiset::new();
        for (f, n) in facts {
            m.insert_n(f.clone(), *n);
        }
        m
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let m: Multiset<Fact> = Multiset::new();
        let bytes = encode(&m);
        assert_eq!(decode(&bytes).unwrap(), m);
        assert_eq!(decode_naive(&encode_naive(&m)).unwrap(), m);
    }

    #[test]
    fn mixed_batch_round_trips() {
        let m = batch_of(&[
            (fact("E", [1, 2]), 1),
            (fact("E", [1, 3]), 2),
            (fact("E", [2, 3]), 1),
            (fact("T", [1, 2, 3]), 3),
            (Fact::new("S", vec![Value::str("a"), Value::Int(-5)]), 1),
            (
                Fact::new("K", vec![Value::skolem("f", vec![Value::Int(9)])]),
                2,
            ),
        ]);
        let bytes = encode(&m);
        assert_eq!(decode(&bytes).unwrap(), m);
        assert_eq!(decode_naive(&encode_naive(&m)).unwrap(), m);
    }

    #[test]
    fn encoding_is_canonical() {
        // Insertion order cannot matter: the multiset sorts, and the
        // encoder follows multiset order.
        let a = batch_of(&[(fact("E", [3, 4]), 1), (fact("E", [1, 2]), 2)]);
        let b = batch_of(&[(fact("E", [1, 2]), 2), (fact("E", [3, 4]), 1)]);
        assert_eq!(encode(&a), encode(&b));
    }

    #[test]
    fn dense_batches_beat_the_naive_encoding() {
        // A broadcast-shaped batch: many facts of one relation over a
        // small domain — the common case on the executor's channels.
        let facts: Vec<(Fact, usize)> = (0..50)
            .flat_map(|i| (0..4).map(move |j| (fact("reach", [i, i + j]), 1)))
            .collect();
        let m = batch_of(&facts);
        let delta = encode(&m).len();
        let naive = naive_len(&m);
        assert!(
            delta * 2 < naive,
            "delta encoding should at least halve a dense batch: {delta} vs {naive}"
        );
    }

    #[test]
    fn same_name_different_arity_stays_separate() {
        let m = batch_of(&[(fact("R", [7]), 1), (fact("R", [7, 8]), 1)]);
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn corrupted_payloads_are_rejected() {
        let m = batch_of(&[(fact("E", [1, 2]), 1), (fact("E", [5, 9]), 4)]);
        let bytes = encode(&m);
        // Bad magic / format.
        assert_eq!(decode(&[]), Err(WireError::BadHeader));
        assert_eq!(decode(&[MAGIC]), Err(WireError::BadHeader));
        assert_eq!(
            decode(&encode_naive(&m)),
            Err(WireError::BadHeader),
            "format bytes keep the two encodings apart"
        );
        // Every strict prefix fails (no silent truncation).
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // Trailing garbage fails.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(WireError::TrailingBytes));
        // Single-byte corruption must never panic; it may decode to a
        // different batch only if every invariant still holds.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let _ = decode(&bad);
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A huge dictionary length with no dictionary behind it.
        let mut bytes = vec![MAGIC, FORMAT_DELTA];
        put_varint(&mut bytes, u64::MAX);
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
        // A huge row count inside a plausible group.
        let mut bytes = vec![MAGIC, FORMAT_DELTA];
        put_varint(&mut bytes, 1); // dict: one value
        put_value(&mut bytes, &Value::Int(1));
        put_varint(&mut bytes, 1); // one group
        put_bytes(&mut bytes, b"E");
        put_varint(&mut bytes, 1); // arity 1
        put_varint(&mut bytes, u64::MAX); // row count
        assert_eq!(decode(&bytes), Err(WireError::Truncated));
        // The naive decoder: a huge record count, then a huge arity inside
        // a plausible record (2^40 would abort on allocation, 2^62
        // overflows the capacity).
        let mut bytes = vec![MAGIC, FORMAT_NAIVE];
        put_varint(&mut bytes, u64::MAX);
        assert_eq!(decode_naive(&bytes), Err(WireError::Truncated));
        for arity in [1 << 40, 1 << 62, u64::MAX] {
            let mut bytes = vec![MAGIC, FORMAT_NAIVE];
            put_varint(&mut bytes, 1); // one record
            put_bytes(&mut bytes, b"a");
            put_varint(&mut bytes, arity);
            assert_eq!(decode_naive(&bytes), Err(WireError::Truncated));
        }
    }

    #[test]
    fn traced_payloads_round_trip_with_context() {
        let m = batch_of(&[(fact("E", [1, 2]), 1), (fact("E", [5, 9]), 4)]);
        for ctx in [
            TraceCtx {
                origin_node: 0,
                origin_seq: 1,
                cause: None,
            },
            TraceCtx {
                origin_node: 7,
                origin_seq: 130, // multi-byte varint
                cause: Some((3, 12)),
            },
        ] {
            let bytes = encode_traced(&m, Some(&ctx));
            assert_eq!(bytes[1], FORMAT_DELTA | FLAG_TRACE);
            let (back, got) = decode_traced(&bytes).unwrap();
            assert_eq!(back, m);
            assert_eq!(got, Some(ctx));
            // The cheap header peek agrees with the full decode.
            assert_eq!(peek_trace(&bytes), Some(ctx));
            // The plain decoder accepts and discards the context.
            assert_eq!(decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_and_flag_free() {
        let m = batch_of(&[(fact("E", [1, 2]), 2)]);
        let plain = encode(&m);
        assert_eq!(encode_traced(&m, None), plain, "None ctx adds zero bytes");
        assert_eq!(plain[1], FORMAT_DELTA);
        assert_eq!(peek_trace(&plain), None);
        let (back, ctx) = decode_traced(&plain).unwrap();
        assert_eq!(back, m);
        assert_eq!(ctx, None);
    }

    #[test]
    fn traced_encoding_is_canonical_per_context() {
        let a = batch_of(&[(fact("E", [3, 4]), 1), (fact("E", [1, 2]), 2)]);
        let b = batch_of(&[(fact("E", [1, 2]), 2), (fact("E", [3, 4]), 1)]);
        let ctx = TraceCtx {
            origin_node: 2,
            origin_seq: 9,
            cause: Some((1, 4)),
        };
        assert_eq!(encode_traced(&a, Some(&ctx)), encode_traced(&b, Some(&ctx)));
        // A different context gives different bytes.
        let ctx2 = TraceCtx {
            origin_seq: 10,
            ..ctx
        };
        assert_ne!(
            encode_traced(&a, Some(&ctx)),
            encode_traced(&a, Some(&ctx2))
        );
    }

    #[test]
    fn corrupted_traced_payloads_are_rejected() {
        let m = batch_of(&[(fact("E", [1, 2]), 1), (fact("E", [5, 9]), 4)]);
        let ctx = TraceCtx {
            origin_node: 300,
            origin_seq: 77,
            cause: Some((2, 1)),
        };
        let bytes = encode_traced(&m, Some(&ctx));
        // Every strict prefix fails — including prefixes ending inside
        // the trace extension itself.
        for cut in 0..bytes.len() {
            assert!(
                decode_traced(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // A bad cause flag is non-canonical. Extension layout: header
        // (2) + varint(300) (2 bytes) + varint(77) (1 byte) puts the
        // cause flag at offset 5.
        let mut bad = bytes.clone();
        assert_eq!(bad[5], 1, "cause flag offset");
        bad[5] = 2;
        assert_eq!(
            decode_traced(&bad),
            Err(WireError::NonCanonical("bad cause flag"))
        );
        // The naive format never carries the flag.
        let mut naive = encode_naive(&m);
        naive[1] |= FLAG_TRACE;
        assert!(decode_naive(&naive).is_err());
        // Single-byte corruption must never panic.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xff;
            let _ = decode_traced(&bad);
        }
    }

    #[test]
    fn deep_skolem_nesting_is_bounded() {
        let mut v = Value::Int(0);
        for _ in 0..MAX_VALUE_DEPTH + 8 {
            v = Value::skolem("f", vec![v]);
        }
        let m = batch_of(&[(Fact::new("R", vec![v]), 1)]);
        assert_eq!(decode(&encode(&m)), Err(WireError::TooDeep));
    }
}
