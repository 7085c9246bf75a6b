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

use crate::wirefmt::{put_bytes, put_value, put_varint, unzigzag, zigzag, Reader, WireError};
use calm_common::fact::{Fact, RelName};
use calm_common::instance::Instance;
use calm_common::value::Value;
use calm_transducer::multiset::Multiset;
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
fn put_record(out: &mut Vec<u8>, relation: &str, args: &[Value]) {
    put_bytes(out, relation.as_bytes());
    args.len().put(out);
    args.iter().for_each(|value| put_value(out, value));
}

/// Read one record. `last` is the relation name of the record before it:
/// a run of facts of one relation — which is how an instance and a
/// multiset are written — shares one name instead of allocating one per
/// fact.
fn read_record(
    r: &mut Reader<'_>,
    last: &mut Option<RelName>,
) -> Result<(RelName, Vec<Value>), WireError> {
    let name = r.str()?;
    let relation = match last {
        Some(shared) if **shared == *name => shared.clone(),
        _ => last.insert(Arc::from(name)).clone(),
    };
    let args = Vec::<Value>::read(r)?;
    if args.is_empty() {
        // The paper's model has no nullary relations and `Fact` asserts
        // arity >= 1: a zero here is a corrupt or hostile frame.
        return Err(WireError::NonCanonical("nullary fact"));
    }
    Ok((relation, args))
}

impl Codec for Fact {
    fn put(&self, out: &mut Vec<u8>) {
        put_record(out, self.relation(), self.args());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (relation, args) = read_record(r, &mut None)?;
        Ok(Fact::from_rel(relation, args))
    }
}

impl Codec for Instance {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (relation, tuple) in self.iter() {
            put_record(out, relation, tuple);
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (mut instance, mut last) = (Instance::new(), None);
        for _ in 0..r.count()? {
            let (relation, args) = read_record(r, &mut last)?;
            instance.insert_tuple(&relation, args);
        }
        Ok(instance)
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
        let (mut batch, mut last) = (Multiset::new(), None);
        for _ in 0..r.count()? {
            let (relation, args) = read_record(r, &mut last)?;
            batch.insert_n(Fact::from_rel(relation, args), r.multiplicity()?);
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
