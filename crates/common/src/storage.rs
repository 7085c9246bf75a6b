//! The shared evaluation substrate (DESIGN §6): [`SymbolTable`] interns
//! relation names to [`RelId`] and values to [`Sym`], both `u32`s, shared
//! between stores through [`SharedSymbols`]; [`Storage`] maps each
//! relation to a [`Relation`], a deduplicated, insertion-ordered row log
//! in one flat arena with incrementally maintained column indexes and a
//! delta watermark; [`EvalMetrics`] counts the engine's work. The text
//! edge out is [`FactPrinter`] (DESIGN §18). A `&Storage` is shareable
//! across threads (asserted below), and ids and arena offsets are
//! `u32`s behind checked conversions that panic with an "interning
//! capacity" message rather than wrap.

use crate::fact::{rel, RelName};
use crate::instance::Instance;
use crate::schema::Schema;
use crate::value::{prints_bare, Value};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// An interned relation name: index into a [`SymbolTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelId(pub u32);

/// An interned domain value: index into a [`SymbolTable`].
///
/// Equality of `Sym`s is equality of the underlying [`Value`]s *within
/// one table*; ordering follows interning order, not value order, so
/// deterministic output ordering is restored at the [`Instance`] edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(pub u32);

/// An owned tuple of interned values: a scratch buffer for building a
/// row or a key. [`Relation`] stores rows in its arena and hands them
/// out as `&[Sym]`.
pub type SymTuple = Vec<Sym>;

/// Rows of any relations in push order, back to back, with a header per
/// run of one relation and arity: a fixpoint round's derivations, one
/// side of a [`crate::query::RowBatch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    syms: Vec<Sym>,
    runs: Vec<(RelId, usize, usize)>,
}

impl Rows {
    /// Append `row` of `rel` (arity ≥ 1).
    #[inline]
    pub fn push(&mut self, rel: RelId, row: &[Sym]) {
        self.syms.extend_from_slice(row);
        match self.runs.last_mut() {
            Some((r, arity, end)) if *r == rel && *arity == row.len() => *end = self.syms.len(),
            _ => self.runs.push((rel, row.len(), self.syms.len())),
        }
    }

    /// The runs in push order: each relation with its rows of one arity.
    pub fn runs(&self) -> impl Iterator<Item = (RelId, std::slice::ChunksExact<'_, Sym>)> + '_ {
        let mut start = 0;
        self.runs.iter().map(move |&(rel, arity, end)| {
            let rows = self.syms[start..end].chunks_exact(arity);
            start = end;
            (rel, rows)
        })
    }

    /// Forget every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.syms.clear();
        self.runs.clear();
    }
}

/// Allocate id `len`, the next of a collection holding `len` entries,
/// panicking with a clear message once `cap` ids (normally `u32::MAX`;
/// tests inject a small cap) are in use.
#[inline]
fn checked_id(len: usize, cap: u32, what: &str) -> u32 {
    assert!(
        len < cap as usize,
        "interning capacity exhausted: cannot allocate a new {what} id \
         ({len} already interned, capacity {cap}; ids are u32)"
    );
    len as u32
}

/// One step of the fixed multiply-rotate hash the open-addressing tables
/// of this module share. A table takes its index from the *top* bits,
/// where a multiplicative hash mixes best.
#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// [`mix`] as a std [`Hasher`], for the column indexes: their keys are
/// dense interned ids, not outside text, and an index is never
/// iterated, so nothing depends on the hash — no SipHash per probe.
/// hashbrown takes a bucket from the low bits (for `mix` of one word, a
/// permutation of the key's) and a tag from the top seven.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = mix(self.0, u64::from(word));
    }
}

/// A column index: a symbol → the ids of the rows holding it there.
type ColumnIndex = HashMap<Sym, Vec<u32>, BuildHasherDefault<MixHasher>>;

/// Where the probe sequence of hash `h` starts in a table of `slots`
/// slots (a power of two, at least two).
#[inline]
fn first_slot(h: u64, slots: usize) -> usize {
    (h >> (64 - slots.trailing_zeros())) as usize
}

/// Bidirectional interner for relation names and domain values:
/// `values[s]` is the value behind symbol `s`, ids dense in
/// first-occurrence order; the way back is keyed on the *borrowed* form of
/// a value, one map per variant — an open-addressing table for integers,
/// `&str` for strings, the whole value for Skolem terms (DESIGN §6).
#[derive(Debug)]
pub struct SymbolTable {
    rel_names: Vec<RelName>,
    rel_ids: HashMap<RelName, RelId>,
    values: Vec<Value>,
    /// Integer → id. A free slot holds [`EMPTY`] as its id; empty until
    /// the first integer is interned.
    ints: Vec<(i64, u32)>,
    /// How many slots of `ints` are taken.
    int_count: usize,
    strs: HashMap<Arc<str>, Sym>,
    skolems: HashMap<Value, Sym>,
    /// Maximum number of ids handed out per namespace; `u32::MAX` in
    /// production, injectable for tests of the overflow guard.
    id_cap: u32,
}

impl Default for SymbolTable {
    fn default() -> Self {
        SymbolTable {
            rel_names: Vec::new(),
            rel_ids: HashMap::new(),
            values: Vec::new(),
            ints: Vec::new(),
            int_count: 0,
            strs: HashMap::new(),
            skolems: HashMap::new(),
            id_cap: u32::MAX,
        }
    }
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Intern a relation name.
    pub fn rel(&mut self, name: &str) -> RelId {
        if let Some(&id) = self.rel_ids.get(name) {
            return id;
        }
        let id = RelId(checked_id(self.rel_names.len(), self.id_cap, "relation"));
        let name = rel(name);
        self.rel_names.push(name.clone());
        self.rel_ids.insert(name, id);
        id
    }

    /// Look up a relation name without interning it.
    pub fn lookup_rel(&self, name: &str) -> Option<RelId> {
        self.rel_ids.get(name).copied()
    }

    /// The name of an interned relation.
    pub fn rel_name(&self, id: RelId) -> &RelName {
        &self.rel_names[id.0 as usize]
    }

    /// Number of interned relation names.
    pub fn rel_count(&self) -> usize {
        self.rel_names.len()
    }

    /// Intern a value.
    pub fn sym(&mut self, v: &Value) -> Sym {
        match v {
            Value::Int(i) => self.sym_int(*i),
            Value::Str(s) => match self.strs.get(&**s) {
                Some(&known) => known,
                // The caller's allocation is the one the table keeps.
                None => self.new_str(s.clone()),
            },
            Value::Skolem(_) => {
                if let Some(&known) = self.skolems.get(v) {
                    return known;
                }
                let s = self.next_sym();
                self.values.push(v.clone());
                self.skolems.insert(v.clone(), s);
                s
            }
        }
    }

    /// Intern the integer `i`: [`SymbolTable::sym`] of `Value::Int(i)`.
    #[inline]
    pub fn sym_int(&mut self, i: i64) -> Sym {
        // Keep the table at most half full, counting the key about to be
        // added (a known one merely grows it one call early).
        if (self.int_count + 1) * 2 > self.ints.len() {
            self.grow_ints();
        }
        let slot = match self.find_int(i) {
            Ok(known) => return known,
            Err(slot) => slot,
        };
        let s = self.next_sym();
        self.values.push(Value::Int(i));
        self.ints[slot] = (i, s.0);
        self.int_count += 1;
        s
    }

    /// Intern the string `text`: [`SymbolTable::sym`] of
    /// `Value::str(text)`, allocating only when `text` is new.
    pub fn sym_str(&mut self, text: &str) -> Sym {
        match self.strs.get(text) {
            Some(&known) => known,
            None => self.new_str(Arc::from(text)),
        }
    }

    fn new_str(&mut self, text: Arc<str>) -> Sym {
        let s = self.next_sym();
        self.values.push(Value::Str(text.clone()));
        self.strs.insert(text, s);
        s
    }

    /// The id of the value about to be pushed onto `values`.
    fn next_sym(&self) -> Sym {
        Sym(checked_id(self.values.len(), self.id_cap, "value"))
    }

    /// Walk the probe sequence of `i`: its symbol, or the free slot that
    /// ends the sequence. `ints` must not be empty; it is never full.
    #[inline]
    fn find_int(&self, i: i64) -> Result<Sym, usize> {
        let mask = self.ints.len() - 1;
        let mut slot = first_slot(mix(0, i as u64), self.ints.len());
        loop {
            match self.ints[slot] {
                (_, EMPTY) => return Err(slot),
                (key, id) if key == i => return Ok(Sym(id)),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Double `ints` (from nothing: 8 slots) and re-enter every key.
    fn grow_ints(&mut self) {
        let slots = (self.ints.len() * 2).max(8);
        let old = std::mem::replace(&mut self.ints, vec![(0, EMPTY); slots]);
        for entry in old.into_iter().filter(|&(_, id)| id != EMPTY) {
            let slot = self.find_int(entry.0).expect_err("keys are distinct");
            self.ints[slot] = entry;
        }
    }

    /// Look up a value without interning it.
    pub fn lookup_sym(&self, v: &Value) -> Option<Sym> {
        match v {
            Value::Int(_) if self.ints.is_empty() => None,
            Value::Int(i) => self.find_int(*i).ok(),
            Value::Str(s) => self.strs.get(&**s).copied(),
            Value::Skolem(_) => self.skolems.get(v).copied(),
        }
    }

    /// The value behind an interned symbol.
    pub fn value(&self, s: Sym) -> &Value {
        &self.values[s.0 as usize]
    }

    /// Number of interned values.
    pub fn sym_count(&self) -> usize {
        self.values.len()
    }
}

/// A clonable handle to a [`SymbolTable`] shared by several stores;
/// interning happens at the edges, so the lock is uncontended.
#[derive(Debug, Clone, Default)]
pub struct SharedSymbols(Arc<RwLock<SymbolTable>>);

impl SharedSymbols {
    /// A handle to a fresh, empty table.
    pub fn new() -> Self {
        SharedSymbols::default()
    }

    /// Read access to the table.
    pub fn read(&self) -> RwLockReadGuard<'_, SymbolTable> {
        self.0.read().expect("symbol table poisoned")
    }

    /// Write (interning) access to the table.
    pub fn write(&self) -> RwLockWriteGuard<'_, SymbolTable> {
        self.0.write().expect("symbol table poisoned")
    }

    /// Whether two handles refer to the same underlying table (required
    /// for comparing or copying [`Sym`]-level data across stores).
    pub fn same_table(&self, other: &SharedSymbols) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// Marks a free slot of [`Relation`]'s id table and of
/// [`SymbolTable`]'s integer table. Never an id: the capacity guards hand
/// out at most `u32::MAX` ids, `0..u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// The hash of a row ([`mix`] over its symbols), seeded with its length
/// so that `(0)` and `(0,0)` start apart.
#[inline]
fn hash_row(row: &[Sym]) -> u64 {
    (row.iter()).fold(row.len() as u64, |h, s| mix(h, u64::from(s.0)))
}

/// One relation's rows: deduplicated, in insertion order, with
/// incrementally maintained per-column hash indexes and a delta
/// watermark (DESIGN §6). Every tuple is stored once in a flat arena at
/// the first row's `stride` (offsets only once two arities meet), and a
/// table of row ids finds a row in one of two ways. While every row has
/// one arity `k` and every symbol is below a bound `B` with `B^k` no
/// more slots than a hash table would take, the table is direct: row
/// `t` sits at slot `t` read as digits in base `B`, with no hash and no
/// compare. Otherwise it is open addressing that hashes and compares
/// rows in place. The mode is chosen where a hash table would grow.
/// A [`Relation::retract`] leaves a tombstone bit until
/// [`Relation::compact`] (DESIGN §16); on an insert-only relation every
/// tombstone check is a single branch.
#[derive(Debug, Clone)]
pub struct Relation {
    /// The arena: the symbols of all rows, in row-id order.
    syms: Vec<Sym>,
    /// The arity of the first row since the relation was last empty;
    /// the arity of every row while `starts` is empty.
    stride: usize,
    /// Number of rows in the log, tombstones included.
    len: u32,
    /// Empty while every row has `stride` symbols; otherwise the offset
    /// of each row in `syms`, a row ending where the next starts (the
    /// last one at `syms.len()`).
    starts: Vec<u32>,
    /// Row → row id. Hashed (`base == 0`): linear probing over a
    /// power-of-two number of slots, at most half of them taken; empty
    /// until the first insert. Direct: `base^stride` slots, one per row
    /// the relation can address.
    table: Vec<u32>,
    /// The direct table's symbol bound `B`: every row has `stride`
    /// symbols, each below `base`. Zero while the table hashes.
    base: usize,
    /// Bit `id % 64` of word `id / 64` is set when row `id` is
    /// tombstoned; a word past the end reads as zero. Empty until the
    /// first retraction, which allocates a word per 64 rows.
    killed: Vec<u64>,
    /// Number of tombstoned rows (set bits of `killed`).
    dead: usize,
    /// Row ids retracted since the last [`Relation::mark_delta`] — the
    /// retraction log mirroring the insertion log's delta region. May
    /// contain duplicates and since-revived ids; the signed-delta
    /// reader [`Relation::removed_ids`] filters both.
    retracted_since_mark: Vec<u32>,
    /// `indexes[col]`, when built, maps a symbol to the ids of the rows
    /// whose `col`-th component is that symbol.
    indexes: Vec<Option<ColumnIndex>>,
    delta_start: u32,
    /// Maximum number of row ids; `u32::MAX` in production, injectable
    /// for tests of the overflow guard.
    row_cap: u32,
    /// Maximum number of symbols in the arena (offsets are `u32`);
    /// `u32::MAX` in production, injectable like `row_cap`.
    arena_cap: u32,
}

impl Default for Relation {
    fn default() -> Self {
        Relation {
            syms: Vec::new(),
            stride: 0,
            len: 0,
            starts: Vec::new(),
            table: Vec::new(),
            base: 0,
            killed: Vec::new(),
            dead: 0,
            retracted_since_mark: Vec::new(),
            indexes: Vec::new(),
            delta_start: 0,
            row_cap: u32::MAX,
            arena_cap: u32::MAX,
        }
    }
}

impl Relation {
    /// Walk the probe sequence of a row with hash `h` in a hashed table:
    /// the id of the stored row equal to `t`, or the free slot that ends
    /// the sequence. The table must not be empty; it is never full.
    #[inline]
    fn find(&self, h: u64, t: &[Sym]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = first_slot(h, self.table.len());
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if self.row(id) == t => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Row `t`'s slot in the direct table: its symbols read as the
    /// digits of a number in base `base`. `None` when `t` has another
    /// arity or a symbol of `base` or more.
    #[inline]
    fn address(&self, t: &[Sym]) -> Option<usize> {
        let b = self.base;
        let fits = t.len() == self.stride && t.iter().all(|s| (s.0 as usize) < b);
        fits.then(|| t.iter().fold(0, |slot, s| slot * b + s.0 as usize))
    }

    /// Re-enter every row of the arena into a wiped table of `slots`
    /// slots: direct when `base > 0` (`slots` is `base^stride`, and
    /// every row has an address), else hashed (a power of two above
    /// twice the row count).
    fn rebuild_table(&mut self, base: usize, slots: usize) {
        let mut table = std::mem::take(&mut self.table);
        table.clear();
        // Exactly `slots`: a direct table gets no doubling's slack.
        table.reserve_exact(slots);
        table.resize(slots, EMPTY);
        self.base = base;
        let mask = slots - 1;
        for id in self.rows() {
            let row = self.row(id);
            if base > 0 {
                let slot = self
                    .address(row)
                    .expect("a direct table addresses every row");
                table[slot] = id;
                continue;
            }
            let mut slot = first_slot(hash_row(row), slots);
            while table[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            table[slot] = id;
        }
        self.table = table;
    }

    /// Make the id table ready for `t`, where a hash table grows: a full
    /// hash table doubles, and a direct one without an address for `t`
    /// takes what hashing these rows would. Within those slots the table
    /// goes direct when every row, `t` included, has one arity `k` and
    /// `B^k` fits, for `B` the exact symbol bound of the arena and `t`
    /// (at least double the old `B` when widening), rounded up to a
    /// power of two if that fits too; else it hashes (DESIGN §6).
    #[cold]
    #[inline(never)]
    fn make_room(&mut self, t: &[Sym]) {
        let slots = if self.base == 0 {
            (self.table.len() * 2).max(8)
        } else {
            // No smaller than the direct table: a clear keeps its room.
            let rows = self.len as usize + 1;
            (rows * 2).max(self.table.len()).next_power_of_two().max(8)
        };
        let arity = match self.len {
            0 => Some(t.len()),
            _ => self.uniform_arity().filter(|&k| k == t.len()),
        };
        let top = (self.syms.iter().chain(t)).map(|s| s.0 as usize + 1).max();
        let base = top.unwrap_or(1).max(self.base * 2);
        let fits = |b: usize| b.checked_pow(arity? as u32).filter(|&n| n <= slots);
        // Rounded up to a power of two where that fits too: room to widen.
        match [base.next_power_of_two(), base]
            .into_iter()
            .find_map(|b| Some((b, fits(b)?)))
        {
            Some((base, direct)) => {
                self.stride = t.len();
                self.rebuild_table(base, direct);
            }
            None => self.rebuild_table(0, slots),
        }
    }

    /// Make room for `rows` more rows of `arity` columns each: the arena
    /// (and the offsets, once two arities met) is reserved and a hashed
    /// id table is rebuilt once at the size those rows will need, instead
    /// of at every doubling on the way there (a direct one already
    /// addresses them). A hint — more rows, or wider ones, grow the
    /// relation as they always did.
    pub fn reserve(&mut self, rows: usize, arity: usize) {
        self.syms.reserve(rows.saturating_mul(arity));
        if !self.starts.is_empty() {
            self.starts.reserve(rows);
        }
        let slots = ((self.len as usize + rows) * 2).next_power_of_two();
        if self.base == 0 && slots > self.table.len().max(8) {
            self.rebuild_table(0, slots);
        }
    }

    /// Insert a row; returns `true` when new *or revived*. A retracted
    /// row comes back under its id, its tombstone bit cleared; a new row
    /// is copied to the end of the arena and entered into every built
    /// index in place.
    #[inline]
    pub fn insert(&mut self, t: &[Sym]) -> bool {
        self.insert_id(t).is_some()
    }

    /// As [`Relation::insert`], returning the id of the new or revived
    /// row (`None` when the row was already live).
    #[inline]
    pub fn insert_id(&mut self, t: &[Sym]) -> Option<u32> {
        let slot = loop {
            if self.base > 0 {
                if let Some(slot) = self.address(t) {
                    match self.table[slot] {
                        EMPTY => break slot,
                        id => return self.revive(id).then_some(id),
                    }
                }
            } else if (self.len as usize + 1) * 2 <= self.table.len() {
                // A hash table stays at most half full, counting the row
                // about to be added (a duplicate grows it one insert early).
                match self.find(hash_row(t), t) {
                    Ok(id) => return self.revive(id).then_some(id),
                    Err(slot) => break slot,
                }
            }
            self.make_room(t);
        };
        let row_id = checked_id(self.len as usize, self.row_cap, "row");
        let start = self.syms.len();
        assert!(
            t.len() <= self.arena_cap as usize - start,
            "interning capacity exhausted: cannot store a row of {} symbols \
             ({start} already in the arena, capacity {}; offsets are u32)",
            t.len(),
            self.arena_cap
        );
        for (col, index) in self.indexes.iter_mut().enumerate() {
            if let (Some(map), Some(&s)) = (index.as_mut(), t.get(col)) {
                map.entry(s).or_default().push(row_id);
            }
        }
        if self.len == 0 {
            self.stride = t.len();
        } else if t.len() != self.stride && self.starts.is_empty() {
            // The first row of a second arity: from here on, offsets.
            let stride = self.stride;
            self.starts = (0..self.len as usize)
                .map(|i| (i * stride) as u32)
                .collect();
        }
        if !self.starts.is_empty() {
            self.starts.push(start as u32);
        }
        self.table[slot] = row_id;
        self.syms.extend_from_slice(t);
        self.len += 1;
        Some(row_id)
    }

    /// Retract a row: set its tombstone bit, leaving it in
    /// the insertion log and appending the id to the retraction log;
    /// index probes keep returning the id until [`Relation::compact`]
    /// physically removes the row. Returns `true` when the row was
    /// present and live.
    pub fn retract(&mut self, t: &[Sym]) -> bool {
        self.lookup(t).is_some_and(|id| self.retract_id(id))
    }

    /// As [`Relation::retract`], by row id.
    pub fn retract_id(&mut self, id: u32) -> bool {
        if !self.is_live(id) {
            return false;
        }
        let word = id as usize / 64;
        if self.killed.len() <= word {
            self.killed.resize((self.len as usize).div_ceil(64), 0);
        }
        self.killed[word] |= 1 << (id % 64);
        self.dead += 1;
        self.retracted_since_mark.push(id);
        true
    }

    /// Resurrect a tombstoned row in place (its bit cleared), as
    /// re-inserting its tuple would. Returns `true` when the row was
    /// dead.
    pub fn revive(&mut self, id: u32) -> bool {
        if !self.is_killed(id) {
            return false;
        }
        self.killed[id as usize / 64] &= !(1 << (id % 64));
        self.dead -= 1;
        true
    }

    /// Whether row `id`'s tombstone bit is set (`false` past the log).
    #[inline]
    fn is_killed(&self, id: u32) -> bool {
        (self.killed.get(id as usize / 64)).is_some_and(|&word| word >> (id % 64) & 1 == 1)
    }

    /// The row id of a tuple in the insertion log — live *or*
    /// tombstoned; filter with [`Relation::is_live`] or
    /// [`Relation::live_at_mark`].
    #[inline]
    pub fn lookup(&self, t: &[Sym]) -> Option<u32> {
        if self.base > 0 {
            let id = self.table[self.address(t)?];
            return (id != EMPTY).then_some(id);
        }
        if self.table.is_empty() {
            return None;
        }
        self.find(hash_row(t), t).ok()
    }

    /// Membership test (tombstoned rows are absent).
    #[inline]
    pub fn contains(&self, t: &[Sym]) -> bool {
        self.lookup(t).is_some_and(|id| self.live_in_log(id))
    }

    /// [`Relation::is_live`] for an id known to be in the log, without
    /// touching the bits of a relation that holds no tombstone.
    #[inline]
    fn live_in_log(&self, id: u32) -> bool {
        self.dead == 0 || !self.is_killed(id)
    }

    /// Whether the row with the given id is live (not tombstoned).
    #[inline]
    pub fn is_live(&self, id: u32) -> bool {
        id < self.len && self.live_in_log(id)
    }

    /// Whether the row with the given id was live at the last
    /// [`Relation::mark_delta`] — the *old view* as a filter on row ids:
    /// on a relation compacted at mark time, `(live ∧ ¬added) ∨ (dead ∧
    /// removed)` is exactly `id < delta_start` (DESIGN §16).
    pub fn live_at_mark(&self, id: u32) -> bool {
        id < self.delta_start
    }

    /// The ids of all rows in the insertion log, in insertion order —
    /// *including* tombstoned rows when `dead_rows() > 0` (filter with
    /// [`Relation::is_live`]); read a row with [`Relation::row`].
    pub fn rows(&self) -> std::ops::Range<u32> {
        0..self.len
    }

    /// The live rows, in insertion order.
    pub fn live_rows(&self) -> impl Iterator<Item = &[Sym]> + '_ {
        self.rows()
            .filter(move |&id| self.live_in_log(id))
            .map(move |id| self.row(id))
    }

    /// The ids of the rows inserted since the last
    /// [`Relation::mark_delta`] (a suffix of the insertion log; may
    /// include tombstoned rows — the signed view is
    /// [`Relation::added_ids`]).
    pub fn delta_rows(&self) -> std::ops::Range<u32> {
        self.delta_start..self.rows().end
    }

    /// Signed delta, additions: ids of the rows inserted since the
    /// last [`Relation::mark_delta`] that are still live. Exact when
    /// the relation held no tombstones at mark time (the update driver
    /// compacts at every batch boundary): a revival of an older id can
    /// then only cancel a same-window retraction, never add.
    pub fn added_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.delta_rows().filter(move |&id| self.live_in_log(id))
    }

    /// Signed delta, removals: ids of the rows that were live at the
    /// last [`Relation::mark_delta`] and are tombstoned now. Ids past
    /// the watermark are skipped (inserted *and* retracted within the
    /// window — a net no-op), as are since-revived and duplicate log
    /// entries. Same precondition as [`Relation::added_ids`].
    pub fn removed_ids(&self) -> impl Iterator<Item = u32> + '_ {
        let mut emitted: HashSet<u32> = HashSet::new();
        self.retracted_since_mark
            .iter()
            .copied()
            .filter(move |&id| id < self.delta_start && self.is_killed(id) && emitted.insert(id))
    }

    /// Row id of the start of the delta region.
    pub fn delta_start(&self) -> usize {
        self.delta_start as usize
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.len as usize - self.dead
    }

    /// Whether the relation has no live rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tombstoned (retracted, not yet compacted) rows.
    pub fn dead_rows(&self) -> usize {
        self.dead
    }

    /// Move the delta watermark to the current end and clear the
    /// retraction log: inserts and retractions from now on form the
    /// next signed delta.
    pub fn mark_delta(&mut self) {
        self.delta_start = self.rows().end;
        self.retracted_since_mark.clear();
    }

    /// Build the index for a column if it does not exist yet (existing
    /// rows are indexed immediately; later inserts maintain it).
    pub fn ensure_index(&mut self, col: usize) {
        if self.indexes.len() <= col {
            self.indexes.resize_with(col + 1, || None);
        }
        if self.indexes[col].is_some() {
            return;
        }
        let mut map = ColumnIndex::default();
        for id in self.rows() {
            if let Some(&s) = self.row(id).get(col) {
                map.entry(s).or_default().push(id);
            }
        }
        self.indexes[col] = Some(map);
    }

    /// Probe the column index: ids of the rows matching `s` at `col`.
    /// `None` when no index was built for that column (caller falls
    /// back to a scan).
    pub fn probe(&self, col: usize, s: Sym) -> Option<&[u32]> {
        let map = self.indexes.get(col)?.as_ref()?;
        Some(map.get(&s).map_or(&[][..], Vec::as_slice))
    }

    /// The row with the given id: a slice of the arena.
    #[inline]
    pub fn row(&self, id: u32) -> &[Sym] {
        &self.syms[self.span(id as usize)]
    }

    /// Where row `i` lies in the arena: the one reader of the layout.
    #[inline]
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        if self.starts.is_empty() {
            let start = i * self.stride;
            return start..start + self.stride;
        }
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.syms.len(), |&e| e as usize);
        self.starts[i] as usize..end
    }

    /// The arity of every row — `None` once rows of two arities met
    /// (until the relation is next emptied). Stale on an empty relation.
    fn uniform_arity(&self) -> Option<usize> {
        self.starts.is_empty().then_some(self.stride)
    }

    /// Remove all rows, keeping allocations (arena, id table and index
    /// maps stay warm for reuse). Wiping the id table costs its slot
    /// count, not the current row count: a hashed table's is at least
    /// twice the largest row count the relation ever held, a direct
    /// one's `B^k`, which was no more than a hashed one would have been
    /// when it was chosen. A direct table keeps its bound and arity.
    pub fn clear(&mut self) {
        self.syms.clear();
        self.len = 0;
        self.starts.clear();
        self.table.fill(EMPTY);
        self.killed.clear();
        self.dead = 0;
        self.retracted_since_mark.clear();
        self.delta_start = 0;
        for index in self.indexes.iter_mut().flatten() {
            index.clear();
        }
    }

    /// Physically remove tombstoned rows: slide the live rows down the
    /// arena (ids renumbered, order kept), re-enter them into the id
    /// table (a direct one keeps its bound) and renumber the built
    /// indexes in place; the delta watermark is remapped to the live
    /// rows before it. A no-op when no row is dead. Returns the
    /// number of rows removed. Compaction moves rows, so it must not run
    /// between a `mark_delta` and a `delta_rows()` consumer (the update
    /// driver compacts only at batch boundaries, DESIGN §16).
    pub fn compact(&mut self) -> usize {
        if self.dead == 0 {
            return 0;
        }
        let removed = self.dead;
        let (mut live, mut end, mut live_before_mark) = (0, 0, 0);
        for i in 0..self.len {
            if self.is_killed(i) {
                continue;
            }
            // Read row `i`'s span before slot `live <= i` is rewritten.
            let span = self.span(i as usize);
            if !self.starts.is_empty() {
                // `end <= span.start`: offsets only shrink, so they fit.
                self.starts[live] = end as u32;
            }
            let arity = span.len();
            self.syms.copy_within(span, end);
            end += arity;
            live += 1;
            live_before_mark += u32::from(i < self.delta_start);
        }
        self.syms.truncate(end);
        self.starts.truncate(live);
        // `live` ids were in use: the count fits.
        self.len = live as u32;
        self.renumber_indexes();
        self.killed.clear();
        self.dead = 0;
        self.retracted_since_mark.clear();
        self.delta_start = live_before_mark;
        self.rebuild_table(self.base, self.table.len());
        removed
    }

    /// Take the tombstoned ids out of every built index and renumber the
    /// rest as [`Relation::compact`] does, in place: a kept id falls by
    /// the dead rows before it, counted from the tombstone words.
    fn renumber_indexes(&mut self) {
        let mut dead = 0;
        let words: Vec<(u64, u32)> = (self.killed.iter())
            .map(|&word| {
                let before = dead;
                dead += word.count_ones();
                (word, before)
            })
            .collect();
        for map in self.indexes.iter_mut().flatten() {
            map.retain(|_, ids| {
                ids.retain_mut(|id| {
                    let (word, before) = words.get(*id as usize / 64).map_or((0, dead), |&w| w);
                    let bit = 1 << (*id % 64);
                    *id -= before + (word & (bit - 1)).count_ones();
                    word & bit == 0
                });
                !ids.is_empty()
            });
        }
    }
}

/// A store of relations keyed by [`RelId`], with an O(1) fact counter.
#[derive(Debug, Clone, Default)]
pub struct Storage {
    rels: Vec<Relation>,
    count: usize,
}

impl Storage {
    /// An empty store.
    pub fn new() -> Self {
        Storage::default()
    }

    /// The relation, if any rows or indexes were ever recorded for it.
    pub fn relation(&self, r: RelId) -> Option<&Relation> {
        self.rels.get(r.0 as usize)
    }

    /// The relation, created empty on demand.
    pub fn relation_mut(&mut self, r: RelId) -> &mut Relation {
        let i = r.0 as usize;
        if self.rels.len() <= i {
            self.rels.resize_with(i + 1, Relation::default);
        }
        &mut self.rels[i]
    }

    /// Insert a row; returns `true` when new.
    pub fn insert(&mut self, r: RelId, t: &[Sym]) -> bool {
        self.insert_id(r, t).is_some()
    }

    /// As [`Storage::insert`], returning the id of the new or revived
    /// row (see [`Relation::insert_id`]).
    #[inline]
    pub fn insert_id(&mut self, r: RelId, t: &[Sym]) -> Option<u32> {
        let id = self.relation_mut(r).insert_id(t);
        if id.is_some() {
            self.count += 1;
        }
        id
    }

    /// Bulk-insert rows into one relation (a node's state, a decoded
    /// batch). Returns `(new_rows, bytes_moved)`, where bytes count only the
    /// tuples that were actually new; the relation is resolved once
    /// for the whole batch instead of per row.
    pub fn insert_batch<'a, I>(&mut self, r: RelId, rows: I) -> (usize, usize)
    where
        I: IntoIterator<Item = &'a [Sym]>,
    {
        let rel = self.relation_mut(r);
        let mut added = 0;
        let mut bytes = 0;
        for row in rows {
            if rel.insert(row) {
                added += 1;
                bytes += std::mem::size_of_val(row);
            }
        }
        self.count += added;
        (added, bytes)
    }

    /// Retract a row (tombstone it; see [`Relation::retract`]); returns
    /// `true` when the row was present and live.
    pub fn retract(&mut self, r: RelId, t: &[Sym]) -> bool {
        self.tally(r, -1, |rel| rel.retract(t))
    }

    /// As [`Storage::retract`], by row id.
    pub fn retract_id(&mut self, r: RelId, id: u32) -> bool {
        self.tally(r, -1, |rel| rel.retract_id(id))
    }

    /// Resurrect a tombstoned row by id (see [`Relation::revive`]);
    /// returns `true` when the row was dead.
    pub fn revive(&mut self, r: RelId, id: u32) -> bool {
        self.tally(r, 1, |rel| rel.revive(id))
    }

    /// Apply `change` to relation `r` if it exists; when it reports a
    /// hit, the fact count moves by `step`.
    fn tally(&mut self, r: RelId, step: isize, change: impl FnOnce(&mut Relation) -> bool) -> bool {
        let hit = self.rels.get_mut(r.0 as usize).is_some_and(change);
        if hit {
            self.count = self.count.checked_add_signed(step).expect("row count");
        }
        hit
    }

    /// Remove every row of one relation (see [`Relation::clear`]),
    /// keeping the fact counter honest.
    pub fn clear_relation(&mut self, r: RelId) {
        if let Some(rel) = self.rels.get_mut(r.0 as usize) {
            self.count -= rel.len();
            rel.clear();
        }
    }

    /// Free every relation `keep` rejects: its rows go and its memory is
    /// given back — unlike [`Storage::clear_relation`], the arena, id
    /// table and indexes too. For relations nothing reads again; one
    /// inserted into later starts from nothing. The fact counter falls
    /// by their live rows.
    pub fn retain_relations(&mut self, mut keep: impl FnMut(RelId) -> bool) {
        for (i, rel) in self.rels.iter_mut().enumerate() {
            if !keep(RelId(i as u32)) {
                self.count -= std::mem::take(rel).len();
            }
        }
    }

    /// Whether any relation holds tombstoned (retracted, uncompacted)
    /// rows.
    pub fn any_dead(&self) -> bool {
        self.rels.iter().any(|r| r.dead_rows() > 0)
    }

    /// Physically remove every tombstone (see [`Relation::compact`]).
    /// The update driver calls this once per update batch, after
    /// retraction propagation, so the fixpoint engines always run over
    /// compacted relations. Returns the number of rows removed.
    pub fn compact_retractions(&mut self) -> usize {
        self.rels.iter_mut().map(Relation::compact).sum()
    }

    /// Membership test.
    pub fn contains(&self, r: RelId, t: &[Sym]) -> bool {
        self.relation(r).is_some_and(|rel| rel.contains(t))
    }

    /// Total number of facts — O(1), maintained on insert.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the store holds no facts — O(1).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The ids of all relations ever touched.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rels.len() as u32).map(RelId)
    }

    /// Move every relation's delta watermark to its current end.
    pub fn mark_deltas(&mut self) {
        for rel in &mut self.rels {
            rel.mark_delta();
        }
    }

    /// Whether two stores (over the *same* symbol table) hold the same
    /// facts, ignoring insertion order.
    pub fn same_facts(&self, other: &Storage) -> bool {
        if self.count != other.count {
            return false;
        }
        let max = self.rels.len().max(other.rels.len());
        for i in 0..max {
            let a_len = self.rels.get(i).map_or(0, Relation::len);
            let b_len = other.rels.get(i).map_or(0, Relation::len);
            if a_len != b_len {
                return false;
            }
            if a_len == 0 {
                continue;
            }
            if !self.rels[i].live_rows().all(|t| other.rels[i].contains(t)) {
                return false;
            }
        }
        true
    }

    /// Remove all facts, keeping allocations warm (see
    /// [`Relation::clear`]).
    pub fn clear(&mut self) {
        for rel in &mut self.rels {
            rel.clear();
        }
        self.count = 0;
    }
}

/// The data-parallel semi-naive driver shares `&Storage` across scoped
/// worker threads; this pins the `Send + Sync` guarantee at compile
/// time so a later addition of interior mutability cannot silently
/// introduce data races.
const _: () = {
    const fn assert_shareable<T: Send + Sync>() {}
    assert_shareable::<Storage>();
    assert_shareable::<Relation>();
};

/// Engine-level counters for one evaluation run, threaded from the
/// innermost join loop up to benchmark and experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalMetrics {
    /// Number of fixpoint iterations until stability.
    pub iterations: usize,
    /// Total number of (not necessarily new) facts derived.
    pub derivations: usize,
    /// Number of new facts added to the store.
    pub new_facts: usize,
    /// Number of probes the join kernel issued against a built hash
    /// index (lookups and scans count nothing).
    pub index_probes: usize,
    /// Total number of candidate row ids returned by those probes.
    pub index_hits: usize,
    /// Always 0: the sorted-batch merge path these counted is gone.
    /// The fields (and their two varints on the wire) stay until a
    /// benchmark PR stops reading them by name.
    pub merge_probes: usize,
    /// Always 0, as [`EvalMetrics::merge_probes`].
    pub merge_hits: usize,
    /// Bytes of tuple data moved into storage by successful inserts.
    pub bytes_moved: usize,
}

impl EvalMetrics {
    /// Accumulate another run's counters into this one.
    pub fn merge(&mut self, other: &EvalMetrics) {
        self.iterations += other.iterations;
        self.derivations += other.derivations;
        self.new_facts += other.new_facts;
        self.index_probes += other.index_probes;
        self.index_hits += other.index_hits;
        self.merge_probes += other.merge_probes;
        self.merge_hits += other.merge_hits;
        self.bytes_moved += other.bytes_moved;
    }
}

/// Intern an [`Instance`] into a store (the loading edge of the
/// substrate).
pub fn load_instance(i: &Instance, symbols: &SharedSymbols, storage: &mut Storage) {
    let mut table = symbols.write();
    let mut row = SymTuple::new();
    for name in i.relation_names() {
        let r = table.rel(name);
        for t in i.tuples(name) {
            row.clear();
            row.extend(t.iter().map(|v| table.sym(v)));
            storage.insert(r, &row);
        }
    }
}

/// Read a store back out as a deterministic [`Instance`] (the output
/// edge).
pub fn store_to_instance(storage: &Storage, symbols: &SharedSymbols) -> Instance {
    export(storage, symbols, None)
}

/// Read only the relations of `schema` back out (name and arity both
/// matching, as in [`Instance::restrict`]) — the "evaluate, then restrict
/// to the output schema" edge without uninterning rows that are
/// immediately dropped again, and without a second copy of the answer.
pub fn store_to_instance_restricted(
    storage: &Storage,
    symbols: &SharedSymbols,
    schema: &Schema,
) -> Instance {
    export(storage, symbols, Some(schema))
}

/// Unintern the live rows of `storage`: all of them, or with a schema
/// those of its relations that have the relation's arity.
fn export(storage: &Storage, symbols: &SharedSymbols, schema: Option<&Schema>) -> Instance {
    let table = symbols.read();
    let mut out = Instance::new();
    for (r, relation) in storage.rel_ids().zip(&storage.rels) {
        let name = table.rel_name(r);
        let arity = match schema.map(|s| s.arity(name)) {
            None => None,
            Some(None) => continue,
            Some(declared) => declared,
        };
        for row in relation.live_rows() {
            if arity.is_none_or(|a| row.len() == a) {
                out.insert_tuple(name, row.iter().map(|&s| table.value(s).clone()).collect());
            }
        }
    }
    out
}

/// The order [`Instance`] keeps facts in, reached on rows (DESIGN §18):
/// relations by name ([`relations_by_name`]), tuples in `Vec<Value>`
/// order. Every symbol is ranked once by `Value::cmp`, so two rows
/// compare as their `u32` rank tuples do; the ranks are extended, not
/// rebuilt, when the symbol table grows.
#[derive(Debug, Default)]
pub struct CanonicalOrder {
    /// The first `rank.len()` symbols of the table in [`Value`] order:
    /// the integers, then the strings and the Skolem terms.
    by_value: Vec<Sym>,
    /// How many of `by_value` are integers.
    ints: usize,
    /// `rank[s]`: the position of symbol `s` in `by_value`.
    rank: Vec<u32>,
}

impl CanonicalOrder {
    /// Take in the symbols interned since the last call.
    pub fn extend(&mut self, table: &SymbolTable) {
        let known = self.rank.len();
        if known == table.sym_count() {
            return;
        }
        // `Int < Str < Skolem`: the integers are ranked among themselves,
        // by key — pairs sorted in place, not a `Value::cmp` through the
        // table per comparison — and everything else above them.
        let key = |s: Sym| match table.value(s) {
            Value::Int(i) => Some((*i, s)),
            _ => None,
        };
        // Symbol ids passed the interning guard: they fit a `u32`.
        let new = (known..table.sym_count()).map(|i| Sym(i as u32));
        let mut rest = self.by_value.split_off(self.ints);
        let mut ints: Vec<(i64, Sym)> = self.by_value.drain(..).filter_map(key).collect();
        for s in new {
            match key(s) {
                Some(pair) => ints.push(pair),
                None => rest.push(s),
            }
        }
        // A sorted run followed by the newcomers, both times: what a
        // merge sort is quickest on.
        ints.sort();
        rest.sort_by(|&a, &b| table.value(a).cmp(table.value(b)));
        self.ints = ints.len();
        self.by_value.extend(ints.iter().map(|&(_, s)| s));
        self.by_value.append(&mut rest);
        self.rank.resize(self.by_value.len(), 0);
        for (position, s) in self.by_value.iter().enumerate() {
            self.rank[s.0 as usize] = position as u32;
        }
    }

    /// The position of `s` in [`Value`] order among the symbols taken in
    /// (which must include `s`): two symbols compare as their values do.
    pub fn rank(&self, s: Sym) -> u32 {
        self.rank[s.0 as usize]
    }

    /// The ids of the live rows of `relation` in `Vec<Value>` order:
    /// those of `arity` columns, or with `None` all of them, radix-sorted
    /// by ranks gathered from the arena per pass. The wire encoder sorts
    /// here; [`FactPrinter`] only for rank tuples wider than a word. Every
    /// symbol of `relation` must have been taken in by
    /// [`CanonicalOrder::extend`].
    pub fn sorted_ids(&self, relation: &Relation, arity: Option<usize>) -> Vec<u32> {
        let rank = &self.rank;
        let other = |a: usize| relation.uniform_arity().is_some_and(|stride| stride != a);
        if arity.is_some_and(other) {
            return Vec::new();
        }
        let wanted = |id: u32| arity.is_none_or(|a| relation.row(id).len() == a);
        let live = relation
            .rows()
            .filter(|&id| relation.live_in_log(id) && wanted(id));
        let mut ids: Vec<u32> = live.collect();
        let widths = ids.iter().map(|&id| relation.row(id).len());
        let (narrowest, widest) = (widths.clone().min().unwrap_or(0), widths.max().unwrap_or(0));
        // Rows of several arities (`E(1). E(1,2).` is accepted input): a
        // missing column ranks below every value.
        let pad = u32::from(narrowest < widest);
        let bits = width(rank.len() + pad as usize);
        sort_by_rank(&mut ids, widest, bits, |id, col| {
            (relation.row(id).get(col)).map_or(0, |s| rank[s.0 as usize] + pad)
        });
        ids
    }
}

/// How many bits the numbers below `n` take.
fn width(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros()
}

/// The relations of `storage` that hold a live row, by name in `str`
/// order — the order [`Instance`] iterates relations in.
pub fn relations_by_name<'t>(
    storage: &Storage,
    table: &'t SymbolTable,
) -> Vec<(&'t RelName, RelId)> {
    let mut relations: Vec<_> = (storage.rel_ids())
        .filter(|&r| storage.relation(r).is_some_and(|rel| !rel.is_empty()))
        .map(|r| (table.rel_name(r), r))
        .collect();
    relations.sort();
    relations
}

/// Prints the live rows of a store as fact lines (`R(1,2).`) in
/// [`CanonicalOrder`] — the text `store_to_instance_restricted` and one
/// `Display` per fact would give, with no tuple, fact or instance built
/// (DESIGN §18). A row's rank tuple is packed into one `u32` key when it
/// fits. The keys are sorted — by one bit each in a bitmap of the key
/// space when that is no larger than the keys, by a radix sort
/// otherwise — and each line is rendered from its key and the symbols'
/// texts, rendered once, without reading the arena again.
/// Ranks and texts are extended when the symbol table grows: a printer
/// kept across the batches of an update session pays for a symbol once.
#[derive(Debug)]
pub struct FactPrinter {
    symbols: SharedSymbols,
    order: CanonicalOrder,
    known: SymbolText,
}

/// The `Display` text of the first `bounds.len() - 1` symbols of
/// [`FactPrinter`]'s table, back to back in symbol order and followed by
/// `SLACK` bytes, so that a text is copied in whole 16-byte steps.
#[derive(Debug, Default)]
struct SymbolText {
    text: Vec<u8>,
    /// The text of symbol `s` is `text[bounds[s]..bounds[s + 1]]`.
    bounds: Vec<usize>,
    /// The length of the longest text.
    longest: usize,
}

/// The bytes [`copy16`] may read and write past the end of a piece.
const SLACK: usize = 16;

impl SymbolText {
    /// Take in the symbols interned since the last call.
    fn extend(&mut self, table: &SymbolTable) {
        use std::io::Write as _;
        // The first text starts at 0; the slack moves past the newcomers.
        self.bounds.resize(self.bounds.len().max(1), 0);
        self.text.truncate(self.bounds[self.bounds.len() - 1]);
        // Symbol ids passed the interning guard: they fit a `u32`.
        for s in (self.bounds.len() - 1..table.sym_count()).map(|i| Sym(i as u32)) {
            let start = self.text.len();
            match table.value(s) {
                Value::Int(i) => push_decimal(&mut self.text, *i),
                Value::Str(s) if prints_bare(s) => self.text.extend_from_slice(s.as_bytes()),
                other => write!(self.text, "{other}").expect("writing to memory"),
            }
            self.longest = self.longest.max(self.text.len() - start);
            self.bounds.push(self.text.len());
        }
        self.text.resize(self.text.len() + SLACK, 0);
    }
}

/// Copy `len` bytes of `from` to `line[at..]` in 16-byte steps — at least
/// one, so a text of up to 16 bytes is one fixed-size copy. Both sides
/// must hold `SLACK` bytes past the piece; returns where it ends.
#[inline]
fn copy16(line: &mut [u8], at: usize, from: &[u8], len: usize) -> usize {
    let mut done = 0;
    loop {
        line[at + done..at + done + SLACK].copy_from_slice(&from[done..done + SLACK]);
        done += SLACK;
        if done >= len {
            return at + len;
        }
    }
}

/// Append `i` as `Display` writes it, without the formatter: digits from
/// the least significant into a buffer as long as `i64::MIN`, then copied.
fn push_decimal(out: &mut Vec<u8>, i: i64) {
    let mut digits = [0u8; 20];
    let (mut at, mut left) = (digits.len(), i.unsigned_abs());
    loop {
        at -= 1;
        digits[at] = b'0' + (left % 10) as u8;
        left /= 10;
        if left == 0 {
            break;
        }
    }
    if i < 0 {
        at -= 1;
        digits[at] = b'-';
    }
    out.extend_from_slice(&digits[at..]);
}

/// Sort `words` by their tuples of `columns` ranks, `rank(word, col)` of
/// `bits` bits each: a stable counting sort per 11-bit digit, last column
/// first, so that the order is lexicographic from the first column.
/// The printer's words are packed rank keys of a sparse key space (one
/// column, the digits read from the word; a dense one is sorted by
/// [`bitmap_keys`]); the wire encoder's are row ids, its ranks gathered.
fn sort_by_rank(words: &mut Vec<u32>, columns: usize, bits: u32, rank: impl Fn(u32, usize) -> u32) {
    const BITS: u32 = 11;
    let scratch = &mut vec![0; words.len()];
    for col in (0..columns).rev() {
        for shift in (0..bits.div_ceil(BITS)).map(|d| d * BITS) {
            let digit = |word: u32| (rank(word, col) >> shift) as usize & ((1 << BITS) - 1);
            // How many words carry each digit, then where each digit's
            // run starts; a word per row, so the counts fit a `u32`.
            let mut next = [0u32; 1 << BITS];
            for &word in words.iter() {
                next[digit(word)] += 1;
            }
            let mut start = 0;
            for n in &mut next {
                start += std::mem::replace(n, start);
            }
            for &word in words.iter() {
                let slot = &mut next[digit(word)];
                scratch[*slot as usize] = word;
                *slot += 1;
            }
            std::mem::swap(words, scratch);
        }
    }
}

/// Hand `take` the rank tuple of every live row of `relation`, all of
/// `stride` columns, packed into one word `bits` a column, the first
/// column highest: one pass over the arena in id order.
fn packed_keys(relation: &Relation, rank: &[u32], bits: u32, mut take: impl FnMut(u32)) {
    let rank = |s: &Sym| rank[s.0 as usize];
    let pack = |row: &[Sym]| match *row {
        [a, b] => rank(&a) << bits | rank(&b),
        _ => row
            .iter()
            .fold(0u64, |key, s| key << bits | u64::from(rank(s))) as u32,
    };
    let rows = relation.syms.chunks_exact(relation.stride);
    if relation.dead == 0 {
        rows.for_each(|row| take(pack(row)));
    } else {
        let live = (0..).zip(rows).filter(|&(id, _)| relation.live_in_log(id));
        live.for_each(|(_, row)| take(pack(row)));
    }
}

/// Hand `take` the packed keys of `relation` in ascending order, up to
/// 1 024 at a time, from a bitmap of all `2^key_bits` keys — no larger
/// than a `u32` per row while the key space is dense. The keys are
/// distinct (rows are, ranks are injective), so setting their bits
/// sorts them. Returns how many there were.
fn bitmap_keys(
    relation: &Relation,
    rank: &[u32],
    bits: u32,
    key_bits: u32,
    mut take: impl FnMut(&[u32]) -> std::io::Result<()>,
) -> std::io::Result<usize> {
    const CHUNK: usize = 1 << 10;
    let mut set = vec![0u64; (1usize << key_bits).div_ceil(64)];
    packed_keys(relation, rank, bits, |key| {
        set[key as usize / 64] |= 1 << (key % 64)
    });
    let (mut chunk, mut count) = (Vec::with_capacity(CHUNK + 64), 0);
    for (at, mut word) in set.into_iter().enumerate() {
        while word != 0 {
            chunk.push((at * 64) as u32 | word.trailing_zeros());
            word &= word - 1;
        }
        if chunk.len() >= CHUNK {
            take(&chunk)?;
            count += chunk.len();
            chunk.clear();
        }
    }
    take(&chunk)?;
    Ok(count + chunk.len())
}

/// Fact lines on their way to the writer: `buf[..at]` is text, and past
/// `CHUNK` there is room for one more line.
struct Lines<'o> {
    buf: Vec<u8>,
    at: usize,
    out: &'o mut dyn std::io::Write,
    bytes_out: usize,
}

impl Lines<'_> {
    /// How much text is gathered before it is handed to the writer.
    const CHUNK: usize = 1 << 16;

    /// Write one `name(a,b).` line per word, its `arity` (a schema's: at
    /// least one) symbols `sym(word, col)`. Kept out of line: inlined into its caller, the
    /// loop's values no longer fit the registers.
    #[inline(never)]
    fn render(
        &mut self,
        name: &str,
        arity: usize,
        words: &[u32],
        text: &SymbolText,
        sym: impl Fn(u32, usize) -> Sym,
    ) -> std::io::Result<()> {
        let head = [name.as_bytes(), b"(", &[0; SLACK]].concat();
        let room = head.len() + arity * (text.longest + 1) + b").\n".len() + SLACK;
        if self.buf.len() < Self::CHUNK + room {
            self.buf.resize(Self::CHUNK + room, 0);
        }
        let (texts, bounds) = (&text.text[..], &text.bounds[..]);
        // Every column is followed by a comma; the last one's becomes `)`.
        let (line, mut at) = (&mut self.buf[..], self.at);
        for &word in words {
            if at >= Self::CHUNK {
                self.out.write_all(&line[..at])?;
                (self.bytes_out, at) = (self.bytes_out + at, 0);
            }
            at = copy16(line, at, &head, name.len() + 1);
            for col in 0..arity {
                let s = sym(word, col).0 as usize;
                let start = bounds[s];
                at = copy16(line, at, &texts[start..], bounds[s + 1] - start);
                line[at] = b',';
                at += 1;
            }
            line[at - 1..][..3].copy_from_slice(b").\n");
            at += 2;
        }
        self.at = at;
        Ok(())
    }
}

impl FactPrinter {
    /// A printer for stores interned against `symbols`.
    pub fn new(symbols: SharedSymbols) -> Self {
        FactPrinter {
            symbols,
            order: CanonicalOrder::default(),
            known: SymbolText::default(),
        }
    }

    /// Write the live rows of the relations of `schema` (name and arity
    /// both matching, as in [`Instance::restrict`]), one `R(a,b).` line
    /// each, in [`Instance`] order; a relation the store does not hold,
    /// or holds no such row of, prints nothing. `storage` must be
    /// interned against this printer's symbol table. Reports the span
    /// `eval/write_facts` and the counters `eval/rows_written` and
    /// `eval/bytes_out` to `obs`.
    ///
    /// # Errors
    /// The writer's: what was written before it is written.
    pub fn write(
        &mut self,
        storage: &Storage,
        schema: &Schema,
        out: &mut dyn std::io::Write,
        obs: &calm_obs::Obs,
    ) -> std::io::Result<()> {
        let _span = obs.span("eval", || "write_facts".into());
        let table = self.symbols.read();
        self.order.extend(&table);
        self.known.extend(&table);
        let (order, known) = (&self.order, &self.known);
        let bits = width(order.by_value.len());
        let mut lines = Lines {
            buf: Vec::new(),
            at: 0,
            out,
            bytes_out: 0,
        };
        let mut rows_written = 0;
        for (name, arity) in schema.iter() {
            let relation = table.lookup_rel(name).and_then(|r| storage.relation(r));
            let Some(relation) = relation else { continue };
            let packs = arity * bits as usize <= 32;
            if packs && relation.uniform_arity() == Some(arity) {
                let (by_value, mask, last) = (&order.by_value[..], (1u64 << bits) - 1, arity - 1);
                let sym = move |key: u32, col: usize| {
                    by_value[(u64::from(key) >> (bits as usize * (last - col)) & mask) as usize]
                };
                let key_bits = arity as u32 * bits;
                // Dense: a bit per key is no more than a `u32` per row.
                if 1u64 << key_bits <= 32 * relation.len() as u64 {
                    let walked = bitmap_keys(relation, &order.rank, bits, key_bits, |keys| {
                        lines.render(name, arity, keys, known, sym)
                    })?;
                    debug_assert_eq!(walked, relation.len(), "one key per live row of {name}");
                    rows_written += walked;
                } else {
                    let mut keys = Vec::with_capacity(relation.len());
                    packed_keys(relation, &order.rank, bits, |key| keys.push(key));
                    sort_by_rank(&mut keys, 1, key_bits, |key, _| key);
                    lines.render(name, arity, &keys, known, sym)?;
                    rows_written += keys.len();
                }
            } else {
                let ids = order.sorted_ids(relation, Some(arity));
                lines.render(name, arity, &ids, known, |id, col| relation.row(id)[col])?;
                rows_written += ids.len();
            }
        }
        lines.out.write_all(&lines.buf[..lines.at])?;
        obs.counter("eval", "rows_written", rows_written as u64);
        obs.counter("eval", "bytes_out", (lines.bytes_out + lines.at) as u64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;
    use crate::value::v;

    fn pushed(d: &Rows) -> Vec<(RelId, Vec<Sym>)> {
        (d.runs())
            .flat_map(|(rel, rows)| rows.map(move |row| (rel, row.to_vec())))
            .collect()
    }

    #[test]
    fn rows_runs_break_exactly_where_relation_or_arity_changes() {
        let (e, t) = (RelId(0), RelId(1));
        let pushes: Vec<(RelId, Vec<Sym>)> = [
            (e, &[1, 2][..]),
            (e, &[3, 4]),
            (t, &[5, 6]),
            (t, &[7]),
            (t, &[8]),
            (e, &[9, 1]),
            (e, &[2, 3, 4]),
            (t, &[5, 6]),
        ]
        .iter()
        .map(|&(rel, row)| (rel, row.iter().map(|&s| Sym(s)).collect()))
        .collect();
        let mut d = Rows::default();
        for (rel, row) in &pushes {
            d.push(*rel, row);
        }
        assert_eq!(pushed(&d), pushes, "the runs hand rows back in push order");
        assert_eq!(
            d.runs,
            [
                (e, 2, 4),
                (t, 2, 6),
                (t, 1, 8),
                (e, 2, 10),
                (e, 3, 13),
                (t, 2, 15)
            ]
        );
        d.clear();
        assert!(d.syms.is_empty() && d.runs.is_empty());
    }

    #[test]
    fn n_binary_rows_are_2n_symbols_under_one_header() {
        let mut d = Rows::default();
        let n = 1000;
        for i in 0..n {
            d.push(RelId(3), &[Sym(i), Sym(i + 1)]);
        }
        assert_eq!(d.syms.len(), 2 * n as usize);
        assert_eq!(d.runs.len(), 1);
        let (rel, rows) = d.runs().next().unwrap();
        assert_eq!((rel, rows.len()), (RelId(3), n as usize));
    }

    fn syms(table: &mut SymbolTable, vals: &[i64]) -> SymTuple {
        vals.iter().map(|&k| table.sym(&v(k))).collect()
    }

    #[test]
    fn interning_is_stable_and_bijective() {
        let mut t = SymbolTable::new();
        let e1 = t.rel("E");
        let f = t.rel("F");
        assert_eq!(t.rel("E"), e1);
        assert_ne!(e1, f);
        assert_eq!(t.rel_name(e1).as_ref(), "E");
        let a = t.sym(&v(7));
        let b = t.sym(&v(8));
        assert_eq!(t.sym(&v(7)), a);
        assert_ne!(a, b);
        assert_eq!(t.value(b), &v(8));
        assert_eq!(t.lookup_sym(&v(9)), None);
        assert_eq!(t.lookup_rel("G"), None);
        assert_eq!(t.rel_count(), 2);
        assert_eq!(t.sym_count(), 2);
    }

    #[test]
    fn relation_insert_dedups_and_orders() {
        let mut t = SymbolTable::new();
        let mut r = Relation::default();
        assert!(r.insert(&syms(&mut t, &[1, 2])));
        assert!(r.insert(&syms(&mut t, &[2, 3])));
        assert!(!r.insert(&syms(&mut t, &[1, 2])));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&syms(&mut t, &[2, 3])));
        assert_eq!(r.row(0), syms(&mut t, &[1, 2]));
    }

    #[test]
    fn indexes_maintained_on_insert() {
        let mut t = SymbolTable::new();
        let mut r = Relation::default();
        r.insert(&syms(&mut t, &[1, 2]));
        r.ensure_index(0);
        // Existing rows are indexed...
        let s1 = t.sym(&v(1));
        assert_eq!(r.probe(0, s1), Some(&[0u32][..]));
        // ...and later inserts keep the index current without a rebuild.
        r.insert(&syms(&mut t, &[1, 3]));
        r.insert(&syms(&mut t, &[4, 5]));
        assert_eq!(r.probe(0, s1), Some(&[0u32, 1][..]));
        let s4 = t.sym(&v(4));
        assert_eq!(r.probe(0, s4), Some(&[2u32][..]));
        // Unindexed column reports no index.
        assert_eq!(r.probe(1, s1), None);
        // Probing a missing key hits the empty slice, not None.
        let s9 = t.sym(&v(9));
        assert_eq!(r.probe(0, s9), Some(&[][..]));
    }

    #[test]
    fn delta_watermarks() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let e = t.rel("E");
        st.insert(e, &syms(&mut t, &[1, 2]));
        st.mark_deltas();
        assert!(st.relation(e).unwrap().delta_rows().is_empty());
        st.insert(e, &syms(&mut t, &[2, 3]));
        st.insert(e, &syms(&mut t, &[3, 4]));
        let rel = st.relation(e).unwrap();
        assert_eq!(rel.delta_rows().len(), 2);
        assert_eq!(rel.rows().len(), 3);
        st.mark_deltas();
        assert!(st.relation(e).unwrap().delta_rows().is_empty());
    }

    #[test]
    fn storage_len_is_running_counter() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        assert!(st.is_empty());
        let e = t.rel("E");
        let f = t.rel("F");
        st.insert(e, &syms(&mut t, &[1, 2]));
        st.insert(e, &syms(&mut t, &[1, 2])); // duplicate
        st.insert(f, &syms(&mut t, &[7]));
        assert_eq!(st.len(), 2);
        assert!(!st.is_empty());
        st.clear();
        assert!(st.is_empty());
        assert_eq!(st.len(), 0);
    }

    #[test]
    fn clear_keeps_indexes_usable() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let e = t.rel("E");
        st.relation_mut(e).ensure_index(0);
        st.insert(e, &syms(&mut t, &[1, 2]));
        st.clear();
        st.insert(e, &syms(&mut t, &[3, 4]));
        let s3 = t.sym(&v(3));
        assert_eq!(st.relation(e).unwrap().probe(0, s3), Some(&[0u32][..]));
        let s1 = t.sym(&v(1));
        assert_eq!(st.relation(e).unwrap().probe(0, s1), Some(&[][..]));
    }

    #[test]
    #[should_panic(expected = "interning capacity exhausted")]
    fn value_interning_capacity_guard_panics_instead_of_wrapping() {
        let mut t = SymbolTable {
            id_cap: 3,
            ..SymbolTable::default()
        };
        for k in 0..4 {
            t.sym(&v(k)); // the 4th distinct value must trip the guard
        }
    }

    #[test]
    #[should_panic(expected = "interning capacity exhausted")]
    fn relation_interning_capacity_guard_panics_instead_of_wrapping() {
        let mut t = SymbolTable {
            id_cap: 2,
            ..SymbolTable::default()
        };
        t.rel("A");
        t.rel("B");
        t.rel("C");
    }

    #[test]
    fn interning_capacity_guard_only_fires_for_fresh_ids() {
        let mut t = SymbolTable {
            id_cap: 2,
            ..SymbolTable::default()
        };
        let a = t.sym(&v(1));
        let b = t.sym_str("b");
        // Re-interning existing values allocates no id: no panic, through
        // any door.
        assert_eq!(t.sym(&v(1)), a);
        assert_eq!(t.sym_int(1), a);
        assert_eq!(t.sym(&Value::str("b")), b);
        assert_eq!(t.sym_str("b"), b);
        assert_eq!(t.sym_count(), 2);
        // A fresh value trips the guard, through any door, and leaves the
        // table as it was.
        let fresh: [fn(&mut SymbolTable) -> Sym; 4] = [
            |t| t.sym_int(2),
            |t| t.sym_str("c"),
            |t| t.sym(&v(2)),
            |t| t.sym(&Value::skolem("f", vec![v(1)])),
        ];
        for door in fresh {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| door(&mut t)));
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(
                message.contains("interning capacity exhausted"),
                "{message}"
            );
            assert_eq!(t.sym_count(), 2);
            assert_eq!(t.lookup_sym(&v(2)), None);
            assert_eq!(t.lookup_sym(&Value::str("c")), None);
            assert_eq!((t.sym_int(1), t.sym_str("b")), (a, b));
        }
    }

    #[test]
    #[should_panic(expected = "interning capacity exhausted")]
    fn row_id_capacity_guard_panics_instead_of_wrapping() {
        let mut t = SymbolTable::new();
        let mut r = Relation {
            row_cap: 2,
            ..Relation::default()
        };
        assert!(r.insert(&syms(&mut t, &[1])));
        assert!(r.insert(&syms(&mut t, &[2])));
        assert!(!r.insert(&syms(&mut t, &[1]))); // duplicate: no id, no panic
        r.insert(&syms(&mut t, &[3])); // 3rd distinct row must trip the guard
    }

    #[test]
    #[should_panic(expected = "interning capacity exhausted")]
    fn arena_offset_capacity_guard_panics_instead_of_wrapping() {
        let mut t = SymbolTable::new();
        let mut r = Relation {
            arena_cap: 5,
            ..Relation::default()
        };
        assert!(r.insert(&syms(&mut t, &[1, 2])));
        assert!(r.insert(&syms(&mut t, &[3, 4, 5]))); // exactly full: fine
        assert!(!r.insert(&syms(&mut t, &[1, 2]))); // duplicate: no symbols, no panic
        r.insert(&syms(&mut t, &[6])); // one symbol past the cap must trip the guard
    }

    #[test]
    fn a_relation_of_one_arity_keeps_nothing_per_row_beside_its_symbols() {
        let mut r = Relation::default();
        r.reserve(10_000, 2);
        for i in 0..10_000 {
            assert!(r.insert(&[Sym(i), Sym(i % 7)]));
        }
        assert_eq!(r.syms.len(), 20_000);
        assert_eq!((r.starts.capacity(), r.killed.capacity()), (0, 0));
        assert_eq!(r.row(9_999), [Sym(9_999), Sym(9_999 % 7)]);
        // One retraction: one tombstone bit per row, in 64-bit words.
        assert!(r.retract_id(70));
        assert_eq!(r.killed.len(), 10_000usize.div_ceil(64));
        assert!(!r.is_live(70) && r.is_live(69) && r.is_live(71));
        assert!(r.revive(70));
        assert_eq!(r.dead_rows(), 0);
        // A second arity builds the offsets once, from the stride.
        assert!(r.insert(&[Sym(1)]));
        assert_eq!(r.starts.len(), 10_001);
        assert_eq!(r.row(9_999), [Sym(9_999), Sym(9_999 % 7)]);
        assert_eq!(r.row(10_000), [Sym(1)]);
        // Compaction down to nothing forgets both, and the next row
        // sets the stride again.
        for id in r.rows() {
            r.retract_id(id);
        }
        assert_eq!(r.compact(), 10_001);
        assert_eq!((r.starts.len(), r.killed.len()), (0, 0));
        assert!(r.insert(&[Sym(1), Sym(2), Sym(3)]));
        assert_eq!((r.stride, r.starts.len()), (3, 0));
    }

    /// The slots a hash table holds once `rows` distinct rows were
    /// inserted one by one: the bound no id table may pass.
    fn hashed_slots(rows: usize) -> usize {
        (2 * rows).next_power_of_two().max(8)
    }

    #[test]
    fn a_binary_relation_over_100_000_symbols_never_outgrows_a_hash_table() {
        // 10 000 rows over 100 symbols go direct; the wide symbols that
        // follow cannot have `B²` slots, and the table hashes again.
        let mut r = Relation::default();
        let mut direct = 0;
        for i in 0..60_000u32 {
            let row = match i {
                0..10_000 => [Sym(i / 100), Sym(i % 100)],
                _ => [Sym(i * 7 % 100_000), Sym(i)],
            };
            assert!(r.insert(&row));
            assert!(r.table.len() <= hashed_slots(r.len()), "{} rows", r.len());
            direct += usize::from(r.base > 0);
        }
        assert!(direct > 5_000, "the dense rows were addressed directly");
        assert_eq!((r.base, r.table.len()), (0, hashed_slots(60_000)));
        assert_eq!(r.lookup(&[Sym(99), Sym(99)]), Some(9_999));
        assert_eq!(
            r.lookup(&[Sym(7 * 59_999 % 100_000), Sym(59_999)]),
            Some(59_999)
        );
    }

    #[test]
    fn all_360_000_pairs_over_600_symbols_take_one_slot_each() {
        let mut r = Relation::default();
        for i in 0..360_000 {
            // A permutation of the pairs: 7 919 is prime to 360 000.
            let p = i * 7_919 % 360_000;
            assert!(r.insert(&[Sym(p / 600), Sym(p % 600)]));
            assert!(r.table.len() <= hashed_slots(r.len()));
        }
        assert_eq!((r.base, r.table.len()), (600, 360_000));
        assert_eq!(r.lookup(&[Sym(0), Sym(0)]), Some(0));
        assert_eq!(r.lookup(&[Sym(599), Sym(600)]), None);
        assert_eq!(r.lookup(&[Sym(599)]), None);
        assert!(!r.insert(&[Sym(7_919 / 600), Sym(7_919 % 600)]));
    }

    #[test]
    fn a_unary_relation_of_rising_symbols_widens_by_doubling() {
        // Symbols arrive in first-occurrence order: all of them, or every
        // third one. The table stays within the hash table's slots at
        // every step, and changes size a logarithmic number of times, not
        // once a symbol. Every symbol keeps it direct; every third one
        // needs `2B > 4n` slots to widen, so it goes back to hashing.
        for (step, direct) in [(1, true), (3, false)] {
            let mut r = Relation::default();
            let mut sizes = 0;
            for i in 0..50_000u32 {
                let slots = r.table.len();
                assert!(r.insert(&[Sym(step * i + 1)]));
                assert!(r.table.len() <= hashed_slots(r.len()), "{} rows", r.len());
                sizes += usize::from(r.table.len() != slots);
            }
            assert_eq!(r.base > 0, direct, "step {step}");
            assert!(sizes <= 2 * 16, "step {step}: {sizes} table sizes");
            assert_eq!(r.lookup(&[Sym(step * 49_999 + 1)]), Some(49_999));
            assert_eq!(r.lookup(&[Sym(0)]), None);
        }
    }

    #[test]
    fn insert_batch_counts_new_rows_and_bytes() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let e = t.rel("E");
        st.insert(e, &syms(&mut t, &[1, 2]));
        let batch = [
            syms(&mut t, &[1, 2]), // duplicate of the existing row
            syms(&mut t, &[2, 3]),
            syms(&mut t, &[3, 4]),
            syms(&mut t, &[2, 3]), // duplicate within the batch
        ];
        let (added, bytes) = st.insert_batch(e, batch.iter().map(Vec::as_slice));
        assert_eq!(added, 2);
        assert_eq!(bytes, 2 * 2 * std::mem::size_of::<Sym>());
        assert_eq!(st.len(), 3);
        // Insertion order within the batch is preserved.
        let rel = st.relation(e).unwrap();
        assert_eq!(rel.row(1), syms(&mut t, &[2, 3]));
        assert_eq!(rel.row(2), syms(&mut t, &[3, 4]));
    }

    #[test]
    fn retract_tombstones_and_reinsert_revives_in_place() {
        let mut t = SymbolTable::new();
        let mut r = Relation::default();
        r.insert(&syms(&mut t, &[1, 2]));
        r.insert(&syms(&mut t, &[2, 3]));
        r.ensure_index(0);
        assert!(r.retract(&syms(&mut t, &[1, 2])));
        assert!(!r.retract(&syms(&mut t, &[1, 2])), "already dead");
        assert!(!r.retract(&syms(&mut t, &[9, 9])), "never present");
        assert_eq!(r.len(), 1);
        assert_eq!(r.dead_rows(), 1);
        assert!(!r.contains(&syms(&mut t, &[1, 2])));
        assert!(r.contains(&syms(&mut t, &[2, 3])));
        let live: Vec<_> = r.live_rows().collect();
        assert_eq!(live, vec![&syms(&mut t, &[2, 3])[..]]);
        // Re-insert revives the same row id: no new row, no index work.
        assert!(r.insert(&syms(&mut t, &[1, 2])));
        assert_eq!(r.rows().len(), 2, "no duplicate row appended");
        assert_eq!(r.dead_rows(), 0);
        assert!(r.contains(&syms(&mut t, &[1, 2])));
        let s1 = t.sym(&v(1));
        assert_eq!(r.probe(0, s1), Some(&[0u32][..]), "index id unchanged");
    }

    #[test]
    fn signed_deltas_cancel_within_a_window() {
        let mut t = SymbolTable::new();
        let mut r = Relation::default();
        r.insert(&syms(&mut t, &[1])); // survives
        r.insert(&syms(&mut t, &[2])); // retracted this window
        r.insert(&syms(&mut t, &[3])); // retracted then revived: no-op
        r.mark_delta();
        r.insert(&syms(&mut t, &[4])); // added
        r.insert(&syms(&mut t, &[5])); // added then retracted: no-op
        r.retract(&syms(&mut t, &[5]));
        r.retract(&syms(&mut t, &[2]));
        r.retract(&syms(&mut t, &[2])); // duplicate retract: ignored
        r.retract(&syms(&mut t, &[3]));
        r.insert(&syms(&mut t, &[3])); // revival cancels the retraction
        let added: Vec<_> = r.added_ids().map(|id| r.row(id).to_vec()).collect();
        assert_eq!(added, vec![syms(&mut t, &[4])]);
        let removed: Vec<_> = r.removed_ids().map(|id| r.row(id).to_vec()).collect();
        assert_eq!(removed, vec![syms(&mut t, &[2])]);
        // The next mark clears the retraction log.
        r.mark_delta();
        assert_eq!(r.added_ids().count(), 0);
        assert_eq!(r.removed_ids().count(), 0);
    }

    #[test]
    fn id_filtered_probes_enumerate_the_old_and_new_views() {
        // Random signed sequences over a compacted, marked relation:
        // an index probe filtered by `live_at_mark` must enumerate
        // exactly (live ∖ added) ∪ removed — the contents at mark time —
        // and filtered by `is_live` exactly the current contents,
        // through tombstones, revivals and appended rows alike.
        use crate::rng::Rng;
        for seed in 0..64u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let mut t = SymbolTable::new();
            let mut st = Storage::new();
            let e = t.rel("E");
            st.relation_mut(e).ensure_index(0);
            let mut model: HashSet<SymTuple> = HashSet::new();
            for _ in 0..rng.gen_range(0..24usize) {
                let row = syms(&mut t, &[rng.gen_range(0..4i64), rng.gen_range(0..6i64)]);
                st.insert(e, &row);
                model.insert(row);
            }
            // Leave a few tombstones behind, then compact: the
            // precondition of the id filter.
            for row in model.clone() {
                if rng.gen_bool(0.2) {
                    st.retract(e, &row);
                    model.remove(&row);
                }
            }
            st.compact_retractions();
            st.mark_deltas();
            let at_mark = model.clone();
            for _ in 0..rng.gen_range(0..40usize) {
                let row = syms(&mut t, &[rng.gen_range(0..4i64), rng.gen_range(0..6i64)]);
                if rng.gen_bool(0.5) {
                    assert_eq!(st.insert(e, &row), model.insert(row), "seed {seed}");
                } else {
                    assert_eq!(st.retract(e, &row), model.remove(&row), "seed {seed}");
                }
            }
            assert_eq!(st.len(), model.len(), "seed {seed}");
            let rel = st.relation(e).unwrap();
            let added: HashSet<SymTuple> = rel.added_ids().map(|id| rel.row(id).to_vec()).collect();
            let removed: HashSet<SymTuple> =
                rel.removed_ids().map(|id| rel.row(id).to_vec()).collect();
            assert_eq!(
                added,
                model.difference(&at_mark).cloned().collect(),
                "seed {seed}"
            );
            assert_eq!(
                removed,
                at_mark.difference(&model).cloned().collect(),
                "seed {seed}"
            );
            let old: HashSet<SymTuple> = model
                .difference(&added)
                .chain(removed.iter())
                .cloned()
                .collect();
            assert_eq!(old, at_mark, "seed {seed}");
            for k in 0..4i64 {
                let s = t.sym(&v(k));
                let ids = rel.probe(0, s).unwrap();
                let view = |keep: &dyn Fn(u32) -> bool| -> Vec<SymTuple> {
                    let mut rows: Vec<SymTuple> = ids
                        .iter()
                        .filter(|&&id| keep(id))
                        .map(|&id| rel.row(id).to_vec())
                        .collect();
                    rows.sort();
                    rows
                };
                let expect = |set: &HashSet<SymTuple>| -> Vec<SymTuple> {
                    let mut rows: Vec<SymTuple> =
                        set.iter().filter(|r| r[0] == s).cloned().collect();
                    rows.sort();
                    rows
                };
                assert_eq!(
                    view(&|id| rel.live_at_mark(id)),
                    expect(&old),
                    "seed {seed}"
                );
                assert_eq!(view(&|id| rel.is_live(id)), expect(&model), "seed {seed}");
            }
            // Id-level retract/revive agree with the tuple-level calls.
            if let Some(row) = model.iter().next().cloned() {
                let id = st.relation(e).unwrap().lookup(&row).unwrap();
                assert!(st.retract_id(e, id));
                assert!(!st.retract_id(e, id), "already dead");
                assert!(!st.contains(e, &row));
                assert!(st.revive(e, id));
                assert!(!st.revive(e, id), "already live");
                assert!(st.contains(e, &row));
                assert_eq!(st.len(), model.len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn clear_relation_keeps_the_fact_counter_honest() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let (e, f) = (t.rel("E"), t.rel("F"));
        st.insert(e, &syms(&mut t, &[1, 2]));
        st.insert(e, &syms(&mut t, &[2, 3]));
        st.retract(e, &syms(&mut t, &[2, 3]));
        st.insert(f, &syms(&mut t, &[7]));
        st.clear_relation(e);
        assert_eq!(st.len(), 1);
        assert!(!st.any_dead());
        assert!(st.relation(e).unwrap().is_empty());
        st.clear_relation(t.rel("Missing"));
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn retain_relations_gives_the_memory_of_the_rest_back() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let (e, f) = (t.rel("E"), t.rel("F"));
        st.relation_mut(e).ensure_index(0);
        for i in 0..100 {
            st.insert(e, &syms(&mut t, &[i, i + 1]));
        }
        st.retract(e, &syms(&mut t, &[0, 1]));
        st.insert(f, &syms(&mut t, &[7]));
        assert_eq!(st.len(), 100);
        st.retain_relations(|r| r == f);
        assert_eq!(st.len(), 1, "the 99 live rows of E are gone from the count");
        assert!(!st.any_dead());
        assert!(st.contains(f, &syms(&mut t, &[7])));
        let rel = st.relation(e).unwrap();
        assert!(rel.is_empty() && rel.rows().is_empty());
        assert!(!st.contains(e, &syms(&mut t, &[5, 6])));
        let held = rel.syms.capacity() + rel.table.capacity() + rel.killed.capacity();
        assert_eq!(held + rel.indexes.capacity(), 0, "nothing is kept warm");
        // Inserting again starts from nothing, a new arity included.
        assert!(st.insert(e, &syms(&mut t, &[4, 5, 6])));
        assert!(st.contains(e, &syms(&mut t, &[4, 5, 6])));
        st.relation_mut(e).ensure_index(2);
        assert_eq!(
            st.relation(e).unwrap().probe(2, t.sym(&v(6))),
            Some(&[0][..])
        );
        assert_eq!(st.len(), 2);
        st.retain_relations(|_| true);
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn compact_rebuilds_live_rows_indexes_and_watermark() {
        let mut t = SymbolTable::new();
        let mut st = Storage::new();
        let e = t.rel("E");
        st.relation_mut(e).ensure_index(1);
        st.insert(e, &syms(&mut t, &[1, 2]));
        st.insert(e, &syms(&mut t, &[2, 2]));
        st.insert(e, &syms(&mut t, &[3, 7]));
        st.retract(e, &syms(&mut t, &[1, 2]));
        st.mark_deltas();
        st.insert(e, &syms(&mut t, &[4, 2]));
        assert_eq!(st.len(), 3);
        assert!(st.any_dead());
        let removed = st.compact_retractions();
        assert_eq!(removed, 1);
        assert!(!st.any_dead());
        assert_eq!(st.len(), 3);
        let rel = st.relation(e).unwrap();
        assert_eq!(rel.rows().len(), 3, "dead row physically gone");
        // Watermark remapped: [2,2] and [3,7] precede it, [4,2] is delta.
        assert_eq!(rel.delta_rows(), 2..3);
        assert_eq!(rel.row(2), syms(&mut t, &[4, 2]));
        // Index rebuilt over live ids only.
        let s2 = t.sym(&v(2));
        let ids = rel.probe(1, s2).unwrap().to_vec();
        let rows: Vec<_> = ids.iter().map(|&id| rel.row(id).to_vec()).collect();
        assert_eq!(rows, vec![syms(&mut t, &[2, 2]), syms(&mut t, &[4, 2])]);
        // Compacting again is a no-op.
        assert_eq!(st.compact_retractions(), 0);
    }

    #[test]
    fn retract_keeps_storage_counter_and_same_facts_honest() {
        let mut t = SymbolTable::new();
        let e = t.rel("E");
        let mut a = Storage::new();
        let mut b = Storage::new();
        a.insert(e, &syms(&mut t, &[1, 2]));
        a.insert(e, &syms(&mut t, &[2, 3]));
        a.retract(e, &syms(&mut t, &[2, 3]));
        assert_eq!(a.len(), 1);
        // A store that never held the retracted fact is equal.
        b.insert(e, &syms(&mut t, &[1, 2]));
        assert!(a.same_facts(&b));
        assert!(b.same_facts(&a));
        // Tombstones are invisible at the Instance edge.
        let symbols = SharedSymbols::new();
        let mut st = Storage::new();
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        load_instance(&i, &symbols, &mut st);
        let er = symbols.read().lookup_rel("E").unwrap();
        let row: SymTuple = {
            let table = symbols.read();
            [v(2), v(3)]
                .iter()
                .map(|x| table.lookup_sym(x).unwrap())
                .collect()
        };
        st.retract(er, &row);
        let out = store_to_instance(&st, &symbols);
        assert_eq!(out, Instance::from_facts([fact("E", [1, 2])]));
    }

    #[test]
    fn same_facts_ignores_insertion_order() {
        let mut t = SymbolTable::new();
        let e = t.rel("E");
        let mut a = Storage::new();
        let mut b = Storage::new();
        a.insert(e, &syms(&mut t, &[1, 2]));
        a.insert(e, &syms(&mut t, &[2, 3]));
        b.insert(e, &syms(&mut t, &[2, 3]));
        assert!(!a.same_facts(&b));
        b.insert(e, &syms(&mut t, &[1, 2]));
        assert!(a.same_facts(&b));
        assert!(b.same_facts(&a));
    }

    #[test]
    fn instance_round_trip() {
        let symbols = SharedSymbols::new();
        let mut st = Storage::new();
        let i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3]), fact("V", [9])]);
        load_instance(&i, &symbols, &mut st);
        assert_eq!(st.len(), 3);
        assert_eq!(store_to_instance(&st, &symbols), i);
    }

    #[test]
    fn shared_symbols_are_shared() {
        let a = SharedSymbols::new();
        let b = a.clone();
        let c = SharedSymbols::new();
        assert!(a.same_table(&b));
        assert!(!a.same_table(&c));
        let e = a.write().rel("E");
        assert_eq!(b.read().lookup_rel("E"), Some(e));
    }

    #[test]
    fn metrics_merge_sums_everything() {
        let mut m = EvalMetrics {
            iterations: 1,
            derivations: 10,
            new_facts: 5,
            index_probes: 7,
            index_hits: 6,
            merge_probes: 3,
            merge_hits: 2,
            bytes_moved: 40,
        };
        m.merge(&EvalMetrics {
            iterations: 2,
            derivations: 1,
            new_facts: 1,
            index_probes: 1,
            index_hits: 1,
            merge_probes: 4,
            merge_hits: 5,
            bytes_moved: 8,
        });
        assert_eq!(m.iterations, 3);
        assert_eq!(m.derivations, 11);
        assert_eq!(m.new_facts, 6);
        assert_eq!(m.index_probes, 8);
        assert_eq!(m.index_hits, 7);
        assert_eq!(m.merge_probes, 7);
        assert_eq!(m.merge_hits, 7);
        assert_eq!(m.bytes_moved, 48);
    }

    #[test]
    fn metrics_merge_is_associative_and_commutative_with_identity() {
        let samples = [
            EvalMetrics {
                iterations: 1,
                derivations: 10,
                new_facts: 5,
                index_probes: 7,
                index_hits: 6,
                merge_probes: 1,
                merge_hits: 4,
                bytes_moved: 40,
            },
            EvalMetrics {
                iterations: 3,
                derivations: 2,
                new_facts: 0,
                index_probes: 11,
                index_hits: 9,
                merge_probes: 0,
                merge_hits: 0,
                bytes_moved: 16,
            },
            EvalMetrics {
                iterations: 0,
                derivations: 100,
                new_facts: 99,
                index_probes: 0,
                index_hits: 0,
                merge_probes: 13,
                merge_hits: 21,
                bytes_moved: 792,
            },
        ];
        let [a, b, c] = samples;
        // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);
        // a ⊕ b == b ⊕ a.
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        // The default is the identity element.
        for s in &samples {
            let mut with_id = *s;
            with_id.merge(&EvalMetrics::default());
            assert_eq!(&with_id, s);
            let mut id_with = EvalMetrics::default();
            id_with.merge(s);
            assert_eq!(&id_with, s);
        }
    }
}
