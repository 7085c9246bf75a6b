//! Differential property test (hand-rolled, seeded): [`FactPrinter`]
//! against the `Instance` edge it replaces. Its contract is an order —
//! relation names in `str` order, tuples in `Vec<Value>` order — so the
//! reference is the container whose `Ord` defines that order: the bytes
//! the printer writes must equal one `Display` line per fact of
//! [`store_to_instance_restricted`], on every store and every schema,
//! with the printer's rank and text tables built fresh and with the
//! same tables carried across a growth of the symbol table (how `calm
//! eval --updates` uses it).
//!
//! The stores are shaped to put the order under strain: relation names
//! that are prefixes of each other and differ in case; relations of one
//! arity, and rows of arities 1–4 inside one relation — a second arity
//! arriving after the first was ranked; integers around zero, strings that read as
//! integers (`"10"` against `10`, `"2"` against `"10"`), the empty
//! string, strings that print quoted (`"a b"`, `"x,y"`, `"("`, and
//! `"f(1)"` beside the Skolem term `f(1)`), and Skolem terms; tombstones, revivals and compaction; and
//! output schemas that name a relation the store never held, one it
//! holds no live row of, and one it holds only at another arity.

use calm_common::rng::Rng;
use calm_common::storage::{
    relations_by_name, store_to_instance, store_to_instance_restricted, CanonicalOrder,
    FactPrinter, SharedSymbols, Storage, SymTuple,
};
use calm_common::{v, Schema, Value};
use calm_obs::{Obs, ReportSink};
use std::sync::Arc;

const NAMES: [&str; 6] = ["E", "EA", "E_", "Ea", "Eab", "e"];

fn value(rng: &mut Rng, fresh: bool) -> Value {
    // Values only the second half of a run may draw: they sort before,
    // between and after the first half's, in every variant.
    if fresh {
        return match rng.gen_range(0..6u32) {
            0 => v(-40),
            1 => v(7),
            2 => Value::str("1"),
            3 => Value::str("zz"),
            4 => Value::skolem("e", vec![v(0)]),
            _ => Value::skolem("f", vec![v(1), v(0)]),
        };
    }
    match rng.gen_range(0..10u32) {
        0..=4 => v(rng.gen_range(-3..13i64)),
        5 | 6 => {
            let texts = [
                "10", "2", "-1", "", "a", "ab", "B", "a b", "x,y", "(", "f(1)",
            ];
            Value::str(rng.choose(&texts).unwrap())
        }
        7 => Value::skolem("f", vec![v(rng.gen_range(0..3i64))]),
        8 => Value::skolem("f", vec![v(1), Value::str("10")]),
        _ => Value::skolem("g", vec![Value::skolem("f", vec![v(2)])]),
    }
}

/// A row of `arity` values, or of a random arity 1–4.
fn row(rng: &mut Rng, symbols: &SharedSymbols, fresh: bool, arity: Option<usize>) -> SymTuple {
    let arity = arity.unwrap_or_else(|| rng.gen_range(1..=4usize));
    let mut table = symbols.write();
    (0..arity)
        .map(|_| {
            let fresh = fresh && rng.gen_bool(0.5);
            table.sym(&value(rng, fresh))
        })
        .collect()
}

/// Insert up to 60 rows per relation — half the time all of one arity,
/// so that a relation that held one arity may meet a second in a later
/// churn — retract a third of what is there, revive some of those, and
/// half the time compact.
fn churn(rng: &mut Rng, symbols: &SharedSymbols, st: &mut Storage, names: &[&str], fresh: bool) {
    for name in names {
        let r = symbols.write().rel(name);
        let arity = rng.gen_bool(0.5).then(|| rng.gen_range(1..=4usize));
        for _ in 0..rng.gen_range(0..60usize) {
            st.insert(r, &row(rng, symbols, fresh, arity));
        }
        let ids = st.relation(r).map_or(0..0, |rel| rel.rows());
        for id in ids {
            if rng.gen_bool(1.0 / 3.0) {
                st.retract_id(r, id);
                if rng.gen_bool(0.25) {
                    st.revive(r, id);
                }
            }
        }
    }
    if rng.gen_bool(0.5) {
        st.compact_retractions();
    }
}

/// A schema over some of `names` at random arities, plus a name no
/// store holds.
fn schema(rng: &mut Rng, names: &[&str]) -> Schema {
    let mut schema = Schema::new();
    for name in names.iter().chain(&["Zz"]) {
        if rng.gen_bool(0.8) {
            schema.add(name, rng.gen_range(1..=4usize));
        }
    }
    schema
}

fn reference(st: &Storage, symbols: &SharedSymbols, schema: &Schema) -> String {
    let answer = store_to_instance_restricted(st, symbols, schema);
    answer.facts().map(|f| format!("{f}.\n")).collect()
}

fn printed(printer: &mut FactPrinter, st: &Storage, schema: &Schema) -> String {
    let mut out = Vec::new();
    printer
        .write(st, schema, &mut out, &Obs::noop())
        .expect("writing to memory");
    String::from_utf8(out).expect("facts are UTF-8")
}

#[test]
fn printer_writes_what_the_instance_edge_prints() {
    let (mut lines, mut silent) = (0, 0);
    for seed in 0..400u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let symbols = SharedSymbols::new();
        let mut st = Storage::new();
        let mut names = NAMES;
        rng.shuffle(&mut names);
        let names = &names[..rng.gen_range(1..=4usize)];
        // One relation is held with no live row: everything retracted.
        let emptied = symbols.write().rel("Gone");
        st.insert(emptied, &row(&mut rng, &symbols, false, None));
        st.clear_relation(emptied);

        churn(&mut rng, &symbols, &mut st, names, false);
        let mut carried = FactPrinter::new(symbols.clone());
        for _ in 0..3 {
            let mut schema = schema(&mut rng, names);
            schema.add("Gone", 2);
            let want = reference(&st, &symbols, &schema);
            assert_eq!(printed(&mut carried, &st, &schema), want, "seed {seed}");
            lines += want.lines().count();
            silent += usize::from(want.is_empty());
        }

        // The symbol table grows under a printer that has already
        // ranked it: the carried tables must extend to what a rebuild
        // gives.
        let before = symbols.read().sym_count();
        churn(&mut rng, &symbols, &mut st, names, true);
        for _ in 0..3 {
            let schema = schema(&mut rng, names);
            let want = reference(&st, &symbols, &schema);
            assert_eq!(printed(&mut carried, &st, &schema), want, "seed {seed}");
            let mut rebuilt = FactPrinter::new(symbols.clone());
            assert_eq!(printed(&mut rebuilt, &st, &schema), want, "seed {seed}");
        }
        assert!(symbols.read().sym_count() >= before);
    }
    assert!(
        lines > 10_000 && silent > 0,
        "{lines} lines, {silent} silent"
    );
}

#[test]
fn printer_ranks_and_renders_integers_from_their_keys() {
    // Integers are ranked by key below everything else and rendered
    // without `Display`: every length of literal up to both ends of
    // `i64`, interned in an order that is not theirs, among strings that
    // read as integers and Skolem terms over both. Half of the pool is
    // printed, then the other half arrives — integers below, between and
    // above the ranked ones, strings among the strings — under the same
    // printer.
    let mut pool: Vec<Value> = [0, 1, -1, 9, 10, -10, 99, i64::MAX, i64::MIN, i64::MIN + 1]
        .into_iter()
        .chain((1..19).flat_map(|digits| [10i64.pow(digits), -(10i64.pow(digits)) + 1]))
        .map(v)
        .collect();
    for text in ["", "0", "-1", "10", "9", "9223372036854775807", "a"] {
        pool.push(Value::str(text));
        pool.push(Value::skolem(
            "f",
            vec![Value::str(text), v(text.len() as i64 - 3)],
        ));
    }
    let mut lines = 0;
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x1d16);
        rng.shuffle(&mut pool);
        let symbols = SharedSymbols::new();
        let mut st = Storage::new();
        let e = symbols.write().rel("E");
        let mut printer = FactPrinter::new(symbols.clone());
        let schema = Schema::from_pairs([("E", rng.gen_range(1..=2usize))]);
        for known in [pool.len() / 2, pool.len()] {
            for _ in 0..150 {
                let row: SymTuple = (0..rng.gen_range(1..=2usize))
                    .map(|_| symbols.write().sym(rng.choose(&pool[..known]).unwrap()))
                    .collect();
                st.insert(e, &row);
            }
            let want = reference(&st, &symbols, &schema);
            assert_eq!(printed(&mut printer, &st, &schema), want, "seed {seed}");
            let mut rebuilt = FactPrinter::new(symbols.clone());
            assert_eq!(printed(&mut rebuilt, &st, &schema), want, "seed {seed}");
            lines += want.lines().count();
        }
    }
    assert!(lines > 5_000, "{lines} lines");
}

#[test]
fn the_canonical_order_walks_a_whole_store_as_instance_iterates_it() {
    // The printer asks for one arity of a relation; the second caller (a
    // `calm-net` final report) for all of them at once — `E(2)` before
    // the `E(2,0)` it is a prefix of — and for the relations by name.
    let mut prefixed = 0;
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let symbols = SharedSymbols::new();
        let mut st = Storage::new();
        churn(&mut rng, &symbols, &mut st, &NAMES, false);
        let gone = symbols.write().rel("Gone");
        st.insert(gone, &row(&mut rng, &symbols, false, None));
        st.clear_relation(gone);
        let mut order = CanonicalOrder::default();
        // Half the time the ranks are extended, not built at once.
        if rng.gen_bool(0.5) {
            order.extend(&symbols.read());
            churn(&mut rng, &symbols, &mut st, &NAMES, true);
        }
        let table = symbols.read();
        order.extend(&table);
        let mut walked = Vec::new();
        for (name, r) in relations_by_name(&st, &table) {
            let relation = st.relation(r).unwrap();
            for id in order.sorted_ids(relation, None) {
                let values = relation.row(id).iter().map(|&s| table.value(s).clone());
                walked.push((name.clone(), values.collect::<Vec<_>>()));
            }
        }
        drop(table);
        let reference = store_to_instance(&st, &symbols);
        let want: Vec<_> = reference
            .iter()
            .map(|(r, t)| (r.clone(), t.clone()))
            .collect();
        assert_eq!(walked, want, "seed {seed}");
        prefixed += want
            .windows(2)
            .filter(|w| w[0].0 == w[1].0 && w[1].1.starts_with(&w[0].1))
            .count();
    }
    assert!(prefixed > 200, "{prefixed} tuples followed one they extend");
}

#[test]
fn printer_orders_values_as_value_does() {
    // The hand case behind the generator: every boundary of `Value`'s
    // order inside one relation, and a row of another arity left out.
    let symbols = SharedSymbols::new();
    let mut st = Storage::new();
    let e = symbols.write().rel("E");
    let rows: [&[Value]; 9] = [
        &[Value::skolem("f", vec![v(1)])],
        &[Value::str("2")],
        &[Value::str("10")],
        &[v(10)],
        &[v(2)],
        &[v(-1)],
        &[v(2), v(0)],
        &[Value::str("")],
        &[Value::skolem("f", vec![])],
    ];
    for r in rows {
        let r: SymTuple = r.iter().map(|x| symbols.write().sym(x)).collect();
        st.insert(e, &r);
    }
    let mut printer = FactPrinter::new(symbols.clone());
    let unary = printed(&mut printer, &st, &Schema::from_pairs([("E", 1)]));
    assert_eq!(
        unary,
        "E(-1).\nE(2).\nE(10).\nE(\"\").\nE(\"10\").\nE(\"2\").\nE(f()).\nE(f(1)).\n"
    );
    assert_eq!(
        printed(&mut printer, &st, &Schema::from_pairs([("E", 2)])),
        "E(2,0).\n"
    );
}

#[test]
fn printer_orders_ranks_of_more_than_one_digit() {
    // The sort takes 11 bits at a time: over 5 000 symbols a binary
    // row's packed key of 26 bits takes three passes, a ternary row (39
    // bits, not packed) two a column, and interning the symbols shuffled
    // makes rank and symbol id disagree in every digit.
    let mut rng = Rng::seed_from_u64(11);
    let symbols = SharedSymbols::new();
    let mut values: Vec<i64> = (-2_500..2_500).collect();
    rng.shuffle(&mut values);
    let syms: Vec<_> = values.iter().map(|&i| symbols.write().sym(&v(i))).collect();
    let mut st = Storage::new();
    let e = symbols.write().rel("E");
    for _ in 0..20_000 {
        let row: SymTuple = (0..3).map(|_| *rng.choose(&syms).unwrap()).collect();
        st.insert(e, &row[..rng.gen_range(2..=3usize)]);
    }
    let mut printer = FactPrinter::new(symbols.clone());
    for arity in [2, 3] {
        let schema = Schema::from_pairs([("E", arity)]);
        let want = reference(&st, &symbols, &schema);
        assert!(want.lines().count() > 9_000);
        assert_eq!(printed(&mut printer, &st, &schema), want, "arity {arity}");
    }
}

#[test]
fn printer_reports_what_it_wrote() {
    let symbols = SharedSymbols::new();
    let mut st = Storage::new();
    let mut rng = Rng::seed_from_u64(7);
    churn(&mut rng, &symbols, &mut st, &NAMES, false);
    let schema = Schema::from_pairs(NAMES.map(|n| (n, 2)));
    let sink = Arc::new(ReportSink::new());
    let mut out = Vec::new();
    FactPrinter::new(symbols.clone())
        .write(&st, &schema, &mut out, &Obs::new(sink.clone()))
        .unwrap();
    assert!(!out.is_empty());
    assert_eq!(sink.counter_total("eval", "bytes_out"), out.len() as u64);
    let lines = out.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(sink.counter_total("eval", "rows_written"), lines as u64);
    assert!(sink.render().contains("eval/write_facts"));
}

#[test]
fn printer_stops_at_the_first_write_error() {
    struct Closed;
    impl std::io::Write for Closed {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let symbols = SharedSymbols::new();
    let mut st = Storage::new();
    let e = symbols.write().rel("E");
    let one = symbols.write().sym(&v(1));
    st.insert(e, &[one]);
    let err = FactPrinter::new(symbols)
        .write(
            &st,
            &Schema::from_pairs([("E", 1)]),
            &mut Closed,
            &Obs::noop(),
        )
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
}

/// A store of relation `E` over `count` integer symbols interned in an
/// order unlike their values', holding every corner of the rank space at
/// `arity` — the lowest and highest rank in each column — beside random
/// rows.
fn store_over(count: i64, arity: usize, seed: u64) -> (SharedSymbols, Storage) {
    let mut rng = Rng::seed_from_u64(seed);
    let symbols = SharedSymbols::new();
    let mut values: Vec<i64> = (0..count).map(|i| i * 7 - count * 3).collect();
    rng.shuffle(&mut values);
    let syms: Vec<_> = values.iter().map(|&i| symbols.write().sym(&v(i))).collect();
    let sym_of = |i: i64| symbols.read().lookup_sym(&v(i * 7 - count * 3)).unwrap();
    let (low, high) = (sym_of(0), sym_of(count - 1));
    let mut st = Storage::new();
    let e = symbols.write().rel("E");
    for corner in 0..1usize << arity {
        let row: SymTuple = (0..arity)
            .map(|col| if corner >> col & 1 == 1 { high } else { low })
            .collect();
        st.insert(e, &row);
    }
    for _ in 0..3_000 {
        let row: SymTuple = (0..arity).map(|_| *rng.choose(&syms).unwrap()).collect();
        st.insert(e, &row);
    }
    (symbols, st)
}

#[test]
fn printer_orders_rank_tuples_on_both_sides_of_the_word() {
    // A row's rank tuple is packed into one `u32` while arity × rank
    // width ≤ 32: binary rows up to 65 536 symbols, ternary up to 1 024.
    // At the largest such table and one symbol past it the printer takes
    // the packed path and the row-id path; both must print the reference.
    for (arity, fits) in [(2, 1i64 << 16), (3, 1 << 10)] {
        for count in [fits, fits + 1] {
            let (symbols, st) = store_over(count, arity, count as u64);
            assert_eq!(symbols.read().sym_count() as i64, count);
            let schema = Schema::from_pairs([("E", arity)]);
            let want = reference(&st, &symbols, &schema);
            assert!(want.lines().count() > 2_900);
            let mut printer = FactPrinter::new(symbols.clone());
            assert_eq!(
                printed(&mut printer, &st, &schema),
                want,
                "arity {arity}, {count} symbols"
            );
        }
    }
}

#[test]
fn printer_copies_long_texts_whole() {
    // A text is copied in 16-byte steps: texts of 15 to 33 bytes, the
    // 20 of `i64::MIN`, a quoted string past 32 bytes and a Skolem term
    // over it, in both columns of a binary relation and in a ternary one,
    // beside one-byte texts.
    let symbols = SharedSymbols::new();
    let mut st = Storage::new();
    let mut pool: Vec<Value> = [15, 16, 17, 31, 32, 33]
        .map(|n| Value::str("a".repeat(n)))
        .into();
    let long = "a quoted string, longer than thirty-two bytes";
    pool.extend([
        v(i64::MIN),
        v(i64::MAX),
        v(0),
        Value::str("b"),
        Value::str(long),
    ]);
    pool.push(Value::skolem("f", vec![Value::str(long), v(i64::MIN)]));
    let syms: Vec<_> = pool.iter().map(|x| symbols.write().sym(x)).collect();
    let e = symbols.write().rel("E");
    let t = symbols.write().rel("T");
    for &a in &syms {
        for &b in &syms {
            st.insert(e, &[a, b]);
            st.insert(t, &[b, a, b]);
        }
    }
    let schema = Schema::from_pairs([("E", 2), ("T", 3)]);
    let want = reference(&st, &symbols, &schema);
    assert_eq!(want.lines().count(), 2 * syms.len() * syms.len());
    assert_eq!(
        printed(&mut FactPrinter::new(symbols.clone()), &st, &schema),
        want
    );
}

#[test]
fn printer_skips_tombstones_and_other_arities_at_print_time() {
    // Rows retracted and not compacted when the printer runs, in a
    // relation of one arity (the packed path) and in one that also holds
    // rows of another (the row-id path), each printed at both arities.
    let (symbols, mut st) = store_over(300, 2, 5);
    let e = symbols.write().rel("E");
    let d = symbols.write().rel("D");
    let syms: Vec<_> = (0..300)
        .map(|i| symbols.write().sym(&v(i * 7 - 900)))
        .collect();
    for (i, pair) in syms.windows(3).enumerate() {
        st.insert(d, &pair[..2 + i % 2]);
    }
    let mut rng = Rng::seed_from_u64(9);
    for r in [e, d] {
        for id in st.relation(r).unwrap().rows() {
            if rng.gen_bool(0.3) {
                st.retract_id(r, id);
            }
        }
    }
    assert!(st.any_dead());
    let mut printer = FactPrinter::new(symbols.clone());
    for arity in [2, 3] {
        let schema = Schema::from_pairs([("D", arity), ("E", arity)]);
        let want = reference(&st, &symbols, &schema);
        assert!(!want.is_empty());
        assert_eq!(printed(&mut printer, &st, &schema), want, "arity {arity}");
    }
}

#[test]
fn a_carried_printer_follows_the_rank_width_across_a_growth() {
    // One printer, two writes; between them the symbol table grows from
    // 1 000 symbols (ten bits a rank: a ternary row packs) to 1 100
    // (eleven: it does not), and from 512 to 513 (nine bits to ten).
    for (before, after) in [(1_000, 1_100), (512, 513)] {
        let (symbols, mut st) = store_over(before, 3, before as u64);
        let e = symbols.write().rel("E");
        let schema = Schema::from_pairs([("E", 3)]);
        let mut printer = FactPrinter::new(symbols.clone());
        assert_eq!(
            printed(&mut printer, &st, &schema),
            reference(&st, &symbols, &schema)
        );
        let mut rng = Rng::seed_from_u64(after as u64);
        let newcomers: Vec<_> = (before..after)
            .map(|i| symbols.write().sym(&Value::str(format!("n{i}"))))
            .collect();
        assert_eq!(symbols.read().sym_count() as i64, after);
        let known = symbols.read().sym_count();
        for _ in 0..500 {
            let row: SymTuple = (0..3)
                .map(|_| match rng.gen_bool(0.5) {
                    true => *rng.choose(&newcomers).unwrap(),
                    false => calm_common::storage::Sym(rng.gen_range(0..known as u32)),
                })
                .collect();
            st.insert(e, &row);
        }
        let want = reference(&st, &symbols, &schema);
        assert_eq!(
            printed(&mut printer, &st, &schema),
            want,
            "{before} -> {after}"
        );
    }
}
