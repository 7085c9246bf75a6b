//! Differential property test (hand-rolled, seeded — the workspace is
//! dependency-free): [`SymbolTable`]'s value interner against the plain
//! thing it stands for, a `HashMap<Value, Sym>` beside a `Vec<Value>`.
//!
//! The table is keyed on the borrowed form of a value — integers in an
//! open-addressing table of their own, strings in a map probed by
//! `&str`, Skolem terms by the whole value — behind one set of doors
//! (`sym`, `sym_int`, `sym_str`, `lookup_sym`, `value`). The schedules
//! below interleave all of them over one table and hold it to the
//! model after every call: ids dense and in first-occurrence order
//! whichever door a value came through, `value(sym(v)) == v`, a lookup
//! never interning, and the three keyed forms never taking one another's
//! values for their own (`1`, `"1"`, `"01"`, `f(1)`).

use calm_common::rng::Rng;
use calm_common::storage::{Sym, SymbolTable};
use calm_common::{v, Value};
use std::collections::HashMap;

#[derive(Default)]
struct Model {
    ids: HashMap<Value, Sym>,
    values: Vec<Value>,
}

impl Model {
    fn sym(&mut self, value: &Value) -> Sym {
        let next = Sym(self.values.len() as u32);
        *self.ids.entry(value.clone()).or_insert_with(|| {
            self.values.push(value.clone());
            next
        })
    }
}

/// The edges of every keyed form, and the values that read alike across
/// them.
fn boundary_values() -> Vec<Value> {
    let ints = [
        i64::MIN,
        i64::MAX,
        0,
        -1,
        1,
        10,
        i64::MIN + 1,
        1 << 32,
        -(1 << 32),
    ];
    let strs = ["", "1", "01", "-1", "0", "a", "é", "→x", "f(1)", "日本語"];
    let mut values: Vec<Value> = ints.into_iter().map(v).collect();
    values.extend(strs.into_iter().map(Value::str));
    values.extend([
        Value::skolem("f", vec![v(1)]),
        Value::skolem("f", vec![Value::str("1")]),
        Value::skolem("f", vec![]),
        Value::skolem(
            "g",
            vec![v(i64::MIN), Value::str(""), Value::skolem("f", vec![v(1)])],
        ),
    ]);
    values
}

fn random_value(rng: &mut Rng, boundary: &[Value], spread: i64) -> Value {
    match rng.gen_range(0..10u32) {
        0 => rng.choose(boundary).unwrap().clone(),
        // Neighbouring keys, sequential ids and multiples of a power of
        // two: what a multiplicative hash has to keep apart.
        1..=3 => v(rng.gen_range(-spread..spread)),
        4 => v(rng.gen_range(0..spread) << 20),
        5 => v(rng.gen_u64() as i64),
        6 | 7 => Value::str(format!("n{}", rng.gen_range(0..spread))),
        8 => Value::str(rng.gen_range(-spread..spread).to_string()),
        _ => {
            let args = vec![
                v(rng.gen_range(0..spread)),
                Value::str(rng.gen_range(0..4i64).to_string()),
            ];
            Value::skolem(*rng.choose(&["f", "g"]).unwrap(), args)
        }
    }
}

/// Intern `value` through one of its doors, chosen at random: every
/// value has `sym`, an integer `sym_int` too, a string `sym_str`.
fn intern(rng: &mut Rng, table: &mut SymbolTable, value: &Value) -> Sym {
    match value {
        Value::Int(i) if rng.gen_bool(0.5) => table.sym_int(*i),
        Value::Str(text) if rng.gen_bool(0.5) => table.sym_str(text),
        _ => table.sym(value),
    }
}

fn check(table: &SymbolTable, model: &Model, at: &str) {
    assert_eq!(table.sym_count(), model.values.len(), "{at}");
    for (i, value) in model.values.iter().enumerate() {
        let s = Sym(i as u32);
        assert_eq!(table.value(s), value, "{at}: value({i})");
        assert_eq!(table.lookup_sym(value), Some(s), "{at}: lookup {value}");
    }
}

#[test]
fn the_interner_agrees_with_a_map_and_a_vector() {
    let boundary = boundary_values();
    let (mut ints, mut strs, mut skolems) = (0, 0, 0);
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5b1);
        // A narrow spread re-interns what is known most of the time, a
        // wide one grows the tables through several doublings.
        let spread = *rng.choose(&[4, 60, 5_000]).unwrap();
        let mut table = SymbolTable::new();
        let mut model = Model::default();
        // Nothing is known to an empty table — whose integer table has
        // no slot to probe yet.
        for value in &boundary {
            assert_eq!(table.lookup_sym(value), None, "seed {seed}: {value}");
        }
        assert_eq!(table.sym_count(), 0, "seed {seed}: a lookup interned");
        for step in 0..rng.gen_range(200..4_000usize) {
            let value = random_value(&mut rng, &boundary, spread);
            let at = format!("seed {seed}, step {step}: {value}");
            if rng.gen_bool(0.3) {
                let known = model.ids.get(&value).copied();
                assert_eq!(table.lookup_sym(&value), known, "{at}");
                assert_eq!(
                    table.sym_count(),
                    model.values.len(),
                    "{at}: a lookup interned"
                );
            } else {
                let s = intern(&mut rng, &mut table, &value);
                assert_eq!(s, model.sym(&value), "{at}");
                assert_eq!(table.value(s), &value, "{at}");
            }
        }
        check(&table, &model, &format!("seed {seed}"));
        for value in &model.values {
            match value {
                Value::Int(_) => ints += 1,
                Value::Str(_) => strs += 1,
                Value::Skolem(_) => skolems += 1,
            }
        }
    }
    assert!(
        ints > 10_000 && strs > 5_000 && skolems > 2_500,
        "{ints} ints, {strs} strings, {skolems} Skolem terms"
    );
}

#[test]
fn every_keyed_form_survives_its_doublings() {
    // 5 000 of each, interleaved: the integer table doubles from 8 slots
    // to 16 384, std's maps as they see fit. At every power-of-two count
    // — the fullest the integer table ever is — everything interned so
    // far is still where it was and the next value is still unknown.
    let mut rng = Rng::seed_from_u64(0x7ab1e);
    let mut table = SymbolTable::new();
    let mut model = Model::default();
    let mut keys: Vec<i64> = (0..5_000).map(|k| (k - 2_500) * 3).collect();
    rng.shuffle(&mut keys);
    for (n, &k) in keys.iter().enumerate() {
        let values = [
            v(k),
            Value::str(k.to_string()),
            Value::skolem("f", vec![v(k), Value::str(k.to_string())]),
        ];
        for value in &values {
            assert_eq!(
                table.lookup_sym(value),
                None,
                "{value} before its interning"
            );
            assert_eq!(intern(&mut rng, &mut table, value), model.sym(value));
            assert_eq!(
                intern(&mut rng, &mut table, value),
                model.sym(value),
                "{value} again"
            );
        }
        if (n + 1).is_power_of_two() {
            check(&table, &model, &format!("{} of each", n + 1));
        }
    }
    assert_eq!(table.sym_count(), 15_000);
    check(&table, &model, "grown");
}

#[test]
fn values_that_read_alike_are_different_symbols() {
    let mut table = SymbolTable::new();
    let alike = [
        v(1),
        Value::str("1"),
        Value::str("01"),
        Value::skolem("f", vec![v(1)]),
        Value::skolem("f", vec![Value::str("1")]),
        Value::str("f(1)"),
        v(0),
        Value::str(""),
        Value::str("0"),
        v(-1),
        Value::str("-1"),
        v(i64::MIN),
        v(i64::MAX),
    ];
    let syms: Vec<Sym> = alike.iter().map(|value| table.sym(value)).collect();
    // Dense, in first-occurrence order, and stable through every door.
    assert_eq!(syms, (0..alike.len() as u32).map(Sym).collect::<Vec<_>>());
    assert_eq!(table.sym_int(1), syms[0]);
    assert_eq!(table.sym_str("1"), syms[1]);
    assert_eq!(table.sym_str("01"), syms[2]);
    assert_eq!(table.sym_str("f(1)"), syms[5]);
    assert_eq!(table.sym_str(""), syms[7]);
    assert_eq!(table.sym_int(i64::MIN), syms[11]);
    assert_eq!(table.sym_int(i64::MAX), syms[12]);
    assert_eq!(table.sym_count(), alike.len());
    for (value, &s) in alike.iter().zip(&syms) {
        assert_eq!(table.value(s), value);
    }
    // A string interned by its borrowed form is the string.
    let s = table.sym_str("é→");
    assert_eq!(table.value(s), &Value::str("é→"));
    assert_eq!(table.lookup_sym(&Value::str("é→")), Some(s));
}
