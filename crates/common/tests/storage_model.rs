//! Differential property test (hand-rolled, seeded — the workspace is
//! dependency-free): [`Relation`] against a reference model — an
//! insertion log of owned tuples with a liveness flag per row and a
//! delta watermark — on random schedules of inserts, retractions,
//! revivals, watermark moves, compactions and clears. After every phase
//! the whole read surface (`rows`, `delta_rows`, `live_rows`, `row`,
//! `lookup`, `contains`, `is_live`, `probe`) must agree with the model.
//!
//! The relation keeps its rows in one flat arena at one stride — with
//! offsets only once a row of a second arity arrives — behind an id
//! table that addresses rows of one arity over few symbols directly and
//! hashes the rest, and its tombstones as one bit per row in 64-bit
//! words; the schedules below are shaped to stress exactly that:
//! rows of different arities in one relation, a second arity arriving
//! at any row (the first after a clear or a compaction to nothing
//! included), rows that are permutations or prefixes of each other,
//! retractions on both sides of a word boundary, thousands of rows over
//! a 4-value domain (so probe sequences chain and the table is rebuilt
//! many times), lookups of absent rows while the table is empty or
//! holds as many rows as it admits before growing, and direct tables
//! that meet a wider symbol, a far one, a second arity, a clear or a
//! compaction.

use calm_common::rng::Rng;
use calm_common::storage::{Relation, Sym, SymTuple};
use std::collections::HashMap;

#[derive(Default)]
struct Model {
    rows: Vec<SymTuple>,
    live: Vec<bool>,
    ids: HashMap<SymTuple, usize>,
    delta_start: usize,
}

impl Model {
    /// New, or revived in place: a retracted row keeps its id.
    fn insert(&mut self, t: SymTuple) -> bool {
        match self.ids.get(&t) {
            Some(&i) => !std::mem::replace(&mut self.live[i], true),
            None => {
                self.ids.insert(t.clone(), self.rows.len());
                self.rows.push(t);
                self.live.push(true);
                true
            }
        }
    }

    fn retract(&mut self, t: &[Sym]) -> bool {
        match self.ids.get(t) {
            Some(&i) => std::mem::replace(&mut self.live[i], false),
            None => false,
        }
    }

    /// Drop the dead rows; the watermark keeps separating the rows that
    /// preceded it from the ones that followed.
    fn compact(&mut self) -> usize {
        let before = self.rows.len();
        self.delta_start = self.live[..self.delta_start].iter().filter(|&&l| l).count();
        let mut live = self.live.iter();
        self.rows.retain(|_| *live.next().unwrap());
        self.live = vec![true; self.rows.len()];
        self.ids = (self.rows.iter().cloned().zip(0..)).collect();
        before - self.rows.len()
    }
}

/// The columns every test relation is indexed on: one every row has,
/// one only rows of arity three and up have.
const INDEXED: [usize; 2] = [0, 2];

/// Compare the relation's whole read surface with the model's.
fn check(rel: &Relation, model: &Model, domain: u32, at: &str) {
    // The insertion log, tombstones included, and its delta region.
    assert_eq!(rel.rows(), 0..model.rows.len() as u32, "{at}: log length");
    assert_eq!(
        rel.delta_rows(),
        model.delta_start as u32..model.rows.len() as u32,
        "{at}: delta region"
    );
    assert_eq!(rel.delta_start(), model.delta_start, "{at}");
    // Liveness, by tuple and by id.
    let live: Vec<&[Sym]> = (model.rows.iter().zip(&model.live))
        .filter_map(|(row, &l)| l.then_some(&row[..]))
        .collect();
    assert_eq!(rel.live_rows().collect::<Vec<_>>(), live, "{at}");
    assert_eq!(rel.len(), live.len(), "{at}");
    assert_eq!(rel.is_empty(), live.is_empty(), "{at}");
    assert_eq!(rel.dead_rows(), model.rows.len() - live.len(), "{at}");
    for (i, (row, &l)) in model.rows.iter().zip(&model.live).enumerate() {
        assert_eq!(rel.row(i as u32), &row[..], "{at}: row({i})");
        assert_eq!(rel.lookup(row), Some(i as u32), "{at}: lookup {row:?}");
        assert_eq!(rel.contains(row), l, "{at}: contains {row:?}");
        assert_eq!(rel.is_live(i as u32), l, "{at}: is_live({i})");
    }
    assert!(
        !rel.is_live(model.rows.len() as u32),
        "{at}: id past the log"
    );
    // An index probe returns the ids a scan of the log finds, in log
    // order, dead ones included until compaction; a row too short to
    // have the column is in no bucket; a column without an index
    // reports none.
    for s in (0..=domain).map(Sym) {
        for col in INDEXED {
            let scan: Vec<u32> = (0..model.rows.len() as u32)
                .filter(|&i| model.rows[i as usize].get(col) == Some(&s))
                .collect();
            assert_eq!(
                rel.probe(col, s),
                Some(&scan[..]),
                "{at}: probe {col} {s:?}"
            );
        }
        assert_eq!(rel.probe(1, s), None, "{at}");
    }
}

/// Absent rows are absent — whatever the state of the id table.
fn check_absent(rel: &Relation, model: &Model, domain: u32, at: &str) {
    let foreign = Sym(domain);
    let absent = [
        vec![foreign],
        vec![foreign, Sym(0)],
        vec![Sym(0), foreign],
        vec![Sym(0), Sym(1), Sym(2), foreign],
        vec![Sym(0); 12],
    ];
    for row in absent.iter().filter(|row| !model.ids.contains_key(*row)) {
        assert_eq!(rel.lookup(row), None, "{at}: lookup {row:?}");
        assert!(!rel.contains(row), "{at}: contains {row:?}");
    }
}

/// The prefixes, rotations and one-symbol extensions of every stored
/// row are found exactly when the model holds them.
fn check_neighbours(rel: &Relation, model: &Model, at: &str) {
    for row in &model.rows {
        let mut near: Vec<SymTuple> = (0..row.len()).map(|k| row[..k].to_vec()).collect();
        for k in 1..row.len() {
            let mut rotated = row.clone();
            rotated.rotate_left(k);
            near.push(rotated);
        }
        near.push([&row[..], &[Sym(0)]].concat());
        for t in near {
            let id = model.ids.get(&t).map(|&i| i as u32);
            assert_eq!(rel.lookup(&t), id, "{at}: lookup {t:?}");
            let live = id.is_some_and(|i| model.live[i as usize]);
            assert_eq!(rel.contains(&t), live, "{at}: contains {t:?}");
        }
    }
}

fn random_row(rng: &mut Rng, max_arity: u64, domain: u32) -> SymTuple {
    let arity = 1 + rng.gen_u64() % max_arity;
    row_of(rng, arity, domain)
}

fn row_of(rng: &mut Rng, arity: u64, domain: u32) -> SymTuple {
    (0..arity)
        .map(|_| Sym((rng.gen_u64() % u64::from(domain)) as u32))
        .collect()
}

fn indexed_relation() -> Relation {
    let mut rel = Relation::default();
    for col in INDEXED {
        rel.ensure_index(col);
    }
    rel
}

#[test]
fn relation_agrees_with_the_reference_model() {
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x51C2);
        // Rows of one to four symbols side by side in one relation.
        let max_arity = 1 + rng.gen_u64() % 4;
        let domain = 2 + (rng.gen_u64() % 6) as u32;
        let mut rel = indexed_relation();
        let mut model = Model::default();
        check_absent(&rel, &model, domain, &format!("seed {seed}, empty"));
        for phase in 0..12 {
            let at = format!("seed {seed}, phase {phase}");
            for _ in 0..rng.gen_u64() % 40 {
                let row = random_row(&mut rng, max_arity, domain);
                if rng.gen_u64().is_multiple_of(3) {
                    assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
                } else {
                    assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                }
            }
            // Random maintenance: move the watermark, compact (after
            // the retractions and revivals above), clear — the built
            // indexes survive and keep being maintained — reserve, or
            // nothing.
            match rng.gen_u64() % 7 {
                0 | 1 => {
                    rel.mark_delta();
                    model.delta_start = model.rows.len();
                }
                2 | 3 => assert_eq!(rel.compact(), model.compact(), "{at}"),
                4 => {
                    rel.clear();
                    model = Model::default();
                }
                // Room made ahead of the rows is no change to any read.
                5 => rel.reserve((rng.gen_u64() % 300) as usize, max_arity as usize),
                _ => {}
            }
            check(&rel, &model, domain, &at);
            check_absent(&rel, &model, domain, &at);
        }
    }
}

#[test]
fn thousands_of_rows_over_four_values_survive_every_table_growth() {
    // Arities 1..=7 over 4 values: 21 844 possible rows, all sharing
    // prefixes and symbols, so hashes collide in their low entropy and
    // probe sequences chain. The id table doubles a dozen times on the
    // way; at every power-of-two row count it holds as many rows as it
    // admits before growing — the fullest it ever is.
    let domain = 4;
    let mut rng = Rng::seed_from_u64(0xA7E4A);
    let mut rel = indexed_relation();
    let mut model = Model::default();
    while model.rows.len() < 6000 {
        let row = random_row(&mut rng, 7, domain);
        assert_eq!(rel.insert(&row), model.insert(row));
        if model.rows.len().is_power_of_two() {
            let at = format!("{} rows", model.rows.len());
            check_absent(&rel, &model, domain, &at);
            assert_eq!(rel.lookup(&model.rows[0]), Some(0), "{at}");
            let last = model.rows.len() - 1;
            assert_eq!(rel.lookup(&model.rows[last]), Some(last as u32), "{at}");
        }
        if model.rows.len() == 3000 {
            rel.mark_delta();
            model.delta_start = 3000;
        }
    }
    assert!(model.rows.len() >= 4096);
    check(&rel, &model, domain, "grown");
    // Retract a third, revive a few of those in place, compact: ids
    // are renumbered, and the id table must follow them.
    for i in (0..model.rows.len()).step_by(3) {
        let row = model.rows[i].clone();
        assert_eq!(rel.retract(&row), model.retract(&row));
    }
    for i in (0..model.rows.len()).step_by(15) {
        let row = model.rows[i].clone();
        assert_eq!(rel.insert(&row), model.insert(row));
    }
    check(&rel, &model, domain, "retracted");
    assert_eq!(rel.compact(), model.compact());
    check(&rel, &model, domain, "compacted");
    check_absent(&rel, &model, domain, "compacted");
    // Clear keeps the (large) table and the indexes; reuse refills them.
    rel.clear();
    model = Model::default();
    check(&rel, &model, domain, "cleared");
    check_absent(&rel, &model, domain, "cleared");
    for _ in 0..500 {
        let row = random_row(&mut rng, 7, domain);
        assert_eq!(rel.insert(&row), model.insert(row));
    }
    check(&rel, &model, domain, "reused");
}

#[test]
fn a_second_arity_may_arrive_at_any_row_and_tombstones_straddle_words() {
    // Each phase inserts up to 200 rows of one arity with, at a random
    // row or never, one row of another: the first phase sets the
    // stride, a later phase's first row may be the second arity of a
    // relation that still holds rows, or the first row after a clear or
    // a compaction to nothing. Then a run of rows on both sides of a
    // 64-row word boundary is retracted and some of it revived, and the
    // relation is cleared, compacted (to nothing, or just the dead rows
    // — a mixed relation then refills with one arity), watermarked or
    // left as it is.
    let (mut switched, mut emptied) = (0, 0);
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0x57_41DE);
        let domain = 2 + (rng.gen_u64() % 5) as u32;
        let mut rel = indexed_relation();
        let mut model = Model::default();
        for phase in 0..8 {
            let at = format!("seed {seed}, phase {phase}");
            let base = 1 + rng.gen_u64() % 4;
            let other = 1 + (base + rng.gen_u64() % 3) % 4;
            let count = rng.gen_u64() % 200;
            let switch = rng.gen_u64() % (count + 1);
            switched += u64::from(switch < count);
            for i in 0..count {
                let arity = if i == switch { other } else { base };
                let row: SymTuple = (0..arity)
                    .map(|_| Sym((rng.gen_u64() % u64::from(domain)) as u32))
                    .collect();
                assert_eq!(rel.insert(&row), model.insert(row), "{at}");
            }
            let n = model.rows.len();
            let edge = 64 * (rng.gen_u64() as usize % (n / 64 + 1));
            let run = edge.saturating_sub(5)..(edge + 5).min(n);
            for id in run.clone() {
                let row = model.rows[id].clone();
                assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
            }
            for id in run.step_by(3) {
                let row = model.rows[id].clone();
                assert_eq!(rel.insert(&row), model.insert(row), "{at}");
            }
            check(&rel, &model, domain, &at);
            check_neighbours(&rel, &model, &at);
            match rng.gen_u64() % 5 {
                0 => {
                    rel.clear();
                    model = Model::default();
                    emptied += 1;
                }
                1 => {
                    for row in model.rows.clone() {
                        assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
                    }
                    assert_eq!(rel.compact(), model.compact(), "{at}");
                    emptied += 1;
                }
                2 => assert_eq!(rel.compact(), model.compact(), "{at}"),
                3 => {
                    rel.mark_delta();
                    model.delta_start = model.rows.len();
                }
                _ => {}
            }
            check(&rel, &model, domain, &at);
            check_neighbours(&rel, &model, &at);
            check_absent(&rel, &model, domain, &at);
        }
    }
    assert!(switched > 1_000 && emptied > 400, "{switched} {emptied}");
}

#[test]
fn a_direct_table_widens_falls_back_and_survives_clear_and_compact() {
    // Rows of one to three symbols over a domain of at most 64 of them
    // fit a direct table once their hash table would hold 64 slots: the
    // relation addresses them directly within 17 rows. Each phase adds
    // rows over the domain, then one event: symbols past the bound (the
    // domain doubles — a unary table widens, a wider one mostly goes back
    // to hashing), a symbol no table these rows pay for can address (back
    // to hashing until the next doubling), a row of a second arity, a
    // clear, a compaction, or a compaction to nothing followed by rows
    // of another arity.
    let mut events = [0; 6];
    for seed in 0..200u64 {
        let mut rng = Rng::seed_from_u64(seed ^ 0xD1_4EC7);
        let mut arity = 1 + rng.gen_u64() % 3;
        let dense = [8, 8, 4][arity as usize - 1];
        let mut domain = 2 + (rng.gen_u64() % (dense - 1)) as u32;
        let far = Sym(300);
        let mut rel = indexed_relation();
        let mut model = Model::default();
        let mut top = domain;
        for phase in 0..10 {
            let at = format!("seed {seed}, phase {phase}, arity {arity}, domain {domain}");
            for _ in 0..8 + rng.gen_u64() % 40 {
                let row = row_of(&mut rng, arity, domain);
                if rng.gen_u64().is_multiple_of(4) {
                    assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
                } else {
                    assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                }
            }
            let event = (rng.gen_u64() % 6) as usize;
            events[event] += 1;
            match event {
                0 => {
                    let old = domain.min(32);
                    domain = 2 * old;
                    for _ in 0..1 + rng.gen_u64() % 8 {
                        let mut row = row_of(&mut rng, arity, domain);
                        row[0] = Sym(old + row[0].0 % old);
                        assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                    }
                }
                1 => {
                    let mut row = row_of(&mut rng, arity, domain);
                    let col = (rng.gen_u64() % arity) as usize;
                    row[col] = far;
                    assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                    top = far.0 + 1;
                }
                2 => {
                    let row = row_of(&mut rng, 1 + arity % 3, domain);
                    assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                }
                3 => {
                    rel.clear();
                    model = Model::default();
                }
                4 => {
                    for row in model.rows.clone() {
                        if rng.gen_u64().is_multiple_of(3) {
                            assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
                        }
                    }
                    assert_eq!(rel.compact(), model.compact(), "{at}");
                }
                _ => {
                    for row in model.rows.clone() {
                        assert_eq!(rel.retract(&row), model.retract(&row), "{at}");
                    }
                    assert_eq!(rel.compact(), model.compact(), "{at}");
                    check(&rel, &model, top.max(domain), &at);
                    arity = 1 + arity % 3;
                    domain = domain.min([64, 8, 4][arity as usize - 1]);
                    for _ in 0..rng.gen_u64() % 20 {
                        let row = row_of(&mut rng, arity, domain);
                        assert_eq!(rel.insert(&row), model.insert(row), "{at}");
                    }
                }
            }
            top = top.max(domain);
            check(&rel, &model, top, &at);
            check_absent(&rel, &model, top, &at);
            check_neighbours(&rel, &model, &at);
        }
    }
    assert!(events.iter().all(|&n| n > 250), "{events:?}");
}

#[test]
fn permutations_prefixes_and_mixed_arities_are_distinct_rows() {
    let (a, b) = (Sym(0), Sym(1));
    let rows: [&[Sym]; 9] = [
        &[a, b],
        &[b, a],
        &[a],
        &[b],
        &[a, a],
        &[a, a, b],
        &[a, b, a],
        &[a, a, a],
        &[a, b, a, b],
    ];
    let mut rel = indexed_relation();
    let mut model = Model::default();
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(rel.lookup(row), None, "{row:?} before its insert");
        assert!(rel.insert(row));
        assert!(model.insert(row.to_vec()));
        assert_eq!(rel.lookup(row), Some(i as u32));
        assert!(!rel.insert(row), "{row:?} twice");
    }
    check(&rel, &model, 2, "distinct rows");
    // Retracting one of a pair of permutations leaves the other.
    assert!(rel.retract(&[a, b]) && model.retract(&[a, b]));
    assert!(rel.contains(&[b, a]) && !rel.contains(&[a, b]));
    assert_eq!(rel.compact(), model.compact());
    check(&rel, &model, 2, "after compaction");
    assert_eq!(rel.lookup(&[a, b]), None);
}
