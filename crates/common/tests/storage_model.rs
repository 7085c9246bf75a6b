//! Differential property test (hand-rolled, seeded — the workspace is
//! dependency-free): [`Relation`] against a reference model — an
//! insertion log with a liveness flag per row and a delta watermark —
//! on random schedules of inserts, retractions, revivals, watermark
//! moves and compactions. After every phase the whole read surface
//! (`rows`, `delta_rows`, `live_rows`, `row`, `lookup`, `contains`,
//! `is_live`, `probe`) must agree with the model.

use calm_common::rng::Rng;
use calm_common::storage::{Relation, Sym, SymTuple};

#[derive(Default)]
struct Model {
    rows: Vec<SymTuple>,
    live: Vec<bool>,
    delta_start: usize,
}

impl Model {
    /// New, or revived in place: a retracted row keeps its id.
    fn insert(&mut self, t: SymTuple) -> bool {
        match self.rows.iter().position(|r| *r == t) {
            Some(i) => !std::mem::replace(&mut self.live[i], true),
            None => {
                self.rows.push(t);
                self.live.push(true);
                true
            }
        }
    }

    fn retract(&mut self, t: &[Sym]) -> bool {
        match self.rows.iter().position(|r| r == t) {
            Some(i) => std::mem::replace(&mut self.live[i], false),
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
        before - self.rows.len()
    }
}

fn random_row(rng: &mut Rng, arity: usize, domain: u64) -> SymTuple {
    (0..arity)
        .map(|_| Sym((rng.gen_u64() % domain) as u32))
        .collect()
}

#[test]
fn relation_agrees_with_the_reference_model() {
    for seed in 0..60u64 {
        let mut rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x51C2);
        let arity = 1 + (rng.gen_u64() % 3) as usize;
        let domain = 2 + rng.gen_u64() % 6;
        let mut rel = Relation::default();
        rel.ensure_index(0);
        let mut model = Model::default();
        for _phase in 0..10 {
            for _ in 0..rng.gen_u64() % 30 {
                let row = random_row(&mut rng, arity, domain);
                if rng.gen_u64().is_multiple_of(3) {
                    assert_eq!(rel.retract(&row), model.retract(&row), "seed {seed}");
                } else {
                    assert_eq!(rel.insert(row.clone()), model.insert(row), "seed {seed}");
                }
            }
            // Random maintenance: move the watermark, compact, or neither.
            match rng.gen_u64() % 3 {
                0 => {
                    rel.mark_delta();
                    model.delta_start = model.rows.len();
                }
                1 => assert_eq!(rel.compact(), model.compact(), "seed {seed}"),
                _ => {}
            }
            // The insertion log, tombstones included, and its delta region.
            assert_eq!(rel.rows(), &model.rows[..], "seed {seed}: insertion order");
            assert_eq!(
                rel.delta_rows(),
                &model.rows[model.delta_start..],
                "seed {seed}: delta region"
            );
            assert_eq!(rel.delta_start(), model.delta_start, "seed {seed}");
            // Liveness, by tuple and by id.
            let live: Vec<&SymTuple> = (model.rows.iter().zip(&model.live))
                .filter_map(|(row, &l)| l.then_some(row))
                .collect();
            assert_eq!(rel.live_rows().collect::<Vec<_>>(), live, "seed {seed}");
            assert_eq!(rel.len(), live.len(), "seed {seed}");
            assert_eq!(
                rel.dead_rows(),
                model.rows.len() - live.len(),
                "seed {seed}"
            );
            for (i, (row, &l)) in model.rows.iter().zip(&model.live).enumerate() {
                assert_eq!(rel.row(i as u32), row, "seed {seed}: row({i})");
                assert_eq!(rel.lookup(row), Some(i as u32), "seed {seed}: lookup");
                assert_eq!(rel.contains(row), l, "seed {seed}: contains");
                assert_eq!(rel.is_live(i as u32), l, "seed {seed}: is_live({i})");
            }
            assert!(
                !rel.contains(&vec![Sym(domain as u32); arity]),
                "seed {seed}"
            );
            // An index probe returns the ids a scan of the log finds, in
            // log order, dead ones included until compaction; a column
            // without an index reports none.
            for s in (0..domain).map(|s| Sym(s as u32)) {
                let scan: Vec<u32> = (0..model.rows.len() as u32)
                    .filter(|&i| model.rows[i as usize][0] == s)
                    .collect();
                assert_eq!(rel.probe(0, s), Some(&scan[..]), "seed {seed}: probe {s:?}");
                assert_eq!(rel.probe(arity, s), None, "seed {seed}");
            }
        }
    }
}
