//! The six workloads: for each, the seeded input files, the fixed
//! `calm` command line, and the reference output.
//!
//! Every graph is seeded-random in its labels, its chords, its edge
//! order and its update choices, but is shaped so that the amount of
//! derived work does not depend on the seed: the contract compares ten
//! runs at ten different seeds, and a G(n,m) near its connectivity
//! threshold varies by more than the regression bound between seeds.
//! The building block is a directed ring through all vertices of an
//! "island" plus random chords: strongly connected whatever the chords
//! are, so its closure is exactly all pairs, while the chords set the
//! recursion depth and the share of duplicate derivations.
//!
//! The sizes are pinned here and in `BENCHMARK.json`'s workload
//! reasons; only a `benchmark` PR may change them.

use crate::oracle::{
    asymmetric_and_symmetric, closure_minus_edges, facts_of, transitive_closure, Edge, Expected,
    Fact,
};
use crate::rng::Rng;
use std::collections::HashSet;
use std::fmt::Write as _;

pub const TC_DL: &str = "@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n";
/// Pairs joined by a path but by no edge. Semi-positive (negation on
/// the input relation only), so it is in Mdistinct and the fact-absence
/// strategy computes it on every distribution. The complement of the
/// closure (`qtc.dl`) is not: under that strategy a node that has
/// heard everything about some vertices outputs pairs that a path
/// through vertices it has not heard of yet refutes, and whether that
/// happens depends on the seed.
const INDIRECT_DL: &str = "@output O.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).\n\
                           O(x,y) :- T(x,y), not E(x,y).\n";
const WIDE_DL: &str = "@output O, S.\nO(x,y) :- E(x,y), not E(y,x).\nS(x) :- E(x,y), E(y,x).\n";

/// Everything one run of a workload needs, made from the seed alone.
pub struct Inputs {
    /// Files to write into the run's scratch directory.
    pub files: Vec<(&'static str, String)>,
    /// `calm` arguments; file names are relative to the scratch dir.
    pub args: Vec<&'static str>,
    pub expected: Expected,
    /// Input tuples (the denominator of bytes-per-tuple needs them).
    pub edb_facts: usize,
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it loads and which change it is there to judge.
    pub why: &'static str,
    /// Pinned sizes, recorded in every result file.
    pub sizes: &'static [(&'static str, u64)],
    build: fn(&mut Rng) -> Inputs,
    /// How often one set-up child repeats the set-up, so that it lasts
    /// some 50 ms: the few milliseconds that starting a process takes,
    /// and their jitter, would otherwise drown a set-up of 3 ms.
    pub setup_reps: u32,
    /// `eval --updates` workloads: the output must also be
    /// byte-identical to one `--from-scratch` run made during set-up.
    pub from_scratch_reference: bool,
}

impl Workload {
    /// The workload's inputs for `seed`; the same seed gives the same bytes.
    pub fn inputs(&self, seed: u64) -> Inputs {
        // Mixed with the name (FNV-1a), so each workload draws its own
        // stream and none changes when the table is reordered.
        let salt = self.name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        });
        (self.build)(&mut Rng::new(seed ^ salt))
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const TC_DEEP_N: u32 = 600;
const TC_DEEP_CHORDS: usize = 600;
const WIDE_VERTICES: u32 = 60_000;
const WIDE_PAIRS: usize = 35_000;
const WIDE_SINGLES: usize = 90_000;
const INSERT_ISLAND: u32 = 11;
const INSERT_BATCHES: usize = 30;
const INSERT_BATCH_EDGES: usize = 8;
const DELETE_CORE: u32 = 160;
const DELETE_CHORDS: usize = 160;
const DELETE_LEAVES: u32 = 8;
const DELETE_BATCHES: usize = 1;
const DISTINCT_ISLANDS: u32 = 4;
const DISTINCT_ISLAND: u32 = 28;
const MONOTONE_N: u32 = 170;
const MONOTONE_CHORDS: usize = 170;

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "eval-tc-deep",
        why: "eval tc.dl, ring(600)+600 chords: 360k tuples, 22 iterations, half the derivations duplicates; join, dedup, storage and export dominate",
        sizes: &[("vertices", TC_DEEP_N as u64), ("chords", TC_DEEP_CHORDS as u64)],
        build: eval_tc_deep,
        setup_reps: 2,
        from_scratch_reference: false,
    },
    Workload {
        name: "eval-wide-shallow",
        why: "eval of two non-recursive rules on 160k edges: parse, load, export, render and teardown dominate; bypasses recursion and deltas",
        sizes: &[
            ("vertices", WIDE_VERTICES as u64),
            ("reciprocal_pairs", WIDE_PAIRS as u64),
            ("single_edges", WIDE_SINGLES as u64),
        ],
        build: eval_wide_shallow,
        setup_reps: 1,
        from_scratch_reference: false,
    },
    Workload {
        name: "maintain-insert",
        why: "eval tc.dl --updates, 30 insert-only batches of 8 edges chaining 31 islands: the cheap use of DRed plus 31 full prints",
        sizes: &[
            ("island_vertices", INSERT_ISLAND as u64),
            ("batches", INSERT_BATCHES as u64),
            ("edges_per_batch", INSERT_BATCH_EDGES as u64),
        ],
        build: maintain_insert,
        setup_reps: 2,
        from_scratch_reference: true,
    },
    Workload {
        name: "maintain-delete",
        why: "same layer the other way: a batch deleting 3 chords and 1 leaf edge makes DRed retract and rederive the whole closure",
        sizes: &[
            ("core_vertices", DELETE_CORE as u64),
            ("chords", DELETE_CHORDS as u64),
            ("leaves", DELETE_LEAVES as u64),
            ("batches", DELETE_BATCHES as u64),
        ],
        build: maintain_delete,
        setup_reps: 16,
        from_scratch_reference: true,
    },
    Workload {
        name: "sim-seq-distinct",
        why: "simulate a semi-positive query, 4 nodes, fact-absence strategy, sequential engine: node steps and message multisets; no wire, no threads",
        sizes: &[
            ("islands", DISTINCT_ISLANDS as u64),
            ("island_vertices", DISTINCT_ISLAND as u64),
        ],
        build: sim_seq_distinct,
        setup_reps: 64,
        from_scratch_reference: false,
    },
    Workload {
        name: "sim-proc-monotone",
        why: "simulate tc.dl, 4 nodes, broadcast strategy, 2 worker processes: spawn, handshake, wire format, socket frames, Safra",
        sizes: &[("vertices", MONOTONE_N as u64), ("chords", MONOTONE_CHORDS as u64)],
        build: sim_proc_monotone,
        setup_reps: 24,
        from_scratch_reference: false,
    },
];

/// A random relabelling of `0..n`: vertex slot `i` is printed as `labels[i]`.
fn labels(rng: &mut Rng, n: u32) -> Vec<u32> {
    let mut l: Vec<u32> = (0..n).collect();
    rng.shuffle(&mut l);
    l
}

/// A directed ring through `vertices` in the given order, and `chords`
/// further distinct edges between random ring vertices (no loops, no
/// copy of a ring edge). Returned apart: deleting a chord never
/// disconnects the ring.
pub fn ring_with_chords(rng: &mut Rng, vertices: &[u32], chords: usize) -> (Vec<Edge>, Vec<Edge>) {
    let n = vertices.len();
    assert!(n >= 3 && chords <= n * (n - 2), "room for the chords");
    let ring: Vec<Edge> = (0..n)
        .map(|i| (vertices[i], vertices[(i + 1) % n]))
        .collect();
    let mut taken: HashSet<Edge> = ring.iter().copied().collect();
    let mut extra = Vec::with_capacity(chords);
    while extra.len() < chords {
        let e = (
            vertices[rng.below(n as u32) as usize],
            vertices[rng.below(n as u32) as usize],
        );
        if e.0 != e.1 && taken.insert(e) {
            extra.push(e);
        }
    }
    (ring, extra)
}

/// `count` distinct edges from a random vertex of `from` to one of `to`.
fn bridges(rng: &mut Rng, from: &[u32], to: &[u32], count: usize) -> Vec<Edge> {
    let mut taken = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let e = (
            from[rng.below(from.len() as u32) as usize],
            to[rng.below(to.len() as u32) as usize],
        );
        if taken.insert(e) {
            out.push(e);
        }
    }
    out
}

fn facts_file(rng: &mut Rng, mut edges: Vec<Edge>) -> String {
    rng.shuffle(&mut edges);
    let mut s = String::with_capacity(edges.len() * 16);
    for (a, b) in edges {
        let _ = writeln!(s, "E({a},{b}).");
    }
    s
}

fn updates_file(batches: &[Vec<(char, Edge)>]) -> String {
    let mut s = String::new();
    for (k, batch) in batches.iter().enumerate() {
        if k > 0 {
            s.push_str("---\n");
        }
        for (sign, (a, b)) in batch {
            let _ = writeln!(s, "{sign} E({a},{b}).");
        }
    }
    s
}

/// `simulate` prints the output relation `R` of the program as `out_R`.
fn tc_expected(label_count: u32, edges: &[Edge], simulate: bool) -> Expected {
    Expected {
        relations: vec![(if simulate { "out_T" } else { "T" }, 2)],
        sections: vec![facts_of(0, &transitive_closure(label_count, edges))],
        simulate,
    }
}

fn eval_tc_deep(rng: &mut Rng) -> Inputs {
    let l = labels(rng, TC_DEEP_N);
    let (mut edges, chords) = ring_with_chords(rng, &l, TC_DEEP_CHORDS);
    edges.extend(chords);
    Inputs {
        expected: tc_expected(TC_DEEP_N, &edges, false),
        edb_facts: edges.len(),
        files: vec![
            ("tc.dl", TC_DL.to_string()),
            ("graph.facts", facts_file(rng, edges)),
        ],
        args: vec!["eval", "tc.dl", "graph.facts"],
    }
}

fn eval_wide_shallow(rng: &mut Rng) -> Inputs {
    // `WIDE_PAIRS` edges with their reverse and `WIDE_SINGLES` without:
    // |O| is exactly the singles, S the vertices the pairs touch.
    let mut taken: HashSet<Edge> = HashSet::with_capacity(2 * (WIDE_PAIRS + WIDE_SINGLES));
    let mut edges = Vec::with_capacity(2 * WIDE_PAIRS + WIDE_SINGLES);
    while edges.len() < 2 * WIDE_PAIRS + WIDE_SINGLES {
        let (a, b) = (rng.below(WIDE_VERTICES), rng.below(WIDE_VERTICES));
        if a == b || taken.contains(&(a, b)) || taken.contains(&(b, a)) {
            continue;
        }
        taken.insert((a, b));
        edges.push((a, b));
        if edges.len() < 2 * WIDE_PAIRS {
            taken.insert((b, a));
            edges.push((b, a));
        }
    }
    let (o, s) = asymmetric_and_symmetric(&edges);
    let mut facts = facts_of(0, &o);
    facts.extend(s.iter().map(|&a| Fact { rel: 1, a, b: 0 }));
    Inputs {
        expected: Expected {
            relations: vec![("O", 2), ("S", 1)],
            sections: vec![facts],
            simulate: false,
        },
        edb_facts: edges.len(),
        files: vec![
            ("wide.dl", WIDE_DL.to_string()),
            ("graph.facts", facts_file(rng, edges)),
        ],
        args: vec!["eval", "wide.dl", "graph.facts"],
    }
}

/// The closure after the initial load and after each batch.
fn closure_sections(
    label_count: u32,
    base: &[Edge],
    batches: &[Vec<(char, Edge)>],
) -> Vec<Vec<Fact>> {
    let mut edges: HashSet<Edge> = base.iter().copied().collect();
    let snapshot = |edges: &HashSet<Edge>| {
        let list: Vec<Edge> = edges.iter().copied().collect();
        facts_of(0, &transitive_closure(label_count, &list))
    };
    let mut sections = vec![snapshot(&edges)];
    for batch in batches {
        for &(sign, e) in batch {
            if sign == '+' {
                edges.insert(e);
            } else {
                edges.remove(&e);
            }
        }
        sections.push(snapshot(&edges));
    }
    sections
}

fn maintain(
    rng: &mut Rng,
    label_count: u32,
    base: Vec<Edge>,
    batches: Vec<Vec<(char, Edge)>>,
) -> Inputs {
    Inputs {
        expected: Expected {
            relations: vec![("T", 2)],
            sections: closure_sections(label_count, &base, &batches),
            simulate: false,
        },
        edb_facts: base.len(),
        files: vec![
            ("tc.dl", TC_DL.to_string()),
            ("graph.updates", updates_file(&batches)),
            ("graph.facts", facts_file(rng, base)),
        ],
        args: vec!["eval", "tc.dl", "graph.facts", "--updates", "graph.updates"],
    }
}

fn maintain_insert(rng: &mut Rng) -> Inputs {
    // A chain of strongly connected islands, linked one batch at a
    // time: batch j makes islands 0..j reach island j, so it adds
    // exactly j * island^2 tuples whatever the seed.
    let islands = INSERT_BATCHES as u32 + 1;
    let total = islands * INSERT_ISLAND;
    let l = labels(rng, total);
    let island = |i: usize| &l[i * INSERT_ISLAND as usize..(i + 1) * INSERT_ISLAND as usize];
    let mut base = Vec::new();
    for i in 0..islands as usize {
        let (ring, chords) = ring_with_chords(rng, island(i), INSERT_ISLAND as usize / 2);
        base.extend(ring);
        base.extend(chords);
    }
    let batches = (1..islands as usize)
        .map(|j| {
            bridges(rng, island(j - 1), island(j), INSERT_BATCH_EDGES)
                .into_iter()
                .map(|e| ('+', e))
                .collect()
        })
        .collect();
    maintain(rng, total, base, batches)
}

fn maintain_delete(rng: &mut Rng) -> Inputs {
    // Deleting a chord leaves the closure as it was, but DRed cannot
    // know: every tuple has a derivation through the chord, so all of
    // it is retracted and rederived. The leaf edge is a deletion that
    // does change the answer (the core's tuples into that leaf go).
    let total = DELETE_CORE + DELETE_LEAVES;
    let l = labels(rng, total);
    let (core, leaves) = l.split_at(DELETE_CORE as usize);
    let (ring, mut chords) = ring_with_chords(rng, core, DELETE_CHORDS);
    let leaf_edges: Vec<Edge> = leaves
        .iter()
        .map(|&leaf| (core[rng.below(DELETE_CORE) as usize], leaf))
        .collect();
    let mut base = ring;
    base.extend(chords.iter().copied());
    base.extend(leaf_edges.iter().copied());
    rng.shuffle(&mut chords);
    let batches = (0..DELETE_BATCHES)
        .map(|k| {
            let mut batch: Vec<(char, Edge)> =
                chords[3 * k..3 * k + 3].iter().map(|&e| ('-', e)).collect();
            batch.push(('-', leaf_edges[k]));
            batch
        })
        .collect();
    maintain(rng, total, base, batches)
}

fn sim_seq_distinct(rng: &mut Rng) -> Inputs {
    // Disjoint strongly connected islands: the answer is every
    // within-island pair that is not an edge, a fixed count.
    let total = DISTINCT_ISLANDS * DISTINCT_ISLAND;
    let l = labels(rng, total);
    let mut edges = Vec::new();
    for island in l.chunks(DISTINCT_ISLAND as usize) {
        let (ring, chords) = ring_with_chords(rng, island, DISTINCT_ISLAND as usize / 2);
        edges.extend(ring);
        edges.extend(chords);
    }
    Inputs {
        expected: Expected {
            relations: vec![("out_O", 2)],
            sections: vec![facts_of(0, &closure_minus_edges(total, &edges))],
            simulate: true,
        },
        edb_facts: edges.len(),
        files: vec![
            ("indirect.dl", INDIRECT_DL.to_string()),
            ("graph.facts", facts_file(rng, edges)),
        ],
        args: vec![
            "simulate",
            "indirect.dl",
            "graph.facts",
            "--nodes",
            "4",
            "--strategy",
            "distinct",
        ],
    }
}

/// `sim-proc-monotone` without its engine flags: the traced run puts
/// the same input through the CLI under each engine.
pub const MONOTONE_BASE_ARGS: [&str; 7] = [
    "simulate",
    "tc.dl",
    "graph.facts",
    "--nodes",
    "4",
    "--strategy",
    "monotone",
];

fn sim_proc_monotone(rng: &mut Rng) -> Inputs {
    let l = labels(rng, MONOTONE_N);
    let (mut edges, chords) = ring_with_chords(rng, &l, MONOTONE_CHORDS);
    edges.extend(chords);
    Inputs {
        expected: tc_expected(MONOTONE_N, &edges, true),
        edb_facts: edges.len(),
        files: vec![
            ("tc.dl", TC_DL.to_string()),
            ("graph.facts", facts_file(rng, edges)),
        ],
        args: MONOTONE_BASE_ARGS
            .into_iter()
            .chain(["--engine", "process", "--procs", "2"])
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            let (a, b, c) = (w.inputs(11), w.inputs(11), w.inputs(12));
            assert_eq!(a.files, b.files, "{}", w.name);
            assert_eq!(a.expected, b.expected, "{}", w.name);
            assert_ne!(a.files, c.files, "{}", w.name);
        }
    }

    #[test]
    fn derived_work_does_not_depend_on_the_seed() {
        for w in &WORKLOADS {
            let sizes = |seed| {
                let i = w.inputs(seed);
                let sections: Vec<usize> = i.expected.sections.iter().map(Vec::len).collect();
                (i.edb_facts, sections)
            };
            if w.name == "eval-wide-shallow" {
                // |S| is random but concentrated; |O| is exact.
                let (a, b) = (w.inputs(1), w.inputs(2));
                let o = |i: &Inputs| i.expected.sections[0].iter().filter(|f| f.rel == 0).count();
                assert_eq!(o(&a), WIDE_SINGLES);
                assert_eq!(o(&b), WIDE_SINGLES);
                continue;
            }
            assert_eq!(sizes(1), sizes(2), "{}", w.name);
        }
    }

    #[test]
    fn ring_with_chords_is_strongly_connected_and_simple() {
        let mut rng = Rng::new(5);
        let v: Vec<u32> = (0..40).collect();
        let (ring, chords) = ring_with_chords(&mut rng, &v, 25);
        let mut all = ring.clone();
        all.extend(&chords);
        let distinct: HashSet<Edge> = all.iter().copied().collect();
        assert_eq!(distinct.len(), 65);
        assert!(all.iter().all(|(a, b)| a != b));
        assert_eq!(transitive_closure(40, &all).len(), 40 * 40);
    }

    #[test]
    fn names_are_unique_and_reasons_fit_one_line() {
        let names: HashSet<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(find(w.name).is_some());
        }
    }
}
