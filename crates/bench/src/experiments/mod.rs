//! The experiment suite: one function per experiment id (E1–E27, see
//! DESIGN.md's per-experiment index), each returning a [`Report`] of
//! equalities and counts — nothing here reads a clock. What a run
//! *costs* is measured by `benchmark/` (BENCHMARK.json).

mod engine;
mod faults;
mod fragments;
mod hierarchy;
mod incremental;
mod parallel;
mod policies;
mod process;
mod recovery;
mod strategies;
mod trace;
mod winmove;
mod wire;

use crate::report::Report;
use calm_obs::Obs;

pub use engine::e18_engine;
pub use faults::e20_faults;
pub use fragments::{e12_example51, e13_components, e14_semicon, e15_wilog};
pub use hierarchy::{
    e1_hierarchy, e2_bounded_m, e3_clique_ladder, e4_star_ladder, e5_cross, e6_preservation,
};
pub use incremental::e27_incremental;
pub use parallel::e21_parallel;
pub use policies::e7_policies;
pub use process::e25_process;
pub use recovery::e26_recovery;
pub use strategies::{e10_no_all, e11_strategy_costs, e8_distinct_model, e9_disjoint_model};
pub use trace::e24_trace;
pub use winmove::e16_winmove;
pub use wire::e23_wire;

/// An experiment entry: `(id, run)`. Every experiment is handed the
/// run's [`Obs`]; those that drive an engine thread it through (so
/// `repro --trace-out` yields machine-readable §4.3 artifacts), the
/// exhaustive checkers of §3 and §5 have nothing to report to it.
pub type Experiment = (&'static str, fn(&Obs) -> Report);

/// All experiments in order. E17 is not in the table: it runs nothing,
/// it reads the others' verdicts ([`e17_summary`]). E19 and E22 are
/// retired ids (DESIGN.md's index says where their claims went).
pub const ALL: [Experiment; 24] = [
    ("e1", |_| e1_hierarchy()),
    ("e2", |_| e2_bounded_m()),
    ("e3", |_| e3_clique_ladder()),
    ("e4", |_| e4_star_ladder()),
    ("e5", |_| e5_cross()),
    ("e6", |_| e6_preservation()),
    ("e7", |_| e7_policies()),
    ("e8", |_| e8_distinct_model()),
    ("e9", |_| e9_disjoint_model()),
    ("e10", |_| e10_no_all()),
    ("e11", e11_strategy_costs),
    ("e12", |_| e12_example51()),
    ("e13", |_| e13_components()),
    ("e14", |_| e14_semicon()),
    ("e15", |_| e15_wilog()),
    ("e16", |_| e16_winmove()),
    ("e18", e18_engine),
    ("e20", e20_faults),
    ("e21", e21_parallel),
    ("e23", e23_wire),
    ("e24", e24_trace),
    ("e25", e25_process),
    ("e26", e26_recovery),
    ("e27", e27_incremental),
];

/// E17's rows: `(claim, what backs it, the experiments that must pass)`.
const E17_ROWS: [(&str, &str, &[&str]); 7] = [
    (
        "Datalog(≠) ⊆ M; SP-Datalog ⊆ Mdistinct; semicon-Datalog¬ ⊆ Mdisjoint",
        "fragment membership experiments",
        &["e1", "e14"],
    ),
    (
        "M ⊊ Mdistinct ⊊ Mdisjoint ⊊ C (Figure 1 spine)",
        "separating queries",
        &["e1"],
    ),
    (
        "bounded ladders Mᵢ* strict; M = Mᵢ",
        "clique/star/duplicate ladders",
        &["e2", "e3", "e4", "e5"],
    ),
    (
        "H ⊊ Hinj = M ⊊ E = Mdistinct (Lemma 3.2)",
        "preservation checkers",
        &["e6"],
    ),
    (
        "F0 = M, F1 = Mdistinct, F2 = Mdisjoint (Thms 4.3, 4.4)",
        "strategy × model grid",
        &["e8", "e9"],
    ),
    (
        "A1 = Mdistinct, A2 = Mdisjoint without All (Thm 4.5, Cor 4.6)",
        "no-All reruns identical",
        &["e10"],
    ),
    (
        "win-move ∈ Mdisjoint \\ Mdistinct; coordination-free under domain guidance",
        "E16 + E9",
        &["e16", "e9"],
    ),
];

/// The ids to run for what was asked on the command line, in report
/// order with `"e17"` last: everything when `wanted` is empty;
/// otherwise the ids named plus, when E17 is among them, every
/// experiment it aggregates. An id that names no experiment is an
/// error naming it and listing the valid ones.
pub fn select(wanted: &[String]) -> Result<Vec<&'static str>, String> {
    let known = || ALL.iter().map(|(id, _)| *id).chain(["e17"]);
    if let Some(bad) = wanted.iter().find(|w| !known().any(|id| id == *w)) {
        let ids: Vec<&str> = known().collect();
        return Err(format!(
            "unknown experiment '{bad}' (valid ids: {})",
            ids.join(" ")
        ));
    }
    let asked = |id: &str| wanted.iter().any(|w| w == id);
    let needed = |id: &str| {
        wanted.is_empty()
            || asked(id)
            || (asked("e17") && E17_ROWS.iter().any(|(_, _, inputs)| inputs.contains(&id)))
    };
    Ok(known().filter(|id| needed(id)).collect())
}

/// E17: the Figure-2 summary matrix, assembled from the other reports.
/// A row passes when every experiment behind it was run and passed.
pub fn e17_summary(reports: &[Report]) -> Report {
    let mut r = Report::new(
        "E17",
        "Figure 2 — the full class/fragment/model diagram, machine-checked",
    );
    let passed = |id: &&str| {
        reports
            .iter()
            .find(|rep| rep.id.eq_ignore_ascii_case(id))
            .is_some_and(Report::all_pass)
    };
    for (claim, measured, inputs) in E17_ROWS {
        r.claim(claim, measured, inputs.iter().all(passed));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Status;

    fn ids(wanted: &[&str]) -> Result<Vec<&'static str>, String> {
        select(&wanted.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn experiment_ids_are_unique_and_ordered() {
        let number = |id: &str| id[1..].parse::<u32>().expect("ids are e<n>");
        let numbers: Vec<u32> = ALL.iter().map(|(id, _)| number(id)).collect();
        assert!(numbers.windows(2).all(|w| w[0] < w[1]), "{numbers:?}");
        assert_eq!(numbers[0], 1);
        assert_eq!(numbers.len(), 24);
        // E17 is the summary; E19 (folded into E25) and E22 are retired.
        for retired in [17, 19, 22] {
            assert!(!numbers.contains(&retired));
        }
        assert_eq!(ids(&[]).unwrap().len(), 25);
        assert_eq!(ids(&[]).unwrap().last(), Some(&"e17"));
    }

    #[test]
    fn unknown_ids_are_rejected_by_name() {
        for bad in ["e99", "e22", "e19"] {
            let err = ids(&["e3", bad]).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
            assert!(err.contains("e1 e2 ") && err.ends_with("e27 e17)"), "{err}");
        }
        assert_eq!(ids(&["e27", "e3"]).unwrap(), ["e3", "e27"]);
    }

    #[test]
    fn deterministic_experiments_render_identically_twice() {
        // The three engine experiments CI diffs against EXPERIMENTS.md:
        // counts and equalities only, so two renders are the same bytes.
        for run in [e18_engine, e21_parallel, e27_incremental] {
            let first = run(&Obs::noop());
            assert!(first.all_pass(), "{}", first.to_markdown());
            assert_eq!(first.to_markdown(), run(&Obs::noop()).to_markdown());
        }
    }

    #[test]
    fn summary_reflects_subreport_status() {
        let stub = |id: &str, ok: bool| {
            let mut r = Report::new(id.to_uppercase(), "x");
            r.claim("c", "m", ok);
            r
        };
        // With only E1 present, only the rows that rest on E1 alone pass.
        let s = e17_summary(&[stub("e1", true)]);
        let passing: Vec<bool> = s.claims.iter().map(|c| c.2 == Status::Pass).collect();
        assert_eq!(passing, [false, true, false, false, false, false, false]);

        // Requested alone, E17 brings the experiments it reads with it,
        // and those are all it reads.
        let alone = ids(&["e17"]).unwrap();
        assert_eq!(alone.last(), Some(&"e17"));
        assert_eq!(alone.len(), 12);
        let reports: Vec<Report> = alone.iter().map(|id| stub(id, true)).collect();
        assert!(e17_summary(&reports[..11]).all_pass());
        for dropped in 0..11 {
            let mut partial = reports[..11].to_vec();
            partial[dropped] = stub(alone[dropped], false);
            assert!(!e17_summary(&partial).all_pass(), "{}", alone[dropped]);
        }
    }
}
