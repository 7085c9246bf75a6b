//! The `repro` command line: a mistyped experiment id or flag is a
//! usage error (exit 2) that names the offender, never a silent
//! zero-experiment PASS.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn assert_usage_error(out: &Output, offender: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(offender), "{stderr}");
    assert!(stderr.contains("usage: repro"), "{stderr}");
    assert!(out.stdout.is_empty(), "a usage error prints no report");
}

#[test]
fn an_unknown_experiment_id_is_a_usage_error_listing_the_valid_ones() {
    // `e22` never existed; `e19` is retired; `e99` is a typo.
    for bad in ["e99", "e22", "e19"] {
        let out = repro(&["e3", bad]);
        assert_usage_error(&out, &format!("unknown experiment '{bad}'"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("valid ids: e1 e2 e3"), "{stderr}");
        assert!(stderr.contains("e27 e17"), "{stderr}");
    }
}

#[test]
fn an_unknown_or_valueless_flag_is_a_usage_error_naming_it() {
    assert_usage_error(&repro(&["--metric", "e3"]), "unknown flag '--metric'");
    assert_usage_error(&repro(&["e3", "--experiment", "e2"]), "'--experiment'");
    assert_usage_error(&repro(&["e3", "--trace-out"]), "--trace-out expects");
    // The next flag is not a path prefix: nothing named `--metrics.jsonl`
    // is written and `--metrics` is not dropped.
    let out = repro(&["--trace-out", "--metrics", "e3"]);
    assert_usage_error(&out, "--trace-out expects");
}

#[test]
fn a_valid_id_still_runs_and_ids_are_case_insensitive() {
    let out = repro(&["E3"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("### E3 — "), "{stdout}");
    assert!(stdout.contains("(1 experiments)"), "{stdout}");
}
