//! The metric tables: what `BENCHMARK.json` declares, in one place.
//! `calm-benchmark manifest` prints `BENCHMARK.json` from them and a
//! unit test keeps the checked-in file equal to that.

use crate::json::Json;
use crate::workloads::WORKLOADS;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Seconds one contract run measures (`--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// The same four on every workload. The failed fraction the issue
/// lists is the result line's `failed` over `attempted`: a metric
/// that is 0 on every good run has no spread to take a share of.
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", 0.25),
    e2e("cpu_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.05),
    e2e("setup_s", "s", 0.25),
];

/// From the traced run. Unit `count` marks a tally that repeats
/// exactly for a fixed seed (`check-repeat` insists on it); tallies
/// that depend on thread or process scheduling have unit `events`.
pub const PER_LAYER: [Metric; 61] = [
    layer("datalog.parser.parse_s", "s", "lower"),
    layer("datalog.parser.bytes_in", "bytes", "lower"),
    layer("datalog.compile.plan_s", "s", "lower"),
    layer("common.storage.load_s", "s", "lower"),
    layer("common.storage.rows_loaded", "count", "lower"),
    layer("common.storage.export_s", "s", "lower"),
    layer("common.storage.rss_bytes_per_tuple", "bytes", "lower"),
    layer("datalog.eval.fixpoint_s", "s", "lower"),
    layer("datalog.eval.iterations", "count", "lower"),
    layer("datalog.eval.derivations", "count", "lower"),
    layer("datalog.eval.new_facts", "count", "lower"),
    layer("datalog.eval.useful_ratio", "ratio", "higher"),
    layer("datalog.eval.index_probes", "count", "lower"),
    layer("datalog.eval.merge_probes", "count", "lower"),
    layer("datalog.eval.probe_hit_ratio", "ratio", "lower"),
    layer("datalog.eval.fixpoint_t2_s", "s", "lower"),
    layer("datalog.eval.t2_overhead", "ratio", "lower"),
    layer("datalog.incremental.open_s", "s", "lower"),
    layer("datalog.incremental.apply_insert_s", "s", "lower"),
    layer("datalog.incremental.apply_delete_s", "s", "lower"),
    layer("datalog.incremental.output_s", "s", "lower"),
    layer("datalog.incremental.retractions", "count", "lower"),
    layer("datalog.incremental.rederivations", "count", "lower"),
    layer("datalog.incremental.insertions", "count", "lower"),
    layer("datalog.incremental.overdelete_ratio", "ratio", "lower"),
    layer("datalog.incremental.vs_scratch_ratio", "ratio", "lower"),
    layer("cli.cmd_total_s", "s", "lower"),
    layer("cli.render_s", "s", "lower"),
    layer("cli.teardown_s", "s", "lower"),
    layer("cli.process_overhead_s", "s", "lower"),
    layer("transducer.runtime.run_s", "s", "lower"),
    layer("transducer.runtime.transitions", "count", "lower"),
    layer("transducer.runtime.messages_sent", "count", "lower"),
    layer("transducer.runtime.messages_delivered", "count", "lower"),
    layer("transducer.runtime.max_queue_depth", "count", "lower"),
    layer("transducer.runtime.step_mean_us", "us", "lower"),
    layer("transducer.runtime.eval_derivations", "count", "lower"),
    layer("transducer.runtime.msgs_per_output_fact", "ratio", "lower"),
    layer("transducer.strategy.build_s", "s", "lower"),
    layer("net.executor.run_w1_s", "s", "lower"),
    layer("net.executor.run_w2_s", "s", "lower"),
    layer("net.executor.overhead_w1", "ratio", "lower"),
    layer("net.executor.token_passes", "events", "lower"),
    layer("net.executor.wire_bytes", "bytes", "lower"),
    layer("net.wirefmt.encode_s", "s", "lower"),
    layer("net.wirefmt.decode_s", "s", "lower"),
    layer("net.wirefmt.bytes_per_fact", "bytes", "lower"),
    layer("net.wirefmt.vs_naive_ratio", "ratio", "lower"),
    layer("net.transport.frame_roundtrip_s", "s", "lower"),
    layer("net.transport.proc_p1_wall_s", "s", "lower"),
    layer("net.transport.proc_p2_wall_s", "s", "lower"),
    layer("net.transport.thr_w2_wall_s", "s", "lower"),
    layer("net.transport.seq_wall_s", "s", "lower"),
    layer("net.transport.relay_overhead_s", "s", "lower"),
    layer("net.faults.lossy_run_s", "s", "lower"),
    layer("net.faults.attempts", "events", "lower"),
    layer("net.faults.retransmissions", "events", "lower"),
    layer("net.faults.duplicates_suppressed", "events", "lower"),
    layer("net.faults.goodput_ratio", "ratio", "higher"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.overhead_frac", "ratio", "lower"),
];

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> Json {
    let metric = |m: &Metric, bounded: bool| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if bounded {
            pairs.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "-p",
                    "calm-benchmark",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "{}",
                m.unit
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for w in &WORKLOADS {
            assert!(well_formed_name(w.name) && seen.insert(w.name));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == "lower");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25 && m.bound <= setup.bound);
        }
    }

    #[test]
    fn the_checked_in_manifest_is_the_one_the_tables_give() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert!(
            crate::json::parse(&text).expect("BENCHMARK.json parses") == manifest(),
            "regenerate with: calm-benchmark manifest > BENCHMARK.json"
        );
    }
}
