//! E20: the fault-injection + reliable-delivery layer under load — a
//! drop-rate sweep per strategy family on the threaded executor.
//!
//! Every cell of the sweep must still produce the sequential oracle's
//! output byte-identically (the chaos-equivalence guarantee measured at
//! bench scale), while the table shows what the unfair network costs in
//! traffic: retransmission volume, and duplicates absorbed by the
//! receiver-side dedup (in time: `net.faults.lossy_run_s` in
//! BENCHMARK.json). The `off` row runs with no fault plan at all — the
//! pay-for-what-you-use claim is that this path never enters the
//! reliability machinery; the armed zero-probability row shows the
//! seq/ack/snapshot bookkeeping with nothing injected.
//!
//! Sized so that every faulty cell makes several hundred transmission
//! attempts (12 nodes: the broadcast family, the quietest, makes ≥ 500),
//! so that "something was dropped" and "more was dropped at 0.2 than at
//! 0.05" hold with many standard deviations to spare. The repair claim
//! compares *drops* across rates, not retransmissions: retransmit
//! timers fire on slow acks as well as on loss — the armed 0.00 row
//! retransmits hundreds of wires with nothing dropped — and that
//! schedule-dependent share moves by more from run to run than the
//! loss-driven share differs between the two rates.

use crate::report::{markdown_table, Report};
use crate::workloads::{families, scaling_graph};
use calm_net::{FaultPlan, ThreadedConfig};
use calm_obs::Obs;

const NODES: usize = 12;
const WORKERS: usize = 4;
const SEED: u64 = 20;
/// The swept drop rates; duplication rides along at half the drop rate
/// so the dedup column is exercised too.
const DROPS: [f64; 2] = [0.05, 0.2];

/// E20: drop-rate sweep over the fault layer; `obs` sees every run, so
/// `repro --trace-out` captures the per-fault-class counters.
pub fn e20_faults(obs: &Obs) -> Report {
    let mut r = Report::new(
        "E20",
        "fault injection — drop-rate sweep vs retransmit volume per strategy",
    );
    let input = scaling_graph(11, 24, 1.5);
    let mut rows = Vec::new();

    let mut all_untouched = true;
    for f in families(NODES) {
        let label = f.label;
        // The sequential oracle every sweep cell must reproduce.
        let (expected, _) = f.run_sequential(&input, obs);
        let mut all_equal = true;
        let mut run_cell = |drop: &str, plan: Option<FaultPlan>| {
            let mut cfg = ThreadedConfig::new(WORKERS);
            cfg.faults = plan;
            let (output, thr) = f.run_threaded(&input, &cfg, obs);
            let matches = output == expected;
            all_equal &= thr.quiescent && matches;
            rows.push(vec![
                label.to_string(),
                drop.to_string(),
                thr.faults.attempts.to_string(),
                thr.faults.retransmissions.to_string(),
                thr.faults.duplicates_suppressed.to_string(),
                thr.faults.dropped.to_string(),
                thr.faults.crashes.to_string(),
                matches.to_string(),
                thr.quiescent.to_string(),
            ]);
            thr.faults
        };

        // Baseline: no fault plan — the zero-fault path.
        let off = run_cell("off", None);
        let off_untouched = off.attempts == 0 && off.retransmissions == 0 && off.snapshots == 0;
        all_untouched &= off_untouched;
        // Armed but silent: full seq/ack/snapshot machinery, no faults.
        run_cell("0.00 (armed)", Some(FaultPlan::none(SEED)));
        let lossy = DROPS.map(|drop| {
            let plan = FaultPlan::uniform(SEED, drop, drop / 2.0);
            run_cell(&format!("{drop:.2}"), Some(plan))
        });
        r.claim(
            format!("{label}: every sweep cell reproduces the sequential oracle"),
            "byte-identical output, quiescence detected, at drop ∈ {off, 0, 0.05, 0.2}",
            all_equal,
        );
        r.claim(
            format!("{label}: the zero-fault path never enters the fault layer"),
            "no-plan run has zero attempts/retransmissions/snapshots (pay-for-what-you-use)",
            off_untouched,
        );
        r.claim(
            format!("{label}: loss is repaired by retransmission, not luck"),
            format!(
                "dropped {} of {} attempts at drop 0.05 ({} retransmissions), {} of {} at \
                 drop 0.2 ({}); no message abandoned",
                lossy[0].dropped,
                lossy[0].attempts,
                lossy[0].retransmissions,
                lossy[1].dropped,
                lossy[1].attempts,
                lossy[1].retransmissions
            ),
            0 < lossy[0].dropped
                && lossy[0].dropped < lossy[1].dropped
                && lossy
                    .iter()
                    .all(|f| f.retransmissions > 0 && f.retry_exhausted == 0),
        );
    }
    r.table(markdown_table(
        &[
            "strategy (query)",
            "drop rate",
            "attempts",
            "retransmits",
            "dups suppressed",
            "dropped",
            "crashes",
            "matches oracle",
            "quiescent",
        ],
        &rows,
    ));
    // Pay-for-what-you-use: a run that requests no faults takes the
    // plain threaded executor path — the reliability machinery is never
    // entered (counters identically zero), so the zero-fault throughput
    // is the fault-free executor's. What arming the machinery costs —
    // acks, snapshots and conservative retransmit timers are the price
    // of surviving loss — is the `0.00 (armed)` rows' traffic here and
    // `net.faults.lossy_run_s` in the benchmark.
    r.claim(
        "zero-fault throughput is the plain threaded executor's (fault layer is opt-in)",
        "no-plan runs never enter the fault layer, in any family",
        all_untouched,
    );
    r
}
