//! `calm-benchmark ladder`: `eval-tc-deep` and `maintain-delete` at
//! 10^3 .. 10^6 derived tuples on chain, grid and random shapes, to
//! locate crossovers (incremental against from-scratch, time and
//! memory per tuple against size) without lengthening the gated run.
//! Not part of the contract; a cell that exceeds its time limit is
//! recorded as such and the larger cells of that column are skipped.

use crate::json::Json;
use crate::measure::{median, run_child};
use crate::oracle::{check_output, facts_of, transitive_closure, Edge, Expected};
use crate::report::host_facts;
use crate::rng::Rng;
use crate::run::Env;
use crate::workloads::{ring_with_chords, TC_DL};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const TARGETS: [u64; 4] = [1_000, 10_000, 100_000, 1_000_000];
const INVOCATIONS: usize = 3;
const CELL_TIMEOUT: Duration = Duration::from_secs(120);
const SEED: u64 = 11;

/// A graph of the shape whose closure has at least `target` tuples,
/// as `(vertices, edges)`.
fn shape(name: &str, target: u64, rng: &mut Rng) -> (u32, Vec<Edge>) {
    match name {
        // A path of n vertices has n(n-1)/2 closure tuples.
        "chain" => {
            let n = (1..)
                .find(|&n: &u64| n * (n - 1) / 2 >= target)
                .expect("some n") as u32;
            (n, (0..n - 1).map(|i| (i, i + 1)).collect())
        }
        // A w x w grid with edges right and down: (r,c) reaches every
        // (r',c') >= it, so (w(w+1)/2)^2 - w^2 tuples.
        "grid" => {
            let w = (2..)
                .find(|&w: &u64| (w * (w + 1) / 2).pow(2) - w * w >= target)
                .expect("some w") as u32;
            let mut edges = Vec::new();
            for r in 0..w {
                for c in 0..w {
                    if c + 1 < w {
                        edges.push((r * w + c, r * w + c + 1));
                    }
                    if r + 1 < w {
                        edges.push((r * w + c, (r + 1) * w + c));
                    }
                }
            }
            (w * w, edges)
        }
        // The benchmark's own ring with as many random chords: n^2 tuples.
        _ => {
            let n = (3..).find(|&n: &u64| n * n >= target).expect("some n") as u32;
            let vertices: Vec<u32> = (0..n).collect();
            let (mut edges, chords) = ring_with_chords(rng, &vertices, n as usize);
            edges.extend(chords);
            (n, edges)
        }
    }
}

/// Median wall seconds and peak RSS of `INVOCATIONS` checked runs, or
/// why the cell has no number.
fn time_cell(
    calm: &Path,
    args: &[&str],
    dir: &Path,
    expected: &Expected,
) -> Result<(f64, f64), String> {
    let stdout_path = dir.join("stdout.txt");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    for _ in 0..INVOCATIONS {
        let s = run_child(calm, args, dir, &stdout_path, CELL_TIMEOUT)?;
        if !s.exit_ok {
            return Err("exited nonzero".to_string());
        }
        let text = std::fs::read_to_string(&stdout_path).map_err(|e| e.to_string())?;
        check_output(&text, expected)?;
        walls.push(s.wall_s);
        rss.push(s.peak_rss_mb);
    }
    Ok((median(&walls), median(&rss)))
}

fn cell_json(result: &Result<(f64, f64), String>) -> Json {
    match result {
        Ok((wall, rss)) => Json::obj([
            ("wall_s", Json::Num(*wall)),
            ("peak_rss_mb", Json::Num(*rss)),
        ]),
        Err(why) => Json::obj([("absent", Json::str(why.as_str()))]),
    }
}

/// # Errors
/// On trouble building `calm` or writing files; a slow or failing
/// cell is recorded in the output, not an error.
pub fn run(env: &Env) -> Result<bool, String> {
    let calm = env.build_calm()?;
    let dir = env.out_dir.join("ladder");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(dir.join("tc.dl"), TC_DL).map_err(|e| e.to_string())?;
    let mut cells = Vec::new();
    for shape_name in ["chain", "grid", "random"] {
        // Once a column is too slow at one size, larger sizes are skipped.
        let (mut eval_alive, mut maintain_alive) = (true, true);
        for target in TARGETS {
            let mut rng = Rng::new(SEED ^ target);
            let (vertices, mut edges) = shape(shape_name, target, &mut rng);
            rng.shuffle(&mut edges);
            let mut facts = String::new();
            for (a, b) in &edges {
                let _ = writeln!(facts, "E({a},{b}).");
            }
            let deleted = &edges[..4];
            let updates: String = deleted
                .iter()
                .map(|(a, b)| format!("- E({a},{b}).\n"))
                .collect();
            std::fs::write(dir.join("graph.facts"), facts).map_err(|e| e.to_string())?;
            std::fs::write(dir.join("graph.updates"), updates).map_err(|e| e.to_string())?;
            let before = facts_of(0, &transitive_closure(vertices, &edges));
            let after = facts_of(0, &transitive_closure(vertices, &edges[4..]));
            let derived = before.len();
            let one = Expected {
                relations: vec![("T", 2)],
                sections: vec![before.clone()],
                simulate: false,
            };
            let two = Expected {
                sections: vec![before, after],
                ..one.clone()
            };
            let skipped =
                || Err("skipped: the smaller size already exceeded the time limit".to_string());
            let eval = if eval_alive {
                time_cell(&calm, &["eval", "tc.dl", "graph.facts"], &dir, &one)
            } else {
                skipped()
            };
            let update_args = ["eval", "tc.dl", "graph.facts", "--updates", "graph.updates"];
            let (incremental, scratch) = if maintain_alive {
                let scratch_args: Vec<&str> = update_args
                    .iter()
                    .copied()
                    .chain(["--from-scratch"])
                    .collect();
                (
                    time_cell(&calm, &update_args, &dir, &two),
                    time_cell(&calm, &scratch_args, &dir, &two),
                )
            } else {
                (skipped(), skipped())
            };
            eval_alive &= eval.is_ok();
            maintain_alive &= incremental.is_ok();
            eprintln!(
                "{shape_name:<7} target {target:>8} derived {derived:>8}: eval {eval:?} incremental {incremental:?} from-scratch {scratch:?}"
            );
            cells.push(Json::obj([
                ("shape", Json::str(shape_name)),
                ("target_tuples", Json::Num(target as f64)),
                ("derived_tuples", Json::Num(derived as f64)),
                ("vertices", Json::Num(f64::from(vertices))),
                ("edges", Json::Num(edges.len() as f64)),
                ("eval-tc-deep", cell_json(&eval)),
                ("maintain-delete", cell_json(&incremental)),
                ("maintain-delete-from-scratch", cell_json(&scratch)),
            ]));
        }
    }
    let path = env.out_dir.join("ladder.json");
    let doc = Json::obj([
        ("host", host_facts()),
        ("seed", Json::Num(SEED as f64)),
        ("invocations_per_cell", Json::Num(INVOCATIONS as f64)),
        ("cells", Json::Arr(cells)),
    ]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_reach_their_target_and_not_much_more() {
        for name in ["chain", "grid", "random"] {
            for target in [1_000u64, 10_000] {
                let (n, edges) = shape(name, target, &mut Rng::new(1));
                let derived = transitive_closure(n, &edges).len() as u64;
                assert!(
                    derived >= target && derived < 2 * target,
                    "{name} {target}: {derived}"
                );
            }
        }
    }
}
