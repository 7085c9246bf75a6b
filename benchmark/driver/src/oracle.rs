//! The driver's independent oracle: reference answers computed from
//! the generated edge list with plain graph algorithms (no Datalog),
//! and the comparison of a `calm` output file against them.

use std::collections::HashSet;

pub type Edge = (u32, u32);

/// One output fact: `rel` indexes [`Expected::relations`]; a unary
/// fact keeps `b == 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Fact {
    pub rel: u8,
    pub a: u32,
    pub b: u32,
}

/// What a correct `calm` invocation of one workload prints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Output relations: name and arity (1 or 2).
    pub relations: Vec<(&'static str, usize)>,
    /// Sorted fact sets, one per printed section: one for `eval` and
    /// `simulate`, `batches + 1` for `eval --updates`.
    pub sections: Vec<Vec<Fact>>,
    /// `simulate` output must also carry `% quiescent: true` and
    /// `% matches centralized evaluation: true`.
    pub simulate: bool,
}

impl Expected {
    pub fn render_fact(&self, f: Fact) -> String {
        let (name, arity) = self.relations[f.rel as usize];
        if arity == 1 {
            format!("{name}({})", f.a)
        } else {
            format!("{name}({},{})", f.a, f.b)
        }
    }
}

fn adjacency(labels: u32, edges: &[Edge]) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); labels as usize];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    adj
}

/// Transitive closure by one BFS per source: every `(x, y)` with a
/// path of length >= 1 from `x` to `y`, sorted. Labels are `< labels`.
pub fn transitive_closure(labels: u32, edges: &[Edge]) -> Vec<Edge> {
    let adj = adjacency(labels, edges);
    let mut out = Vec::new();
    let mut seen = vec![u32::MAX; labels as usize];
    let mut queue = Vec::new();
    for x in 0..labels {
        if adj[x as usize].is_empty() {
            continue;
        }
        queue.clear();
        queue.extend_from_slice(&adj[x as usize]);
        let mut head = 0;
        while head < queue.len() {
            let y = queue[head];
            head += 1;
            if seen[y as usize] == x {
                continue;
            }
            seen[y as usize] = x;
            out.push((x, y));
            queue.extend_from_slice(&adj[y as usize]);
        }
    }
    out.sort_unstable();
    out
}

/// The pairs joined by a path of length >= 1 but by no edge, sorted.
pub fn closure_minus_edges(labels: u32, edges: &[Edge]) -> Vec<Edge> {
    let direct: HashSet<Edge> = edges.iter().copied().collect();
    let mut out = transitive_closure(labels, edges);
    out.retain(|e| !direct.contains(e));
    out
}

/// The two `eval-wide-shallow` relations: `O` = edges whose reverse is
/// absent, `S` = vertices with an edge whose reverse is present.
pub fn asymmetric_and_symmetric(edges: &[Edge]) -> (Vec<Edge>, Vec<u32>) {
    let set: HashSet<Edge> = edges.iter().copied().collect();
    let mut o = Vec::new();
    let mut s = Vec::new();
    for &(a, b) in edges {
        if set.contains(&(b, a)) {
            s.push(a);
        } else {
            o.push((a, b));
        }
    }
    o.sort_unstable();
    o.dedup();
    s.sort_unstable();
    s.dedup();
    (o, s)
}

pub fn facts_of(rel: u8, pairs: &[Edge]) -> Vec<Fact> {
    pairs.iter().map(|&(a, b)| Fact { rel, a, b }).collect()
}

/// A `calm` output file, parsed: fact sections and the `% key: value`
/// verdict lines `simulate` prints.
#[derive(Debug, Default)]
pub struct ParsedOutput {
    pub sections: Vec<Vec<Fact>>,
    pub quiescent: Option<bool>,
    pub matches_centralized: Option<bool>,
}

fn parse_u32(s: &str) -> Option<u32> {
    // `u32::from_str` accepts a leading '+'; calm never prints one.
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn parse_fact(line: &str, relations: &[(&'static str, usize)]) -> Option<Fact> {
    let body = line.strip_suffix(").")?;
    let (name, args) = body.split_once('(')?;
    let rel = relations.iter().position(|(n, _)| *n == name)?;
    let arity = relations[rel].1;
    let (a, b) = match (arity, args.split_once(',')) {
        (1, None) => (parse_u32(args)?, 0),
        (2, Some((a, b))) => (parse_u32(a)?, parse_u32(b)?),
        _ => return None,
    };
    Some(Fact {
        rel: rel as u8,
        a,
        b,
    })
}

/// Parse the text `calm eval` / `calm simulate` wrote to stdout.
/// `% initial` and `% after batch K` start a section; every other
/// `%` line is a comment, of which the two verdict lines are kept.
///
/// # Errors
/// Names the first line that is neither a comment nor a fact of one
/// of `relations`.
pub fn parse_output(
    text: &str,
    relations: &[(&'static str, usize)],
) -> Result<ParsedOutput, String> {
    let mut out = ParsedOutput::default();
    let mut current: Vec<Fact> = Vec::new();
    let mut sectioned = false;
    for (no, line) in text.lines().enumerate() {
        if let Some(comment) = line.strip_prefix('%') {
            let comment = comment.trim();
            if comment == "initial" || comment.starts_with("after batch ") {
                if sectioned {
                    out.sections.push(std::mem::take(&mut current));
                }
                sectioned = true;
            } else if let Some(v) = comment.strip_prefix("quiescent: ") {
                out.quiescent = v.parse().ok();
            } else if let Some(v) = comment.strip_prefix("matches centralized evaluation: ") {
                out.matches_centralized = v.parse().ok();
            }
            continue;
        }
        match parse_fact(line, relations) {
            Some(f) => current.push(f),
            None => {
                let shown: String = line.chars().take(60).collect();
                return Err(format!("line {} is not an output fact: {shown:?}", no + 1));
            }
        }
    }
    out.sections.push(current);
    for s in &mut out.sections {
        s.sort_unstable();
    }
    Ok(out)
}

/// The first fact (in sorted order) that one sorted set has and the
/// other lacks, with the side that lacks it.
fn first_difference(expected: &[Fact], got: &[Fact]) -> Option<(Fact, &'static str)> {
    let (mut i, mut j) = (0, 0);
    while i < expected.len() && j < got.len() {
        match expected[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => return Some((expected[i], "missing from the output")),
            std::cmp::Ordering::Greater => return Some((got[j], "not in the reference")),
        }
    }
    if i < expected.len() {
        return Some((expected[i], "missing from the output"));
    }
    got.get(j).map(|&f| (f, "not in the reference"))
}

/// Compare an output file's text with the reference as
/// order-insensitive sets, section by section.
///
/// # Errors
/// Says what is wrong: an unparsable line, a missing verdict line, a
/// duplicate fact, a wrong section count, or the first differing fact.
pub fn check_output(text: &str, expected: &Expected) -> Result<(), String> {
    let parsed = parse_output(text, &expected.relations)?;
    if expected.simulate {
        if parsed.quiescent != Some(true) {
            return Err("no '% quiescent: true' line".to_string());
        }
        if parsed.matches_centralized != Some(true) {
            return Err("no '% matches centralized evaluation: true' line".to_string());
        }
    }
    if parsed.sections.len() != expected.sections.len() {
        return Err(format!(
            "{} output sections, expected {}",
            parsed.sections.len(),
            expected.sections.len()
        ));
    }
    for (k, (want, got)) in expected.sections.iter().zip(&parsed.sections).enumerate() {
        if let Some(w) = got.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "section {k}: fact {} printed twice",
                expected.render_fact(w[0])
            ));
        }
        if let Some((f, side)) = first_difference(want, got) {
            return Err(format!(
                "section {k}: first differing fact {} is {side} ({} facts, expected {})",
                expected.render_fact(f),
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC_RELS: &[(&str, usize)] = &[("T", 2)];

    #[test]
    fn closure_of_a_path_and_a_cycle() {
        // 0 -> 1 -> 2, and 3 <-> 4.
        let edges = [(0, 1), (1, 2), (3, 4), (4, 3)];
        let tc = transitive_closure(5, &edges);
        assert_eq!(
            tc,
            vec![(0, 1), (0, 2), (1, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
        );
        assert_eq!(closure_minus_edges(5, &edges), vec![(0, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn wide_relations() {
        let (o, s) = asymmetric_and_symmetric(&[(1, 2), (2, 1), (2, 3), (4, 1)]);
        assert_eq!(o, vec![(2, 3), (4, 1)]);
        assert_eq!(s, vec![1, 2]);
    }

    fn expected_tc() -> Expected {
        Expected {
            relations: TC_RELS.to_vec(),
            sections: vec![facts_of(0, &[(1, 2), (1, 3), (2, 3)])],
            simulate: false,
        }
    }

    #[test]
    fn output_order_does_not_matter() {
        assert_eq!(
            check_output("T(2,3).\nT(1,3).\nT(1,2).\n", &expected_tc()),
            Ok(())
        );
    }

    #[test]
    fn corrupted_outputs_are_failures_that_name_the_fact() {
        let e = expected_tc();
        let missing = check_output("T(1,2).\nT(2,3).\n", &e).unwrap_err();
        assert!(missing.contains("T(1,3) is missing"), "{missing}");
        let extra = check_output("T(1,2).\nT(1,3).\nT(2,3).\nT(9,9).\n", &e).unwrap_err();
        assert!(extra.contains("T(9,9) is not in the reference"), "{extra}");
        let twice = check_output("T(1,2).\nT(1,2).\nT(1,3).\nT(2,3).\n", &e).unwrap_err();
        assert!(twice.contains("printed twice"), "{twice}");
        let torn = check_output("T(1,2).\nT(1,", &e).unwrap_err();
        assert!(torn.contains("line 2"), "{torn}");
        assert!(check_output("T(1,2).\nT(+1,3).\nT(2,3).\n", &e).is_err());
        assert!(check_output("", &e).is_err());
    }

    #[test]
    fn simulate_needs_both_verdict_lines() {
        let mut e = expected_tc();
        e.simulate = true;
        let facts = "T(1,2).\nT(1,3).\nT(2,3).\n";
        let good = format!(
            "% engine: process, procs: 2\n% quiescent: true\n% matches centralized evaluation: true\n{facts}"
        );
        assert_eq!(check_output(&good, &e), Ok(()));
        let unquiet = good.replace("quiescent: true", "quiescent: false");
        assert!(check_output(&unquiet, &e)
            .unwrap_err()
            .contains("quiescent"));
        assert!(check_output(facts, &e).is_err());
    }

    #[test]
    fn update_outputs_are_split_into_sections() {
        let e = Expected {
            relations: TC_RELS.to_vec(),
            sections: vec![
                facts_of(0, &[(1, 2)]),
                facts_of(0, &[(1, 2), (2, 3), (1, 3)]),
            ],
            simulate: false,
        };
        let mut e = e;
        e.sections[1].sort_unstable();
        let text = "% initial\nT(1,2).\n% after batch 1\nT(1,2).\nT(1,3).\nT(2,3).\n";
        assert_eq!(check_output(text, &e), Ok(()));
        let short = "% initial\nT(1,2).\n";
        assert!(check_output(short, &e).unwrap_err().contains("sections"));
    }
}
