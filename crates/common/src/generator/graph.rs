//! Deterministic graph-shaped instances over the edge relation `E(2)`.

use crate::fact::fact;
use crate::instance::Instance;

/// The relation name used by all graph generators.
pub const EDGE: &str = "E";

/// An edge fact `E(a, b)`.
pub fn edge(a: i64, b: i64) -> crate::fact::Fact {
    fact(EDGE, [a, b])
}

/// A directed path `base -> base+1 -> ... -> base+n` (`n` edges).
pub fn path_from(base: i64, n: usize) -> Instance {
    Instance::from_facts((0..n as i64).map(|k| edge(base + k, base + k + 1)))
}

/// A directed path `0 -> 1 -> ... -> n` (`n` edges, `n+1` vertices).
pub fn path(n: usize) -> Instance {
    path_from(0, n)
}

/// A directed cycle on `n >= 1` vertices `0..n`.
pub fn cycle(n: usize) -> Instance {
    assert!(n >= 1, "cycle needs at least one vertex");
    let n = n as i64;
    Instance::from_facts((0..n).map(|k| edge(k, (k + 1) % n)))
}

/// A *clique* on `k` vertices `base..base+k` in the paper's undirected
/// sense: for every unordered pair `{a, b}` at least one of `E(a,b)`,
/// `E(b,a)` is present — we emit both directions so every edge-direction
/// convention sees the clique.
pub fn clique_from(base: i64, k: usize) -> Instance {
    let mut i = Instance::new();
    for a in 0..k as i64 {
        for b in 0..k as i64 {
            if a != b {
                i.insert(edge(base + a, base + b));
            }
        }
    }
    i
}

/// A *star* with `spokes` spokes: centre `base`, edges
/// `E(base, base+1) ... E(base, base+spokes)` (outgoing spokes).
pub fn star_from(base: i64, spokes: usize) -> Instance {
    Instance::from_facts((1..=spokes as i64).map(|k| edge(base, base + k)))
}

/// A star with centre `0` and the given number of spokes.
pub fn star(spokes: usize) -> Instance {
    star_from(0, spokes)
}

/// A directed triangle on `base`, `base+1`, `base+2`
/// (`E(a,b), E(b,c), E(c,a)`).
pub fn triangle_from(base: i64) -> Instance {
    Instance::from_facts([
        edge(base, base + 1),
        edge(base + 1, base + 2),
        edge(base + 2, base),
    ])
}

/// `count` pairwise domain-disjoint directed triangles starting at `base`.
pub fn disjoint_triangles(base: i64, count: usize) -> Instance {
    let mut i = Instance::new();
    for t in 0..count as i64 {
        i.extend(triangle_from(base + 3 * t).facts());
    }
    i
}

/// A 2-D grid graph with `rows x cols` vertices, edges going right and
/// down. Vertex `(r, c)` is encoded as `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Instance {
    let mut i = Instance::new();
    let (rows, cols) = (rows as i64, cols as i64);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                i.insert(edge(id, id + 1));
            }
            if r + 1 < rows {
                i.insert(edge(id, id + cols));
            }
        }
    }
    i
}

/// `count` pairwise disjoint edges starting at `base`:
/// `E(base, base+1), E(base+2, base+3), ...`.
pub fn disjoint_edges(base: i64, count: usize) -> Instance {
    Instance::from_facts((0..count as i64).map(|k| edge(base + 2 * k, base + 2 * k + 1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_shape() {
        let p = path(3);
        assert_eq!(p.len(), 3);
        assert!(p.contains(&edge(0, 1)));
        assert!(p.contains(&edge(2, 3)));
        assert_eq!(p.adom(), (0..=3).map(crate::value::v).collect());
    }

    #[test]
    fn cycle_wraps() {
        let c = cycle(4);
        assert_eq!(c.len(), 4);
        assert!(c.contains(&edge(3, 0)));
        let single = cycle(1);
        assert!(single.contains(&edge(0, 0)));
    }

    #[test]
    fn clique_edge_count() {
        // k*(k-1) directed edges.
        for k in 1..=5 {
            assert_eq!(clique_from(0, k).len(), k * k.saturating_sub(1));
        }
        assert!(clique_from(0, 3).contains(&edge(2, 1)));
    }

    #[test]
    fn star_shape() {
        let s = star(4);
        assert_eq!(s.len(), 4);
        for k in 1..=4 {
            assert!(s.contains(&edge(0, k)));
        }
    }

    #[test]
    fn disjoint_triangles_are_disjoint() {
        let t = disjoint_triangles(0, 3);
        assert_eq!(t.len(), 9);
        assert_eq!(crate::component::components(&t).len(), 3);
    }

    #[test]
    fn grid_edges() {
        let g = grid(2, 3);
        // rights: 2*(3-1)=4, downs: (2-1)*3=3.
        assert_eq!(g.len(), 7);
        assert!(g.contains(&edge(0, 1)));
        assert!(g.contains(&edge(0, 3)));
    }

    #[test]
    fn disjoint_edges_disjoint() {
        let d = disjoint_edges(10, 3);
        assert_eq!(d.len(), 3);
        assert_eq!(crate::component::components(&d).len(), 3);
        assert!(d.contains(&edge(14, 15)));
    }
}
