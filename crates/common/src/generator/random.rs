//! Seeded random instance generators (reproducible across runs).

use crate::fact::fact;
use crate::instance::Instance;
use crate::rng::Rng;
use crate::value::{v, Value};

/// A seeded random generator for instances. Thin wrapper over
/// [`crate::rng::Rng`] so that every experiment records a single `u64` seed.
#[derive(Debug)]
pub struct InstanceRng {
    rng: Rng,
}

impl InstanceRng {
    /// Create a generator from a seed.
    pub fn seeded(seed: u64) -> Self {
        InstanceRng {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// G(n, p): directed graph over vertices `0..n`, each ordered pair
    /// `(a, b)` with `a != b` kept with probability `p`.
    pub fn gnp(&mut self, n: usize, p: f64) -> Instance {
        let mut i = Instance::new();
        for a in 0..n as i64 {
            for b in 0..n as i64 {
                if a != b && self.rng.gen_bool(p) {
                    i.insert(fact("E", [a, b]));
                }
            }
        }
        i
    }

    /// A directed graph over `0..n` with exactly `m` distinct non-loop
    /// edges (requires `m <= n*(n-1)`).
    pub fn gnm(&mut self, n: usize, m: usize) -> Instance {
        let n = n as i64;
        let mut pairs: Vec<(i64, i64)> = (0..n)
            .flat_map(|a| (0..n).filter_map(move |b| (a != b).then_some((a, b))))
            .collect();
        assert!(m <= pairs.len(), "requested more edges than pairs exist");
        self.rng.shuffle(&mut pairs);
        Instance::from_facts(pairs.into_iter().take(m).map(|(a, b)| fact("E", [a, b])))
    }

    /// A random move-graph for win-move games: vertices `0..n`, out-degree
    /// of each vertex uniform in `0..=max_out`, no self-loops.
    pub fn move_graph(&mut self, n: usize, max_out: usize) -> Instance {
        let mut i = Instance::new();
        let n = n as i64;
        for a in 0..n {
            let d = self.rng.gen_range(0..=max_out);
            for _ in 0..d {
                let b = self.rng.gen_range(0..n);
                if a != b {
                    i.insert(fact("move", [a, b]));
                }
            }
        }
        i
    }

    /// A random instance over an arbitrary schema: for each relation, `per`
    /// tuples with values drawn from `0..universe`.
    pub fn random_instance(
        &mut self,
        schema: &crate::schema::Schema,
        per: usize,
        universe: i64,
    ) -> Instance {
        let mut i = Instance::new();
        for (name, arity) in schema.iter() {
            for _ in 0..per {
                let tuple: Vec<Value> = (0..arity)
                    .map(|_| v(self.rng.gen_range(0..universe)))
                    .collect();
                i.insert_tuple(name, tuple);
            }
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    #[test]
    fn seeded_is_reproducible() {
        let a = InstanceRng::seeded(42).gnp(10, 0.3);
        let b = InstanceRng::seeded(42).gnp(10, 0.3);
        assert_eq!(a, b);
        let c = InstanceRng::seeded(43).gnp(10, 0.3);
        assert_ne!(a, c, "different seeds should (almost surely) differ");
    }

    #[test]
    fn gnm_has_exact_edge_count() {
        let g = InstanceRng::seeded(1).gnm(8, 20);
        assert_eq!(g.len(), 20);
        // No loops.
        for f in g.facts() {
            assert_ne!(f.args()[0], f.args()[1]);
        }
    }

    #[test]
    fn gnp_bounds() {
        let empty = InstanceRng::seeded(7).gnp(6, 0.0);
        assert!(empty.is_empty());
        let full = InstanceRng::seeded(7).gnp(6, 1.0);
        assert_eq!(full.len(), 6 * 5);
    }

    #[test]
    fn move_graph_over_move_relation() {
        let g = InstanceRng::seeded(5).move_graph(10, 3);
        for f in g.facts() {
            assert_eq!(f.relation().as_ref(), "move");
            assert_ne!(f.args()[0], f.args()[1]);
        }
    }

    #[test]
    fn random_instance_obeys_schema() {
        let s = Schema::from_pairs([("R", 3), ("S", 1)]);
        let i = InstanceRng::seeded(9).random_instance(&s, 5, 4);
        for f in i.facts() {
            assert_eq!(s.arity(f.relation()), Some(f.arity()));
        }
        assert!(i.relation_len("R") <= 5);
        assert!(i.relation_len("R") >= 1);
    }
}
