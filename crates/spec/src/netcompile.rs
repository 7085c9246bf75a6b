//! Compiling positive Datalog(≠) into a *declarative networking* program:
//! a pure-Datalog transducer whose network execution computes the query
//! coordination-free (the constructive content of CALM's easy direction,
//! and the style of program Hellerstein's conjectures are about).
//!
//! Given a positive program `P` with `edb R1..Rk` and outputs `O ⊆ idb`:
//!
//! * every node broadcasts its (collected) input facts: `m_R(x̄) ← R(x̄)`,
//!   `m_R(x̄) ← c_R(x̄)`; stores everything it sees: `c_R(x̄) ← R(x̄)`,
//!   `c_R(x̄) ← m_R(x̄)`;
//! * each rule of `P` is rewritten over the collected/derived relations
//!   (`R ↦ c_R` for edb, `T ↦ t_T` for idb) and derives into memory —
//!   one immediate-consequence round **per transition**, so the fixpoint
//!   unfolds across heartbeats of the run rather than inside one
//!   transition;
//! * output rules copy `t_T` into `out_T`.
//!
//! Because every derived fact is monotone in the collected input, the
//! network output converges to `Q(I)` on every fair run and any policy.

use crate::datalog_transducer::DatalogTransducer;
use calm_common::schema::Schema;
use calm_datalog::ast::{Atom, Rule};
use calm_datalog::program::Program;
use calm_transducer::strategy::{coll_rel, msg_rel, out_rel};
use calm_transducer::TransducerSchema;

/// Errors from the network compiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetCompileError {
    /// The program is not positive — the broadcast strategy is only
    /// correct for monotone queries, and negation breaks monotonicity.
    NotPositive(String),
}

impl std::fmt::Display for NetCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetCompileError::NotPositive(r) => {
                write!(
                    f,
                    "only positive Datalog(≠) compiles to the broadcast network: {r}"
                )
            }
        }
    }
}

impl std::error::Error for NetCompileError {}

fn derived(r: &str) -> String {
    format!("t_{r}")
}

/// Compile a positive Datalog(≠) program into a broadcast transducer.
///
/// # Errors
/// Returns [`NetCompileError::NotPositive`] when any rule has negation.
pub fn compile_monotone_program(
    name: impl Into<String>,
    p: &Program,
) -> Result<DatalogTransducer, NetCompileError> {
    for rule in p.rules() {
        if !rule.is_positive() {
            return Err(NetCompileError::NotPositive(rule.to_string()));
        }
    }
    let edb = p.edb();
    let idb = p.idb();

    let mut msg = Schema::new();
    let mut mem = Schema::new();
    let mut out = Schema::new();
    for (r, a) in edb.iter() {
        msg.add(&msg_rel(r), a);
        mem.add(&coll_rel(r), a);
    }
    for (t, a) in idb.iter() {
        mem.add(&derived(t), a);
    }
    for o in p.outputs() {
        let a = idb.arity(o).expect("outputs are idb");
        out.add(&out_rel(o), a);
    }
    let schema = TransducerSchema::new(edb.clone(), out, msg, mem);

    let mut rules: Vec<Rule> = Vec::new();
    // Gossip layer.
    for (r, arity) in edb.iter() {
        let vars: Vec<&str> = (0..arity).map(|i| VAR_NAMES[i]).collect();
        let local = Atom::vars(r, &vars);
        let coll = Atom::vars(coll_rel(r), &vars);
        let m = Atom::vars(msg_rel(r), &vars);
        rules.push(Rule::positive(coll.clone(), vec![local.clone()]));
        rules.push(Rule::positive(coll.clone(), vec![m.clone()]));
        rules.push(Rule::positive(m.clone(), vec![local]));
        rules.push(Rule::positive(m, vec![coll]));
    }
    // Rewritten program rules.
    for rule in p.rules() {
        let rewrite = |a: &Atom| -> Atom {
            let name = a.relation.as_ref();
            if idb.contains(name) {
                Atom::new(derived(name), a.terms.clone())
            } else {
                Atom::new(coll_rel(name), a.terms.clone())
            }
        };
        rules.push(Rule {
            head: rewrite(&rule.head),
            pos: rule.pos.iter().map(&rewrite).collect(),
            neg: Vec::new(),
            ineq: rule.ineq.clone(),
        });
    }
    // Output copies.
    for o in p.outputs() {
        let arity = idb.arity(o).expect("outputs are idb");
        let vars: Vec<&str> = (0..arity).map(|i| VAR_NAMES[i]).collect();
        rules.push(Rule::positive(
            Atom::vars(out_rel(o), &vars),
            vec![Atom::vars(derived(o), &vars)],
        ));
    }
    let program = Program::new(rules).expect("generated rules are well-formed");
    Ok(DatalogTransducer::new(name, schema, program))
}

const VAR_NAMES: [&str; 8] = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::verify_computes;
    use calm_common::fact::Fact;
    use calm_common::generator::{cycle, path};
    use calm_common::instance::Instance;
    use calm_transducer::{
        run, DomainGuidedPolicy, HashPolicy, Network, Scheduler, SystemConfig, TransducerNetwork,
    };

    fn expected(p: &calm_datalog::Program, input: &Instance) -> Instance {
        let q = calm_datalog::DatalogQuery::new("expected", p.clone()).unwrap();
        let answer = calm_common::query::Query::eval(&q, input);
        Instance::from_facts(
            answer
                .facts()
                .map(|f| Fact::new(out_rel(f.relation()), f.args().to_vec())),
        )
    }

    #[test]
    fn compiled_tc_computes_on_networks() {
        let p =
            calm_datalog::parse_program("@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
                .unwrap();
        let t = compile_monotone_program("net-tc", &p).unwrap();
        for input in [path(4), cycle(4)] {
            let exp = expected(&p, &input);
            for n in [1, 2, 3] {
                let policy = HashPolicy::new(Network::of_size(n));
                let tn = TransducerNetwork {
                    transducer: &t,
                    policy: &policy,
                    config: SystemConfig::ORIGINAL,
                };
                verify_computes(
                    &tn,
                    &input,
                    &exp,
                    &[Scheduler::RoundRobin, Scheduler::random(4, 30)],
                    200_000,
                )
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            }
        }
    }

    #[test]
    fn fixpoint_unfolds_across_heartbeats() {
        // On a single node, each transition performs one immediate-
        // consequence round: a path of length 5 needs several heartbeats
        // before T(0,5) appears.
        let p =
            calm_datalog::parse_program("@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
                .unwrap();
        let t = compile_monotone_program("net-tc", &p).unwrap();
        let input = path(5);
        let exp = expected(&p, &input);
        let net = Network::of_size(1);
        let x = net.first().clone();
        let policy = DomainGuidedPolicy::all_to(net, x.clone());
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let beats = crate::coordination::heartbeat_witness(&tn, &input, &x, &exp, 20)
            .expect("fixpoint reached by heartbeats");
        assert!(
            beats >= 3,
            "recursion takes multiple transitions, got {beats}"
        );
    }

    #[test]
    fn inequalities_survive_compilation() {
        let p = calm_datalog::parse_program("@output O.\nO(x,y) :- E(x,y), x != y.").unwrap();
        let t = compile_monotone_program("net-neq", &p).unwrap();
        let mut input = path(2);
        input.insert(calm_common::fact::fact("E", [1, 1]));
        let exp = expected(&p, &input);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(r.quiescent);
        assert_eq!(r.output, exp);
    }

    #[test]
    fn negation_rejected() {
        let p = calm_datalog::parse_program("O(x,y) :- E(x,y), not E(y,x).").unwrap();
        assert!(matches!(
            compile_monotone_program("bad", &p),
            Err(NetCompileError::NotPositive(_))
        ));
    }

    #[test]
    fn multi_rule_multi_idb_program() {
        // Two idb layers: same-generation style.
        let p = calm_datalog::parse_program(
            "@output SG.\n\
             SG(x,y) :- Flat(x,y).\n\
             SG(x,y) :- Up(x,u), SG(u,w), Down(w,y).",
        )
        .unwrap();
        let t = compile_monotone_program("net-sg", &p).unwrap();
        let input = Instance::from_facts([
            calm_common::fact::fact("Flat", [2, 3]),
            calm_common::fact::fact("Up", [1, 2]),
            calm_common::fact::fact("Down", [3, 4]),
        ]);
        let exp = expected(&p, &input);
        assert!(exp.contains(&Fact::new(
            "out_SG",
            vec![calm_common::v(1), calm_common::v(4)]
        )));
        let policy = HashPolicy::new(Network::of_size(2));
        let tn = TransducerNetwork {
            transducer: &t,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r = run(&tn, &input, &Scheduler::RoundRobin, 100_000);
        assert!(r.quiescent);
        assert_eq!(r.output, exp);
    }

    #[test]
    fn matches_monotone_broadcast_strategy_output() {
        // The declarative compilation and the native MonotoneBroadcast
        // strategy compute the same thing (modulo relation naming).
        let p =
            calm_datalog::parse_program("@output T.\nT(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).")
                .unwrap();
        let compiled = compile_monotone_program("net-tc", &p).unwrap();
        let native = calm_transducer::MonotoneBroadcast::new(Box::new(
            calm_datalog::DatalogQuery::new("tc", p.clone()).unwrap(),
        ));
        let input = path(4);
        let policy = HashPolicy::new(Network::of_size(2));
        let tn1 = TransducerNetwork {
            transducer: &compiled,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let tn2 = TransducerNetwork {
            transducer: &native,
            policy: &policy,
            config: SystemConfig::ORIGINAL,
        };
        let r1 = run(&tn1, &input, &Scheduler::RoundRobin, 100_000);
        let r2 = run(&tn2, &input, &Scheduler::RoundRobin, 100_000);
        assert!(r1.quiescent && r2.quiescent);
        assert_eq!(r1.output, r2.output);
    }
}
