//! A walk through Examples 4.1 and 4.2 of the paper: distribution
//! policies, domain guidance, and the system facts a node sees.
//!
//! Matching the paper exactly, the two nodes are the *integer values*
//! 1 and 2 — node identifiers are ordinary domain values and may occur
//! in the data.
//!
//! ```sh
//! cargo run --example policies
//! ```

use calm::common::{fact, v, Instance, Schema, Value};
use calm::prelude::{Network, SystemConfig};
use calm::spec::{system_facts, ParityDomainGuidedPolicy, ParityFirstAttributePolicy};
use calm::transducer::{distribute, DistributionPolicy};

fn show(label: &str, dist: &std::collections::BTreeMap<Value, Instance>) {
    println!("{label}:");
    for (node, insts) in dist {
        println!("  node {node} -> {insts:?}");
    }
}

fn main() {
    // Example 4.1: N = {1, 2}, schema {E(2)},
    // I = {E(1,3), E(3,4), E(4,6)}.
    let net = Network::from_nodes([v(1), v(2)]);
    let input = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4]), fact("E", [4, 6])]);
    println!("input I = {input:?}\n");

    // P1: partition on the parity of the first attribute (odd -> node 1).
    let p1 = ParityFirstAttributePolicy::new(net.clone());
    let d1 = distribute(&p1, &input);
    show("dist_P1(I) — odd/even first attribute", &d1);
    assert_eq!(d1[&v(1)].len(), 2);
    assert_eq!(d1[&v(2)].len(), 1);
    // The paper's observation: P1 is not domain-guided, witnessed by
    // value 4 — no node holds all facts containing 4.
    let value4_complete = d1
        .values()
        .any(|i| i.contains(&fact("E", [3, 4])) && i.contains(&fact("E", [4, 6])));
    println!(
        "some node holds all facts containing 4? {value4_complete} (=> P1 not domain-guided)\n"
    );
    assert!(!value4_complete);

    // P2: the domain-guided policy from the same example — odd values
    // assigned to node 1, even values to node 2; facts replicate to all
    // owners of their values.
    let p2 = ParityDomainGuidedPolicy::new(net.clone());
    let d2 = distribute(&p2, &input);
    show("dist_P2(I) — domain-guided by value parity", &d2);
    assert!(p2.is_domain_guided());
    // Exactly the paper's dist_P2(I): node 1 -> {E(1,3), E(3,4)},
    // node 2 -> {E(3,4), E(4,6)} (E(3,4) replicated).
    assert_eq!(
        d2[&v(1)],
        Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4])])
    );
    assert_eq!(
        d2[&v(2)],
        Instance::from_facts([fact("E", [3, 4]), fact("E", [4, 6])])
    );
    println!();

    // Example 4.2: the system facts node 1 sees under P1. Its visible
    // facts J are its local input; A = N ∪ adom(J) = {1, 2, 3, 4}.
    let schema = Schema::from_pairs([("E", 2)]);
    let node1 = v(1);
    let j = d1[&node1].clone();
    let s = system_facts(&node1, &net, &schema, &p1, SystemConfig::POLICY_AWARE, &j);
    println!("system facts at node 1 (policy-aware model):");
    println!("  Id:      {:?}", s.tuples("Id").collect::<Vec<_>>());
    println!("  All:     {:?}", s.tuples("All").collect::<Vec<_>>());
    println!("  MyAdom:  {:?}", s.tuples("MyAdom").collect::<Vec<_>>());
    println!("  policy_E: {} facts", s.relation_len("policy_E"));
    // Exactly the paper's enumeration: MyAdom(a) for a ∈ {1,2,3,4} and
    // policy_E(a,b) with a ∈ {1,3} (odd values of A) and b ∈ {1,2,3,4}.
    assert_eq!(s.relation_len("MyAdom"), 4);
    assert_eq!(s.relation_len("policy_E"), 8);
    for a in [1i64, 3] {
        for b in [1i64, 2, 3, 4] {
            assert!(s.contains_tuple("policy_E", &[v(a), v(b)]));
        }
    }

    // The paper's remark: node 1 can deduce that E(3,2) is globally
    // absent — it is responsible for it (policy_E(3,2) visible) yet does
    // not have it locally.
    let responsible_but_absent =
        s.contains_tuple("policy_E", &[v(3), v(2)]) && !j.contains(&fact("E", [3, 2]));
    println!("\nnode 1 deduces absence of E(3,2)? {responsible_but_absent}");
    assert!(responsible_but_absent);

    // After node 1 learns value 6 (e.g. via a message), MyAdom grows and
    // so does the visible policy slice — Example 4.2's closing remark.
    let mut j_with_6 = j.clone();
    j_with_6.insert(fact("E", [4, 6]));
    let s2 = system_facts(
        &node1,
        &net,
        &schema,
        &p1,
        SystemConfig::POLICY_AWARE,
        &j_with_6,
    );
    assert!(s2.contains_tuple("MyAdom", &[v(6)]));
    assert!(s2.contains_tuple("policy_E", &[v(3), v(6)]));
    println!("after learning 6: MyAdom(6) and policy_E(3,6) visible ✓");
}
