//! Experiment E7: Examples 4.1 and 4.2 — distribution policies, domain
//! guidance, and the system-fact view of a node.

use crate::report::{markdown_table, Report};
use calm_common::value::v;
use calm_common::{fact, Instance, Schema};
use calm_spec::{system_facts, ParityDomainGuidedPolicy, ParityFirstAttributePolicy};
use calm_transducer::{distribute, DistributionPolicy, Network, SystemConfig};

/// E7: reproduce the distributions and system facts of Examples 4.1/4.2.
pub fn e7_policies() -> Report {
    let mut r = Report::new(
        "E7",
        "Examples 4.1 & 4.2 — policies, domain guidance, system facts",
    );
    let net = Network::from_nodes([v(1), v(2)]);
    let input = Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4]), fact("E", [4, 6])]);

    // P1 partitions on first-attribute parity.
    let p1 = ParityFirstAttributePolicy::new(net.clone());
    let d1 = distribute(&p1, &input);
    let p1_ok = d1[&v(1)] == Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4])])
        && d1[&v(2)] == Instance::from_facts([fact("E", [4, 6])]);
    r.claim(
        "dist_P1(I) = {1 ↦ {E(1,3),E(3,4)}, 2 ↦ {E(4,6)}}",
        "exact match",
        p1_ok,
    );
    let no_owner_of_4 = !d1
        .values()
        .any(|i| i.contains(&fact("E", [3, 4])) && i.contains(&fact("E", [4, 6])));
    r.claim(
        "P1 not domain-guided (no node holds all facts containing 4)",
        "verified on the paper's witness input",
        no_owner_of_4,
    );

    // P2 is domain-guided and replicates E(3,4).
    let p2 = ParityDomainGuidedPolicy::new(net.clone());
    let d2 = distribute(&p2, &input);
    let p2_ok = d2[&v(1)] == Instance::from_facts([fact("E", [1, 3]), fact("E", [3, 4])])
        && d2[&v(2)] == Instance::from_facts([fact("E", [3, 4]), fact("E", [4, 6])]);
    r.claim(
        "dist_P2(I) = {1 ↦ {E(1,3),E(3,4)}, 2 ↦ {E(3,4),E(4,6)}}",
        "exact match (E(3,4) replicated)",
        p2_ok && p2.is_domain_guided(),
    );

    // Example 4.2: node 1's system facts under P1.
    let schema = Schema::from_pairs([("E", 2)]);
    let s = system_facts(
        &v(1),
        &net,
        &schema,
        &p1,
        SystemConfig::POLICY_AWARE,
        &d1[&v(1)],
    );
    let myadom_ok = s.relation_len("MyAdom") == 4
        && [1i64, 2, 3, 4]
            .iter()
            .all(|&a| s.contains_tuple("MyAdom", &[v(a)]));
    let policy_ok = s.relation_len("policy_E") == 8
        && [1i64, 3].iter().all(|&a| {
            [1i64, 2, 3, 4]
                .iter()
                .all(|&b| s.contains_tuple("policy_E", &[v(a), v(b)]))
        });
    r.claim(
        "node 1 sees Id(1), All(1), All(2), MyAdom{1,2,3,4}, policy_E(a,b) a∈{1,3}",
        "8 policy facts, 4 MyAdom facts",
        myadom_ok && policy_ok && s.contains_tuple("Id", &[v(1)]) && s.relation_len("All") == 2,
    );
    r.claim(
        "node 1 deduces E(3,2) globally absent",
        "policy_E(3,2) visible, E(3,2) not local",
        s.contains_tuple("policy_E", &[v(3), v(2)]) && !d1[&v(1)].contains(&fact("E", [3, 2])),
    );

    // After learning value 6, MyAdom and the policy slice grow.
    let mut j6 = d1[&v(1)].clone();
    j6.insert(fact("E", [4, 6]));
    let s2 = system_facts(&v(1), &net, &schema, &p1, SystemConfig::POLICY_AWARE, &j6);
    r.claim(
        "after receiving 6: MyAdom(6) and policy_E(3,6) appear",
        "Example 4.2's closing remark",
        s2.contains_tuple("MyAdom", &[v(6)]) && s2.contains_tuple("policy_E", &[v(3), v(6)]),
    );

    let mut rows = Vec::new();
    for (node, inst) in &d1 {
        rows.push(vec![format!("P1: node {node}"), format!("{inst:?}")]);
    }
    for (node, inst) in &d2 {
        rows.push(vec![format!("P2: node {node}"), format!("{inst:?}")]);
    }
    r.table(markdown_table(&["placement", "local fragment"], &rows));
    r
}
