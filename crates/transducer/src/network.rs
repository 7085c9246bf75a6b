//! Networks: nonempty finite sets of nodes, where nodes are ordinary
//! domain values (Section 4.1.1).

use calm_common::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A node identifier — any domain value (the paper: "node identifiers can
/// occur as data in relations").
pub type NodeId = Value;

/// A network `N`: a nonempty finite set of values from **dom**.
#[derive(Clone, PartialEq, Eq)]
pub struct Network {
    nodes: BTreeSet<NodeId>,
}

impl Network {
    /// Build a network from explicit node values. Panics when empty.
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let nodes: BTreeSet<NodeId> = nodes.into_iter().collect();
        assert!(!nodes.is_empty(), "networks are nonempty");
        Network { nodes }
    }

    /// A network of `n` nodes named `n1 ... n<n>` (string values, so they
    /// do not collide with the integer data used by the experiments).
    pub fn of_size(n: usize) -> Self {
        assert!(n >= 1);
        Network::from_nodes((1..=n).map(|k| Value::str(format!("n{k}"))))
    }

    /// The nodes, in deterministic order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeId> + '_ {
        self.nodes.iter()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Networks are nonempty; this always returns `false` (provided for
    /// API symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether a value names a node of this network.
    pub fn contains(&self, node: &NodeId) -> bool {
        self.nodes.contains(node)
    }

    /// The first node in deterministic order.
    pub fn first(&self) -> &NodeId {
        self.nodes.iter().next().expect("nonempty")
    }

    /// The node a hashable item falls to: its `DefaultHasher` hash
    /// modulo `|N|`, as an index in deterministic order. The hash
    /// policies share it, so that asking for a fact's owner and asking
    /// whether a node is the owner cannot disagree.
    pub(crate) fn hashed(&self, item: &impl std::hash::Hash) -> &NodeId {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        item.hash(&mut h);
        let idx = (h.finish() as usize) % self.nodes.len();
        self.nodes.iter().nth(idx).expect("index in range")
    }

    /// All nodes except `x`, in deterministic order.
    pub fn others<'a>(&'a self, x: &'a NodeId) -> impl Iterator<Item = &'a NodeId> + 'a {
        self.nodes.iter().filter(move |n| *n != x)
    }
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Network{:?}", self.nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_size_builds_named_nodes() {
        let n = Network::of_size(3);
        assert_eq!(n.len(), 3);
        assert!(n.contains(&Value::str("n1")));
        assert!(n.contains(&Value::str("n3")));
        assert!(!n.contains(&Value::str("n4")));
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_network_rejected() {
        let _ = Network::from_nodes(std::iter::empty());
    }

    #[test]
    fn others_excludes_self() {
        let n = Network::of_size(3);
        let x = Value::str("n2");
        let others: Vec<_> = n.others(&x).cloned().collect();
        assert_eq!(others, vec![Value::str("n1"), Value::str("n3")]);
    }

    #[test]
    fn single_node_network() {
        let n = Network::of_size(1);
        assert_eq!(n.len(), 1);
        assert_eq!(n.others(n.first()).count(), 0);
    }
}
