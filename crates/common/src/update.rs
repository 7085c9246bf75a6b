//! Update batches: signed fact-level deltas applied to a maintained
//! evaluation.
//!
//! An [`UpdateBatch`] is the unit of mutation for incremental view
//! maintenance: a set of facts to insert and a set to delete, applied
//! atomically between evaluations. Batches are value-level (facts over
//! [`crate::value::Value`]) — interning into the storage substrate
//! happens at the evaluation edge, exactly like instance loading.

use crate::fact::Fact;
use crate::instance::Instance;

/// A signed batch of fact-level changes: insertions and deletions
/// applied together. Deleting a fact that is absent, or inserting one
/// that is present, is a no-op (set semantics); a fact appearing in
/// both sets is inserted (deletions apply first, so insert wins — the
/// batch is "delete then insert").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Facts to insert.
    pub insert: Vec<Fact>,
    /// Facts to delete.
    pub delete: Vec<Fact>,
}

impl UpdateBatch {
    /// A batch that only inserts.
    pub fn inserting(facts: impl IntoIterator<Item = Fact>) -> Self {
        UpdateBatch {
            insert: facts.into_iter().collect(),
            delete: Vec::new(),
        }
    }

    /// A batch that only deletes.
    pub fn deleting(facts: impl IntoIterator<Item = Fact>) -> Self {
        UpdateBatch {
            insert: Vec::new(),
            delete: facts.into_iter().collect(),
        }
    }

    /// Add an insertion (builder style).
    #[must_use]
    pub fn with_insert(mut self, f: Fact) -> Self {
        self.insert.push(f);
        self
    }

    /// Add a deletion (builder style).
    #[must_use]
    pub fn with_delete(mut self, f: Fact) -> Self {
        self.delete.push(f);
        self
    }

    /// Whether the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Apply the batch to a plain [`Instance`]: deletions first, then
    /// insertions — the reference semantics every incremental engine is
    /// checked against (evaluate from scratch over the updated
    /// instance).
    pub fn apply_to_instance(&self, instance: &mut Instance) {
        for f in &self.delete {
            instance.remove(f);
        }
        for f in &self.insert {
            instance.insert(f.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::fact;

    #[test]
    fn apply_deletes_then_inserts() {
        let mut i = Instance::from_facts([fact("E", [1, 2]), fact("E", [2, 3])]);
        let b = UpdateBatch::deleting([fact("E", [2, 3]), fact("E", [9, 9])])
            .with_insert(fact("E", [3, 4]));
        b.apply_to_instance(&mut i);
        assert_eq!(
            i,
            Instance::from_facts([fact("E", [1, 2]), fact("E", [3, 4])])
        );
        assert!(!b.is_empty());
        assert!(UpdateBatch::default().is_empty());
    }

    #[test]
    fn insert_wins_over_delete_in_one_batch() {
        let mut i = Instance::from_facts([fact("E", [1, 2])]);
        let b = UpdateBatch::deleting([fact("E", [1, 2])]).with_insert(fact("E", [1, 2]));
        b.apply_to_instance(&mut i);
        assert!(i.contains(&fact("E", [1, 2])));
    }
}
