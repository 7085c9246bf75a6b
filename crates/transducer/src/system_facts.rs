//! The enumerations behind the system facts `S` of a transition
//! (Section 4.1.3): for active node `x` with visible facts `J`,
//!
//! * `A = N ∪ adom(J)` (or `{x} ∪ adom(J)` when `All` is removed, §4.3);
//! * `S = {Id(x)} ∪ {All(y) | y ∈ N} ∪ {MyAdom(a) | a ∈ A}
//!        ∪ {policy_R(ā) | ā ⊆ A, x ∈ P(R(ā))}`,
//!   with each part present only when the [`crate::SystemConfig`]
//!   enables it.
//!
//! Restricting `policy_R` to tuples over `A` is the paper's safety
//! restriction: a node only sees the policy over values it already knows.
//! A [`crate::NodeEngine`] extends `S` by the tuples a grown `A` adds
//! (`for_each_new_tuple`); `calm-spec`'s `system_facts` computes it
//! from scratch.

use calm_common::value::Value;

/// The largest input-relation arity the policy-aware models run with:
/// the `policy_R` candidates are the `|A|^k` tuples over the known
/// values. A tractability limit, not a property of the model (all the
/// paper's schemas are binary) — a front end checks it before a node
/// steps; the `assert!`s are the library's own guard.
pub const POLICY_ARITY_CAP: usize = 4;

/// All tuples of the given arity over a value slice (odometer order).
pub fn tuples_over(values: &[Value], arity: usize) -> Vec<Vec<Value>> {
    let mut out = Vec::with_capacity(values.len().pow(arity as u32));
    for_each_new_tuple(&[], values, arity, |t| out.push(t.to_vec()));
    out
}

/// Call `f` on every tuple of the given arity over `old ∪ new` that
/// holds at least one value of `new` — the `|A'|^k − |A|^k` tuples a
/// grown value set adds to [`tuples_over`] (all of them, from an empty
/// `old`). `old` and `new` must be disjoint; each tuple is visited once
/// (grouped by the first position that holds a new value). Generic in
/// the value: the specification enumerates [`Value`]s, a running node
/// and its program interned symbols.
pub(crate) fn for_each_new_tuple<T: Clone>(
    old: &[T],
    new: &[T],
    arity: usize,
    mut f: impl FnMut(&[T]),
) {
    if new.is_empty() || arity == 0 {
        return;
    }
    let all: Vec<T> = old.iter().chain(new).cloned().collect();
    for first_new in 0..arity {
        let pool = |pos: usize| match pos.cmp(&first_new) {
            std::cmp::Ordering::Less => old,
            std::cmp::Ordering::Equal => new,
            std::cmp::Ordering::Greater => &all[..],
        };
        if first_new > 0 && old.is_empty() {
            break;
        }
        let mut idx = vec![0usize; arity];
        let mut tuple: Vec<T> = (0..arity).map(|pos| pool(pos)[0].clone()).collect();
        'odometer: loop {
            f(&tuple);
            for pos in 0..arity {
                idx[pos] += 1;
                if idx[pos] < pool(pos).len() {
                    tuple[pos] = pool(pos)[idx[pos]].clone();
                    continue 'odometer;
                }
                idx[pos] = 0;
                tuple[pos] = pool(pos)[0].clone();
            }
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuples_over_counts() {
        let vals = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(tuples_over(&vals, 1).len(), 3);
        assert_eq!(tuples_over(&vals, 2).len(), 9);
        assert_eq!(tuples_over(&[], 2).len(), 0);
    }

    #[test]
    fn new_tuples_are_exactly_the_difference() {
        let vals: Vec<Value> = (0..5).map(Value::Int).collect();
        for arity in 1..=3 {
            for split in 0..=vals.len() {
                let (old, new) = vals.split_at(split);
                let mut seen = Vec::new();
                for_each_new_tuple(old, new, arity, |t| seen.push(t.to_vec()));
                let mut want = tuples_over(&vals, arity);
                want.retain(|t| t.iter().any(|v| new.contains(v)));
                assert_eq!(
                    seen.len(),
                    want.len(),
                    "arity {arity}, {split} old: no repeats"
                );
                seen.sort();
                want.sort();
                assert_eq!(seen, want, "arity {arity}, {split} old");
            }
        }
    }
}
