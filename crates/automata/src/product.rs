//! Product (intersection) constructions between automata.
//!
//! The traces technique repeatedly intersects the query-side language
//! `Tr(P)` with the schema-side language `Tr(S)`. The two sides use
//! different symbolic atom types (patterns use wildcards, schemas use
//! concrete `label→Tid` pairs), so the product takes a *combiner* that
//! intersects two atoms into an atom of the output alphabet — returning
//! `None` when the intersection is empty.

use std::collections::HashMap;
use std::collections::VecDeque;

use ssd_base::budget::{Budget, BudgetResult};
use ssd_obs::{names, Recorder};

use crate::nfa::{Nfa, StateId};

/// Builds the product automaton of `left` and `right`, restricted to the
/// pairs of states reachable from `(start, start)`. A product transition
/// exists for each pair of transitions whose atoms combine via `combine`.
///
/// `L(product) = { w | w matches an atom-combined path }`; when `combine`
/// implements atom intersection, this is language intersection.
pub fn product<A, B, C>(
    left: &Nfa<A>,
    right: &Nfa<B>,
    combine: impl FnMut(&A, &B) -> Option<C>,
) -> Nfa<C> {
    product_b(
        left,
        right,
        combine,
        ssd_obs::noop(),
        Budget::unlimited_ref(),
    )
    .expect("unlimited budget never trips")
}

/// [`product`] under a [`Budget`], reporting to `rec`: one fuel unit per
/// product state popped from the worklist, with the retained-bytes
/// estimate covering the materialized pairs and edges. The construction
/// runs in a `product` span and reports how many product states were
/// materialized.
pub fn product_b<A, B, C>(
    left: &Nfa<A>,
    right: &Nfa<B>,
    mut combine: impl FnMut(&A, &B) -> Option<C>,
    rec: &dyn Recorder,
    budget: &Budget,
) -> BudgetResult<Nfa<C>> {
    let _span = ssd_obs::span(rec, names::span::PRODUCT);
    let mut meter = budget.meter("product");
    let pair_bytes = 3 * std::mem::size_of::<(StateId, StateId)>() + 64;
    let edge_bytes = std::mem::size_of::<(StateId, StateId)>() + std::mem::size_of::<C>();
    let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
    let mut pairs: Vec<(StateId, StateId)> = Vec::new();
    let mut queue = VecDeque::new();

    let start = (left.start(), right.start());
    index.insert(start, 0);
    pairs.push(start);
    queue.push_back(start);

    let mut edges: Vec<(StateId, C, StateId)> = Vec::new();
    while let Some((p, q)) = queue.pop_front() {
        meter.set_frontier(queue.len());
        meter.set_retained(pairs.len() * pair_bytes + edges.len() * edge_bytes);
        meter.tick()?;
        let src = index[&(p, q)];
        for (a, p2) in left.edges(p) {
            for (b, q2) in right.edges(q) {
                if let Some(c) = combine(a, b) {
                    let key = (*p2, *q2);
                    let dst = *index.entry(key).or_insert_with(|| {
                        pairs.push(key);
                        queue.push_back(key);
                        pairs.len() - 1
                    });
                    edges.push((src, c, dst));
                }
            }
        }
    }

    let mut out = Nfa::with_states(pairs.len(), 0);
    for (s, c, d) in edges {
        out.add_transition(s, c, d);
    }
    for (i, &(p, q)) in pairs.iter().enumerate() {
        if left.is_accepting(p) && right.is_accepting(q) {
            out.set_accepting(i, true);
        }
    }
    out.debug_validate();
    if rec.enabled() {
        rec.add(
            names::counter::PRODUCT_STATES_MATERIALIZED,
            out.num_states() as u64,
        );
        rec.observe(
            names::counter::PRODUCT_STATES_MATERIALIZED,
            out.num_states() as u64,
        );
    }
    Ok(out)
}

/// Intersection of two automata over the *same* atom type, where atoms are
/// compared with a symbolic-intersection function. Convenience wrapper over
/// [`product`].
pub fn intersect<A: Clone>(
    left: &Nfa<A>,
    right: &Nfa<A>,
    combine: impl FnMut(&A, &A) -> Option<A>,
) -> Nfa<A> {
    product(left, right, combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glushkov::build;
    use crate::ops::is_empty_lang;
    use crate::syntax::{LabelAtom, Regex};
    use ssd_base::LabelId;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    /// Symbolic intersection for LabelAtom.
    fn meet(a: &LabelAtom, b: &LabelAtom) -> Option<LabelAtom> {
        LabelAtom::meet(a, b)
    }

    #[test]
    fn intersection_of_overlapping_langs() {
        // (a|b).c  ∩  a.(c|d)  =  a.c
        let r1 = Regex::concat(vec![Regex::alt(vec![l(0), l(1)]), l(2)]);
        let r2 = Regex::concat(vec![l(0), Regex::alt(vec![l(2), l(3)])]);
        let p = intersect(&build(&r1), &build(&r2), meet);
        assert!(p.accepts(&[LabelId(0), LabelId(2)]));
        assert!(!p.accepts(&[LabelId(1), LabelId(2)]));
        assert!(!p.accepts(&[LabelId(0), LabelId(3)]));
    }

    #[test]
    fn disjoint_intersection_is_empty() {
        let p = intersect(&build(&l(0)), &build(&l(1)), meet);
        assert!(is_empty_lang(&p));
    }

    #[test]
    fn wildcard_intersection_specializes() {
        // _* ∩ a.b = a.b
        let anypath = Regex::star(Regex::atom(LabelAtom::Any));
        let ab = Regex::concat(vec![l(0), l(1)]);
        let p = intersect(&build(&anypath), &build(&ab), meet);
        assert!(p.accepts(&[LabelId(0), LabelId(1)]));
        assert!(!p.accepts(&[LabelId(0)]));
        assert!(!p.accepts(&[LabelId(1), LabelId(0)]));
    }

    #[test]
    fn epsilon_in_both_required() {
        // a* ∩ ε = ε (accepting empty word only).
        let p = intersect(&build(&Regex::star(l(0))), &build(&Regex::Epsilon), meet);
        assert!(p.accepts(&[]));
        assert!(!p.accepts(&[LabelId(0)]));
    }

    #[test]
    fn product_only_explores_reachable_pairs() {
        let r1 = Regex::star(l(0));
        let r2 = Regex::star(l(1));
        let p = intersect(&build(&r1), &build(&r2), meet);
        // Only ε in common; all label transitions conflict, so the product
        // stays tiny (just the start pair).
        assert_eq!(p.num_states(), 1);
        assert!(p.accepts(&[]));
    }
}
