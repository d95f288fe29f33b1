//! Core automaton operations: reachability, emptiness, witnesses, and the
//! joint-realizability primitives used by the traces technique.

use std::collections::{HashSet, VecDeque};

use ssd_base::budget::{Budget, BudgetResult};
use ssd_obs::{names, Recorder};

use crate::nfa::{Nfa, StateId};

/// States reachable from the start state.
pub fn reachable<A>(nfa: &Nfa<A>) -> Vec<bool> {
    let mut seen = vec![false; nfa.num_states()];
    let mut queue = VecDeque::new();
    seen[nfa.start()] = true;
    queue.push_back(nfa.start());
    while let Some(q) = queue.pop_front() {
        for (_, r) in nfa.edges(q) {
            if !seen[*r] {
                seen[*r] = true;
                queue.push_back(*r);
            }
        }
    }
    seen
}

/// States from which some accepting state is reachable (co-reachability).
pub fn coreachable<A>(nfa: &Nfa<A>) -> Vec<bool> {
    let n = nfa.num_states();
    let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
    for (q, _, r) in nfa.all_edges() {
        rev[r].push(q);
    }
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for (q, s) in seen.iter_mut().enumerate() {
        if nfa.is_accepting(q) {
            *s = true;
            queue.push_back(q);
        }
    }
    while let Some(q) = queue.pop_front() {
        for &p in &rev[q] {
            if !seen[p] {
                seen[p] = true;
                queue.push_back(p);
            }
        }
    }
    seen
}

/// Whether the language of the automaton is empty.
pub fn is_empty_lang<A>(nfa: &Nfa<A>) -> bool {
    let reach = reachable(nfa);
    !(0..nfa.num_states()).any(|q| reach[q] && nfa.is_accepting(q))
}

/// On-the-fly emptiness of an *implicit* automaton — typically a product
/// whose states the caller never wants to materialize.
///
/// The automaton is given by its start states, an acceptance predicate,
/// and a successor generator (`successors(&state, &mut out)` pushes every
/// state reachable in one step). The BFS stops — returning `false` — the
/// moment any accepting state is found, so a non-empty product costs only
/// the states on the frontier up to the first witness, not the whole
/// product. Returns `true` iff no reachable state accepts.
///
/// Runs under `budget`: one fuel unit per product-state visit, the
/// frontier is the BFS queue, and the retained-bytes estimate covers the
/// `seen` set — the structure that actually grows without bound on an
/// exponential product. The BFS runs in a `product_bfs` span on `rec` and
/// reports how many product-state visits it made before the first
/// accepting state (or exhaustion) — the paper's key cost measure for the
/// lazy traces product. The count is a local integer; the recorder is
/// consulted only at entry and exit, so the disabled path costs one
/// `enabled()` check.
pub fn is_empty_product_b<S, I>(
    starts: I,
    mut accepting: impl FnMut(&S) -> bool,
    mut successors: impl FnMut(&S, &mut Vec<S>),
    rec: &dyn Recorder,
    budget: &Budget,
) -> BudgetResult<bool>
where
    S: Clone + Eq + std::hash::Hash,
    I: IntoIterator<Item = S>,
{
    let _span = ssd_obs::span(rec, names::span::PRODUCT_BFS);
    let mut meter = budget.meter("product_bfs");
    let mut explored: u64 = 0;
    let result = (|| {
        let mut seen: OpenSet<S> = OpenSet::new();
        let mut queue: VecDeque<S> = VecDeque::new();
        for s in starts {
            explored += 1;
            meter.tick()?;
            if accepting(&s) {
                return Ok(false);
            }
            if seen.insert(s.clone()) {
                queue.push_back(s);
            }
        }
        let mut buf: Vec<S> = Vec::new();
        while let Some(s) = queue.pop_front() {
            meter.set_frontier(queue.len());
            meter.set_retained(seen.retained_bytes() + queue.capacity() * std::mem::size_of::<S>());
            buf.clear();
            successors(&s, &mut buf);
            for n in buf.drain(..) {
                explored += 1;
                meter.tick()?;
                if accepting(&n) {
                    return Ok(false);
                }
                if seen.insert(n.clone()) {
                    queue.push_back(n);
                }
            }
        }
        Ok(true)
    })();
    if rec.enabled() {
        rec.add(names::counter::PRODUCT_STATES_EXPLORED, explored);
        rec.observe(names::counter::PRODUCT_STATES_EXPLORED, explored);
    }
    result
}

/// An open-addressed seen-set for the product BFS: linear probing over a
/// power-of-two slot array storing `(hash, state)`, grown at 7/8 load.
///
/// Product states are small `Copy`-ish values (packed pairs, tiny enums),
/// so one flat allocation with the hash stored inline beats `HashSet`'s
/// per-entry overhead in the hot loop — and, unlike the old
/// `2 * size_of::<S>() + 48` guess, [`OpenSet::retained_bytes`] reports
/// the *actual* table capacity (load-factor aware), so `Budget`
/// retained-byte trips fire at honest thresholds.
struct OpenSet<S> {
    /// `(stored hash, state)` per occupied slot; capacity is a power of
    /// two so probing can mask instead of mod.
    slots: Vec<Option<(u64, S)>>,
    len: usize,
}

impl<S: Eq + std::hash::Hash> OpenSet<S> {
    fn new() -> OpenSet<S> {
        OpenSet {
            slots: (0..16).map(|_| None).collect(),
            len: 0,
        }
    }

    fn hash_of(state: &S) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }

    /// Inserts `state`; returns `true` if it was not already present.
    fn insert(&mut self, state: S) -> bool {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let h = Self::hash_of(&state);
        let mask = self.slots.len() - 1;
        let mut i = (h as usize) & mask;
        loop {
            match &self.slots[i] {
                None => {
                    self.slots[i] = Some((h, state));
                    self.len += 1;
                    return true;
                }
                Some((sh, s)) if *sh == h && *s == state => return false,
                Some(_) => i = (i + 1) & mask,
            }
        }
    }

    fn grow(&mut self) {
        let doubled = (0..self.slots.len() * 2).map(|_| None).collect();
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().flatten() {
            let mut i = (slot.0 as usize) & mask;
            while self.slots[i].is_some() {
                i = (i + 1) & mask;
            }
            self.slots[i] = Some(slot);
        }
    }

    /// Actual resident bytes: the full slot array (occupied or not) plus
    /// the struct header.
    fn retained_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<(u64, S)>>() + std::mem::size_of::<Self>()
    }
}

/// Removes states that are not both reachable and co-reachable, renumbering
/// the rest. The start state is always kept (possibly with no edges).
pub fn trim<A: Clone>(nfa: &Nfa<A>) -> Nfa<A> {
    let reach = reachable(nfa);
    let co = coreachable(nfa);
    let keep: Vec<bool> = (0..nfa.num_states())
        .map(|q| (reach[q] && co[q]) || q == nfa.start())
        .collect();
    let mut renum = vec![usize::MAX; nfa.num_states()];
    let mut next = 0;
    for q in 0..nfa.num_states() {
        if keep[q] {
            renum[q] = next;
            next += 1;
        }
    }
    let mut out = Nfa::with_states(next, renum[nfa.start()]);
    for (q, a, r) in nfa.all_edges() {
        if keep[q] && keep[r] && reach[q] && co[r] {
            out.add_transition(renum[q], a.clone(), renum[r]);
        }
    }
    for q in 0..nfa.num_states() {
        if keep[q] && nfa.is_accepting(q) {
            out.set_accepting(renum[q], true);
        }
    }
    out
}

/// A shortest accepted word, as a sequence of the *atoms* labeling the
/// accepting path (callers concretize symbolic atoms themselves).
/// `None` if the language is empty.
pub fn shortest_witness<A: Clone>(nfa: &Nfa<A>) -> Option<Vec<A>> {
    let mut prev: Vec<Option<(StateId, A)>> = vec![None; nfa.num_states()];
    let mut seen = vec![false; nfa.num_states()];
    let mut queue = VecDeque::new();
    seen[nfa.start()] = true;
    queue.push_back(nfa.start());
    let mut hit = None;
    if nfa.is_accepting(nfa.start()) {
        hit = Some(nfa.start());
    }
    while hit.is_none() {
        let Some(q) = queue.pop_front() else { break };
        for (a, r) in nfa.edges(q) {
            if !seen[*r] {
                seen[*r] = true;
                prev[*r] = Some((q, a.clone()));
                if nfa.is_accepting(*r) {
                    hit = Some(*r);
                    break;
                }
                queue.push_back(*r);
            }
        }
    }
    let mut q = hit?;
    let mut word = Vec::new();
    while let Some((p, a)) = prev[q].clone() {
        word.push(a);
        q = p;
    }
    word.reverse();
    Some(word)
}

/// Ordered joint realizability (the PTIME primitive behind Table 2's
/// polynomial cells): does `lang(nfa)` contain a word with **distinct,
/// strictly increasing** positions `p_1 < … < p_k` such that the atom at
/// `p_i` belongs to `sets[i]`?
///
/// This is the intersection of `nfa` with the (k+1)-state chain automaton
/// `Σ* F_1 Σ* F_2 … F_k Σ*`, explored by BFS over `(state, i)` pairs.
pub fn contains_ordered_selection<A: Clone + Eq + std::hash::Hash>(
    nfa: &Nfa<A>,
    sets: &[HashSet<A>],
) -> bool {
    let k = sets.len();
    if sets.iter().any(HashSet::is_empty) {
        return false;
    }
    // seen[(q, i)]: reading some prefix can put the NFA in q having matched
    // the first i sets.
    let mut seen = vec![vec![false; k + 1]; nfa.num_states()];
    let mut queue = VecDeque::new();
    seen[nfa.start()][0] = true;
    queue.push_back((nfa.start(), 0usize));
    while let Some((q, i)) = queue.pop_front() {
        if i == k && nfa.is_accepting(q) {
            return true;
        }
        // Acceptance may also be reached after consuming more input.
        for (a, r) in nfa.edges(q) {
            // Skip: the position is not used for any required set.
            if !seen[*r][i] {
                seen[*r][i] = true;
                queue.push_back((*r, i));
            }
            // Use: the position matches set i (if any remain).
            if i < k && sets[i].contains(a) && !seen[*r][i + 1] {
                seen[*r][i + 1] = true;
                queue.push_back((*r, i + 1));
            }
        }
        if i == k {
            // Already all matched; keep exploring for acceptance (handled by
            // the skip-edges above).
        }
    }
    // Final check: any accepting state with all sets matched.
    (0..nfa.num_states()).any(|q| seen[q][k] && nfa.is_accepting(q))
}

/// Unordered joint realizability with **distinct positions, any order**:
/// does `lang(nfa)` contain a word with `k` distinct positions, one matching
/// each of `sets[i]`, in any arrangement?
///
/// Explored by BFS over `(state, matched-subset-mask)`; exponential in `k`
/// (this is the source of the paper's NP-completeness for unordered types),
/// but `k` is the fan-out of a single pattern node, small in practice.
///
/// # Panics
///
/// Panics if `sets.len() > 20` (the subset mask is a `u32` and the BFS
/// table has `2^k` columns). This is an internal invariant, not a
/// user-reachable path: the query front-end rejects unordered pattern
/// definitions with more than 20 entries at parse time
/// (`Error::Limit`), so every query object built from text satisfies
/// the bound. Callers constructing queries programmatically must
/// enforce it themselves.
pub fn contains_unordered_selection<A: Clone + Eq + std::hash::Hash>(
    nfa: &Nfa<A>,
    sets: &[HashSet<A>],
) -> bool {
    let k = sets.len();
    assert!(
        k <= 20,
        "unordered selection limited to 20 requirement sets"
    );
    if sets.iter().any(HashSet::is_empty) {
        return false;
    }
    let full: u32 = if k == 0 { 0 } else { (1u32 << k) - 1 };
    let mut seen = vec![vec![false; (full as usize) + 1]; nfa.num_states()];
    let mut queue = VecDeque::new();
    seen[nfa.start()][0] = true;
    queue.push_back((nfa.start(), 0u32));
    while let Some((q, mask)) = queue.pop_front() {
        if mask == full && nfa.is_accepting(q) {
            return true;
        }
        for (a, r) in nfa.edges(q) {
            // Skip the position.
            if !seen[*r][mask as usize] {
                seen[*r][mask as usize] = true;
                queue.push_back((*r, mask));
            }
            // Claim the position for any single unmatched set it satisfies.
            for (i, set) in sets.iter().enumerate() {
                if mask & (1 << i) == 0 && set.contains(a) {
                    let m2 = mask | (1 << i);
                    if !seen[*r][m2 as usize] {
                        seen[*r][m2 as usize] = true;
                        queue.push_back((*r, m2));
                    }
                }
            }
        }
    }
    (0..nfa.num_states()).any(|q| seen[q][full as usize] && nfa.is_accepting(q))
}

/// Like [`contains_unordered_selection`], but positions may be **shared**:
/// one position may satisfy several requirement sets at once (the paper's
/// set-like semantics for unordered nodes, where pattern paths may overlap
/// in their first edge). Returns, additionally to feasibility, one witness
/// grouping: for each set, the index of the group (claimed position) it was
/// satisfied by — `None` if infeasible.
///
/// # Panics
///
/// Panics if `sets.len() > 20` — same internal invariant as
/// [`contains_unordered_selection`], guaranteed by the query
/// front-end's entry cap.
pub fn shared_unordered_selection<A: Clone + Eq + std::hash::Hash>(
    nfa: &Nfa<A>,
    sets: &[HashSet<A>],
) -> bool {
    let k = sets.len();
    assert!(
        k <= 20,
        "unordered selection limited to 20 requirement sets"
    );
    if sets.iter().any(HashSet::is_empty) {
        return false;
    }
    let full: u32 = if k == 0 { 0 } else { (1u32 << k) - 1 };
    let mut seen = vec![vec![false; (full as usize) + 1]; nfa.num_states()];
    let mut queue = VecDeque::new();
    seen[nfa.start()][0] = true;
    queue.push_back((nfa.start(), 0u32));
    while let Some((q, mask)) = queue.pop_front() {
        if mask == full && nfa.is_accepting(q) {
            return true;
        }
        for (a, r) in nfa.edges(q) {
            // A position may satisfy the whole subset of still-unmatched
            // sets containing `a` — take the maximal such subset (taking
            // more can never hurt: sharing is allowed).
            let mut gain: u32 = 0;
            for (i, set) in sets.iter().enumerate() {
                if mask & (1 << i) == 0 && set.contains(a) {
                    gain |= 1 << i;
                }
            }
            for &m2 in &[mask, mask | gain] {
                if !seen[*r][m2 as usize] {
                    seen[*r][m2 as usize] = true;
                    queue.push_back((*r, m2));
                }
            }
        }
    }
    (0..nfa.num_states()).any(|q| seen[q][full as usize] && nfa.is_accepting(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glushkov::build;
    use crate::syntax::{LabelAtom, Regex};
    use ssd_base::LabelId;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    fn set(ids: &[u32]) -> HashSet<LabelAtom> {
        ids.iter().map(|&i| LabelAtom::Label(LabelId(i))).collect()
    }

    #[test]
    fn emptiness() {
        assert!(is_empty_lang(&build(&Regex::<LabelAtom>::Empty)));
        assert!(!is_empty_lang(&build(&l(1))));
        assert!(!is_empty_lang(&build(&Regex::<LabelAtom>::Epsilon)));
    }

    /// Lazy pair-product emptiness over concrete labels, for the tests
    /// below: advances both NFAs on each label the left side can take.
    fn lazy_pair_empty(left: &Nfa<LabelAtom>, right: &Nfa<LabelAtom>) -> bool {
        is_empty_product_b(
            [(left.start(), right.start())],
            |&(p, q)| left.is_accepting(p) && right.is_accepting(q),
            |&(p, q), out| {
                for (a, p2) in left.edges(p) {
                    let LabelAtom::Label(lbl) = a else { continue };
                    for q2 in right.step(&[q], lbl) {
                        out.push((*p2, q2));
                    }
                }
            },
            ssd_obs::noop(),
            Budget::unlimited_ref(),
        )
        .unwrap()
    }

    #[test]
    fn product_emptiness_agrees_with_materialized_intersection() {
        // (a|b).c ∩ a.(c|d) is non-empty (a.c); a ∩ b is empty.
        let r1 = Regex::concat(vec![Regex::alt(vec![l(0), l(1)]), l(2)]);
        let r2 = Regex::concat(vec![l(0), Regex::alt(vec![l(2), l(3)])]);
        assert!(!lazy_pair_empty(&build(&r1), &build(&r2)));
        assert!(lazy_pair_empty(&build(&l(0)), &build(&l(1))));
        // a* ∩ b+ : both infinite, intersection empty.
        assert!(lazy_pair_empty(
            &build(&Regex::star(l(0))),
            &build(&Regex::plus(l(1)))
        ));
    }

    #[test]
    fn product_emptiness_accepts_at_start() {
        // ε ∈ both languages: accepting start state short-circuits.
        let star = build(&Regex::star(l(0)));
        assert!(!lazy_pair_empty(&star, &star));
    }

    #[test]
    fn witness_is_shortest() {
        // a|b.c — shortest witness has length 1.
        let re = Regex::alt(vec![Regex::concat(vec![l(1), l(2)]), l(0)]);
        let w = shortest_witness(&build(&re)).unwrap();
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn witness_of_empty_is_none() {
        assert!(shortest_witness(&build(&Regex::<LabelAtom>::Empty)).is_none());
    }

    #[test]
    fn trim_removes_dead_states() {
        // a | (b followed by empty): Glushkov of a|b.∅-ish structure —
        // build manually: state 2 is unreachable-to-accept.
        let mut n = Nfa::with_states(4, 0);
        n.add_transition(0, LabelAtom::Label(LabelId(0)), 1);
        n.add_transition(0, LabelAtom::Label(LabelId(1)), 2); // dead end
        n.set_accepting(1, true);
        let t = trim(&n);
        assert!(t.num_states() <= 2 + 1);
        assert!(t.accepts(&[LabelId(0)]));
        assert!(!t.accepts(&[LabelId(1)]));
    }

    #[test]
    fn ordered_selection_respects_order() {
        // lang = a.b.c ; need [b] then [c]: yes; [c] then [b]: no.
        let re = Regex::concat(vec![l(0), l(1), l(2)]);
        let n = build(&re);
        assert!(contains_ordered_selection(&n, &[set(&[1]), set(&[2])]));
        assert!(!contains_ordered_selection(&n, &[set(&[2]), set(&[1])]));
        assert!(contains_ordered_selection(
            &n,
            &[set(&[0]), set(&[1]), set(&[2])]
        ));
        assert!(!contains_ordered_selection(&n, &[set(&[0]), set(&[0])]));
    }

    #[test]
    fn ordered_selection_with_empty_requirements() {
        let n = build(&l(0));
        assert!(contains_ordered_selection(&n, &[]));
        let empty_lang = build(&Regex::<LabelAtom>::Empty);
        assert!(!contains_ordered_selection(&empty_lang, &[]));
    }

    #[test]
    fn unordered_selection_ignores_order() {
        let re = Regex::concat(vec![l(0), l(1), l(2)]);
        let n = build(&re);
        assert!(contains_unordered_selection(&n, &[set(&[2]), set(&[1])]));
        assert!(!contains_unordered_selection(&n, &[set(&[1]), set(&[1])]));
    }

    #[test]
    fn unordered_selection_needs_distinct_positions() {
        // lang = a.b : two sets both {a} cannot be satisfied distinctly.
        let re = Regex::concat(vec![l(0), l(1)]);
        let n = build(&re);
        assert!(!contains_unordered_selection(&n, &[set(&[0]), set(&[0])]));
        // but a* provides as many positions as needed.
        let star = build(&Regex::star(l(0)));
        assert!(contains_unordered_selection(&star, &[set(&[0]), set(&[0])]));
    }

    #[test]
    fn shared_selection_allows_overlap() {
        // lang = a.b : sets {a} and {a} CAN share one position.
        let re = Regex::concat(vec![l(0), l(1)]);
        let n = build(&re);
        assert!(shared_unordered_selection(&n, &[set(&[0]), set(&[0])]));
        // But {a} and {b} still need their own (different) symbols.
        assert!(shared_unordered_selection(&n, &[set(&[0]), set(&[1])]));
        assert!(!shared_unordered_selection(&n, &[set(&[2]), set(&[0])]));
    }

    #[test]
    fn selection_on_star_language() {
        // (a|b)* satisfies any combination.
        let re = Regex::star(Regex::alt(vec![l(0), l(1)]));
        let n = build(&re);
        assert!(contains_ordered_selection(
            &n,
            &[set(&[1]), set(&[0]), set(&[1])]
        ));
        assert!(contains_unordered_selection(
            &n,
            &[set(&[1]), set(&[0]), set(&[1])]
        ));
    }

    #[test]
    fn coreachable_marks_predecessors() {
        let n = build(&Regex::concat(vec![l(0), l(1)]));
        let co = coreachable(&n);
        assert!(co[n.start()]);
    }
}
