//! Symbolic determinization, minimization, and language comparison.
//!
//! Atoms are symbolic (a wildcard stands for infinitely many labels), so
//! determinization first partitions the alphabet into finitely many
//! *classes*: the distinct labels mentioned by the automaton plus one
//! "any other label" class. Two concrete symbols in the same class are
//! indistinguishable to every atom of the automaton, so a DFA over classes
//! exactly represents the language.

use std::collections::{HashMap, VecDeque};

use crate::nfa::{Nfa, StateId};
use crate::syntax::{Atom, LabelAtom};
use ssd_base::budget::{Budget, BudgetResult};

/// Atoms that can partition the alphabet into finitely many classes.
pub trait ClassAtom: Atom {
    /// Computes alphabet classes for automata whose transitions carry
    /// `atoms`. Each returned atom is the canonical representative of one
    /// class; every concrete symbol belongs to exactly one class.
    fn classes(atoms: &[Self]) -> Vec<Self>;

    /// Whether this atom matches every symbol of `class` (equivalently, any
    /// symbol, since classes refine atom boundaries).
    fn matches_class(&self, class: &Self) -> bool;

    /// Whether this class representative is the residual "any other
    /// symbol" class of a partition (at most one per partition, and
    /// always last when present). The default says no residual class
    /// exists, which is right for finite concrete alphabets such as
    /// schema atoms.
    fn is_wildcard_class(&self) -> bool {
        false
    }
}

impl ClassAtom for LabelAtom {
    fn classes(atoms: &[Self]) -> Vec<Self> {
        let mut out: Vec<LabelAtom> = atoms
            .iter()
            .filter(|a| matches!(a, LabelAtom::Label(_)))
            .copied()
            .collect();
        out.sort();
        out.dedup();
        // One class for "any label not mentioned", represented by Any.
        out.push(LabelAtom::Any);
        out
    }

    fn matches_class(&self, class: &Self) -> bool {
        match (self, class) {
            (LabelAtom::Any, _) => true,
            (LabelAtom::Label(a), LabelAtom::Label(b)) => a == b,
            // A concrete label never matches the "other labels" class.
            (LabelAtom::Label(_), LabelAtom::Any) => false,
        }
    }

    fn is_wildcard_class(&self) -> bool {
        matches!(self, LabelAtom::Any)
    }
}

/// A deterministic automaton over alphabet classes.
#[derive(Clone, Debug)]
pub struct Dfa<A> {
    /// Canonical representative of each alphabet class.
    classes: Vec<A>,
    /// `trans[q][c]` is the target on class `c`, if any (missing = reject).
    trans: Vec<Vec<Option<usize>>>,
    start: usize,
    accepting: Vec<bool>,
}

impl<A: ClassAtom> Dfa<A> {
    /// The alphabet classes of this DFA.
    pub fn classes(&self) -> &[A] {
        &self.classes
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.trans.len()
    }

    /// The start state.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Whether `q` accepts.
    pub fn is_accepting(&self, q: usize) -> bool {
        self.accepting[q]
    }

    /// Transition target of `q` on class index `c`.
    pub fn next(&self, q: usize, c: usize) -> Option<usize> {
        self.trans[q][c]
    }

    /// Runs on a word of concrete symbols.
    pub fn accepts(&self, word: &[A::Sym]) -> bool
    where
        A: Atom,
    {
        let mut q = self.start;
        'word: for s in word {
            for (c, class) in self.classes.iter().enumerate() {
                // The symbol belongs to class `c` iff the class
                // representative matches it. Classes are checked specific-
                // first (Any last), so the first hit is the right class.
                if class_contains(class, s) {
                    match self.trans[q][c] {
                        Some(r) => {
                            q = r;
                            continue 'word;
                        }
                        None => return false,
                    }
                }
            }
            return false;
        }
        self.accepting[q]
    }

    /// Checks structural invariants: the start state is in range, every
    /// state has exactly one transition row with one slot per alphabet
    /// class (the determinism invariant, given that classes partition the
    /// alphabet), every present target is in range, the accepting
    /// table covers every state, the class list is duplicate-free, and at
    /// most one wildcard ("any other symbol") class is present — as the
    /// last class if so. Duplicate or misplaced classes would make the
    /// compiled label→class index (`crate::compiled`) silently misroute
    /// symbols, so they are hard errors here. Panics on violation in debug
    /// builds; compiles to a no-op in release.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            let n = self.num_states();
            assert!(
                self.start < n,
                "DFA start state {} out of range (num_states = {n})",
                self.start
            );
            for (i, a) in self.classes.iter().enumerate() {
                for (j, b) in self.classes.iter().enumerate().skip(i + 1) {
                    assert!(
                        a != b,
                        "DFA class list has duplicate classes at indexes {i} and {j}"
                    );
                }
            }
            let wildcards = self
                .classes
                .iter()
                .filter(|c| c.is_wildcard_class())
                .count();
            assert!(
                wildcards <= 1,
                "DFA class list has {wildcards} wildcard classes (at most one allowed)"
            );
            if wildcards == 1 {
                assert!(
                    self.classes.last().is_some_and(|c| c.is_wildcard_class()),
                    "DFA wildcard class must be the last class (specific-first matching)"
                );
            }
            assert_eq!(
                self.accepting.len(),
                n,
                "DFA accepting table does not cover every state"
            );
            for (q, row) in self.trans.iter().enumerate() {
                assert_eq!(
                    row.len(),
                    self.classes.len(),
                    "DFA state {q} has {} transition slots for {} alphabet classes",
                    row.len(),
                    self.classes.len()
                );
                for (c, tgt) in row.iter().enumerate() {
                    if let Some(r) = tgt {
                        assert!(
                            *r < n,
                            "DFA transition {q} --class {c}--> {r} targets a state \
                             out of range (num_states = {n})"
                        );
                    }
                }
            }
        }
    }

    /// Transition row of state `q` (one slot per alphabet class), for
    /// serialization.
    pub fn row(&self, q: usize) -> &[Option<usize>] {
        &self.trans[q]
    }

    /// Rebuilds a DFA from raw parts, enforcing — in release builds too —
    /// every invariant [`Dfa::debug_validate`] checks, and returning
    /// `None` instead of panicking on violation. This is the decode path
    /// for untrusted snapshot payloads: the constructions guarantee these
    /// invariants by design, a corrupted file does not.
    pub fn from_parts_checked(
        classes: Vec<A>,
        trans: Vec<Vec<Option<usize>>>,
        start: usize,
        accepting: Vec<bool>,
    ) -> Option<Dfa<A>> {
        let n = trans.len();
        if n == 0 || start >= n || accepting.len() != n {
            return None;
        }
        for (i, a) in classes.iter().enumerate() {
            for b in classes.iter().skip(i + 1) {
                if a == b {
                    return None;
                }
            }
        }
        let wildcards = classes.iter().filter(|c| c.is_wildcard_class()).count();
        if wildcards > 1 {
            return None;
        }
        if wildcards == 1 && !classes.last().is_some_and(|c| c.is_wildcard_class()) {
            return None;
        }
        for row in &trans {
            if row.len() != classes.len() {
                return None;
            }
            for tgt in row.iter().flatten() {
                if *tgt >= n {
                    return None;
                }
            }
        }
        Some(Dfa {
            classes,
            trans,
            start,
            accepting,
        })
    }

    /// Converts back to an NFA (used by regex reconstruction).
    pub fn to_nfa(&self) -> Nfa<A> {
        let mut n = Nfa::with_states(self.num_states(), self.start);
        for q in 0..self.num_states() {
            for (c, tgt) in self.trans[q].iter().enumerate() {
                if let Some(r) = tgt {
                    n.add_transition(q, self.classes[c].clone(), *r);
                }
            }
            if self.accepting[q] {
                n.set_accepting(q, true);
            }
        }
        n.debug_validate();
        n
    }
}

/// Whether concrete symbol `s` falls in the class represented by `class`.
/// For [`LabelAtom`] classes, `Label(l)` contains exactly `l`, and `Any`
/// (the "other labels" class) contains symbols matched by no specific class
/// — callers must therefore test specific classes first, which
/// [`Dfa::accepts`] does by construction (Any is sorted last).
fn class_contains<A: ClassAtom>(class: &A, s: &A::Sym) -> bool {
    class.matches(s)
}

/// Determinizes `nfa` by the subset construction over alphabet classes.
pub fn determinize<A: ClassAtom>(nfa: &Nfa<A>) -> Dfa<A> {
    determinize_b(nfa, Budget::unlimited_ref()).expect("unlimited budget never trips")
}

/// [`determinize`] under a [`Budget`]: the subset construction ticks the
/// meter once per subset state it pops, so an exponential blow-up trips
/// the budget instead of hanging.
pub fn determinize_b<A: ClassAtom>(nfa: &Nfa<A>, budget: &Budget) -> BudgetResult<Dfa<A>> {
    let atoms: Vec<A> = nfa.all_edges().map(|(_, a, _)| a.clone()).collect();
    let classes = A::classes(&atoms);
    determinize_with_classes_b(nfa, classes, budget)
}

/// Determinizes with a caller-supplied class partition (needed when
/// comparing two automata, whose classes must be computed jointly).
pub fn determinize_with_classes<A: ClassAtom>(nfa: &Nfa<A>, classes: Vec<A>) -> Dfa<A> {
    determinize_with_classes_b(nfa, classes, Budget::unlimited_ref())
        .expect("unlimited budget never trips")
}

/// [`determinize_with_classes`] under a [`Budget`]. One fuel unit per
/// subset state popped from the worklist; the retained-bytes estimate
/// covers the subset table, so a byte ceiling bounds the table size.
pub fn determinize_with_classes_b<A: ClassAtom>(
    nfa: &Nfa<A>,
    classes: Vec<A>,
    budget: &Budget,
) -> BudgetResult<Dfa<A>> {
    let mut meter = budget.meter("determinize");
    let mut index: HashMap<Vec<StateId>, usize> = HashMap::new();
    let mut sets: Vec<Vec<StateId>> = Vec::new();
    let mut queue = VecDeque::new();
    // Rough bytes per stored subset: two copies (index key + sets entry)
    // of the state vector plus map/vec bookkeeping.
    let mut retained = 0usize;
    let set_bytes = |set: &[StateId]| 2 * set.len() * std::mem::size_of::<StateId>() + 96usize;

    let start_set = vec![nfa.start()];
    retained += set_bytes(&start_set);
    index.insert(start_set.clone(), 0);
    sets.push(start_set.clone());
    queue.push_back(start_set);

    let mut trans: Vec<Vec<Option<usize>>> = Vec::new();
    while let Some(set) = queue.pop_front() {
        meter.set_frontier(queue.len());
        meter.set_retained(retained);
        meter.tick()?;
        let mut row = vec![None; classes.len()];
        for (c, class) in classes.iter().enumerate() {
            let mut next: Vec<StateId> = Vec::new();
            for &q in &set {
                for (a, r) in nfa.edges(q) {
                    if a.matches_class(class) && !next.contains(r) {
                        next.push(*r);
                    }
                }
            }
            if next.is_empty() {
                continue;
            }
            next.sort_unstable();
            let id = *index.entry(next.clone()).or_insert_with(|| {
                retained += set_bytes(&next);
                sets.push(next.clone());
                queue.push_back(next.clone());
                sets.len() - 1
            });
            row[c] = Some(id);
        }
        trans.push(row);
    }

    let accepting = sets
        .iter()
        .map(|set| set.iter().any(|&q| nfa.is_accepting(q)))
        .collect();
    let dfa = Dfa {
        classes,
        trans,
        start: 0,
        accepting,
    };
    dfa.debug_validate();
    Ok(dfa)
}

/// Minimizes a DFA by Moore partition refinement. Missing transitions are
/// treated as moves to an implicit dead state.
pub fn minimize<A: ClassAtom>(dfa: &Dfa<A>) -> Dfa<A> {
    minimize_b(dfa, Budget::unlimited_ref()).expect("unlimited budget never trips")
}

/// [`minimize`] under a [`Budget`]: one fuel unit per state signature
/// recomputed (states × refinement rounds — quadratic worst case on
/// large determinization outputs).
pub fn minimize_b<A: ClassAtom>(dfa: &Dfa<A>, budget: &Budget) -> BudgetResult<Dfa<A>> {
    let mut meter = budget.meter("minimize");
    let n = dfa.num_states();
    // Block id per state; the implicit dead state is block usize::MAX.
    let mut block: Vec<usize> = (0..n).map(|q| usize::from(dfa.accepting[q])).collect();
    loop {
        // Signature: (block, [successor block per class]).
        let mut sig_index: HashMap<(usize, Vec<Option<usize>>), usize> = HashMap::new();
        let mut next_block = vec![0usize; n];
        for q in 0..n {
            meter.tick()?;
            let succ: Vec<Option<usize>> = (0..dfa.classes.len())
                .map(|c| dfa.trans[q][c].map(|r| block[r]))
                .collect();
            let key = (block[q], succ);
            let id = sig_index.len();
            let b = *sig_index.entry(key).or_insert(id);
            next_block[q] = b;
        }
        meter.set_frontier(sig_index.len());
        if next_block == block {
            break;
        }
        block = next_block;
    }
    let num_blocks = block.iter().copied().max().map_or(0, |m| m + 1);
    let mut repr = vec![usize::MAX; num_blocks];
    for q in 0..n {
        if repr[block[q]] == usize::MAX {
            repr[block[q]] = q;
        }
    }
    let trans = (0..num_blocks)
        .map(|b| {
            let q = repr[b];
            (0..dfa.classes.len())
                .map(|c| dfa.trans[q][c].map(|r| block[r]))
                .collect()
        })
        .collect();
    let accepting = (0..num_blocks).map(|b| dfa.accepting[repr[b]]).collect();
    let min = Dfa {
        classes: dfa.classes.clone(),
        trans,
        start: block[dfa.start],
        accepting,
    };
    min.debug_validate();
    Ok(min)
}

/// Whether `L(left) ⊆ L(right)`, decided by an on-the-fly subset-pair walk
/// over jointly computed alphabet classes.
pub fn included<A: ClassAtom>(left: &Nfa<A>, right: &Nfa<A>) -> bool {
    let mut atoms: Vec<A> = left.all_edges().map(|(_, a, _)| a.clone()).collect();
    atoms.extend(right.all_edges().map(|(_, a, _)| a.clone()));
    let classes = A::classes(&atoms);

    type Pair = (Vec<StateId>, Vec<StateId>);
    let mut seen: HashMap<Pair, ()> = HashMap::new();
    let mut queue: VecDeque<Pair> = VecDeque::new();
    let start = (vec![left.start()], vec![right.start()]);
    seen.insert(start.clone(), ());
    queue.push_back(start);

    while let Some((ls, rs)) = queue.pop_front() {
        let l_acc = ls.iter().any(|&q| left.is_accepting(q));
        let r_acc = rs.iter().any(|&q| right.is_accepting(q));
        if l_acc && !r_acc {
            return false;
        }
        for class in &classes {
            let mut ln: Vec<StateId> = Vec::new();
            for &q in &ls {
                for (a, r) in left.edges(q) {
                    if a.matches_class(class) && !ln.contains(r) {
                        ln.push(*r);
                    }
                }
            }
            if ln.is_empty() {
                // Left rejects: inclusion trivially holds on this branch.
                continue;
            }
            let mut rn: Vec<StateId> = Vec::new();
            for &q in &rs {
                for (a, r) in right.edges(q) {
                    if a.matches_class(class) && !rn.contains(r) {
                        rn.push(*r);
                    }
                }
            }
            ln.sort_unstable();
            rn.sort_unstable();
            let pair = (ln, rn);
            if !seen.contains_key(&pair) {
                seen.insert(pair.clone(), ());
                queue.push_back(pair);
            }
        }
    }
    true
}

/// Language equivalence: inclusion both ways.
pub fn equivalent<A: ClassAtom>(a: &Nfa<A>, b: &Nfa<A>) -> bool {
    included(a, b) && included(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::glushkov::build;
    use crate::syntax::Regex;
    use ssd_base::LabelId;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    #[test]
    fn determinized_dfa_accepts_same_words() {
        let re = Regex::concat(vec![Regex::star(Regex::alt(vec![l(0), l(1)])), l(2)]);
        let nfa = build(&re);
        let dfa = determinize(&nfa);
        for word in [
            vec![LabelId(2)],
            vec![LabelId(0), LabelId(1), LabelId(2)],
            vec![LabelId(0)],
            vec![LabelId(2), LabelId(2)],
        ] {
            assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn wildcard_determinization() {
        // _*.a : after any prefix, seeing `a` may accept.
        let re = Regex::concat(vec![Regex::star(Regex::atom(LabelAtom::Any)), l(0)]);
        let dfa = determinize(&build(&re));
        assert!(dfa.accepts(&[LabelId(5), LabelId(0)]));
        assert!(dfa.accepts(&[LabelId(0)]));
        assert!(!dfa.accepts(&[LabelId(5)]));
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        // (a|b).(a|b) determinizes to a chain; minimization keeps it small.
        let ab = || Regex::alt(vec![l(0), l(1)]);
        let re = Regex::concat(vec![ab(), ab()]);
        let dfa = determinize(&build(&re));
        let min = minimize(&dfa);
        assert!(min.num_states() <= dfa.num_states());
        assert!(min.accepts(&[LabelId(0), LabelId(1)]));
        assert!(!min.accepts(&[LabelId(0)]));
    }

    #[test]
    fn inclusion_and_equivalence() {
        let a_star = build(&Regex::star(l(0)));
        let a_plus = build(&Regex::plus(l(0)));
        assert!(included(&a_plus, &a_star));
        assert!(!included(&a_star, &a_plus)); // ε distinguishes them
        assert!(!equivalent(&a_star, &a_plus));
        let a_star2 = build(&Regex::star(Regex::plus(l(0))));
        assert!(equivalent(&a_star, &a_star2));
    }

    #[test]
    fn inclusion_with_wildcards() {
        let any = build(&Regex::star(Regex::atom(LabelAtom::Any)));
        let words = build(&Regex::concat(vec![l(0), l(1)]));
        assert!(included(&words, &any));
        assert!(!included(&any, &words));
    }

    #[test]
    fn equivalence_distinguishes_fresh_labels() {
        // _ vs a : differ on any unmentioned label.
        let wild = build(&Regex::atom(LabelAtom::Any));
        let a = build(&l(0));
        assert!(included(&a, &wild));
        assert!(!included(&wild, &a));
    }

    #[test]
    fn dfa_round_trip_via_nfa() {
        let re = Regex::alt(vec![Regex::concat(vec![l(0), l(1)]), l(2)]);
        let nfa = build(&re);
        let back = minimize(&determinize(&nfa)).to_nfa();
        assert!(equivalent(&nfa, &back));
    }

    #[test]
    fn constructions_yield_well_formed_automata() {
        // Each construction already self-checks under debug_assertions;
        // this exercises the external entry points explicitly.
        let re = Regex::concat(vec![Regex::star(Regex::alt(vec![l(0), l(1)])), l(2)]);
        let nfa = build(&re);
        nfa.debug_validate();
        let dfa = determinize(&nfa);
        dfa.debug_validate();
        let min = minimize(&dfa);
        min.debug_validate();
        min.to_nfa().debug_validate();
    }
}
