//! Conformance checking (Definition 2.1): does a data graph conform to a
//! schema, and if so, under which type assignment?
//!
//! Conformance is NP-complete in general but PTIME for a large schema class
//! including tagged schemas [BM99]. Accordingly:
//!
//! * tagged schemas use the *forced assignment* fast path: the type of
//!   every non-root node is determined by its incoming edge label;
//! * other schemas use candidate pruning (an arc-consistency pass exact for
//!   ordered and homogeneous-unordered types) followed by backtracking.

use std::collections::VecDeque;

use ssd_automata::bag::{bag_matches, homogeneous_symbol};
use ssd_base::{Multiset, OidId, TypeIdx};

use crate::schema::Schema;
use crate::types::{SchemaAtom, TypeDef};
use ssd_model::{DataGraph, Node};

/// Checks whether `assignment` (a type per node, indexed by oid) is a valid
/// type assignment of `g` w.r.t. `s` (all four conditions of Def. 2.1).
/// Ordered-type word checks run on the schema's compiled dense tables
/// ([`Schema::compiled`]) when available.
pub fn check_assignment(g: &DataGraph, s: &Schema, assignment: &[TypeIdx]) -> bool {
    check_assignment_with(g, s, assignment, true)
}

/// [`check_assignment`] forced onto the interpreted NFA membership path —
/// same verdicts, kept as a public entry point for differential testing
/// of the compiled kernels.
pub fn check_assignment_interpreted(g: &DataGraph, s: &Schema, assignment: &[TypeIdx]) -> bool {
    check_assignment_with(g, s, assignment, false)
}

fn check_assignment_with(
    g: &DataGraph,
    s: &Schema,
    assignment: &[TypeIdx],
    compiled: bool,
) -> bool {
    if assignment.len() != g.len() {
        return false;
    }
    if assignment[g.root().index()] != s.root() {
        return false;
    }
    g.oids()
        .all(|o| node_ok(g, s, o, assignment[o.index()], assignment, compiled))
}

/// Local check for one node, given a full assignment of its successors.
fn node_ok(
    g: &DataGraph,
    s: &Schema,
    o: OidId,
    t: TypeIdx,
    assignment: &[TypeIdx],
    compiled: bool,
) -> bool {
    if g.is_referenceable(o) && !s.is_referenceable(t) {
        return false;
    }
    match (g.node(o), s.def(t)) {
        (Node::Atomic(v), TypeDef::Atomic(a)) => a.admits(v),
        (Node::Ordered(edges), TypeDef::Ordered(_)) => {
            let syms = edges
                .iter()
                .map(|e| SchemaAtom::new(e.label, assignment[e.target.index()]));
            if compiled {
                // One binary search + one table load per edge, and no
                // word materialization at all.
                if let Some(c) = s.compiled(t) {
                    return c.accepts(syms);
                }
            }
            let nfa = s.nfa(t).expect("collection type has nfa");
            let word: Vec<SchemaAtom> = syms.collect();
            nfa.accepts(&word)
        }
        (Node::Unordered(edges), TypeDef::Unordered(r)) => {
            let bag: Multiset<SchemaAtom> = edges
                .iter()
                .map(|e| SchemaAtom::new(e.label, assignment[e.target.index()]))
                .collect();
            if let Some(a) = homogeneous_symbol(r) {
                bag.iter_counts().all(|(sym, _)| a == *sym)
            } else {
                let nfa = s.nfa(t).expect("collection type has nfa");
                bag_matches(nfa, &bag)
            }
        }
        _ => false,
    }
}

/// Decides conformance; returns a valid type assignment if one exists.
/// Ordered word checks run on the compiled dense tables when available.
pub fn conforms(g: &DataGraph, s: &Schema) -> Option<Vec<TypeIdx>> {
    conforms_with(g, s, true)
}

/// [`conforms`] forced onto the interpreted NFA membership path — same
/// verdicts and assignments, kept for differential testing.
pub fn conforms_interpreted(g: &DataGraph, s: &Schema) -> Option<Vec<TypeIdx>> {
    conforms_with(g, s, false)
}

fn conforms_with(g: &DataGraph, s: &Schema, compiled: bool) -> Option<Vec<TypeIdx>> {
    // Fast path: tagged schemas force the assignment.
    if let Some(tags) = s.tags() {
        let mut assignment = vec![None; g.len()];
        assignment[g.root().index()] = Some(s.root());
        let mut queue = VecDeque::from([g.root()]);
        let mut order = vec![g.root()];
        while let Some(o) = queue.pop_front() {
            for e in g.edges(o) {
                let forced = *tags.get(&e.label)?;
                match assignment[e.target.index()] {
                    None => {
                        assignment[e.target.index()] = Some(forced);
                        order.push(e.target);
                        queue.push_back(e.target);
                    }
                    Some(prev) if prev == forced => {}
                    Some(_) => return None,
                }
            }
        }
        let full: Vec<TypeIdx> = assignment.into_iter().collect::<Option<_>>()?;
        return check_assignment_with(g, s, &full, compiled).then_some(full);
    }

    // General path: candidate sets, pruning, then backtracking.
    let mut cand: Vec<Vec<TypeIdx>> = g
        .oids()
        .map(|o| {
            s.types()
                .filter(|&t| initial_compatible(g, s, o, t))
                .collect()
        })
        .collect();
    cand[g.root().index()].retain(|&t| t == s.root());

    prune(g, s, &mut cand);
    if cand.iter().any(Vec::is_empty) {
        return None;
    }

    backtrack(g, s, &cand, compiled)
}

/// Backtracking in oid order: a node's constraint is checked as soon as it
/// and all its successors are assigned. `ready` buckets the nodes by the
/// oid at which their constraint closes, in increasing oid order, so each
/// assignment checks only the constraints it closes. The search keeps its
/// own stack of candidate positions, so its depth is not bounded by the
/// thread's stack.
fn backtrack(
    g: &DataGraph,
    s: &Schema,
    cand: &[Vec<TypeIdx>],
    compiled: bool,
) -> Option<Vec<TypeIdx>> {
    let n = g.len();
    let ready_at: Vec<usize> = g
        .oids()
        .map(|o| {
            g.edges(o)
                .iter()
                .fold(o.index(), |last, e| last.max(e.target.index()))
        })
        .collect();
    // `ready[start[i]..start[i + 1]]` lists the nodes closing at `i`.
    let mut start = vec![0usize; n + 1];
    for &i in &ready_at {
        start[i + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start.clone();
    let mut ready = vec![0usize; n];
    for (j, &i) in ready_at.iter().enumerate() {
        ready[fill[i]] = j;
        fill[i] += 1;
    }

    let mut assignment = vec![TypeIdx(0); n];
    // `next[i]`: the position in `cand[i]` to try next at depth `i`.
    let mut next = vec![0usize; n];
    let mut i = 0;
    while i < n {
        let closing = &ready[start[i]..start[i + 1]];
        let mut placed = false;
        while let Some(&t) = cand[i].get(next[i]) {
            next[i] += 1;
            assignment[i] = t;
            if closing.iter().all(|&j| {
                node_ok(
                    g,
                    s,
                    OidId::from_usize(j),
                    assignment[j],
                    &assignment,
                    compiled,
                )
            }) {
                placed = true;
                break;
            }
        }
        if placed {
            i += 1;
            if i < n {
                next[i] = 0;
            }
        } else if i == 0 {
            return None;
        } else {
            i -= 1;
        }
    }
    Some(assignment)
}

/// Kind, referenceability, and atomic-value compatibility.
fn initial_compatible(g: &DataGraph, s: &Schema, o: OidId, t: TypeIdx) -> bool {
    if g.is_referenceable(o) && !s.is_referenceable(t) {
        return false;
    }
    match (g.node(o), s.def(t)) {
        (Node::Atomic(v), TypeDef::Atomic(a)) => a.admits(v),
        (Node::Ordered(_), TypeDef::Ordered(_)) => true,
        (Node::Unordered(_), TypeDef::Unordered(_)) => true,
        _ => false,
    }
}

/// Arc-consistency pruning: removes `(node, type)` pairs whose local check
/// cannot succeed for *any* choice of successor candidates. Exact for
/// ordered and homogeneous-unordered types; other unordered types are left
/// optimistic (sound: only impossible pairs are removed).
fn prune(g: &DataGraph, s: &Schema, cand: &mut [Vec<TypeIdx>]) {
    loop {
        let mut changed = false;
        for o in g.oids() {
            let keep: Vec<TypeIdx> = cand[o.index()]
                .iter()
                .copied()
                .filter(|&t| pair_possible(g, s, o, t, cand))
                .collect();
            if keep.len() != cand[o.index()].len() {
                cand[o.index()] = keep;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

fn pair_possible(g: &DataGraph, s: &Schema, o: OidId, t: TypeIdx, cand: &[Vec<TypeIdx>]) -> bool {
    match (g.node(o), s.def(t)) {
        (Node::Atomic(_), TypeDef::Atomic(_)) => true, // checked initially
        (Node::Ordered(edges), TypeDef::Ordered(_)) => {
            // NFA run where position i may use any candidate type of the
            // i-th edge target.
            let nfa = s.nfa(t).expect("collection type has nfa");
            let mut states = vec![nfa.start()];
            for e in edges {
                let mut next: Vec<usize> = Vec::new();
                for &tc in &cand[e.target.index()] {
                    let sym = SchemaAtom::new(e.label, tc);
                    for q in nfa.step(&states, &sym) {
                        if !next.contains(&q) {
                            next.push(q);
                        }
                    }
                }
                if next.is_empty() {
                    return false;
                }
                next.sort_unstable();
                states = next;
            }
            states.iter().any(|&q| nfa.is_accepting(q))
        }
        (Node::Unordered(edges), TypeDef::Unordered(r)) => {
            if let Some(a) = homogeneous_symbol(r) {
                edges
                    .iter()
                    .all(|e| e.label == a.label && cand[e.target.index()].contains(&a.target))
            } else {
                // Optimistic: defer to backtracking.
                true
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;
    use ssd_base::SharedInterner;
    use ssd_model::parse_data_graph;

    const PAPER_SCHEMA: &str = r#"
        DOCUMENT = [(paper->PAPER)*];
        PAPER = [title->TITLE.(author->AUTHOR)*];
        AUTHOR = [name->NAME.email->EMAIL];
        NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
        TITLE = string; FIRSTNAME = string;
        LASTNAME = string; EMAIL = string
    "#;

    const PAPER_DOC: &str = r#"
        o1 = [paper -> o2];
        o2 = [title -> o3, author -> o4];
        o3 = "A real nice paper";
        o4 = [name -> o5, email -> o6];
        o5 = [firstname -> o7, lastname -> o8];
        o6 = "..."; o7 = "John"; o8 = "Smith"
    "#;

    fn setup(schema: &str, data: &str) -> (DataGraph, Schema) {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let g = parse_data_graph(data, &pool).unwrap();
        (g, s)
    }

    #[test]
    fn paper_document_conforms_to_paper_schema() {
        let (g, s) = setup(PAPER_SCHEMA, PAPER_DOC);
        let assignment = conforms(&g, &s).expect("should conform");
        assert!(check_assignment(&g, &s, &assignment));
        let o4 = g.by_name("o4").unwrap();
        assert_eq!(assignment[o4.index()], s.by_name("AUTHOR").unwrap());
    }

    #[test]
    fn missing_email_breaks_conformance() {
        let (g, s) = setup(
            PAPER_SCHEMA,
            r#"o1 = [paper -> o2];
               o2 = [title -> o3, author -> o4];
               o3 = "t";
               o4 = [name -> o5];
               o5 = [firstname -> o6, lastname -> o7];
               o6 = "J"; o7 = "S""#,
        );
        assert!(conforms(&g, &s).is_none());
    }

    #[test]
    fn wrong_value_type_breaks_conformance() {
        let (g, s) = setup(
            "T = [a->U]; U = int",
            r#"o1 = [a -> o2]; o2 = "not an int""#,
        );
        assert!(conforms(&g, &s).is_none());
    }

    #[test]
    fn order_matters_for_ordered_types() {
        let src_schema = "T = [a->U.b->V]; U = int; V = string";
        let (g, s) = setup(src_schema, r#"o1 = [a->o2, b->o3]; o2 = 1; o3 = "x""#);
        assert!(conforms(&g, &s).is_some());
        let (g2, s2) = setup(src_schema, r#"o1 = [b->o3, a->o2]; o2 = 1; o3 = "x""#);
        assert!(conforms(&g2, &s2).is_none());
    }

    #[test]
    fn order_ignored_for_unordered_types() {
        let src_schema = "T = {a->U.b->V}; U = int; V = string";
        for data in [
            r#"o1 = {a->o2, b->o3}; o2 = 1; o3 = "x""#,
            r#"o1 = {b->o3, a->o2}; o2 = 1; o3 = "x""#,
        ] {
            let (g, s) = setup(src_schema, data);
            assert!(conforms(&g, &s).is_some(), "{data}");
        }
        let (g, s) = setup(src_schema, r#"o1 = {a->o2}; o2 = 1"#);
        assert!(conforms(&g, &s).is_none());
    }

    #[test]
    fn untagged_schema_needs_search() {
        // `a` can lead to an int or a string; the data disambiguates.
        let src_schema = "T = [a->U | a->V]; U = int; V = string";
        let (g, s) = setup(src_schema, r#"o1 = [a->o2]; o2 = "str""#);
        let assignment = conforms(&g, &s).unwrap();
        let o2 = g.by_name("o2").unwrap();
        assert_eq!(assignment[o2.index()], s.by_name("V").unwrap());
    }

    #[test]
    fn referenceable_node_needs_referenceable_type() {
        let (g, s) = setup(
            "T = [a->U.b->U]; U = int",
            r#"o1 = [a->&o2, b->&o2]; &o2 = 1"#,
        );
        // U is not referenceable but &o2 is a referenceable node.
        assert!(conforms(&g, &s).is_none());
        let (g2, s2) = setup(
            "T = [a->&U.b->&U]; &U = int",
            r#"o1 = [a->&o2, b->&o2]; &o2 = 1"#,
        );
        assert!(conforms(&g2, &s2).is_some());
    }

    #[test]
    fn cyclic_data_against_recursive_schema() {
        let (g, s) = setup("R = [x->&T]; &T = [a->&T]", "o1 = [x->&o2]; &o2 = [a->&o2]");
        assert!(conforms(&g, &s).is_some());
    }

    #[test]
    fn homogeneous_collection_conformance() {
        let (g, s) = setup(
            "T = {(item->U)*}; U = int",
            "o1 = {item->o2, item->o3, item->o4}; o2=1; o3=2; o4=3",
        );
        assert!(conforms(&g, &s).is_some());
        let (g2, s2) = setup(
            "T = {(item->U)*}; U = int",
            "o1 = {item->o2, other->o3}; o2=1; o3=2",
        );
        assert!(conforms(&g2, &s2).is_none());
    }

    #[test]
    fn check_assignment_rejects_wrong_root_type() {
        let (g, s) = setup("T = [a->U]; U = int", "o1 = [a->o2]; o2 = 1");
        let good = conforms(&g, &s).unwrap();
        assert!(check_assignment(&g, &s, &good));
        let mut bad = good.clone();
        bad[g.root().index()] = s.by_name("U").unwrap();
        assert!(!check_assignment(&g, &s, &bad));
        assert!(!check_assignment(&g, &s, &good[..1]));
    }

    #[test]
    fn compiled_and_interpreted_conformance_agree() {
        let cases = [
            (PAPER_SCHEMA, PAPER_DOC),
            (
                "T = [a->U.b->V]; U = int; V = string",
                r#"o1 = [a->o2, b->o3]; o2 = 1; o3 = "x""#,
            ),
            (
                "T = [a->U.b->V]; U = int; V = string",
                r#"o1 = [b->o3, a->o2]; o2 = 1; o3 = "x""#,
            ),
            (
                "T = [a->U | a->V]; U = int; V = string",
                r#"o1 = [a->o2]; o2 = "str""#,
            ),
            ("R = [x->&T]; &T = [a->&T]", "o1 = [x->&o2]; &o2 = [a->&o2]"),
        ];
        for (schema, data) in cases {
            let (g, s) = setup(schema, data);
            let fast = conforms(&g, &s);
            let slow = conforms_interpreted(&g, &s);
            assert_eq!(fast, slow, "schema {schema} / data {data}");
            if let Some(a) = &fast {
                assert!(check_assignment(&g, &s, a));
                assert!(check_assignment_interpreted(&g, &s, a));
            }
        }
    }

    #[test]
    fn schema_compiled_slot_is_lazy_and_shared() {
        let (_, s) = setup(PAPER_SCHEMA, PAPER_DOC);
        let doc = s.by_name("DOCUMENT").unwrap();
        let title = s.by_name("TITLE").unwrap();
        assert!(s.compiled(title).is_none(), "atomic types have no table");
        let c = s.compiled(doc).expect("collection type compiles");
        assert!(c.num_states() > 0);
        // Repeated access returns the same Arc (lazy init, then cached).
        let again = s.compiled(doc).unwrap();
        assert!(std::sync::Arc::ptr_eq(c, again));
    }

    #[test]
    fn unordered_bag_with_multiplicities() {
        let (g, s) = setup(
            "T = {a->U.a->U.b->V}; U = int; V = string",
            r#"o1 = {a->o2, b->o3, a->o4}; o2=1; o3="x"; o4=2"#,
        );
        assert!(conforms(&g, &s).is_some());
        let (g2, s2) = setup(
            "T = {a->U.a->U.b->V}; U = int; V = string",
            r#"o1 = {a->o2, b->o3}; o2=1; o3="x""#,
        );
        assert!(conforms(&g2, &s2).is_none());
    }
}
