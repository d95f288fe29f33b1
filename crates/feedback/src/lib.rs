//! Feedback queries (Milo & Suciu, PODS 1999, Section 4.1).
//!
//! Given a query `Q` and a schema `S`, the *feedback query* `Q'` replaces
//! each path expression `Rᵢ` with the minimal `Rᵢ'` such that (a) `Q` and
//! `Q'` are equivalent on all instances of `S`, (b) `lang(Rᵢ') ⊆
//! lang(Rᵢ)`, and (c) `Rᵢ'` is smallest among such rewritings
//! (Proposition 4.1: computable in PTIME). The user learns which parts of
//! their path expressions were redundant or over-general.
//!
//! Computation: for each definition, build the generalized trace-product
//! automaton (start types = globally satisfiable types of the definition's
//! variable, leaf predicate = bottom-up feasible sets), trim it, project
//! segment `i` as the label language between the `i−1`-st and `i`-th
//! markers, minimize, and convert back to a regular expression.

#![deny(missing_docs)]

use std::collections::BTreeSet;

use ssd_automata::dfa::{determinize, minimize};
use ssd_automata::ops::trim;
use ssd_automata::regexgen::nfa_to_regex;
use ssd_automata::{LabelAtom, Nfa, Regex};
use ssd_base::{Error, Result, TypeIdx, VarId};
use ssd_core::feas::Constraints;
use ssd_core::marker::TraceAtom;
use ssd_core::ptraces::def_trace_automaton;
use ssd_core::Session;
use ssd_query::{EdgeExpr, PatDef, PatEdge, Query};
use ssd_schema::Schema;

/// Computes the feedback query of `q` against `s` (Proposition 4.1).
///
/// Requires a join-free query whose collection definitions are ordered and
/// regex-only, over an ordered schema — the class for which the paper
/// states the PTIME result (its Section 4.1 restriction plus the
/// "straightforward" multi-definition extension). The type graph and every
/// feasibility analysis come from (and are recorded in) `sess`.
pub fn feedback_query(q: &Query, s: &Schema, sess: &Session) -> Result<Query> {
    if !q.class().join_free() {
        return Err(Error::unsupported(
            "feedback queries need join-free queries",
        ));
    }
    if !s.class().ordered {
        return Err(Error::unsupported("feedback queries need ordered schemas"));
    }
    let tg = sess.type_graph(s);
    // Bottom-up feasible sets (leaf predicate).
    let local = sess.feas_analysis(q, s, &tg, &Constraints::none());

    let mut out = q.clone();
    for (di, (v, def)) in q.defs().iter().enumerate() {
        let PatDef::Ordered(entries) = def else {
            continue; // value definitions carry no path expressions
        };
        let mut regex_entries: Vec<(Regex<LabelAtom>, VarId)> = Vec::new();
        for e in entries {
            match &e.expr {
                EdgeExpr::Regex(r) => regex_entries.push((r.clone(), e.target)),
                EdgeExpr::LabelVar(_) => {
                    return Err(Error::unsupported(
                        "feedback queries support regex entries only",
                    ))
                }
            }
        }
        // Globally satisfiable types of the definition's variable.
        let start_types: Vec<TypeIdx> = s
            .types()
            .filter(|&t| {
                sess.feas_analysis(q, s, &tg, &Constraints::none().pin_type(*v, t))
                    .satisfiable
            })
            .collect();
        let trace = def_trace_automaton(s, &tg, *v, &start_types, &regex_entries, &|tv, ty| {
            local.feas[tv.index()].contains(&ty)
        });
        let trace = trim(&trace);

        let mut new_entries = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let prev_var = if i == 0 { *v } else { entries[i - 1].target };
            let lang = segment_language(&trace, prev_var, e.target);
            let small = minimize(&determinize(&lang)).to_nfa();
            let re = nfa_to_regex(&trim(&small));
            new_entries.push(PatEdge {
                expr: EdgeExpr::Regex(re),
                target: e.target,
            });
        }
        out = out.with_def_replaced(di, PatDef::Ordered(new_entries));
    }
    Ok(out)
}

/// Extracts segment language: label words readable between the marker of
/// `prev_var` and the marker of `end_var` in the (trimmed) trace
/// automaton.
pub fn segment_language(trace: &Nfa<TraceAtom>, prev_var: VarId, end_var: VarId) -> Nfa<LabelAtom> {
    let n = trace.num_states();
    // Fresh start state n; copy label transitions.
    let mut out = Nfa::with_states(n + 1, n);
    let mut starts: BTreeSet<usize> = BTreeSet::new();
    for (src, atom, dst) in trace.all_edges() {
        match atom {
            TraceAtom::Label(l) => out.add_transition(src, LabelAtom::Label(*l), dst),
            TraceAtom::AnyLabel => out.add_transition(src, LabelAtom::Any, dst),
            TraceAtom::Mark(v, _) if *v == prev_var => {
                starts.insert(dst);
            }
            TraceAtom::Mark(_, _) => {}
        }
    }
    for (src, atom, _dst) in trace.all_edges() {
        if let TraceAtom::Mark(v, _) = atom {
            if *v == end_var {
                out.set_accepting(src, true);
            }
        }
    }
    // Wire the fresh start with copies of the start states' label edges,
    // and make it accepting if a start state is directly accepting (empty
    // segment — cannot happen for non-ε path languages, but harmless).
    for &st in &starts {
        for (atom, dst) in trace.edges(st).to_vec() {
            match atom {
                TraceAtom::Label(l) => out.add_transition(n, LabelAtom::Label(l), dst),
                TraceAtom::AnyLabel => out.add_transition(n, LabelAtom::Any, dst),
                TraceAtom::Mark(_, _) => {}
            }
        }
        if out.is_accepting(st) {
            out.set_accepting(n, true);
        }
    }
    trim(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_automata::dfa::{equivalent, included};
    use ssd_automata::display::regex_to_string;
    use ssd_automata::glushkov;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    const PAPER_SCHEMA: &str = r#"
        DOCUMENT = [(paper->PAPER)*];
        PAPER = [title->TITLE.(author->AUTHOR)*];
        AUTHOR = [name->NAME.email->EMAIL];
        NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
        TITLE = string; FIRSTNAME = string;
        LASTNAME = string; EMAIL = string
    "#;

    fn show_entry(q: &Query, def_idx: usize, entry_idx: usize, pool: &SharedInterner) -> String {
        let (_, def) = &q.defs()[def_idx];
        match &def.edges()[entry_idx].expr {
            EdgeExpr::Regex(r) => regex_to_string(r, &mut |a| match a {
                LabelAtom::Label(l) => pool.resolve(*l),
                LabelAtom::Any => "_".to_owned(),
            }),
            EdgeExpr::LabelVar(_) => unreachable!(),
        }
    }

    fn entry_regex(q: &Query, def_idx: usize, entry_idx: usize) -> Regex<LabelAtom> {
        let (_, def) = &q.defs()[def_idx];
        match &def.edges()[entry_idx].expr {
            EdgeExpr::Regex(r) => r.clone(),
            EdgeExpr::LabelVar(_) => unreachable!(),
        }
    }

    #[test]
    fn papers_worked_example() {
        // Q = SELECT X3 WHERE Root=[paper.author→X1];
        //     X1=[_*.name._+ → X2, _*.email → X3]; X2="Gray"
        // Feedback: the leading/trailing _* are redundant; name's tail can
        // only be firstname|lastname.
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query(
            r#"SELECT X3
               WHERE Root = [paper.author -> X1];
                     X1 = [_*.name._+ -> X2, _*.email -> X3];
                     X2 = "Gray""#,
            &pool,
        )
        .unwrap();
        let fb = feedback_query(&q, &s, &Session::new()).unwrap();

        // Root entry stays paper.author (already minimal).
        let root_entry = entry_regex(&fb, 0, 0);
        let orig = entry_regex(&q, 0, 0);
        assert!(equivalent(
            &glushkov::build(&root_entry),
            &glushkov::build(&orig)
        ));

        // X1's first entry becomes name.(firstname|lastname).
        let want =
            ssd_automata::parser::parse_path_regex("name.(firstname|lastname)", &pool).unwrap();
        let got = entry_regex(&fb, 1, 0);
        assert!(
            equivalent(&glushkov::build(&got), &glushkov::build(&want)),
            "got {}",
            show_entry(&fb, 1, 0, &pool)
        );

        // X1's second entry becomes plain email.
        let want2 = ssd_automata::parser::parse_path_regex("email", &pool).unwrap();
        let got2 = entry_regex(&fb, 1, 1);
        assert!(
            equivalent(&glushkov::build(&got2), &glushkov::build(&want2)),
            "got {}",
            show_entry(&fb, 1, 1, &pool)
        );
    }

    #[test]
    fn feedback_is_a_sublanguage() {
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [_+ -> P]; P = [_._ -> X]", &pool).unwrap();
        let fb = feedback_query(&q, &s, &Session::new()).unwrap();
        for (di, (_, def)) in q.defs().iter().enumerate() {
            for (ei, _) in def.edges().iter().enumerate() {
                let orig = glushkov::build(&entry_regex(&q, di, ei));
                let new = glushkov::build(&entry_regex(&fb, di, ei));
                assert!(included(&new, &orig), "def {di} entry {ei}");
            }
        }
    }

    #[test]
    fn unsatisfiable_query_feeds_back_empty_languages() {
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [isbn -> X]", &pool).unwrap();
        let fb = feedback_query(&q, &s, &Session::new()).unwrap();
        let r = entry_regex(&fb, 0, 0);
        assert!(r.is_empty_lang());
    }

    #[test]
    fn feedback_preserves_results_on_witnesses() {
        use ssd_query::select_results;
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query(
            "SELECT X WHERE Root = [paper -> P]; P = [_*.lastname -> X]",
            &pool,
        )
        .unwrap();
        let fb = feedback_query(&q, &s, &Session::new()).unwrap();
        // On a concrete conforming document, results agree.
        let g = ssd_model::parse_data_graph(
            r#"o1 = [paper -> o2];
               o2 = [title -> o3, author -> o4];
               o3 = "t";
               o4 = [name -> o5, email -> o6];
               o5 = [firstname -> o7, lastname -> o8];
               o6 = "e"; o7 = "J"; o8 = "S""#,
            &pool,
        )
        .unwrap();
        assert_eq!(select_results(&q, &g), select_results(&fb, &g));
        assert!(!select_results(&fb, &g).is_empty());
    }

    #[test]
    fn rejects_out_of_class_inputs() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = {a->U.b->V}; U = int; V = int", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = {a -> X}", &pool).unwrap();
        assert!(feedback_query(&q, &s, &Session::new()).is_err()); // unordered schema
        let s2 = parse_schema("T = [a->&U.b->&U]; &U = int", &pool).unwrap();
        let q2 = parse_query("SELECT X WHERE Root = [a -> &X, b -> &X]", &pool).unwrap();
        assert!(feedback_query(&q2, &s2, &Session::new()).is_err()); // joins
    }
}
