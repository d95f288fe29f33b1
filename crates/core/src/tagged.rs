//! The PTIME algorithm for tagged, ordered schemas (`DTD+` ⊇ `DTD−`) and
//! constant-suffix queries — the bottom row of Table 2.
//!
//! In a tagged schema the label↔type relation is one-to-one, so the type
//! of every variable is *forced* by the constant suffix of the path
//! reaching it. Satisfiability then reduces to total type checking of the
//! forced assignment, which is PTIME for ordered schemas (Prop. 3.2).
//! Joins on node and value variables are allowed; label-variable joins are
//! excluded (they alone make the problem NP-complete — §3.1's remark on
//! XML), and indeed constant-suffix queries contain no label variables.

use std::collections::HashMap;

use ssd_automata::LabelAtom;
use ssd_base::{Error, Result, TypeIdx, VarId};
use ssd_query::classify::constant_label_suffix;
use ssd_query::{EdgeExpr, Query, VarKind};
use ssd_schema::{Schema, TypeGraph};

use crate::feas::Constraints;
use crate::typecheck::{total_check_ordered, TypeAssignment};

/// Decides satisfiability for a constant-suffix query over a tagged,
/// ordered schema, in PTIME. Errors if the inputs are outside the class.
/// The session's caches (automata tables and the feas memo) back the final
/// total check.
pub fn satisfiable_tagged_in(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    sess: &crate::Session,
) -> Result<bool> {
    let sclass = s.class();
    if !(sclass.ordered && sclass.tagged) {
        return Err(Error::unsupported(
            "the tagged algorithm needs an ordered, tagged schema (DTD+)",
        ));
    }
    if !q.class().constant_suffix {
        return Err(Error::unsupported(
            "the tagged algorithm needs a constant-suffix query",
        ));
    }
    let tags = s.tags().expect("tagged schema has a tag map");

    // Force the assignment: root variable gets the root type; every entry
    // target gets the type tagged by its path's suffix label.
    let mut forced: HashMap<VarId, TypeIdx> = HashMap::new();
    forced.insert(q.root_var(), s.root());
    for (_, def) in q.defs() {
        for e in def.edges() {
            let EdgeExpr::Regex(r) = &e.expr else {
                return Err(Error::unsupported(
                    "constant-suffix queries contain no label variables",
                ));
            };
            let Some(LabelAtom::Label(l)) = constant_label_suffix(r) else {
                return Err(Error::unsupported("entry lacks a constant suffix"));
            };
            let Some(&t) = tags.get(&l) else {
                return Ok(false); // label unknown to the schema
            };
            match forced.insert(e.target, t) {
                Some(prev) if prev != t => return Ok(false), // type conflict
                _ => {}
            }
        }
    }

    // Respect caller pins (partial type checking / inference).
    for (&v, &t) in &c.var_types {
        if matches!(q.kind(v), VarKind::Node { .. }) {
            match forced.get(&v) {
                Some(&f) if f != t => return Ok(false),
                Some(_) => {}
                None => {
                    forced.insert(v, t);
                }
            }
        }
    }

    // Value variables: pin each to (a representative type of) the atomic
    // kind of its defining node, or to the caller's pin.
    let mut assignment = TypeAssignment::new();
    assignment.types = forced.clone();
    for v in q.vars() {
        if q.kind(v) == VarKind::Value && !assignment.types.contains_key(&v) {
            match c.var_types.get(&v) {
                Some(&t) => {
                    assignment.types.insert(v, t);
                }
                None => {
                    // Find the (unique, forced) type of a node defined as
                    // this value variable.
                    let node_t = q.defs().iter().find_map(|(nv, def)| match def {
                        ssd_query::PatDef::ValueVar(vv) if *vv == v => forced.get(nv).copied(),
                        _ => None,
                    });
                    match node_t {
                        Some(t) => {
                            assignment.types.insert(v, t);
                        }
                        None => return Ok(false),
                    }
                }
            }
        }
    }

    // Every node variable must be forced (connected patterns guarantee it).
    for v in q.vars() {
        if matches!(q.kind(v), VarKind::Node { .. }) && !assignment.types.contains_key(&v) {
            return Err(Error::invalid(format!(
                "variable {} received no forced type (disconnected pattern?)",
                q.var_name(v)
            )));
        }
    }

    Ok(total_check_ordered(q, s, tg, &assignment, sess))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::{parse_dtd, parse_schema};

    const PAPER_DTD: &str = r#"
        <!ELEMENT Document (paper*) >
        <!ELEMENT paper (title,(author)*) >
        <!ELEMENT title #PCDATA >
        <!ELEMENT author (name, email) >
        <!ELEMENT name (firstname,lastname) >
        <!ELEMENT firstname #PCDATA >
        <!ELEMENT lastname #PCDATA >
        <!ELEMENT email #PCDATA >
    "#;

    fn satisfiable_tagged(q: &Query, s: &Schema, tg: &TypeGraph, c: &Constraints) -> Result<bool> {
        satisfiable_tagged_in(q, s, tg, c, &crate::Session::new())
    }

    fn sat(query: &str) -> bool {
        let pool = SharedInterner::new();
        let s = parse_dtd(PAPER_DTD, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        let tg = TypeGraph::new(&s);
        satisfiable_tagged(&q, &s, &tg, &Constraints::none()).unwrap()
    }

    #[test]
    fn constant_suffix_queries_over_the_papers_dtd() {
        assert!(sat(
            r#"SELECT X WHERE Root = [paper -> P]; P = [_*.lastname -> X]"#
        ));
        assert!(sat(
            r#"SELECT X WHERE Root = [paper -> P]; P = [title -> T, author -> X]"#
        ));
        // author before title violates the content model's order.
        assert!(!sat(
            r#"SELECT X WHERE Root = [paper -> P]; P = [author -> X, title -> T]"#
        ));
        // No such label anywhere.
        assert!(!sat(r#"SELECT X WHERE Root = [_*.isbn -> X]"#));
    }

    #[test]
    fn value_joins_are_ptime_here() {
        // Two string leaves joined on the same value: types agree (string),
        // so the forced assignment checks out.
        assert!(sat(r#"SELECT V WHERE Root = [paper -> P];
               P = [title -> T, _*.lastname -> X]; T = V; X = V"#));
    }

    #[test]
    fn node_joins_on_trees_are_unsatisfiable() {
        // DTD− instances are trees: a node join from two distinct entries
        // cannot be realized (the paper's observation).
        assert!(!sat(r#"SELECT X WHERE Root = [paper -> P];
               P = [_*.firstname -> &X, _*.lastname -> &X]"#));
    }

    #[test]
    fn wrong_class_inputs_error() {
        let pool = SharedInterner::new();
        // Untagged schema.
        let s = parse_schema("T = [a->U.a->V]; U = int; V = string", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [a -> X]", &pool).unwrap();
        let tg = TypeGraph::new(&s);
        assert!(satisfiable_tagged(&q, &s, &tg, &Constraints::none()).is_err());
        // Non-constant-suffix query over a tagged schema.
        let s2 = parse_dtd(PAPER_DTD, &pool).unwrap();
        let q2 = parse_query("SELECT X WHERE Root = [(paper|title) -> X]", &pool).unwrap();
        let tg2 = TypeGraph::new(&s2);
        assert!(satisfiable_tagged(&q2, &s2, &tg2, &Constraints::none()).is_err());
    }

    #[test]
    fn pinned_types_interact_with_forcing() {
        let pool = SharedInterner::new();
        let s = parse_dtd(PAPER_DTD, &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [paper -> X]", &pool).unwrap();
        let tg = TypeGraph::new(&s);
        let x = q.var_by_name("X").unwrap();
        let paper = s.by_name("E_paper").unwrap();
        let title = s.by_name("E_title").unwrap();
        let ok = satisfiable_tagged(&q, &s, &tg, &Constraints::none().pin_type(x, paper));
        assert!(ok.unwrap());
        let bad = satisfiable_tagged(&q, &s, &tg, &Constraints::none().pin_type(x, title));
        assert!(!bad.unwrap());
    }
}
