//! Type inference (Sections 3, problem (4)): enumerate every type/label
//! assignment of the SELECT variables for which partial type checking
//! succeeds.
//!
//! The enumeration is a pruned depth-first search over the SELECT
//! variables: each prefix of pins is tested with the dispatched
//! satisfiability procedure, so unsatisfiable prefixes are cut before
//! their subtrees are expanded. In the PTIME classes of Table 2 each test
//! is polynomial and every internal node of the search tree has a
//! satisfiable leaf below it, making the procedure polynomial in the size
//! of input *plus output*, matching §3.3. In the NP classes each test may
//! itself be exponential, matching the lower bound (no output-polynomial
//! algorithm exists unless P=NP).

use std::collections::BTreeSet;

use ssd_base::budget::{Budget, Exhausted, Verdict};
use ssd_base::{LabelId, TypeIdx, VarId};
use ssd_obs::names;
use ssd_query::{Query, VarKind};
use ssd_schema::{Schema, TypeGraph};

use crate::dispatch::satisfiable_with_in_b;
use crate::feas::Constraints;
use crate::session::Session;
use crate::Result;

/// One inferred assignment for the SELECT variables, in SELECT order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct InferredAssignment {
    /// Per SELECT variable: a type (node/value variables) or a label
    /// (label variables).
    pub entries: Vec<(VarId, InferredValue)>,
}

/// What a SELECT variable was inferred to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum InferredValue {
    /// A type, for node and value variables.
    Type(TypeIdx),
    /// A label, for label variables.
    Label(LabelId),
}

/// Enumerates all satisfiable SELECT-variable assignments. The per-prefix
/// satisfiability tests of the search all share `sess`, so the path
/// automata of `q` are built once for the whole enumeration, and they all
/// share `budget`, so an oversized enumeration returns
/// [`Verdict::Exhausted`] (partial assignments are discarded — an
/// incomplete inference is not an answer) instead of hanging.
pub fn infer_in_b(
    q: &Query,
    s: &Schema,
    sess: &Session,
    budget: &Budget,
) -> Result<Verdict<Vec<InferredAssignment>>> {
    // Nested satisfiability probes join this enumeration's trace id.
    let _req = ssd_obs::begin_request();
    let _span = ssd_obs::span(sess.recorder(), names::span::INFER);
    let tg = sess.type_graph(s);
    let select = q.select().to_vec();
    let mut out = Vec::new();
    let mut prefix = Vec::new();
    if let Some(e) = search(
        q,
        s,
        &tg,
        &select,
        0,
        &Constraints::none(),
        &mut prefix,
        &mut out,
        sess,
        budget,
    )? {
        return Ok(Verdict::Exhausted(e));
    }
    out.sort();
    out.dedup();
    Ok(Verdict::Done(out))
}

/// One step of the pruned DFS. `Ok(Some(e))` means the budget tripped
/// somewhere below — unwind immediately.
#[allow(clippy::too_many_arguments)]
fn search(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    select: &[VarId],
    i: usize,
    c: &Constraints,
    prefix: &mut Vec<(VarId, InferredValue)>,
    out: &mut Vec<InferredAssignment>,
    sess: &Session,
    budget: &Budget,
) -> Result<Option<Exhausted>> {
    // Prune unsatisfiable prefixes (also handles i == select.len()).
    sess.recorder().add(names::counter::INFER_PREFIXES, 1);
    match satisfiable_with_in_b(q, s, c, sess, budget)? {
        Verdict::Exhausted(e) => return Ok(Some(e)),
        Verdict::Done(o) if !o.satisfiable => return Ok(None),
        Verdict::Done(_) => {}
    }
    if i == select.len() {
        out.push(InferredAssignment {
            entries: prefix.clone(),
        });
        return Ok(None);
    }
    let v = select[i];
    match q.kind(v) {
        VarKind::Node { .. } | VarKind::Value => {
            for t in s.types() {
                if !tg.is_inhabited(t) {
                    continue;
                }
                let c2 = c.clone().pin_type(v, t);
                prefix.push((v, InferredValue::Type(t)));
                let tripped = search(q, s, tg, select, i + 1, &c2, prefix, out, sess, budget)?;
                prefix.pop();
                if tripped.is_some() {
                    return Ok(tripped);
                }
            }
        }
        VarKind::Label => {
            let mut labels = BTreeSet::new();
            for t in s.types() {
                for a in tg.step(t) {
                    labels.insert(a.label);
                }
            }
            for l in labels {
                let c2 = c.clone().pin_label(v, l);
                prefix.push((v, InferredValue::Label(l)));
                let tripped = search(q, s, tg, select, i + 1, &c2, prefix, out, sess, budget)?;
                prefix.pop();
                if tripped.is_some() {
                    return Ok(tripped);
                }
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run(schema: &str, query: &str) -> (Query, Schema, Vec<InferredAssignment>) {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        let inf = Session::new().infer(&q, &s).unwrap();
        (q, s, inf)
    }

    #[test]
    fn papers_inference_yields_single_type_paper() {
        // "type inference here infers a single type, PAPER, for the
        // selected variable X1" (Section 3).
        let (_, s, inf) = run(
            PAPER_SCHEMA,
            r#"SELECT X1
               WHERE Root = [paper -> X1];
                     X1 = [author.name._+ -> X2, author.name._+ -> X3];
                     X2 = "Vianu"; X3 = "Abiteboul""#,
        );
        assert_eq!(inf.len(), 1);
        assert_eq!(
            inf[0].entries[0].1,
            InferredValue::Type(s.by_name("PAPER").unwrap())
        );
    }

    #[test]
    fn wildcard_leaf_infers_both_name_parts() {
        let (_, s, inf) = run(
            PAPER_SCHEMA,
            "SELECT X WHERE Root = [paper.author.name._+ -> X]",
        );
        let types: BTreeSet<TypeIdx> = inf
            .iter()
            .map(|a| match a.entries[0].1 {
                InferredValue::Type(t) => t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            types,
            [
                s.by_name("FIRSTNAME").unwrap(),
                s.by_name("LASTNAME").unwrap()
            ]
            .into_iter()
            .collect()
        );
    }

    #[test]
    fn multi_variable_inference_is_joint() {
        // X before Y in an ordered PAPER: (TITLE, AUTHOR) works, but both
        // selections must be jointly consistent — (AUTHOR, TITLE) must not
        // appear.
        let (_, s, inf) = run(
            PAPER_SCHEMA,
            "SELECT X, Y WHERE Root = [paper -> P]; P = [_ -> X, _ -> Y]",
        );
        let title = s.by_name("TITLE").unwrap();
        let author = s.by_name("AUTHOR").unwrap();
        let pairs: BTreeSet<(TypeIdx, TypeIdx)> = inf
            .iter()
            .map(|a| match (a.entries[0].1, a.entries[1].1) {
                (InferredValue::Type(x), InferredValue::Type(y)) => (x, y),
                _ => unreachable!(),
            })
            .collect();
        assert!(pairs.contains(&(title, author)));
        assert!(!pairs.contains(&(author, title)));
        assert!(pairs.contains(&(author, author)));
    }

    #[test]
    fn label_variable_inference() {
        let (_, s, inf) = run(
            "T = [a->U | b->V]; U = int; V = string",
            "SELECT L WHERE Root = [L -> X]",
        );
        let pool_labels: BTreeSet<InferredValue> = inf.iter().map(|a| a.entries[0].1).collect();
        assert_eq!(pool_labels.len(), 2);
        let _ = s;
    }

    #[test]
    fn empty_select_infers_empty_tuple_iff_satisfiable() {
        let (_, _, inf) = run("T = [a->U]; U = int", "SELECT WHERE Root = [a -> X]");
        assert_eq!(inf.len(), 1);
        assert!(inf[0].entries.is_empty());
        let (_, _, inf2) = run("T = [a->U]; U = int", "SELECT WHERE Root = [b -> X]");
        assert!(inf2.is_empty());
    }
}
