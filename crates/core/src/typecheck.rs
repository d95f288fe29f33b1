//! Total and partial type checking (Section 3.2).
//!
//! *Total* type checking — a type for every node/value variable and a
//! label for every label variable — is PTIME for ordered schemas (plus
//! homogeneous collections) with **arbitrary** queries (Proposition 3.2):
//! with everything pinned, each pattern definition can be checked locally
//! (joint first-edge realizability with singleton target sets), and joins
//! reduce to referenceability of the pinned type. For other schemas the
//! problem is as hard as satisfiability and we defer to the general
//! search.
//!
//! *Partial* type checking — types only for the SELECT variables — is
//! exactly satisfiability under pins, and is dispatched like
//! satisfiability (it is NP-complete in general).
//!
//! Word-membership checks done while verifying assignments (content-model
//! conformance, `ssd_schema::conform`) run on the schema's lazily compiled
//! dense transition tables (`ssd_schema::Schema::compiled`) when the
//! content model determinizes within budget, falling back to the Glushkov
//! NFA otherwise — identical verdicts, one table load per edge.

use std::collections::HashMap;

use ssd_base::budget::{Budget, Verdict};
use ssd_base::{Error, LabelId, Result, TypeIdx, VarId};
use ssd_query::{Query, VarKind};
use ssd_schema::{Schema, TypeGraph};

use crate::dispatch::{satisfiable_with_in_b, SatOutcome};
use crate::feas::Constraints;
use crate::session::Session;
use crate::solver;

/// A (total or partial) assignment: types for node/value variables, labels
/// for label variables.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeAssignment {
    /// Types per node/value variable.
    pub types: HashMap<VarId, TypeIdx>,
    /// Labels per label variable.
    pub labels: HashMap<VarId, LabelId>,
}

impl TypeAssignment {
    /// An empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pins a variable's type.
    pub fn with_type(mut self, v: VarId, t: TypeIdx) -> Self {
        self.types.insert(v, t);
        self
    }

    /// Pins a label variable.
    pub fn with_label(mut self, v: VarId, l: LabelId) -> Self {
        self.labels.insert(v, l);
        self
    }

    /// Converts into engine constraints.
    pub fn to_constraints(&self) -> Constraints {
        Constraints {
            var_types: self.types.clone(),
            label_vars: self.labels.clone(),
            leaf_vars: Default::default(),
        }
    }
}

/// Total type checking: is there a database conforming to `s` and a
/// binding realizing exactly this assignment for **all** variables?
/// Runs through `sess`'s caches. The PTIME path for ordered schemas runs
/// to completion; the general search underneath other schemas runs under
/// `budget` and returns [`Verdict::Exhausted`] when it trips.
pub fn total_type_check_in_b(
    q: &Query,
    s: &Schema,
    a: &TypeAssignment,
    sess: &Session,
    budget: &Budget,
) -> Result<Verdict<bool>> {
    // The pinned search underneath shares this check's trace id.
    let _req = ssd_obs::begin_request();
    let _span = ssd_obs::span(sess.recorder(), ssd_obs::names::span::TYPECHECK);
    // Coverage validation.
    for v in q.vars() {
        match q.kind(v) {
            VarKind::Node { .. } | VarKind::Value => {
                if !a.types.contains_key(&v) {
                    return Err(Error::invalid(format!(
                        "total type checking needs a type for variable {}",
                        q.var_name(v)
                    )));
                }
            }
            VarKind::Label => {
                if !a.labels.contains_key(&v) {
                    return Err(Error::invalid(format!(
                        "total type checking needs a label for variable {}",
                        q.var_name(v)
                    )));
                }
            }
        }
    }

    if !s.class().is_ordered_plus_homogeneous() {
        // NP in general: run the complete search with everything pinned.
        let c = a.to_constraints();
        return Ok(solver::solve_with_in_b(q, s, &c, sess, budget)
            .map(|r| r.satisfiable)
            .into());
    }

    // PTIME path (Proposition 3.2).
    let tg = sess.type_graph(s);
    Ok(Verdict::Done(total_check_ordered(q, s, &tg, a, sess)))
}

/// The PTIME total check for ordered (+ homogeneous) schemas. Each local
/// definition check runs through the session's feas memo, so repeated
/// total checks of one assignment are answered from cache.
pub(crate) fn total_check_ordered(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    a: &TypeAssignment,
    sess: &Session,
) -> bool {
    // Root variable binds the root node, which carries the root type.
    if a.types.get(&q.root_var()) != Some(&s.root()) {
        return false;
    }
    // Multiply-referenced variables need referenceable types (exact for
    // ordered schemas: distinct first edges prevent path sharing).
    // (Value and label joins are consistent by construction — one pinned
    // value/label per variable — so only node joins are checked.)
    for &jv in &q.class().join_vars {
        if let VarKind::Node { .. } = q.kind(jv) {
            let Some(&t) = a.types.get(&jv) else {
                return false;
            };
            if !s.is_referenceable(t) || !tg.is_inhabited(t) {
                return false;
            }
        }
    }

    // Each definition is checked locally with every other variable treated
    // as a pinned leaf.
    let mut base = Constraints {
        var_types: a.types.clone(),
        label_vars: a.labels.clone(),
        leaf_vars: Default::default(),
    };
    for v in q.vars() {
        base.leaf_vars.insert(v);
    }
    for (v, _) in q.defs() {
        let mut c = base.clone();
        c.leaf_vars.remove(v);
        let t = a.types[v];
        let feas = sess.feas_analysis(q, s, tg, &c);
        if !feas.feas[v.index()].contains(&t) {
            return false;
        }
    }
    // Variables without definitions only need kind/inhabitation checks,
    // which analyze_tree_obs applies; run one unconstrained-leaf pass for them.
    for v in q.vars() {
        if matches!(q.kind(v), VarKind::Node { .. } | VarKind::Value) && q.def(v).is_none() {
            let t = a.types[&v];
            let feas = sess.feas_analysis(q, s, tg, &base);
            if !feas.feas[v.index()].contains(&t) {
                return false;
            }
        }
    }
    true
}

/// Partial type checking: pins only the SELECT variables' types/labels and
/// asks for satisfiability (Section 3's problem (3)) through `sess`'s
/// caches under `budget`.
pub fn partial_type_check_in_b(
    q: &Query,
    s: &Schema,
    a: &TypeAssignment,
    sess: &Session,
    budget: &Budget,
) -> Result<Verdict<SatOutcome>> {
    for v in a.types.keys().chain(a.labels.keys()) {
        if !q.select().contains(v) {
            return Err(Error::invalid(format!(
                "partial type checking pins only SELECT variables; {} is not selected",
                q.var_name(*v)
            )));
        }
    }
    let c = a.to_constraints();
    satisfiable_with_in_b(q, s, &c, sess, budget)
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

    const PAPER_QUERY: &str = r#"SELECT X1
        WHERE Root = [paper -> X1];
              X1 = [author.name._+ -> X2, author.name._+ -> X3];
              X2 = "Vianu"; X3 = "Abiteboul""#;

    fn setup() -> (Query, Schema) {
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query(PAPER_QUERY, &pool).unwrap();
        (q, s)
    }

    fn total_type_check(q: &Query, s: &Schema, a: &TypeAssignment) -> Result<bool> {
        Session::new().total_type_check(q, s, a)
    }

    fn partial_type_check(q: &Query, s: &Schema, a: &TypeAssignment) -> Result<SatOutcome> {
        Session::new().partial_type_check(q, s, a)
    }

    #[test]
    fn papers_total_check_examples() {
        let (q, s) = setup();
        let v = |n: &str| q.var_by_name(n).unwrap();
        let t = |n: &str| s.by_name(n).unwrap();
        // Positive: (Root/DOCUMENT, X1/PAPER, X2/LASTNAME, X3/FIRSTNAME).
        let good = TypeAssignment::new()
            .with_type(v("Root"), t("DOCUMENT"))
            .with_type(v("X1"), t("PAPER"))
            .with_type(v("X2"), t("LASTNAME"))
            .with_type(v("X3"), t("FIRSTNAME"));
        assert!(total_type_check(&q, &s, &good).unwrap());
        // Negative: X3/EMAIL (email is not under name).
        let bad = TypeAssignment::new()
            .with_type(v("Root"), t("DOCUMENT"))
            .with_type(v("X1"), t("PAPER"))
            .with_type(v("X2"), t("LASTNAME"))
            .with_type(v("X3"), t("EMAIL"));
        assert!(!total_type_check(&q, &s, &bad).unwrap());
    }

    #[test]
    fn total_check_requires_full_coverage() {
        let (q, s) = setup();
        let v = |n: &str| q.var_by_name(n).unwrap();
        let t = |n: &str| s.by_name(n).unwrap();
        let partial = TypeAssignment::new().with_type(v("X1"), t("PAPER"));
        assert!(total_type_check(&q, &s, &partial).is_err());
    }

    #[test]
    fn papers_partial_check_examples() {
        let (q, s) = setup();
        let x1 = q.var_by_name("X1").unwrap();
        // X1/PAPER positive, X1/NAME negative.
        let pos = TypeAssignment::new().with_type(x1, s.by_name("PAPER").unwrap());
        assert!(partial_type_check(&q, &s, &pos).unwrap().satisfiable);
        let neg = TypeAssignment::new().with_type(x1, s.by_name("NAME").unwrap());
        assert!(!partial_type_check(&q, &s, &neg).unwrap().satisfiable);
    }

    #[test]
    fn partial_check_rejects_non_select_pins() {
        let (q, s) = setup();
        let x2 = q.var_by_name("X2").unwrap();
        let a = TypeAssignment::new().with_type(x2, s.by_name("LASTNAME").unwrap());
        assert!(partial_type_check(&q, &s, &a).is_err());
    }

    #[test]
    fn wrong_root_type_fails() {
        let (q, s) = setup();
        let v = |n: &str| q.var_by_name(n).unwrap();
        let t = |n: &str| s.by_name(n).unwrap();
        let bad = TypeAssignment::new()
            .with_type(v("Root"), t("PAPER"))
            .with_type(v("X1"), t("PAPER"))
            .with_type(v("X2"), t("LASTNAME"))
            .with_type(v("X3"), t("FIRSTNAME"));
        assert!(!total_type_check(&q, &s, &bad).unwrap());
    }

    #[test]
    fn total_check_with_joins_requires_referenceable() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.b->U]; U = int", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [a -> &X, b -> &X]", &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        let root = q.root_var();
        let a = TypeAssignment::new()
            .with_type(root, s.by_name("T").unwrap())
            .with_type(x, s.by_name("U").unwrap());
        // U is not referenceable: the join cannot be realized.
        assert!(!total_type_check(&q, &s, &a).unwrap());

        let s2 = parse_schema("T = [a->&U.b->&U]; &U = int", &pool).unwrap();
        let q2 = parse_query("SELECT X WHERE Root = [a -> &X, b -> &X]", &pool).unwrap();
        let a2 = TypeAssignment::new()
            .with_type(q2.root_var(), s2.by_name("T").unwrap())
            .with_type(q2.var_by_name("X").unwrap(), s2.by_name("U").unwrap());
        assert!(total_type_check(&q2, &s2, &a2).unwrap());
    }

    #[test]
    fn total_check_on_unordered_schema_falls_back() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = {a->U.b->V}; U = int; V = string", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = {a -> X}", &pool).unwrap();
        let a = TypeAssignment::new()
            .with_type(q.root_var(), s.by_name("T").unwrap())
            .with_type(q.var_by_name("X").unwrap(), s.by_name("U").unwrap());
        assert!(total_type_check(&q, &s, &a).unwrap());
        let bad = TypeAssignment::new()
            .with_type(q.root_var(), s.by_name("T").unwrap())
            .with_type(q.var_by_name("X").unwrap(), s.by_name("V").unwrap());
        assert!(!total_type_check(&q, &s, &bad).unwrap());
    }
}
