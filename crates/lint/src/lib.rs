//! `ssd-lint`: a span-aware static analyzer for queries against schemas.
//!
//! Given a parsed query, a schema, and optional pinned constraints, the
//! linter produces structured, ranked diagnostics — each anchored to a
//! parser-recorded source [`Span`](ssd_base::Span) and, where the claim
//! is an emptiness fact, carrying the witness that decides it:
//!
//! | code | severity | backing fact |
//! |---|---|---|
//! | `unsat-query` | error | the dispatcher decided `Tr(P) ∩ Tr(S) = ∅` |
//! | `dead-branch` | error | one alternative alone decided unsatisfiable |
//! | `unknown-label` | error | no reachable inhabited type emits the label |
//! | `redundant-constraint` | warning | analysis unchanged without one pin |
//! | `budget-exhausted` | warning | a check tripped its [`Budget`](ssd_core::Budget) |
//!
//! Every check runs through a [`Session`](ssd_core::Session) (so automata,
//! type graphs, and feas analyses are shared and memoized) and records
//! `lint_*` spans and counters via `ssd-obs`. An exhausted budget is
//! surfaced as a warning, never promoted to an error.
//!
//! ```
//! use ssd_base::SharedInterner;
//! use ssd_core::{Budget, Constraints, Session};
//! use ssd_lint::{lint_with, Code};
//!
//! let pool = SharedInterner::new();
//! let s = ssd_schema::parse_schema("T = [a->U]; U = int", &pool).unwrap();
//! let q = ssd_query::parse_query("SELECT X WHERE Root = [b -> X]", &pool).unwrap();
//! let sess = Session::new();
//! let report = lint_with(&q, &s, &Constraints::none(), &sess, Budget::unlimited_ref()).unwrap();
//! assert_eq!(report.count(Code::UnsatQuery), 1);
//! assert_eq!(report.count(Code::UnknownLabel), 1);
//! ```

#![deny(missing_docs)]

pub mod diagnostic;
pub mod lint;

pub use diagnostic::{Code, Diagnostic, LintReport, Severity};
pub use lint::lint_with;

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::budget::Budget;
    use ssd_base::SharedInterner;
    use ssd_core::{Constraints, Session};
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    const BIB: &str = r#"DOCUMENT = [(paper->PAPER)*];
PAPER = [title->TITLE.(author->AUTHOR)*];
AUTHOR = [name->NAME.email->EMAIL];
NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
TITLE = string; FIRSTNAME = string;
LASTNAME = string; EMAIL = string"#;

    fn lint(q: &ssd_query::Query, s: &ssd_schema::Schema) -> ssd_base::Result<LintReport> {
        let sess = Session::new();
        lint_with(q, s, &Constraints::none(), &sess, Budget::unlimited_ref())
    }

    fn run(query: &str) -> LintReport {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        lint(&q, &s).unwrap()
    }

    #[test]
    fn clean_query_yields_no_diagnostics() {
        let r = run("SELECT X WHERE Root = [paper.title -> X]");
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unsat_query_carries_trace_and_db_witness() {
        // title before paper violates the DOCUMENT order.
        let r = run("SELECT X WHERE Root = [title -> X]");
        assert_eq!(r.count(Code::UnsatQuery), 1);
        let d = &r.diagnostics[0];
        assert_eq!(d.severity, Severity::Error);
        assert!(!d.span.is_dummy());
        let w = d.trace_witness.as_deref().unwrap();
        assert!(w.contains("<Root>") && w.contains("title"), "{w}");
        assert!(d.witness_db.is_some());
    }

    #[test]
    fn dead_branch_is_flagged_with_branch_span() {
        // paper.title is live; paper.email is dead (EMAIL hangs off AUTHOR).
        let r = run("SELECT X WHERE Root = [paper.title|paper.email -> X]");
        assert_eq!(r.count(Code::DeadBranch), 1, "{:?}", r.diagnostics);
        assert_eq!(r.count(Code::UnsatQuery), 0);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::DeadBranch)
            .unwrap();
        assert!(!d.span.is_dummy());
    }

    #[test]
    fn unknown_label_reported_once_at_first_use() {
        let r = run("SELECT X WHERE Root = [paper.titel -> X, paper.titel -> Y]");
        assert_eq!(r.count(Code::UnknownLabel), 1, "{:?}", r.diagnostics);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == Code::UnknownLabel)
            .unwrap();
        assert!(d.message.contains("`titel`"), "{}", d.message);
    }

    #[test]
    fn redundant_constraint_detected() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB, &pool).unwrap();
        // X's own definition already forces it to PAPER (only PAPER admits
        // a `title` edge), so pinning X = PAPER adds nothing.
        let q = parse_query(
            "SELECT X WHERE Root = [paper -> X]; X = [title -> T]",
            &pool,
        )
        .unwrap();
        let x = q.var_by_name("X").unwrap();
        let paper = s.by_name("PAPER").unwrap();
        let c = Constraints::none().pin_type(x, paper);
        let sess = Session::new();
        let r = lint_with(&q, &s, &c, &sess, Budget::unlimited_ref()).unwrap();
        assert_eq!(r.count(Code::RedundantConstraint), 1, "{:?}", r.diagnostics);
        // A contradicting pin changes the analysis: not redundant, and the
        // query becomes unsatisfiable.
        let title = s.by_name("TITLE").unwrap();
        let c2 = Constraints::none().pin_type(x, title);
        let r2 = lint_with(&q, &s, &c2, &sess, Budget::unlimited_ref()).unwrap();
        assert_eq!(
            r2.count(Code::RedundantConstraint),
            0,
            "{:?}",
            r2.diagnostics
        );
        assert_eq!(r2.count(Code::UnsatQuery), 1);
    }

    #[test]
    fn exhausted_budget_warns_and_never_errors() {
        let pool = SharedInterner::new();
        // Joins force the budgeted enumeration/search engines.
        let s = parse_schema("T = [a->&U.b->&U]; &U = int", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [a -> &X, b -> &X]", &pool).unwrap();
        let sess = Session::new();
        let tiny = Budget::unlimited().with_fuel(1);
        let r = lint_with(&q, &s, &Constraints::none(), &sess, &tiny).unwrap();
        assert!(r.count(Code::BudgetExhausted) >= 1, "{:?}", r.diagnostics);
        assert!(!r.has_errors(), "{:?}", r.diagnostics);
    }

    #[test]
    fn programmatic_queries_without_spans_still_lint() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB, &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [title -> X]", &pool).unwrap();
        // A rewrite drops spans; diagnostics degrade to dummy spans but
        // verdicts are unchanged.
        let q2 = q.with_def_replaced(0, q.defs()[0].1.clone());
        assert!(q2.spans().is_none());
        let r = lint(&q2, &s).unwrap();
        assert_eq!(r.count(Code::UnsatQuery), 1);
        assert!(r.diagnostics[0].span.is_dummy());
    }
}
