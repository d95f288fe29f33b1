//! Differential guarantee for `ssd-lint`: linting is observation-only.
//!
//! Two properties over a mixed corpus of satisfiable and unsatisfiable
//! queries, all run through one shared [`Session`] so the linter's cache
//! traffic is exercised against the dispatcher's:
//!
//! 1. running the linter never changes the dispatcher's verdict — the
//!    satisfiability decided before a lint pass equals the one decided
//!    after it;
//! 2. the `unsat-query` diagnostic is emitted **iff** the dispatcher
//!    decides the query unsatisfiable — the linter neither invents
//!    unsatisfiability nor swallows it.

use ssd::base::SharedInterner;
use ssd::core::{Constraints, Session};
use ssd::lint::{lint_with, Code};
use ssd::query::Query;
use ssd::schema::Schema;

const BIB: &str = r#"DOCUMENT = [(paper->PAPER)*];
PAPER = [title->TITLE.(author->AUTHOR)*];
AUTHOR = [name->NAME.email->EMAIL];
NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
TITLE = string; FIRSTNAME = string;
LASTNAME = string; EMAIL = string"#;

/// `(schema, query)` pairs mixing satisfiable and unsatisfiable cases,
/// alternation branches, wildcards, and star paths.
const CASES: &[(&str, &str)] = &[
    (BIB, "SELECT X WHERE Root = [paper.title -> X]"),
    (BIB, "SELECT X WHERE Root = [title -> X]"),
    (BIB, "SELECT X WHERE Root = [paper.title|paper.email -> X]"),
    (BIB, "SELECT X WHERE Root = [paper.titel -> X]"),
    (BIB, "SELECT X WHERE Root = [paper -> X]; X = [title -> T]"),
    (
        BIB,
        "SELECT X WHERE Root = [paper.author.name.lastname -> X]",
    ),
    (BIB, "SELECT X WHERE Root = [paper.author.title -> X]"),
    (BIB, "SELECT X WHERE Root = [_*.email -> X]"),
    ("T = [a->U]; U = int", "SELECT X WHERE Root = [b -> X]"),
    ("T = [a->U]; U = int", "SELECT X WHERE Root = [a -> X]"),
    (
        "T = [a->U.(b->V)*]; U = int; V = string",
        "SELECT X WHERE Root = [a.b -> X]",
    ),
];

fn parse(schema: &str, query: &str, pool: &SharedInterner) -> (Schema, Query) {
    let s = ssd::schema::parse_schema(schema, pool).unwrap_or_else(|e| panic!("{e}"));
    let q = ssd::query::parse_query(query, pool).expect(query);
    (s, q)
}

#[test]
fn lint_never_changes_dispatch_verdicts() {
    let sess = Session::new();
    let c = Constraints::none();
    for (schema, query) in CASES {
        let pool = SharedInterner::new();
        let (s, q) = parse(schema, query, &pool);
        let before = sess.satisfiable_with(&q, &s, &c).expect(query).satisfiable;
        let _report = lint_with(
            &q,
            &s,
            &c,
            &sess,
            ssd::base::budget::Budget::unlimited_ref(),
        )
        .expect(query);
        let after = sess.satisfiable_with(&q, &s, &c).expect(query).satisfiable;
        assert_eq!(
            before, after,
            "{query}: dispatch verdict changed across a lint pass"
        );
    }
}

#[test]
fn unsat_diagnostic_iff_dispatcher_says_unsatisfiable() {
    let sess = Session::new();
    let c = Constraints::none();
    for (schema, query) in CASES {
        let pool = SharedInterner::new();
        let (s, q) = parse(schema, query, &pool);
        let sat = sess.satisfiable_with(&q, &s, &c).expect(query).satisfiable;
        let report = lint_with(
            &q,
            &s,
            &c,
            &sess,
            ssd::base::budget::Budget::unlimited_ref(),
        )
        .expect(query);
        assert_eq!(
            report.count(Code::UnsatQuery) > 0,
            !sat,
            "{query}: unsat-query diagnostic disagrees with the dispatcher \
             (satisfiable = {sat})"
        );
        // Mutual exclusion by construction: dead branches are only
        // probed once the whole query is known satisfiable.
        if !sat {
            assert_eq!(
                report.count(Code::DeadBranch),
                0,
                "{query}: dead-branch reported on an unsatisfiable query"
            );
        }
    }
}
