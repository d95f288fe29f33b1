//! The decisions with no session parameter of their own before —
//! partial type checking, linting, feedback queries and output-schema
//! inference — run on the caller's [`Session`]: their spans and cache
//! traffic land in that session's recorder and `stats()`, and the
//! session's cache ceilings hold across all of them.

use std::sync::Arc;

use ssd::base::{Result, SharedInterner};
use ssd::core::{Budget, Constraints, Session, SessionLimits, TypeAssignment};
use ssd::feedback::feedback_query;
use ssd::gen::corpora::{FEEDBACK_QUERY, PAPER_QUERY, PAPER_SCHEMA};
use ssd::lint::lint_with;
use ssd::obs::{names, TraceRecorder};
use ssd::query::{parse_query, Query};
use ssd::schema::{parse_schema, Schema};
use ssd::transform::skolem::Target;
use ssd::transform::{infer_output_schema, ConstructEdge, SkolemTerm, Transformation};

struct Corpus {
    schema: Schema,
    query: Query,
    feedback: Query,
    transform: Transformation,
}

fn corpus() -> Corpus {
    let pool = SharedInterner::new();
    let schema = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let query = parse_query(PAPER_QUERY, &pool).unwrap();
    let feedback = parse_query(FEEDBACK_QUERY, &pool).unwrap();
    let tq = parse_query(
        "SELECT X, V WHERE Root = [paper -> P]; P = [_*.lastname -> X]; X = V",
        &pool,
    )
    .unwrap();
    let x = tq.var_by_name("X").unwrap();
    let v = tq.var_by_name("V").unwrap();
    let transform = Transformation {
        query: tq,
        rules: vec![
            ConstructEdge {
                source: SkolemTerm::constant("Names"),
                label: pool.intern("person"),
                target: Target::Term(SkolemTerm::unary("P", x)),
            },
            ConstructEdge {
                source: SkolemTerm::unary("P", x),
                label: pool.intern("last"),
                target: Target::CopyValue(v),
            },
        ],
        root_fun: "Names".to_owned(),
    };
    Corpus {
        schema,
        query,
        feedback,
        transform,
    }
}

type Decision = fn(&Corpus, &Session) -> Result<()>;

/// Each moved decision, with the root span it must open in the caller's
/// recorder.
const DECISIONS: &[(&str, &str, Decision)] = &[
    ("partial_type_check", names::span::DISPATCH, |c, sess| {
        let x1 = c.query.var_by_name("X1").unwrap();
        let a = TypeAssignment::new().with_type(x1, c.schema.by_name("PAPER").unwrap());
        assert!(
            sess.partial_type_check(&c.query, &c.schema, &a)?
                .satisfiable
        );
        Ok(())
    }),
    ("lint_with", names::span::LINT, |c, sess| {
        let none = Constraints::none();
        let report = lint_with(&c.query, &c.schema, &none, sess, Budget::unlimited_ref())?;
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        Ok(())
    }),
    ("feedback_query", names::span::FEAS_MEMO, |c, sess| {
        feedback_query(&c.feedback, &c.schema, sess).map(drop)
    }),
    ("infer_output_schema", names::span::DISPATCH, |c, sess| {
        infer_output_schema(&c.transform, &c.schema, sess).map(drop)
    }),
];

#[test]
fn moved_decisions_report_to_the_callers_session() {
    let c = corpus();
    for (name, root_span, run) in DECISIONS {
        let rec = Arc::new(TraceRecorder::new());
        let sess = Session::with_recorder(rec.clone());
        run(&c, &sess).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = rec.report();
        assert!(
            report.span(&[root_span]).is_some(),
            "{name}: no `{root_span}` span in the caller's recorder:\n{}",
            report.render_tree()
        );
        // Cache traffic lands in both the session's stats and its
        // recorder, and the two agree.
        let stats = sess.stats();
        assert!(stats.type_graph_table.misses > 0, "{name}: {stats:?}");
        assert!(stats.feas_memo_table.misses > 0, "{name}: {stats:?}");
        assert_eq!(
            rec.counter(names::counter::CACHE_TYPE_GRAPH_MISS),
            stats.type_graph_table.misses,
            "{name}"
        );
        assert_eq!(
            rec.counter(names::counter::CACHE_FEAS_MEMO_MISS),
            stats.feas_memo_table.misses,
            "{name}"
        );
        assert_eq!(
            rec.counter(names::counter::CACHE_FEAS_MEMO_HIT),
            stats.feas_memo_table.hits,
            "{name}"
        );
    }
}

#[test]
fn feas_memo_cap_holds_across_moved_decisions() {
    const CAP: usize = 2;
    let c = corpus();
    let sess = Session::with_limits(SessionLimits::unlimited().max_feas_memo_entries(CAP));
    for (name, _, run) in DECISIONS {
        run(&c, &sess).unwrap_or_else(|e| panic!("{name}: {e}"));
        let memos = sess.stats().feas_memos;
        assert!(
            memos <= CAP,
            "{name}: {memos} feas-memo entries over a cap of {CAP}"
        );
    }
    assert!(
        sess.stats().evicted > 0,
        "the decisions must have exceeded the cap"
    );
}
