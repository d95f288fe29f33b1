//! Every worked example of Milo & Suciu (PODS 1999), end to end.

use ssd::base::SharedInterner;
use ssd::core::{Session, TypeAssignment};
use ssd::feedback::feedback_query;
use ssd::gen::corpora::*;
use ssd::model::{parse_data_graph, parse_xml};
use ssd::query::{is_nonempty, parse_query};
use ssd::schema::{conforms, parse_dtd, parse_schema, SchemaClass};

/// Section 2: the XML fragment, its graph encoding, the DTD, and the
/// equivalent ScmDL schema all agree.
#[test]
fn section2_encodings_agree() {
    let pool = SharedInterner::new();
    let dtd = parse_dtd(PAPER_DTD, &pool).unwrap();
    assert!(SchemaClass::of(&dtd).is_dtd_minus());

    let scm = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    assert!(SchemaClass::of(&scm).is_dtd_minus());

    // The paper's hand-written graph encoding of the XML fragment.
    let by_hand = parse_data_graph(
        r#"o1 = [paper -> o2];
           o2 = [title -> o3, author -> o4];
           o3 = "A real nice paper";
           o4 = [name -> o5, email -> o6];
           o5 = [firstname -> o7, lastname -> o8];
           o6 = "..."; o7 = "John"; o8 = "Smith""#,
        &pool,
    )
    .unwrap();
    let from_xml = parse_xml(PAPER_XML, &pool).unwrap();
    assert_eq!(by_hand.len(), from_xml.len());
    assert_eq!(by_hand.num_edges(), from_xml.num_edges());
}

/// Section 3: satisfiability of Q against S and against the single-author
/// variant; the paper's total/partial type-checking verdicts; the single
/// inferred type PAPER.
#[test]
fn section3_problems() {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(PAPER_QUERY, &pool).unwrap();
    let sess = Session::new();

    // Q is satisfiable for S…
    assert!(sess.satisfiable(&q, &s).unwrap().satisfiable);
    // …but not for the single-author schema.
    let single = parse_schema(SINGLE_AUTHOR_SCHEMA, &pool).unwrap();
    let q2 = parse_query(
        r#"SELECT X1 WHERE Root = [paper -> X1];
           X1 = [author._+ -> X2, author._+ -> X3];
           X2 = "Vianu"; X3 = "Abiteboul""#,
        &pool,
    )
    .unwrap();
    assert!(!sess.satisfiable(&q2, &single).unwrap().satisfiable);

    // Total type checking: positive and negative assignments of §3.
    let v = |n: &str| q.var_by_name(n).unwrap();
    let t = |n: &str| s.by_name(n).unwrap();
    let good = TypeAssignment::new()
        .with_type(v("Root"), t("DOCUMENT"))
        .with_type(v("X1"), t("PAPER"))
        .with_type(v("X2"), t("LASTNAME"))
        .with_type(v("X3"), t("FIRSTNAME"));
    assert!(sess.total_type_check(&q, &s, &good).unwrap());
    let bad = TypeAssignment::new()
        .with_type(v("Root"), t("DOCUMENT"))
        .with_type(v("X1"), t("PAPER"))
        .with_type(v("X2"), t("LASTNAME"))
        .with_type(v("X3"), t("EMAIL"));
    assert!(!sess.total_type_check(&q, &s, &bad).unwrap());

    // Partial type checking: X1/PAPER positive, X1/NAME negative.
    let pos = TypeAssignment::new().with_type(v("X1"), t("PAPER"));
    assert!(sess.partial_type_check(&q, &s, &pos).unwrap().satisfiable);
    let neg = TypeAssignment::new().with_type(v("X1"), t("NAME"));
    assert!(!sess.partial_type_check(&q, &s, &neg).unwrap().satisfiable);

    // Inference: the single type PAPER.
    let inf = sess.infer(&q, &s).unwrap();
    assert_eq!(inf.len(), 1);
}

/// Section 4.1: the feedback worked example, checked against a concrete
/// conforming document — original and feedback agree, and the feedback
/// matches the paper's printed rewriting.
#[test]
fn section41_feedback() {
    use ssd::query::select_results;
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(FEEDBACK_QUERY, &pool).unwrap();
    let fb = feedback_query(&q, &s, &Session::new()).unwrap();
    let printed = fb.to_string();
    assert!(
        printed.contains("email -> X3"),
        "the redundant _* before email must vanish: {printed}"
    );
    assert!(
        printed.contains("name.(firstname|lastname)")
            || printed.contains("name.(lastname|firstname)"),
        "name's tail must specialize: {printed}"
    );

    // Build a Gray document; both queries return the same results.
    let g = parse_data_graph(
        r#"o1 = [paper -> o2];
           o2 = [title -> o3, author -> o4];
           o3 = "t";
           o4 = [name -> o5, email -> o6];
           o5 = [firstname -> o7, lastname -> o8];
           o6 = "g@x"; o7 = "Jim"; o8 = "Gray""#,
        &pool,
    )
    .unwrap();
    assert!(conforms(&g, &s).is_some());
    assert_eq!(select_results(&q, &g), select_results(&fb, &g));
    assert!(is_nonempty(&fb, &g));
}

/// Section 4.2: both pruning examples improve on naive, with identical
/// answers.
#[test]
fn section42_pruning_examples() {
    use ssd::optimizer::compare;
    let pool = SharedInterner::new();
    let schema = parse_schema(
        "ROOT = [a->AC | a->AD | b->BD]; AC = [c->E]; AD = [d->E]; BD = [d->E]; E = [()]",
        &pool,
    )
    .unwrap();
    let q = parse_query("SELECT X WHERE Root = [a.c -> X]", &pool).unwrap();
    let mut improved = 0;
    for data in [
        "o1 = [a -> o2]; o2 = [c -> o3]; o3 = []",
        "o1 = [a -> o2]; o2 = [d -> o3]; o3 = []",
        "o1 = [b -> o2]; o2 = [d -> o3]; o3 = []",
    ] {
        let g = parse_data_graph(data, &pool).unwrap();
        let c = compare(&q, &schema, &g).unwrap();
        assert_eq!(c.naive_results, c.adaptive_results);
        assert!(c.adaptive_cost <= c.naive_cost);
        if c.adaptive_cost < c.naive_cost {
            improved += 1;
        }
    }
    assert_eq!(improved, 3, "A_O strictly improves on all three instances");
}
