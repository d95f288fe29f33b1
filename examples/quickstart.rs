//! Quickstart: parse a schema, a document, and a query; check conformance;
//! run the query; decide satisfiability; infer types.
//!
//! Run with `cargo run --example quickstart`.

use ssd::base::SharedInterner;
use ssd::core::Session;
use ssd::model::parse_data_graph;
use ssd::query::{parse_query, select_results};
use ssd::schema::{conforms, parse_schema};

fn main() {
    let pool = SharedInterner::new();

    // The paper's bibliography schema (Section 2).
    let schema = parse_schema(
        r#"DOCUMENT = [(paper->PAPER)*];
           PAPER = [title->TITLE.(author->AUTHOR)*];
           AUTHOR = [name->NAME.email->EMAIL];
           NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
           TITLE = string; FIRSTNAME = string;
           LASTNAME = string; EMAIL = string"#,
        &pool,
    )
    .expect("schema parses");

    // A document in the textual data-graph syntax (Table 1).
    let doc = parse_data_graph(
        r#"o1 = [paper -> o2];
           o2 = [title -> o3, author -> o4];
           o3 = "Type Inference for Queries on Semistructured Data";
           o4 = [name -> o5, email -> o6];
           o5 = [firstname -> o7, lastname -> o8];
           o6 = "suciu@research.att.com"; o7 = "Dan"; o8 = "Suciu""#,
        &pool,
    )
    .expect("document parses");

    // Conformance (Definition 2.1).
    let assignment = conforms(&doc, &schema).expect("document conforms to schema");
    println!("document conforms; o4 is assigned type {}", {
        let o4 = doc.by_name("o4").unwrap();
        schema.name(assignment[o4.index()])
    });

    // A selection query with a regular path expression.
    let q = parse_query(
        "SELECT X WHERE Root = [paper -> P]; P = [_*.lastname -> X]",
        &pool,
    )
    .expect("query parses");

    // Evaluate it on the document.
    let results = select_results(&q, &doc);
    println!("query returns {} binding(s)", results.len());

    // Static analysis runs through a session, which caches type graphs,
    // automata and analyses across calls. Satisfiability against the
    // schema (Table 2's PTIME cell — join-free query, ordered schema):
    let sess = Session::new();
    let sat = sess.satisfiable(&q, &schema).expect("class is supported");
    println!(
        "satisfiable w.r.t. the schema: {} (decided by {:?})",
        sat.satisfiable, sat.algorithm
    );

    // Type inference for the SELECT variable.
    let inferred = sess.infer(&q, &schema).expect("inference runs");
    print!("inferred types for X:");
    for a in &inferred {
        if let ssd::core::infer::InferredValue::Type(t) = a.entries[0].1 {
            print!(" {}", schema.name(t));
        }
    }
    println!();
}
