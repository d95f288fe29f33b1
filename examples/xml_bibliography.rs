//! XML + DTD workflow: import a DTD as a schema (the paper's DTD− class),
//! import an XML document, validate it, and run the paper's
//! Abiteboul/Vianu query (Section 2).
//!
//! Run with `cargo run --example xml_bibliography`.

use ssd::base::SharedInterner;
use ssd::core::Session;
use ssd::gen::corpora::{bibliography, PAPER_QUERY, PAPER_SCHEMA, SINGLE_AUTHOR_SCHEMA};
use ssd::model::{parse_data_graph, parse_xml};
use ssd::query::{is_nonempty, parse_query};
use ssd::schema::{conforms, parse_dtd, parse_schema};

fn main() {
    let pool = SharedInterner::new();

    // The paper's DTD, imported as a schema.
    let dtd_schema = parse_dtd(
        r#"<!ELEMENT paper (title,(author)*) >
           <!ELEMENT title #PCDATA >
           <!ELEMENT author (name, email) >
           <!ELEMENT name (firstname,lastname) >
           <!ELEMENT firstname #PCDATA >
           <!ELEMENT lastname #PCDATA >
           <!ELEMENT email #PCDATA >"#,
        &pool,
    )
    .expect("DTD parses");
    let class = dtd_schema.class();
    println!(
        "DTD class: ordered={} tagged={} tree={} (DTD− = {})",
        class.ordered,
        class.tagged,
        class.tree,
        class.is_dtd_minus()
    );

    // The paper's XML fragment, wrapped so the root element is `paper`.
    let xml = r#"<paper><title> A real nice paper </title>
        <author><name><firstname> John </firstname>
        <lastname> Smith </lastname></name>
        <email> js@example.org </email></author></paper>"#;
    let doc = parse_xml(xml, &pool).expect("XML parses");
    // The importer wraps the root element; validate against a wrapper
    // schema whose root points at E_paper.
    let wrapped = parse_schema(&format!("WRAP = [paper->E_paper]; {dtd_schema}"), &pool)
        .expect("wrapper schema parses");
    assert!(conforms(&doc, &wrapped).is_some());
    println!("the XML fragment validates against the DTD");

    // The Abiteboul/Vianu query on a larger generated bibliography.
    let schema = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(PAPER_QUERY, &pool).unwrap();
    let sess = Session::new();
    let sat = sess.satisfiable(&q, &schema).unwrap();
    println!("Abiteboul/Vianu query satisfiable: {}", sat.satisfiable);

    let g = parse_data_graph(&bibliography(5, 2), &pool).unwrap();
    println!(
        "on a 5-paper bibliography the query matches: {}",
        is_nonempty(&q, &g)
    );

    // Against the single-author schema it is unsatisfiable (Section 3).
    let single = parse_schema(SINGLE_AUTHOR_SCHEMA, &pool).unwrap();
    let q2 = parse_query(
        r#"SELECT X1
           WHERE Root = [paper -> X1];
                 X1 = [author._+ -> X2, author._+ -> X3];
                 X2 = "Vianu"; X3 = "Abiteboul""#,
        &pool,
    )
    .unwrap();
    let sat2 = sess.satisfiable(&q2, &single).unwrap();
    println!(
        "against the single-author schema: satisfiable = {}",
        sat2.satisfiable
    );
}
