//! The query-formulation application (Section 4.1): compute the feedback
//! query for the paper's worked example and show the minimal rewriting.
//!
//! Run with `cargo run --example query_feedback`.

use ssd::base::SharedInterner;
use ssd::core::Session;
use ssd::feedback::feedback_query;
use ssd::gen::corpora::{FEEDBACK_QUERY, PAPER_SCHEMA};
use ssd::query::parse_query;
use ssd::schema::parse_schema;

fn main() {
    let pool = SharedInterner::new();
    let schema = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(FEEDBACK_QUERY, &pool).unwrap();
    let sess = Session::new();

    println!("user query:\n{q}\n");
    let fb = feedback_query(&q, &schema, &sess).expect("feedback computes");
    println!("feedback query (minimal, schema-equivalent):\n{fb}\n");
    println!(
        "reading: the leading/trailing _* were redundant, and name's tail \
         can only be firstname or lastname — exactly the paper's example."
    );
}
