//! The transformation application (Section 4.3): restructure a
//! bibliography with Skolem functions, infer the most specific output
//! schema, and type-check the transformation against a target DTD-style
//! schema.
//!
//! Run with `cargo run --example transform_publish`.

use ssd::base::SharedInterner;
use ssd::core::Session;
use ssd::gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd::model::parse_data_graph;
use ssd::query::parse_query;
use ssd::schema::{conforms, parse_schema};
use ssd::transform::skolem::Target;
use ssd::transform::{
    apply, check_output_schema, infer_output_schema, ConstructEdge, SkolemTerm, Transformation,
};

fn main() {
    let pool = SharedInterner::new();
    let schema = parse_schema(PAPER_SCHEMA, &pool).unwrap();

    // Publish an author index: Names --person--> P(x) --last--> value.
    let q = parse_query(
        "SELECT X, V WHERE Root = [paper -> P]; P = [_*.lastname -> X]; X = V",
        &pool,
    )
    .unwrap();
    let x = q.var_by_name("X").unwrap();
    let v = q.var_by_name("V").unwrap();
    let t = Transformation {
        query: q,
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

    let input = parse_data_graph(&bibliography(3, 2), &pool).unwrap();
    let output = apply(&t, &input).unwrap();
    println!(
        "transformed {} input nodes into {} output nodes",
        input.len(),
        output.len()
    );

    // Output-schema inference (single-variable Skolem functions).
    let sess = Session::new();
    let out_schema = infer_output_schema(&t, &schema, &sess).unwrap();
    println!("\ninferred output schema:\n{out_schema}\n");
    assert!(conforms(&output, &out_schema).is_some());
    println!("the actual output conforms to the inferred schema ✓");

    // Transformation type checking against a published target schema.
    let target = parse_schema(
        "ROOT = {(person->&P)*}; &P = {(last->L)*}; L = string",
        &pool,
    )
    .unwrap();
    let ok = check_output_schema(&t, &schema, &target, &sess).unwrap();
    println!("every output conforms to the target schema: {ok}");
}
