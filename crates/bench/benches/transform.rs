//! Experiment S4.3: Skolem transformations — evaluation throughput and
//! output-schema inference for single-variable functions.

use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::Session;
use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd_model::parse_data_graph;
use ssd_query::parse_query;
use ssd_schema::parse_schema;
use ssd_transform::{apply, infer_output_schema, ConstructEdge, SkolemTerm, Transformation};

fn bib_transform(pool: &SharedInterner) -> Transformation {
    let q = parse_query(
        "SELECT X, V WHERE Root = [paper -> P]; P = [_*.lastname -> X]; X = V",
        pool,
    )
    .unwrap();
    let x = q.var_by_name("X").unwrap();
    let v = q.var_by_name("V").unwrap();
    Transformation {
        query: q,
        rules: vec![
            ConstructEdge {
                source: SkolemTerm::constant("Names"),
                label: pool.intern("person"),
                target: ssd_transform::skolem::Target::Term(SkolemTerm::unary("P", x)),
            },
            ConstructEdge {
                source: SkolemTerm::unary("P", x),
                label: pool.intern("last"),
                target: ssd_transform::skolem::Target::CopyValue(v),
            },
        ],
        root_fun: "Names".to_owned(),
    }
}

fn transform_apply(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let t = bib_transform(&pool);
    let mut g = c.benchmark_group("s43/apply");
    g.sample_size(15);
    for papers in [5usize, 20, 80] {
        let data = parse_data_graph(&bibliography(papers, 2), &pool).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(papers), &papers, |b, _| {
            b.iter(|| apply(&t, &data).unwrap().len())
        });
    }
    g.finish();
}

fn schema_inference(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let t = bib_transform(&pool);
    let sess = Session::new();
    c.bench_function("s43/infer_output_schema", |b| {
        b.iter(|| infer_output_schema(&t, &s, &sess).unwrap().len())
    });
}

criterion_group!(benches, transform_apply, schema_inference);
criterion_main!(benches);
