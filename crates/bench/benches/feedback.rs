//! Experiment P4.1: feedback queries are computable in PTIME
//! (Proposition 4.1). Benchmarks the paper's worked example plus random
//! sweeps over growing schemas.

use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::workload;
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::Session;
use ssd_feedback::feedback_query;
use ssd_gen::corpora::{FEEDBACK_QUERY, PAPER_SCHEMA};
use ssd_query::parse_query;
use ssd_schema::parse_schema;

fn paper_example(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(FEEDBACK_QUERY, &pool).unwrap();
    let sess = Session::new();
    c.bench_function("p41/paper_worked_example", |b| {
        b.iter(|| feedback_query(&q, &s, &sess).unwrap())
    });
}

fn random_sweep(c: &mut Criterion) {
    let sess = Session::new();
    let mut g = c.benchmark_group("p41/schema_size");
    g.sample_size(15);
    for num_types in [4usize, 8, 16] {
        let (s, _tg, q) = workload(500 + num_types as u64, num_types, 3, false, false);
        g.bench_with_input(
            BenchmarkId::from_parameter(num_types),
            &num_types,
            |b, _| b.iter(|| feedback_query(&q, &s, &sess).unwrap()),
        );
    }
    g.finish();
}

criterion_group!(benches, paper_example, random_sweep);
criterion_main!(benches);
