//! Experiment T3.3: type inference is output-polynomial in the PTIME
//! classes. A loose schema makes many types feasible; runtime should
//! scale with input + output size.

use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::Session;
use ssd_query::parse_query;
use ssd_schema::parse_schema;

fn loose_schema(n: usize) -> String {
    // ROOT = [(a->T0 | a->T1 | … )*]; every Ti = int — `a` can lead to
    // any of n types, so inference of SELECT X over `a -> X` returns n
    // assignments.
    let alts: Vec<String> = (0..n).map(|i| format!("a->T{i}")).collect();
    let mut s = format!("ROOT = [({})*];\n", alts.join(" | "));
    for i in 0..n {
        s.push_str(&format!("T{i} = int;\n"));
    }
    s.trim_end().trim_end_matches(';').to_owned()
}

fn inference(c: &mut Criterion) {
    let mut g = c.benchmark_group("t33/inference_output_size");
    g.sample_size(15);
    for n in [2usize, 4, 8, 16] {
        let pool = SharedInterner::new();
        let s = parse_schema(&loose_schema(n), &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [a -> X]", &pool).unwrap();
        let sess = Session::new();
        let out = sess.infer(&q, &s).unwrap();
        assert_eq!(out.len(), n, "output size equals the alternation width");
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| sess.infer(&q, &s).unwrap().len())
        });
    }
    g.finish();
}

criterion_group!(benches, inference);
criterion_main!(benches);
