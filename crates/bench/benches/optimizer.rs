//! Experiment T4.2: the adaptive evaluator A_O vs the naive strategy
//! (Theorem 4.2 + the §4.2 pruning examples). Criterion times both
//! evaluators; the `experiments` binary prints the edge-count tables
//! (the paper's cost function).
//!
//! `SSD_BENCH_QUICK=1` cuts the sample count for CI smoke runs; the rows
//! and labels stay the same.

use ssd_base::rng::StdRng;
use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::{criterion_group, criterion_main};
use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd_gen::data_gen::{sample_instance, DataGenConfig};
use ssd_model::parse_data_graph;
use ssd_optimizer::{evaluate_adaptive, evaluate_naive, CostedGraph, RootQuery};
use ssd_query::parse_query;
use ssd_schema::{parse_schema, TypeGraph};

fn sample_size() -> usize {
    if std::env::var_os("SSD_BENCH_QUICK").is_some() {
        5
    } else {
        20
    }
}

fn bibliography_scan(c: &mut Criterion) {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let tg = TypeGraph::new(&s);
    let q = parse_query("SELECT X WHERE Root = [paper.title -> X]", &pool).unwrap();
    let rq = RootQuery::compile(&q).unwrap();

    let mut g = c.benchmark_group("t42/bibliography_titles");
    g.sample_size(sample_size());
    for papers in [10usize, 40, 160] {
        let data = parse_data_graph(&bibliography(papers, 3), &pool).unwrap();
        g.bench_with_input(BenchmarkId::new("naive", papers), &papers, |b, _| {
            b.iter(|| {
                let cg = CostedGraph::new(&data);
                evaluate_naive(&cg, &rq).len()
            })
        });
        g.bench_with_input(BenchmarkId::new("adaptive", papers), &papers, |b, _| {
            b.iter(|| {
                let cg = CostedGraph::new(&data);
                evaluate_adaptive(&cg, &rq, &q, &s, &tg).len()
            })
        });
    }
    g.finish();
}

fn random_dtdish(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(77);
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let tg = TypeGraph::new(&s);
    let q = parse_query("SELECT X WHERE Root = [_*.lastname -> X]", &pool).unwrap();
    let rq = RootQuery::compile(&q).unwrap();
    let data = sample_instance(
        &s,
        &tg,
        &mut rng,
        &DataGenConfig {
            continue_prob: 0.8,
            max_nodes: 2000,
        },
    )
    .unwrap();
    let mut g = c.benchmark_group("t42/wildcard_scan");
    g.sample_size(sample_size());
    g.bench_function("naive", |b| {
        b.iter(|| {
            let cg = CostedGraph::new(&data);
            evaluate_naive(&cg, &rq).len()
        })
    });
    g.bench_function("adaptive", |b| {
        b.iter(|| {
            let cg = CostedGraph::new(&data);
            evaluate_adaptive(&cg, &rq, &q, &s, &tg).len()
        })
    });
    g.finish();
}

criterion_group!(benches, bibliography_scan, random_dtdish);
criterion_main!(benches);
