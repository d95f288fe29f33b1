//! Experiment CACHE.r1: the incremental-session caches.
//!
//! Three claims are measured:
//!
//! * warm vs cold sessions on the traces engine — repeated
//!   `satisfiable_ptraces` against one schema reuse the cached `TypeGraph`
//!   and path automata, so a warm session must answer at least 2× faster
//!   than a fresh session per query (measured 3–14×, growing with schema
//!   size);
//! * lazy vs materialized P-traces emptiness — deciding `Tr(P) ∩ Tr(S)
//!   ≠ ∅` on the fly (early exit at the first accepting product state)
//!   against materializing and trimming the whole automaton first;
//! * warm vs cold sessions on the dispatched `satisfiable` — a smaller
//!   win (the trace-product analysis itself dominates there), recorded
//!   for completeness.
//!
//! Every pair is asserted to agree before timing: caching and laziness
//! must not change any verdict.

use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::workload;
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::ptraces;
use ssd_core::Session;
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};

/// A workload in the P-traces class (single ordered root definition):
/// retries seeds until the generated query is accepted.
fn ptraces_workload(num_types: usize) -> (Schema, Query) {
    (0..64)
        .filter_map(|k| {
            let (s, _, q) = workload(700 + num_types as u64 + 1000 * k, num_types, 1, false, true);
            let fits = Session::new().satisfiable_ptraces(&q, &s).is_ok();
            fits.then_some((s, q))
        })
        .next()
        .expect("a single-definition workload exists")
}

fn ptraces_warm_vs_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache/ptraces_satisfiable");
    g.sample_size(20);
    for num_types in [6usize, 12, 24, 48] {
        let (s, q) = ptraces_workload(num_types);
        let warm = Session::new();
        // Warm answers must be bit-identical to cold ones.
        let want = warm.satisfiable_ptraces(&q, &s).unwrap();
        assert_eq!(Session::new().satisfiable_ptraces(&q, &s).unwrap(), want);
        assert_eq!(warm.satisfiable_ptraces(&q, &s).unwrap(), want);
        g.bench_with_input(BenchmarkId::new("cold", num_types), &num_types, |b, _| {
            b.iter(|| Session::new().satisfiable_ptraces(&q, &s).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("warm", num_types), &num_types, |b, _| {
            b.iter(|| warm.satisfiable_ptraces(&q, &s).unwrap())
        });
    }
    g.finish();
}

fn lazy_vs_materialized_ptraces(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache/ptraces_emptiness");
    g.sample_size(20);
    for num_types in [6usize, 12, 24] {
        let (s, q) = ptraces_workload(num_types);
        let warm = Session::new();
        let lazy = warm.satisfiable_ptraces(&q, &s).unwrap();
        let tg = TypeGraph::new(&s);
        let materialized =
            !ssd_automata::ops::is_empty_lang(&ptraces::trace_language(&q, &s, &tg).unwrap());
        assert_eq!(lazy, materialized, "laziness must not change the verdict");
        g.bench_with_input(
            BenchmarkId::new("materialized", num_types),
            &num_types,
            |b, _| {
                b.iter(|| {
                    let tg = TypeGraph::new(&s);
                    !ssd_automata::ops::is_empty_lang(
                        &ptraces::trace_language(&q, &s, &tg).unwrap(),
                    )
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("lazy", num_types), &num_types, |b, _| {
            b.iter(|| warm.satisfiable_ptraces(&q, &s).unwrap())
        });
    }
    g.finish();
}

fn dispatched_warm_vs_cold(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache/satisfiable");
    g.sample_size(20);
    for num_defs in [2usize, 4, 8] {
        let (s, _tg, q) = workload(900 + num_defs as u64, 12, num_defs, false, false);
        let warm = Session::new();
        let want = warm.satisfiable(&q, &s).unwrap();
        assert_eq!(Session::new().satisfiable(&q, &s).unwrap(), want);
        assert_eq!(warm.satisfiable(&q, &s).unwrap(), want);
        g.bench_with_input(BenchmarkId::new("cold", num_defs), &num_defs, |b, _| {
            b.iter(|| Session::new().satisfiable(&q, &s).unwrap().satisfiable)
        });
        g.bench_with_input(BenchmarkId::new("warm", num_defs), &num_defs, |b, _| {
            b.iter(|| warm.satisfiable(&q, &s).unwrap().satisfiable)
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ptraces_warm_vs_cold,
    lazy_vs_materialized_ptraces,
    dispatched_warm_vs_cold
);
criterion_main!(benches);
