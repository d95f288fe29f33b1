//! Experiment T2.r2 / T2.r4: the PTIME cells of Table 2.
//!
//! Sweeps query size (number of definitions) and schema size for (a) the
//! trace-product engine on join-free queries over ordered schemas and (b)
//! the tagged/constant-suffix algorithm over DTD+-class schemas. The
//! paper's claim: polynomial query and combined complexity — runtimes
//! should grow smoothly, not exponentially, along both axes. The
//! schema-size sweep runs to 128 types, where a trace product recomputed
//! per candidate type (rather than once per pattern entry) shows up as a
//! super-linear step.
//!
//! `SSD_BENCH_QUICK=1` cuts the sample count for CI smoke runs; the rows
//! and labels stay the same.

use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::workload;
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::feas::{analyze_obs, Constraints};
use ssd_core::tagged::satisfiable_tagged_in;
use ssd_core::Session;
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};

/// The trace-product verdict, with path automata from `sess`'s cache.
fn feas_sat(q: &Query, s: &Schema, tg: &TypeGraph, sess: &Session) -> bool {
    analyze_obs(
        q,
        s,
        tg,
        &Constraints::none(),
        sess.automata(),
        ssd_obs::noop(),
    )
    .unwrap()
    .satisfiable
}

fn sample_size() -> usize {
    if std::env::var_os("SSD_BENCH_QUICK").is_some() {
        5
    } else {
        20
    }
}

fn ordered_joinfree(c: &mut Criterion) {
    let sess = Session::new();
    let mut g = c.benchmark_group("t2/ordered_joinfree_query_size");
    g.sample_size(sample_size());
    for num_defs in [2usize, 4, 8, 16] {
        let (s, tg, q) = workload(100 + num_defs as u64, 10, num_defs, false, false);
        g.bench_with_input(BenchmarkId::from_parameter(num_defs), &num_defs, |b, _| {
            b.iter(|| feas_sat(&q, &s, &tg, &sess))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("t2/ordered_joinfree_schema_size");
    g.sample_size(sample_size());
    for num_types in [4usize, 8, 16, 32, 64, 128] {
        let (s, tg, q) = workload(200 + num_types as u64, num_types, 4, false, false);
        g.bench_with_input(
            BenchmarkId::from_parameter(num_types),
            &num_types,
            |b, _| b.iter(|| feas_sat(&q, &s, &tg, &sess)),
        );
    }
    g.finish();
}

fn tagged_constant_suffix(c: &mut Criterion) {
    let sess = Session::new();
    let mut g = c.benchmark_group("t2/tagged_constant_suffix");
    g.sample_size(sample_size());
    for num_defs in [2usize, 4, 8, 16] {
        // The random generator occasionally falls outside the
        // constant-suffix class (its fallback query uses `_+`); retry
        // seeds until the workload is in class.
        let (s, tg, q) = (0..64)
            .map(|k| workload(300 + num_defs as u64 + 1000 * k, 10, num_defs, true, true))
            .find(|(_, _, q)| ssd_query::QueryClass::of(q).constant_suffix)
            .expect("a constant-suffix workload exists");
        g.bench_with_input(BenchmarkId::from_parameter(num_defs), &num_defs, |b, _| {
            b.iter(|| satisfiable_tagged_in(&q, &s, &tg, &Constraints::none(), &sess).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, ordered_joinfree, tagged_constant_suffix);
criterion_main!(benches);
