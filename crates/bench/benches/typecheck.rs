//! Experiment P3.2: total type checking is PTIME for ordered schemas with
//! arbitrary queries (Proposition 3.2). Sweeps query size with joins
//! present — the cost should stay polynomial even though satisfiability
//! with joins enumerates.

use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::workload;
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::feas::Constraints;
use ssd_core::{Session, TypeAssignment};
use ssd_query::VarKind;

fn total_check(c: &mut Criterion) {
    let sess = Session::new();
    let mut g = c.benchmark_group("p32/total_typecheck");
    g.sample_size(20);
    for num_defs in [2usize, 4, 8, 16] {
        let (s, tg, q) = workload(400 + num_defs as u64, 10, num_defs, false, false);
        // Derive a checkable assignment from the analysis itself.
        let a = sess.feas_analysis(&q, &s, &tg, &Constraints::none());
        let mut assignment = TypeAssignment::new();
        for v in q.vars() {
            match q.kind(v) {
                VarKind::Node { .. } | VarKind::Value => {
                    // Pick the smallest feasible type pinned globally.
                    let t = s
                        .types()
                        .find(|&t| {
                            a.feas[v.index()].contains(&t)
                                && sess
                                    .feas_analysis(&q, &s, &tg, &Constraints::none().pin_type(v, t))
                                    .satisfiable
                        })
                        .unwrap_or(s.root());
                    assignment.types.insert(v, t);
                }
                VarKind::Label => {}
            }
        }
        g.bench_with_input(BenchmarkId::from_parameter(num_defs), &num_defs, |b, _| {
            b.iter(|| sess.total_type_check(&q, &s, &assignment).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, total_check);
criterion_main!(benches);
