//! Experiment T2.np: the NP-complete cells of Table 2 (Theorem 3.1).
//!
//! The 3SAT reduction (unordered rigid types + join-free queries) drives
//! the general solver; runtime should grow super-polynomially with the
//! number of propositional variables/clauses, in contrast with the smooth
//! PTIME sweeps of `table2_ptime.rs`.

use ssd_base::rng::StdRng;
use ssd_base::SharedInterner;
use ssd_bench::harness::{BenchmarkId, Criterion};
use ssd_bench::{criterion_group, criterion_main};
use ssd_core::{solver, Budget, Constraints, Session};
use ssd_gen::sat3::Sat3;
use ssd_query::parse_query;
use ssd_schema::parse_schema;

fn np_cells(c: &mut Criterion) {
    let sess = Session::new();
    let none = Constraints::none();
    let mut g = c.benchmark_group("t2/np_3sat_reduction");
    g.sample_size(10);
    for vars in [3usize, 4, 5] {
        let mut rng = StdRng::seed_from_u64(31 + vars as u64);
        let f = Sat3::random(&mut rng, vars, vars + 2);
        let pool = SharedInterner::new();
        let s = parse_schema(&f.schema_text(), &pool).unwrap();
        let q = parse_query(&f.query_text(), &pool).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(vars), &vars, |b, _| {
            b.iter(|| {
                solver::solve_with_in_b(&q, &s, &none, &sess, Budget::unlimited_ref())
                    .unwrap()
                    .satisfiable
            })
        });
    }
    g.finish();
}

criterion_group!(benches, np_cells);
criterion_main!(benches);
