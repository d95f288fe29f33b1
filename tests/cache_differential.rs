//! Differential testing of the incremental session (tier-1): a long-lived
//! `Session` shared across the whole corpus (the "legacy" route), a cold
//! `Session`, and a warm `Session` must return identical results on
//! random corpora — caching and lazy emptiness must never change a
//! verdict.

use ssd::base::rng::{Rng, StdRng};
use ssd::base::SharedInterner;
use ssd::core::typecheck::TypeAssignment;
use ssd::core::{ptraces, Session};
use ssd::gen::query_gen::{joinfree_query, QueryGenConfig};
use ssd::gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd::query::{Query, VarKind};
use ssd::schema::{Schema, TypeGraph};

/// A deterministic random workload; even seeds are ordered schemas, odd
/// seeds unordered (exercising the general solver through the cache too).
fn workload(seed: u64) -> (Query, Schema) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = SharedInterner::new();
    let scfg = SchemaGenConfig {
        num_types: 3 + (seed % 5) as usize,
        tagged: seed.is_multiple_of(3),
        ..Default::default()
    };
    let s = if seed.is_multiple_of(2) {
        ordered_schema(&mut rng, &pool, &scfg)
    } else {
        unordered_schema(&mut rng, &pool, &scfg)
    };
    let tg = TypeGraph::new(&s);
    let qcfg = QueryGenConfig {
        num_defs: 1 + (seed % 3) as usize,
        perturb_prob: 0.25,
        ..Default::default()
    };
    let q = joinfree_query(&s, &tg, &mut rng, &qcfg).unwrap();
    (q, s)
}

/// `satisfiable` agrees between the long-lived shared session, a cold
/// session, and the same session warm (second run over identical inputs).
#[test]
fn satisfiable_identical_cold_warm_legacy() {
    let shared = Session::new();
    for seed in 0..30u64 {
        let (q, s) = workload(seed);
        let legacy = shared.satisfiable(&q, &s).unwrap();
        let sess = Session::new();
        let cold = sess.satisfiable(&q, &s).unwrap();
        let warm = sess.satisfiable(&q, &s).unwrap();
        assert_eq!(cold, legacy, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
        assert_eq!(warm, cold, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
    }
}

/// `infer` enumerates exactly the same assignments through any route.
#[test]
fn infer_identical_cold_warm_legacy() {
    let shared = Session::new();
    for seed in 0..20u64 {
        let (q, s) = workload(seed);
        let legacy = shared.infer(&q, &s).unwrap();
        let sess = Session::new();
        let cold = sess.infer(&q, &s).unwrap();
        let warm = sess.infer(&q, &s).unwrap();
        assert_eq!(cold, legacy, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
        assert_eq!(warm, cold, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
    }
}

/// `total_type_check` agrees on random full assignments (most are
/// negative; the generator still hits positives via small schemas).
#[test]
fn total_type_check_identical_cold_warm_legacy() {
    let shared = Session::new();
    for seed in 0..20u64 {
        let (q, s) = workload(seed);
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let types: Vec<_> = s.types().collect();
        let tg = TypeGraph::new(&s);
        let mut labels = std::collections::BTreeSet::new();
        for t in s.types() {
            for a in tg.step(t) {
                labels.insert(a.label);
            }
        }
        let labels: Vec<_> = labels.into_iter().collect();
        let sess = Session::new();
        for _ in 0..8 {
            let mut a = TypeAssignment::new();
            for v in q.vars() {
                match q.kind(v) {
                    VarKind::Node { .. } | VarKind::Value => {
                        a = a.with_type(v, types[rng.gen_range(0..types.len())]);
                    }
                    VarKind::Label => {
                        if labels.is_empty() {
                            continue;
                        }
                        a = a.with_label(v, labels[rng.gen_range(0..labels.len())]);
                    }
                }
            }
            let legacy = shared.total_type_check(&q, &s, &a);
            let cold = sess.total_type_check(&q, &s, &a);
            let warm = sess.total_type_check(&q, &s, &a);
            match (legacy, cold, warm) {
                (Ok(l), Ok(c), Ok(w)) => {
                    assert_eq!(c, l, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
                    assert_eq!(w, c, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
                }
                (Err(_), Err(_), Err(_)) => {}
                (l, c, w) => panic!(
                    "divergent error behavior at seed {seed}: \
                     legacy={l:?} cold={c:?} warm={w:?}"
                ),
            }
        }
    }
}

/// The feas-analysis memo must be invisible in results across every entry
/// point it backs — `satisfiable`, `total_type_check`, and `infer` — on
/// random corpora: a session's warm pass (memo hits) must reproduce its
/// cold pass, and a fresh session must reproduce both. Ordered (even)
/// seeds route through the trace-product engine and must actually hit the
/// memo on the warm pass.
#[test]
fn feas_memo_identical_cold_warm_fresh() {
    for seed in 0..30u64 {
        let (q, s) = workload(seed);
        let sess = Session::new();

        let cold_sat = sess.satisfiable(&q, &s).unwrap();
        let cold_inf = sess.infer(&q, &s).unwrap();
        let memos_after_cold = sess.stats().feas_memo_table;

        let warm_sat = sess.satisfiable(&q, &s).unwrap();
        let warm_inf = sess.infer(&q, &s).unwrap();
        assert_eq!(warm_sat, cold_sat, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
        assert_eq!(warm_inf, cold_inf, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
        let memos_after_warm = sess.stats().feas_memo_table;
        assert_eq!(
            memos_after_warm.misses, memos_after_cold.misses,
            "warm repeats must not add memo entries (seed {seed})"
        );
        if seed.is_multiple_of(2) {
            // Ordered schema + join-free query: the dispatcher routes
            // through the trace product, so the repeats must be memo hits.
            assert!(
                memos_after_warm.hits > memos_after_cold.hits,
                "warm ordered run should hit the feas memo (seed {seed}): \
                 {memos_after_cold:?} -> {memos_after_warm:?}"
            );
        }

        let fresh = Session::new();
        assert_eq!(fresh.satisfiable(&q, &s).unwrap(), cold_sat, "seed {seed}");
        assert_eq!(fresh.infer(&q, &s).unwrap(), cold_inf, "seed {seed}");

        // Total type checking (which also runs through the memo on the
        // ordered path): repeated checks on the warm session and a fresh
        // session agree on random full assignments.
        let mut rng = StdRng::seed_from_u64(4000 + seed);
        let types: Vec<_> = s.types().collect();
        for _ in 0..4 {
            let mut a = TypeAssignment::new();
            for v in q.vars() {
                if matches!(q.kind(v), VarKind::Node { .. } | VarKind::Value) {
                    a = a.with_type(v, types[rng.gen_range(0..types.len())]);
                }
            }
            let warm_check = sess.total_type_check(&q, &s, &a);
            let repeat_check = sess.total_type_check(&q, &s, &a);
            let fresh_check = Session::new().total_type_check(&q, &s, &a);
            match (warm_check, repeat_check, fresh_check) {
                (Ok(w), Ok(r), Ok(f)) => {
                    assert_eq!(w, r, "seed {seed}");
                    assert_eq!(w, f, "seed {seed}");
                }
                (Err(_), Err(_), Err(_)) => {}
                (w, r, f) => {
                    panic!("divergent errors at seed {seed}: warm={w:?} repeat={r:?} fresh={f:?}")
                }
            }
        }
    }
}

/// The lazy P-traces emptiness check (sessions) agrees with independently
/// materializing `Tr(P) ∩ Tr(S)` and testing it — the tentpole's
/// semantics-preservation guarantee, on random single-definition corpora.
#[test]
fn lazy_ptraces_matches_materialized_product() {
    let mut in_class = 0;
    for seed in 0..60u64 {
        let (q, s) = workload(seed * 2); // ordered schemas only
        let sess = Session::new();
        let lazy = match sess.satisfiable_ptraces(&q, &s) {
            Ok(v) => v,
            Err(_) => continue, // outside the single-definition class
        };
        in_class += 1;
        let tg = TypeGraph::new(&s);
        let lang = ptraces::trace_language(&q, &s, &tg).unwrap();
        let materialized = !ssd::automata::ops::is_empty_lang(&lang);
        assert_eq!(lazy, materialized, "seed {seed}\nschema:\n{s}\nquery:\n{q}");
        // Warm repeat.
        assert_eq!(sess.satisfiable_ptraces(&q, &s).unwrap(), lazy);
    }
    assert!(
        in_class >= 10,
        "corpus too small: {in_class} in-class workloads"
    );
}
