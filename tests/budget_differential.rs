//! Differential testing of resource governance (tier-1):
//!
//! * an **unlimited budget is invisible** — every budgeted entry point
//!   returns verdicts bit-identical to its legacy twin on random
//!   corpora;
//! * a **tripped budget is an answer, not a crash** — an oversized 3SAT
//!   reduction returns `Verdict::Exhausted` with a sane diagnostic
//!   within the configured fuel/deadline, and the session stays fully
//!   usable afterward;
//! * **eviction never changes verdicts** — a byte/entry-capped session
//!   agrees with an unlimited one while actually shedding entries.

use std::time::Duration;

use ssd::base::budget::{Budget, TripReason, Verdict};
use ssd::base::rng::StdRng;
use ssd::base::SharedInterner;
use ssd::core::{Constraints, Session, SessionLimits};
use ssd::gen::query_gen::{joinfree_query, QueryGenConfig};
use ssd::gen::sat3::Sat3;
use ssd::gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd::query::{parse_query, Query};
use ssd::schema::{parse_schema, Schema, TypeGraph};

/// A deterministic random workload; even seeds are ordered schemas, odd
/// seeds unordered (exercising the general solver under the budget too).
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

/// An adversarial 3SAT reduction: exponential for the general solver.
fn sat3_workload(seed: u64, vars: usize, clauses: usize) -> (Query, Schema) {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = Sat3::random(&mut rng, vars, clauses);
    let pool = SharedInterner::new();
    let s = parse_schema(&f.schema_text(), &pool).unwrap();
    let q = parse_query(&f.query_text(), &pool).unwrap();
    (q, s)
}

/// Unlimited budget ⇒ bit-identical to the legacy entry points, across
/// every budgeted surface (dispatch, inference, P-traces).
#[test]
fn unlimited_budget_is_bit_identical_to_legacy() {
    let unlimited = Budget::unlimited();
    for seed in 0..30u64 {
        let (q, s) = workload(seed);
        let sess = Session::new();
        let legacy_sat = sess.satisfiable(&q, &s).unwrap();
        let budgeted_sat = sess
            .satisfiable_budgeted(&q, &s, &unlimited)
            .unwrap()
            .expect_done("unlimited budget never trips");
        assert_eq!(budgeted_sat, legacy_sat, "seed {seed}: satisfiable");

        let legacy_inf = sess.infer(&q, &s).unwrap();
        let budgeted_inf = sess
            .infer_budgeted(&q, &s, &unlimited)
            .unwrap()
            .expect_done("unlimited budget never trips");
        assert_eq!(budgeted_inf, legacy_inf, "seed {seed}: infer");

        // P-traces only supports single-collection-definition queries;
        // budgeted and legacy must agree on *whether* it applies too.
        match sess.satisfiable_ptraces(&q, &s) {
            Ok(legacy_pt) => {
                let budgeted_pt = sess
                    .satisfiable_ptraces_budgeted(&q, &s, &unlimited)
                    .unwrap()
                    .expect_done("unlimited budget never trips");
                assert_eq!(budgeted_pt, legacy_pt, "seed {seed}: ptraces");
            }
            Err(_) => assert!(
                sess.satisfiable_ptraces_budgeted(&q, &s, &unlimited)
                    .is_err(),
                "seed {seed}: budgeted ptraces must reject the same shapes"
            ),
        }
    }
}

/// A *generous* governed budget also changes nothing: the verdicts are
/// identical, only the bookkeeping differs.
#[test]
fn generous_governed_budget_changes_nothing() {
    for seed in 0..12u64 {
        let (q, s) = workload(seed);
        let sess = Session::new();
        let legacy = sess.satisfiable(&q, &s).unwrap();
        let b = Budget::unlimited()
            .with_fuel(50_000_000)
            .with_deadline_in(Duration::from_secs(600));
        let governed = sess
            .satisfiable_budgeted(&q, &s, &b)
            .unwrap()
            .expect_done("generous budget must not trip on tiny workloads");
        assert_eq!(governed, legacy, "seed {seed}");
    }
}

/// An oversized 3SAT instance under a small fuel allowance returns
/// `Exhausted` with a meaningful diagnostic — and the session answers
/// ordinary queries correctly afterward.
#[test]
fn fuel_trip_on_oversized_sat_leaves_session_usable() {
    // 10 variables / 20 clauses: the general search burns multi-million
    // work units on this family (measured), dwarfing the allowance.
    let (q, s) = sat3_workload(99, 10, 20);
    let sess = Session::new();
    let fuel = 2_000u64;
    let b = Budget::unlimited().with_fuel(fuel);
    let verdict = sess.satisfiable_budgeted(&q, &s, &b).unwrap();
    let e = verdict
        .exhausted()
        .expect("an exponential search must exceed 2k fuel units")
        .clone();
    assert_eq!(e.reason, TripReason::Fuel);
    assert!(!e.engine.is_empty(), "diagnostic names the engine");
    assert!(
        e.work_done > 0 && e.work_done <= fuel + 1,
        "work_done {} should reflect the allowance {fuel}",
        e.work_done
    );
    assert!(b.spent() > 0, "spent fuel is visible on the budget");

    // The session is not poisoned: a fresh small query still answers,
    // and agrees with a cold session.
    let (q2, s2) = workload(3);
    let after = sess.satisfiable(&q2, &s2).unwrap();
    let fresh = Session::new().satisfiable(&q2, &s2).unwrap();
    assert_eq!(after, fresh, "session must stay usable after a trip");

    // A smaller instance with ample fuel completes on the same session
    // and matches the unbudgeted answer.
    let (q3, s3) = sat3_workload(21, 6, 12);
    let ample = Budget::unlimited().with_fuel(u64::MAX / 2);
    let full = sess
        .satisfiable_budgeted(&q3, &s3, &ample)
        .unwrap()
        .expect_done("ample fuel completes");
    assert_eq!(full, sess.satisfiable(&q3, &s3).unwrap());
}

/// An already-expired deadline trips before any real work happens.
#[test]
fn expired_deadline_trips_immediately() {
    let (q, s) = sat3_workload(7, 10, 20);
    let sess = Session::new();
    let b = Budget::unlimited().with_deadline_in(Duration::ZERO);
    let verdict = sess.satisfiable_budgeted(&q, &s, &b).unwrap();
    match verdict {
        Verdict::Exhausted(e) => assert_eq!(e.reason, TripReason::Deadline),
        Verdict::Done(_) => panic!("a zero deadline cannot complete an exponential search"),
    }
}

/// Cooperative cancellation surfaces as `Exhausted(Cancelled)`.
#[test]
fn pre_cancelled_budget_trips_as_cancelled() {
    let (q, s) = sat3_workload(11, 10, 20);
    let sess = Session::new();
    let b = Budget::cancellable();
    b.cancel();
    let verdict = sess.satisfiable_budgeted(&q, &s, &b).unwrap();
    match verdict {
        Verdict::Exhausted(e) => assert_eq!(e.reason, TripReason::Cancelled),
        Verdict::Done(_) => panic!("a cancelled budget cannot complete an exponential search"),
    }
}

/// Budgeted inference: the shared allowance trips across the per-prefix
/// probes, and unlimited inference on the same session still matches the
/// legacy route afterward.
#[test]
fn budgeted_infer_trips_and_recovers() {
    let (q, s) = sat3_workload(21, 10, 20);
    let sess = Session::new();
    let b = Budget::unlimited().with_fuel(1_000);
    let verdict = sess.infer_budgeted(&q, &s, &b).unwrap();
    assert!(
        verdict.is_exhausted(),
        "1k fuel cannot finish the root satisfiability probe"
    );
    let (q2, s2) = workload(4);
    assert_eq!(
        sess.infer(&q2, &s2).unwrap(),
        Session::new().infer(&q2, &s2).unwrap(),
        "inference stays correct after a trip"
    );
}

/// Eviction invariance: a session under aggressive cache ceilings
/// returns exactly the verdicts of an unlimited session, while actually
/// evicting (nonzero `evicted` under the caps).
#[test]
fn eviction_never_changes_verdicts() {
    let bounded = Session::with_limits(
        SessionLimits::unlimited()
            .max_type_graph_bytes(4096)
            .max_feas_memo_entries(2)
            .max_automata_entries(16),
    );
    let free = Session::new();
    for seed in 0..25u64 {
        let (q, s) = workload(seed);
        let a = bounded.satisfiable(&q, &s).unwrap();
        let b = free.satisfiable(&q, &s).unwrap();
        assert_eq!(a, b, "seed {seed}: eviction changed a verdict");
        // Re-ask warm (or re-computed after eviction): still identical.
        let a2 = bounded.satisfiable(&q, &s).unwrap();
        assert_eq!(a2, a, "seed {seed}: recomputed verdict drifted");
    }
    let stats = bounded.stats();
    assert!(
        stats.evicted > 0 || stats.automata.evicted > 0,
        "the caps are tight enough that this workload must evict: {stats}"
    );
    assert_eq!(free.stats().evicted, 0);
}

/// Pinned-constraint verdicts are also eviction-invariant (the feas memo
/// is the table the entry cap hammers).
#[test]
fn eviction_invariance_under_constraints() {
    let bounded = Session::with_limits(SessionLimits::unlimited().max_feas_memo_entries(1));
    let free = Session::new();
    for seed in [0u64, 2, 6, 8] {
        let (q, s) = workload(seed);
        let tg = TypeGraph::new(&s);
        let vars: Vec<_> = q.vars().collect();
        let v = *vars.first().unwrap();
        for t in s.types() {
            if !tg.is_inhabited(t) {
                continue;
            }
            let c = Constraints::none().pin_type(v, t);
            let a = bounded.satisfiable_with(&q, &s, &c).unwrap();
            let b = free.satisfiable_with(&q, &s, &c).unwrap();
            assert_eq!(a, b, "seed {seed}, pin {t:?}");
        }
    }
    assert!(bounded.stats().evicted > 0, "entry cap of 1 must evict");
}
