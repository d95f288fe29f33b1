//! Model checks of the session memo layer: racing `satisfiable` calls
//! publish one memo entry, the pathological entry-cap-0 eviction
//! policy never costs a caller correctness — only recomputation — and
//! the facts a query or schema derives on first use are filled once,
//! identically, whichever thread gets there first.
//!
//! Scenarios here drive the *real* session code (type-graph build, feas
//! analysis, automata cache) through the controlled scheduler, so the
//! schedule caps are small: each execution replays the full inference
//! pipeline one synchronization op at a time.

use ssd_bench::workload;
use ssd_check::{check_with, thread, Config};
use ssd_core::{Constraints, FeasKey, Session, SessionLimits};
use ssd_query::QueryClass;
use std::sync::Arc;

/// Two threads asking the same question race to publish one memo entry:
/// `insert_if_absent` keeps the first value, the loser adopts it, and
/// the traffic counters account for exactly the two lookups.
#[test]
fn racing_feas_lookups_publish_one_memo() {
    let (schema, _tg, query) = workload(1100, 6, 1, false, false);
    let cold = Session::new()
        .satisfiable(&query, &schema)
        .unwrap()
        .satisfiable;
    let (schema, query) = (Arc::new(schema), Arc::new(query));
    let report = check_with(
        "session.memo-once",
        Config::with_max_schedules(16),
        move || {
            let sess = Arc::new(Session::new());
            let (s2, sch2, q2) = (Arc::clone(&sess), Arc::clone(&schema), Arc::clone(&query));
            let t = thread::spawn(move || s2.satisfiable(&q2, &sch2).unwrap().satisfiable);
            let mine = sess.satisfiable(&query, &schema).unwrap().satisfiable;
            let theirs = t.join();
            assert_eq!(mine, cold, "racing verdict diverged from cold truth");
            assert_eq!(theirs, cold, "racing verdict diverged from cold truth");
            let st = sess.stats();
            assert_eq!(st.feas_memos, 1, "one key, one published entry");
            assert_eq!(
                st.feas_memo_table.hits + st.feas_memo_table.misses,
                2,
                "every lookup is either a hit or a miss: {:?}",
                st.feas_memo_table
            );
            assert!(st.feas_memo_table.misses >= 1, "someone had to compute");
        },
    );
    report.assert_ok();
}

/// The eviction invariant, at the session level: with a feas-memo entry
/// cap of zero, *every* insert is immediately evicted again — yet both
/// racing callers still return the cold-truth verdict, because the value
/// they hold is an `Arc` the sweep cannot invalidate. A cap of zero also
/// keeps the hard-cap pass deterministic (keep = len/2 = 0 drops every
/// entry, so no iteration-order-dependent survivor choice exists for the
/// replay engine to trip on).
#[test]
fn cap_zero_eviction_costs_recomputation_never_correctness() {
    let (schema, _tg, query) = workload(1100, 6, 1, false, false);
    let cold = Session::new()
        .satisfiable(&query, &schema)
        .unwrap()
        .satisfiable;
    let (schema, query) = (Arc::new(schema), Arc::new(query));
    let report = check_with(
        "session.evict-vs-reader",
        Config::with_max_schedules(16),
        move || {
            let sess = Arc::new(Session::with_limits(
                SessionLimits::unlimited().max_feas_memo_entries(0),
            ));
            let (s2, sch2, q2) = (Arc::clone(&sess), Arc::clone(&schema), Arc::clone(&query));
            let t = thread::spawn(move || s2.satisfiable(&q2, &sch2).unwrap().satisfiable);
            let mine = sess.satisfiable(&query, &schema).unwrap().satisfiable;
            let theirs = t.join();
            assert_eq!(mine, cold, "eviction corrupted a held result");
            assert_eq!(theirs, cold, "eviction corrupted a held result");
            let st = sess.stats();
            assert_eq!(st.feas_memos, 0, "cap 0: nothing survives the sweep");
            assert!(st.evicted >= 1, "at least one insert was swept");
            assert_eq!(
                st.feas_memo_table.hits + st.feas_memo_table.misses,
                2,
                "lookups still fully accounted: {:?}",
                st.feas_memo_table
            );
        },
    );
    report.assert_ok();
}

/// Two threads race the first use of one query's and one schema's
/// derived facts: `Query::class`, `Schema::tags`, and `FeasKey::new`
/// (which reads the query's cached encoding). The once-slot elects one
/// initializer and publishes its value; both threads must see exactly
/// the facts a from-scratch derivation computes, with no race reported.
#[test]
fn racing_first_uses_of_derived_facts_agree() {
    let (schema, _tg, query) = workload(1100, 6, 1, true, false);
    // The references come from clones, so `schema` and `query` keep
    // empty slots and every execution below races to fill fresh ones.
    let class = QueryClass::of(&query);
    let key = FeasKey::new(&query.clone(), &Constraints::none());
    let tags = schema.clone().tags().cloned();
    assert!(tags.is_some(), "a tagged workload has a tag map");
    let (schema, query) = (Arc::new(schema), Arc::new(query));
    let report = check_with(
        "derived-facts.fill-once",
        Config::with_max_schedules(64),
        move || {
            let q = Arc::new((*query).clone());
            let s = Arc::new((*schema).clone());
            let (q2, s2) = (Arc::clone(&q), Arc::clone(&s));
            let derive = |q: &ssd_query::Query, s: &ssd_schema::Schema| {
                (
                    q.class().clone(),
                    s.tags().cloned(),
                    FeasKey::new(q, &Constraints::none()),
                )
            };
            let t = thread::spawn(move || derive(&q2, &s2));
            let mine = derive(&q, &s);
            let theirs = t.join();
            for (who, (c, t, k)) in [("main", mine), ("spawned", theirs)] {
                assert_eq!(c, class, "{who}: class diverged");
                assert_eq!(t, tags, "{who}: tag map diverged");
                assert_eq!(k, key, "{who}: memo key diverged");
                assert_eq!(k.fingerprint(), key.fingerprint(), "{who}");
            }
        },
    );
    report.assert_ok();
}
