//! Cross-validation between independent implementations: the PTIME
//! trace-product engine, the literal P-traces construction, the general
//! solver, and dynamic evaluation on sampled instances.

use ssd::base::rng::StdRng;
use ssd::base::SharedInterner;
use ssd::core::feas::{analyze_obs, Constraints};
use ssd::core::{solver, Budget, Session};
use ssd::gen::data_gen::{sample_instance, DataGenConfig};
use ssd::gen::query_gen::{joinfree_query, QueryGenConfig};
use ssd::gen::schema_gen::{ordered_schema, SchemaGenConfig};
use ssd::query::is_nonempty;
use ssd::schema::{conforms, TypeGraph};

/// On random ordered workloads, the trace-product engine and the general
/// solver agree; when satisfiable, evaluation on sampled instances never
/// contradicts an UNSAT verdict.
#[test]
fn engines_agree_on_random_ordered_workloads() {
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = SharedInterner::new();
        let scfg = SchemaGenConfig {
            num_types: 4 + (seed % 5) as usize,
            tagged: seed % 3 == 0,
            ..Default::default()
        };
        let s = ordered_schema(&mut rng, &pool, &scfg);
        let tg = TypeGraph::new(&s);
        let qcfg = QueryGenConfig {
            num_defs: 1 + (seed % 3) as usize,
            perturb_prob: 0.25,
            ..Default::default()
        };
        let q = joinfree_query(&s, &tg, &mut rng, &qcfg).unwrap();

        let sess = Session::new();
        let none = Constraints::none();
        let by_feas = analyze_obs(&q, &s, &tg, &none, sess.automata(), ssd::obs::noop())
            .unwrap()
            .satisfiable;
        let by_solver = solver::solve_with_in_b(&q, &s, &none, &sess, Budget::unlimited_ref())
            .unwrap()
            .satisfiable;
        assert_eq!(by_feas, by_solver, "seed {seed}\nschema:\n{s}\nquery:\n{q}");

        // Dynamic check: sampled instances conform, and a match on any
        // instance implies SAT.
        for _ in 0..3 {
            let g = sample_instance(&s, &tg, &mut rng, &DataGenConfig::default()).unwrap();
            assert!(conforms(&g, &s).is_some(), "seed {seed}");
            if is_nonempty(&q, &g) {
                assert!(by_feas, "dynamic witness contradicts UNSAT: seed {seed}");
            }
        }
    }
}

/// Single-definition queries: the literal P-traces construction agrees
/// with the trace-product engine.
#[test]
fn ptraces_agree_with_feas_on_random_single_defs() {
    for seed in 100..120u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = SharedInterner::new();
        let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        let tg = TypeGraph::new(&s);
        let q = joinfree_query(
            &s,
            &tg,
            &mut rng,
            &QueryGenConfig {
                num_defs: 1,
                fanout: 2,
                perturb_prob: 0.3,
                ..Default::default()
            },
        )
        .unwrap();
        let sess = Session::new();
        let none = Constraints::none();
        let by_feas = analyze_obs(&q, &s, &tg, &none, sess.automata(), ssd::obs::noop())
            .unwrap()
            .satisfiable;
        let by_traces = sess.satisfiable_ptraces(&q, &s).unwrap();
        assert_eq!(by_feas, by_traces, "seed {seed}\n{s}\n{q}");
    }
}

/// Hand-rolled property test (32 random cases, deterministic seeds):
/// printing a generated query re-parses to the same display form.
#[test]
fn query_display_round_trips() {
    for seed in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(seed * 157 + 1);
        let pool = SharedInterner::new();
        let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        let tg = TypeGraph::new(&s);
        if let Ok(q) = joinfree_query(&s, &tg, &mut rng, &QueryGenConfig::default()) {
            let printed = q.to_string();
            let q2 = ssd::query::parse_query(&printed, &pool).unwrap();
            assert_eq!(printed, q2.to_string(), "seed {seed}");
        }
    }
}

/// Schema display round trips preserve classification and size.
#[test]
fn schema_display_round_trips() {
    for seed in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(seed * 157 + 2);
        let pool = SharedInterner::new();
        let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        let printed = s.to_string();
        let s2 = ssd::schema::parse_schema(&printed, &pool).unwrap();
        assert_eq!(s.len(), s2.len(), "seed {seed}");
        assert_eq!(
            ssd::schema::SchemaClass::of(&s),
            ssd::schema::SchemaClass::of(&s2),
            "seed {seed}"
        );
    }
}

/// Sampled instances always conform to their schema.
#[test]
fn sampled_instances_conform() {
    for seed in 0u64..32 {
        let mut rng = StdRng::seed_from_u64(seed * 157 + 3);
        let pool = SharedInterner::new();
        let s = ordered_schema(
            &mut rng,
            &pool,
            &SchemaGenConfig {
                num_types: 5,
                ..Default::default()
            },
        );
        let tg = TypeGraph::new(&s);
        let g = sample_instance(
            &s,
            &tg,
            &mut rng,
            &DataGenConfig {
                continue_prob: 0.4,
                max_nodes: 300,
            },
        )
        .unwrap();
        assert!(conforms(&g, &s).is_some(), "seed {seed}");
    }
}
