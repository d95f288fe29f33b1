//! Empirical validation of Theorem 4.2 on random workloads: A_O never
//! explores more edges than the naive strategy and always returns the
//! same answers (which also agree with the reference evaluator).

use ssd::base::rng::StdRng;
use ssd::base::SharedInterner;
use ssd::gen::data_gen::{sample_instance, DataGenConfig};
use ssd::gen::query_gen::{joinfree_query, QueryGenConfig};
use ssd::gen::schema_gen::{ordered_schema, SchemaGenConfig};
use ssd::optimizer::compare;
use ssd::schema::TypeGraph;

#[test]
fn adaptive_never_worse_on_random_workloads() {
    let mut improved = 0usize;
    let mut total = 0usize;
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(9000 + seed);
        let pool = SharedInterner::new();
        let s = ordered_schema(
            &mut rng,
            &pool,
            &SchemaGenConfig {
                num_types: 5,
                tagged: seed % 2 == 0,
                ..Default::default()
            },
        );
        let tg = TypeGraph::new(&s);
        let q = match joinfree_query(
            &s,
            &tg,
            &mut rng,
            &QueryGenConfig {
                num_defs: 1,
                fanout: 2,
                ..Default::default()
            },
        ) {
            Ok(q) if q.defs().len() == 1 && !q.defs()[0].1.edges().is_empty() => q,
            _ => continue,
        };
        let g = match sample_instance(
            &s,
            &tg,
            &mut rng,
            &DataGenConfig {
                continue_prob: 0.6,
                max_nodes: 400,
            },
        ) {
            Ok(g) => g,
            Err(_) => continue,
        };
        let c = match compare(&q, &s, &g) {
            Ok(c) => c,
            Err(_) => continue, // non-tree data or unsupported query
        };
        assert_eq!(
            c.naive_results, c.adaptive_results,
            "seed {seed}\nschema:\n{s}\nquery:\n{q}\ndata:\n{g}"
        );
        assert!(
            c.adaptive_cost <= c.naive_cost,
            "A_O worse on seed {seed}: {} vs {}",
            c.adaptive_cost,
            c.naive_cost
        );
        total += 1;
        if c.adaptive_cost < c.naive_cost {
            improved += 1;
        }
        // Cross-check against the reference evaluator: project full
        // bindings onto the pattern's entry targets (the optimizer's
        // tuple shape).
        let targets: Vec<_> = q.defs()[0].1.edges().iter().map(|e| e.target).collect();
        let reference: std::collections::BTreeSet<Vec<ssd::base::OidId>> =
            ssd::query::evaluate(&q, &g)
                .iter()
                .map(|b| {
                    targets
                        .iter()
                        .map(|&v| match b.get(v) {
                            Some(ssd::query::Bound::Node(o)) => *o,
                            other => panic!("target bound to {other:?}"),
                        })
                        .collect()
                })
                .collect();
        assert_eq!(reference, c.naive_results, "seed {seed}\n{s}\n{q}\n{g}");
    }
    assert!(total >= 10, "enough comparable workloads ({total})");
    assert!(improved > 0, "schema knowledge should help somewhere");
}

/// The ingest workload's tagged schema: every label names one type.
const TAGGED_SCHEMA: &str = "ROOT = [(part->P)*]; P = [pname->PN.(sub->Q)*.cost->C]; \
                             Q = [qname->QN.(qty->QT)*]; PN = string; C = int; \
                             QN = string; QT = int";
/// The ingest workload's untagged schema: `item` leads to three types.
const UNTAGGED_SCHEMA: &str = "ROOT = [(item->A | item->B)*]; A = [name->S.(item->C)*]; \
                               B = [name->S.val->I]; C = [key->S.(val->I)*]; \
                               S = string; I = int";

/// `(naive cost, adaptive cost)` per ingest-shaped case, captured before the
/// walker's sideward test became a table lookup. Theorem 4.2's measure
/// counts `firstEdge`/`nextEdge` calls; a rewrite of the walker must not
/// change which edges it explores.
const GOLDEN_COSTS: [(u64, u64); 14] = [
    (251, 101),
    (1201, 551),
    (551, 451),
    (1201, 401),
    (6801, 3001),
    (3001, 2401),
    (157, 16),
    (35, 28),
    (129, 102),
    (337, 33),
    (579, 308),
    (99, 98),
    (178, 167),
    (3121, 1659),
];

#[test]
fn adaptive_cost_is_pinned_on_ingest_shapes() {
    use ssd::gen::corpora::{bibliography, PAPER_SCHEMA};
    use ssd::query::{parse_query, select_results, Bound};
    use ssd::schema::parse_schema;

    let pool = SharedInterner::new();
    let mut docs = Vec::new();
    let bib = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    for (papers, authors) in [(50, 2), (200, 3)] {
        let g = ssd::model::parse_data_graph(&bibliography(papers, authors), &pool).unwrap();
        for q in [
            "SELECT X WHERE Root = [paper.title -> X]",
            "SELECT X WHERE Root = [_*.lastname -> X]",
            "SELECT X WHERE Root = [paper.author.email -> X]",
        ] {
            docs.push((&bib, q, g.clone()));
        }
    }
    let tagged = parse_schema(TAGGED_SCHEMA, &pool).unwrap();
    let untagged = parse_schema(UNTAGGED_SCHEMA, &pool).unwrap();
    let planes = [
        (
            &tagged,
            [
                "SELECT X WHERE Root = [part.sub -> X]",
                "SELECT X WHERE Root = [_*.qname -> X]",
            ],
        ),
        (
            &untagged,
            [
                "SELECT X WHERE Root = [item.item -> X]",
                "SELECT X WHERE Root = [_*.val -> X]",
            ],
        ),
    ];
    for (s, queries) in planes {
        let tg = TypeGraph::new(s);
        for (seed, max_nodes) in [(11u64, 2000usize), (12, 600)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = DataGenConfig {
                continue_prob: 0.95,
                max_nodes,
            };
            let g = sample_instance(s, &tg, &mut rng, &cfg).unwrap();
            docs.push((s, queries[seed as usize % 2], g));
        }
        for (seed, q) in [(13u64, queries[0]), (14, queries[1])] {
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = DataGenConfig {
                continue_prob: 0.95,
                max_nodes: 1500,
            };
            docs.push((s, q, sample_instance(s, &tg, &mut rng, &cfg).unwrap()));
        }
    }
    let mut costs = Vec::new();
    for (s, text, g) in &docs {
        let q = parse_query(text, &pool).unwrap();
        let c = compare(&q, s, g).unwrap();
        assert_eq!(c.naive_results, c.adaptive_results, "{text}");
        let reference: std::collections::BTreeSet<Vec<ssd::base::OidId>> = select_results(&q, g)
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|b| match b {
                        Some(Bound::Node(o)) => o,
                        other => panic!("selected variable bound to {other:?}"),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(reference, c.adaptive_results, "{text}");
        assert!(c.adaptive_cost <= c.naive_cost, "{text}");
        costs.push((c.naive_cost, c.adaptive_cost));
    }
    assert_eq!(costs, GOLDEN_COSTS);
}
