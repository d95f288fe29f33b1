//! Golden for the trace-product engine: on a fixed-seed corpus of
//! generated instances, every `Feas(X)` set and verdict of
//! `analyze_tree_obs` hashes to a pinned digest, and the total number of
//! `(variable, type)` checks (`feas_types_checked`) is pinned too. Any
//! rewrite of the engine's inner loop must reproduce both exactly.
//!
//! The corpus covers ordered (tagged and untagged) and unordered schemas
//! of 4–32 collection types; join-free queries with constant and
//! wildcard-prefix paths, some entries perturbed off-schema; node-join
//! queries under the bounded-join wrapper's leaf pins (a join variable
//! targeted by several entries with different regexes); and label-variable
//! entries, free and pinned. Each instance is analysed unpinned and
//! root-pinned to every type.

use ssd::automata::{AutomataCache, Regex};
use ssd::base::rng::{Rng, StdRng};
use ssd::base::{SharedInterner, TypeIdx};
use ssd::core::feas::{analyze_tree_obs, Constraints, FeasAnalysis};
use ssd::gen::corpora::{FEEDBACK_QUERY, PAPER_QUERY, PAPER_SCHEMA};
use ssd::gen::query_gen::{joinfree_query, with_node_join, QueryGenConfig};
use ssd::gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd::obs::{names, TraceRecorder};
use ssd::query::{parse_query, EdgeExpr, PatDef, Query, VarKind};
use ssd::schema::{Schema, SchemaAtom, SchemaBuilder, TypeDef, TypeGraph};

/// Digest of every analysis of the corpus, in corpus order.
const GOLDEN_DIGEST: u64 = 3_932_385_862_128_882_615;
/// Number of analyses run on the corpus.
const GOLDEN_ANALYSES: usize = 3_554;
/// `feas_types_checked` summed over the corpus.
const GOLDEN_TYPES_CHECKED: u64 = 223_070;

/// FNV-1a, 64 bit: a stable digest independent of std's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn analysis(&mut self, a: &FeasAnalysis) {
        self.bytes(&[u8::from(a.satisfiable)]);
        self.u32(a.feas.len() as u32);
        for set in &a.feas {
            self.u32(set.len() as u32);
            for t in set {
                self.u32(t.0);
            }
        }
    }
}

/// The same schema with every type referenceable, so node joins (which
/// bind `&` variables) can be pinned to any collection type.
fn referenceable(base: &Schema) -> Schema {
    let mut b = SchemaBuilder::new(base.pool().clone());
    let ids: Vec<TypeIdx> = base
        .types()
        .map(|t| b.declare(base.name(t), true))
        .collect();
    let remap = |r: &Regex<SchemaAtom>| {
        r.map_atoms(&mut |a| Regex::atom(SchemaAtom::new(a.label, ids[a.target.index()])))
    };
    for t in base.types() {
        let def = match base.def(t) {
            TypeDef::Ordered(r) => TypeDef::Ordered(remap(r)),
            TypeDef::Unordered(r) => TypeDef::Unordered(remap(r)),
            TypeDef::Atomic(a) => TypeDef::Atomic(*a),
        };
        b.define(ids[t.index()], def).expect("fresh type");
    }
    b.finish().expect("well-formed")
}

/// One generated instance: a schema, a query, and the constraint sets to
/// analyse it under (besides the unpinned and root-pinned runs).
struct Instance {
    schema: Schema,
    query: Query,
    extra: Vec<Constraints>,
}

fn corpus() -> Vec<Instance> {
    let mut out = Vec::new();
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xfea5_0000 + seed);
        let pool = SharedInterner::new();
        let scfg = SchemaGenConfig {
            num_types: [4, 6, 8, 12, 16, 24, 32][seed as usize % 7],
            tagged: seed % 3 == 1,
            ..Default::default()
        };
        let unordered = seed % 4 == 3;
        let schema = if unordered {
            unordered_schema(&mut rng, &pool, &scfg)
        } else {
            ordered_schema(&mut rng, &pool, &scfg)
        };
        let tg = TypeGraph::new(&schema);
        let qcfg = QueryGenConfig {
            num_defs: 1 + rng.gen_range(0..4),
            fanout: 1 + rng.gen_range(0..3),
            path_len: 1 + rng.gen_range(0..3),
            wildcard_prefix: rng.gen_bool(0.4),
            perturb_prob: 0.15,
        };

        // Join-free: unordered schemas get unordered pattern definitions.
        let q = joinfree_query(&schema, &tg, &mut rng, &qcfg).unwrap();
        let q = if unordered {
            let text = q.to_string().replace('[', "{").replace(']', "}");
            parse_query(&text, &pool).unwrap()
        } else {
            q
        };
        out.push(Instance {
            schema: schema.clone(),
            query: q.clone(),
            extra: Vec::new(),
        });

        // Label variable on the root definition, free and pinned to the
        // root's first label and to an off-schema label.
        let text = q.to_string();
        let close = if unordered { '}' } else { ']' };
        if let Some(pos) = text.find(close) {
            let mut text = text.clone();
            text.insert_str(pos, ", LV -> XLV");
            if let Ok(lq) = parse_query(&text, &pool) {
                let lv = lq.var_by_name("LV").unwrap();
                let mut extra = vec![Constraints::none().pin_label(lv, pool.intern("nosuchlabel"))];
                if let Some(a) = tg.step(schema.root()).first() {
                    extra.push(Constraints::none().pin_label(lv, a.label));
                }
                out.push(Instance {
                    schema: schema.clone(),
                    query: lq,
                    extra,
                });
            }
        }

        // Node join over the referenceable twin, with the bounded-join
        // wrapper's pins: every join variable pinned to each inhabited
        // type, once as a leaf and once with its own definition expanded.
        if !unordered {
            let rs = referenceable(&schema);
            let rtg = TypeGraph::new(&rs);
            let jq = with_node_join(&rs, &rtg, &mut rng, &qcfg).unwrap();
            let joins: Vec<_> = jq
                .vars()
                .filter(|&v| {
                    let mut n = 0;
                    for (_, def) in jq.defs() {
                        if let PatDef::Ordered(es) | PatDef::Unordered(es) = def {
                            n += es.iter().filter(|e| e.target == v).count();
                        }
                    }
                    n > 1
                })
                .collect();
            let mut extra = Vec::new();
            for t in rs.types().filter(|&t| rtg.is_inhabited(t)) {
                let mut pinned = Constraints::none();
                for &j in &joins {
                    pinned = pinned.pin_type(j, t);
                }
                let mut leafed = pinned.clone();
                for &j in &joins {
                    leafed = leafed.leaf(j);
                }
                extra.push(leafed);
                extra.push(pinned);
            }
            out.push(Instance {
                schema: rs,
                query: jq,
                extra,
            });
        }
    }
    out
}

/// Number of regex (not label-variable) entries over all definitions.
fn regex_entries(q: &Query) -> usize {
    q.defs()
        .iter()
        .map(|(_, def)| match def {
            PatDef::Ordered(es) | PatDef::Unordered(es) => es
                .iter()
                .filter(|e| matches!(e.expr, EdgeExpr::Regex(_)))
                .count(),
            _ => 0,
        })
        .sum()
}

#[test]
fn feas_analysis_matches_golden() {
    let rec = TraceRecorder::new();
    let mut digest = Fnv::new();
    let mut analyses = 0usize;
    let mut entry_count = 0usize;
    for inst in corpus() {
        let (s, q) = (&inst.schema, &inst.query);
        let tg = TypeGraph::new(s);
        let cache = AutomataCache::new();
        let root = q.root_var();
        let mut runs = vec![Constraints::none()];
        runs.extend(s.types().map(|t| Constraints::none().pin_type(root, t)));
        runs.extend(inst.extra.iter().cloned());
        for c in &runs {
            digest.analysis(&analyze_tree_obs(q, s, &tg, c, &cache, &rec));
            analyses += 1;
        }
        entry_count += regex_entries(q);
        assert!(q.vars().any(|v| matches!(q.kind(v), VarKind::Node { .. })));
    }
    let checked = rec.counter(names::counter::FEAS_TYPES_CHECKED);
    assert!(entry_count > 100, "corpus too thin: {entry_count} entries");
    assert_eq!(
        (digest.0, analyses, checked),
        (GOLDEN_DIGEST, GOLDEN_ANALYSES, GOLDEN_TYPES_CHECKED),
        "Feas(X) digest, analysis count or feas_types_checked drifted"
    );
}

/// One backward product pass per regex entry per analysis, however many
/// candidate types each definition has: on the paper's schema (8 types)
/// a pass run per candidate type would count several times more.
#[test]
fn one_product_pass_per_regex_entry() {
    let pool = SharedInterner::new();
    let s = ssd::schema::parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let tg = TypeGraph::new(&s);
    for (text, entries) in [(PAPER_QUERY, 3), (FEEDBACK_QUERY, 3)] {
        let q = parse_query(text, &pool).unwrap();
        assert_eq!(regex_entries(&q), entries, "{text}");
        let rec = TraceRecorder::new();
        let cache = AutomataCache::new();
        let a = analyze_tree_obs(&q, &s, &tg, &Constraints::none(), &cache, &rec);
        assert!(a.satisfiable, "{text}");
        assert_eq!(
            rec.counter(names::counter::FEAS_PRODUCT_PASSES),
            entries as u64,
            "{text}"
        );
    }
}
