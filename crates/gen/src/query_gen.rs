//! Query generation: families matching the columns of Table 2.
//!
//! Queries are produced by sampling paths through a schema's type graph,
//! so the generated workloads are mostly satisfiable (scaling experiments
//! should measure the cost of *deciding*, not of rejecting trivially
//! alien labels); a configurable fraction of entries is perturbed with
//! off-schema labels to exercise the unsatisfiable side too.

use ssd_base::rng::Rng;
#[cfg(test)]
use ssd_base::SharedInterner;
use ssd_base::{Result, TypeIdx};
use ssd_query::{parse_query, Query};
use ssd_schema::{Schema, TypeGraph};

/// Parameters for query generation.
#[derive(Clone, Copy, Debug)]
pub struct QueryGenConfig {
    /// Number of pattern definitions (tree depth drivers).
    pub num_defs: usize,
    /// Entries per definition.
    pub fanout: usize,
    /// Length of each sampled label path.
    pub path_len: usize,
    /// Use wildcard prefixes `_*.label` (constant-suffix form) instead of
    /// fully constant label paths.
    pub wildcard_prefix: bool,
    /// Probability of replacing a path by an off-schema label
    /// (unsatisfiable entry).
    pub perturb_prob: f64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            num_defs: 3,
            fanout: 2,
            path_len: 2,
            wildcard_prefix: false,
            perturb_prob: 0.0,
        }
    }
}

/// Generates a join-free query over `schema` by sampling type-graph paths.
pub fn joinfree_query(
    schema: &Schema,
    tg: &TypeGraph,
    rng: &mut impl Rng,
    cfg: &QueryGenConfig,
) -> Result<Query> {
    let pool = schema.pool();
    // Frontier of (variable name, type) pairs whose definitions may still
    // be emitted.
    let mut text = String::from("SELECT X0 WHERE ");
    let mut frontier: Vec<(String, TypeIdx)> = vec![("Root".to_owned(), schema.root())];
    let mut var_counter = 0usize;
    let mut defs = Vec::new();
    while defs.len() < cfg.num_defs && !frontier.is_empty() {
        let (vname, vtype) = frontier.remove(0);
        if tg.step(vtype).is_empty() {
            continue;
        }
        // Sample one content word for the node, then pick an increasing
        // subsequence of positions as the entries' first edges — this
        // respects Definition 2.2's path order, so unperturbed entries
        // stay jointly realizable.
        let word = sample_word(tg, rng, vtype, cfg.fanout * 2 + 2);
        let mut entries = Vec::new();
        let mut next_pos = 0usize;
        for _ in 0..cfg.fanout {
            if next_pos >= word.len() {
                break;
            }
            let pos = rng.gen_range(next_pos..word.len());
            next_pos = pos + 1;
            let first = word[pos];
            // Extend the path below the first edge.
            let (mut path, endpoint) = sample_path(schema, tg, rng, first.target, cfg.path_len - 1);
            path.insert(0, first.label);
            let endpoint = if cfg.path_len <= 1 {
                first.target
            } else {
                endpoint
            };
            let target = format!("X{var_counter}");
            var_counter += 1;
            let expr = if rng.gen_bool(cfg.perturb_prob) {
                "nosuchlabel".to_owned()
            } else if cfg.wildcard_prefix {
                format!("_*.{}", pool.resolve(*path.last().expect("nonempty")))
            } else {
                path.iter()
                    .map(|l| pool.resolve(*l))
                    .collect::<Vec<_>>()
                    .join(".")
            };
            entries.push(format!("{expr} -> {target}"));
            frontier.push((target, endpoint));
        }
        if entries.is_empty() {
            continue;
        }
        defs.push(format!("{vname} = [{}]", entries.join(", ")));
    }
    if defs.is_empty() {
        defs.push("Root = [_+ -> X0]".to_owned());
        var_counter = var_counter.max(1);
    }
    let _ = var_counter;
    text.push_str(&defs.join(";\n"));
    // Ensure the SELECT variable exists: X0 is the first generated target,
    // or fall back to selecting nothing.
    let q = parse_query(&text, pool);
    match q {
        Ok(q) => Ok(q),
        Err(_) => parse_query(&text.replacen("SELECT X0", "SELECT", 1), pool),
    }
}

/// Samples an accepted word (bounded length) of `t`'s content automaton.
fn sample_word(
    tg: &TypeGraph,
    rng: &mut impl Rng,
    t: TypeIdx,
    max_len: usize,
) -> Vec<ssd_schema::SchemaAtom> {
    let Some(nfa) = tg.pruned_nfa(t) else {
        return Vec::new();
    };
    let good = ssd_automata::ops::coreachable(nfa);
    let mut q = nfa.start();
    let mut word = Vec::new();
    loop {
        let can_stop = nfa.is_accepting(q);
        let candidates: Vec<&(ssd_schema::SchemaAtom, usize)> =
            nfa.edges(q).iter().filter(|(_, r)| good[*r]).collect();
        if candidates.is_empty() || (can_stop && (word.len() >= max_len || rng.gen_bool(0.35))) {
            if can_stop {
                return word;
            }
            if candidates.is_empty() {
                return word; // should not happen on trimmed automata
            }
        }
        let (a, r) = candidates[rng.gen_range(0..candidates.len())];
        word.push(*a);
        q = *r;
        if word.len() > max_len * 4 {
            return word;
        }
    }
}

/// Samples a label path of length ≤ `len` through the type graph.
fn sample_path(
    schema: &Schema,
    tg: &TypeGraph,
    rng: &mut impl Rng,
    from: TypeIdx,
    len: usize,
) -> (Vec<ssd_base::LabelId>, TypeIdx) {
    let _ = schema;
    let mut t = from;
    let mut path = Vec::new();
    for _ in 0..len {
        let step = tg.step(t);
        if step.is_empty() {
            break;
        }
        let a = step[rng.gen_range(0..step.len())];
        path.push(a.label);
        t = a.target;
    }
    (path, t)
}

/// Adds a node join to a join-free query by appending two entries to the
/// root definition that target the same (referenceable) variable. Returns
/// the query text variant; parsing may fail if the root def is exhausted.
pub fn with_node_join(
    schema: &Schema,
    tg: &TypeGraph,
    rng: &mut impl Rng,
    cfg: &QueryGenConfig,
) -> Result<Query> {
    let base = joinfree_query(schema, tg, rng, cfg)?;
    let pool = schema.pool();
    let mut text = base.to_string();
    // Append a joined pair on the root definition.
    let (p1, _) = sample_path(schema, tg, rng, schema.root(), cfg.path_len);
    let (p2, _) = sample_path(schema, tg, rng, schema.root(), cfg.path_len);
    if p1.is_empty() || p2.is_empty() {
        return Ok(base);
    }
    let s1: Vec<String> = p1.iter().map(|l| pool.resolve(*l)).collect();
    let s2: Vec<String> = p2.iter().map(|l| pool.resolve(*l)).collect();
    // Insert into the first `]` of the WHERE clause.
    if let Some(pos) = text.find(']') {
        text.insert_str(
            pos,
            &format!(", {} -> &J0, {} -> &J0", s1.join("."), s2.join(".")),
        );
    }
    parse_query(&text, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_gen::{ordered_schema, SchemaGenConfig};
    use ssd_base::rng::StdRng;
    use ssd_query::QueryClass;

    #[test]
    fn generated_queries_are_joinfree_and_parse() {
        let mut rng = StdRng::seed_from_u64(21);
        for seed in 0..10 {
            let pool = SharedInterner::new();
            let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
            let tg = TypeGraph::new(&s);
            let cfg = QueryGenConfig {
                num_defs: 2 + seed % 3,
                ..Default::default()
            };
            let q = joinfree_query(&s, &tg, &mut rng, &cfg).unwrap();
            assert!(QueryClass::of(&q).join_free(), "{q}");
        }
    }

    #[test]
    fn unperturbed_queries_are_mostly_satisfiable() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut sat_count = 0;
        let trials = 10;
        for _ in 0..trials {
            let pool = SharedInterner::new();
            let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
            let tg = TypeGraph::new(&s);
            let q = joinfree_query(&s, &tg, &mut rng, &QueryGenConfig::default()).unwrap();
            let a = ssd_core::Session::new().satisfiable(&q, &s).unwrap();
            if a.satisfiable {
                sat_count += 1;
            }
        }
        assert!(
            sat_count >= trials / 2,
            "only {sat_count}/{trials} satisfiable"
        );
    }

    #[test]
    fn wildcard_prefix_queries_are_constant_suffix() {
        let mut rng = StdRng::seed_from_u64(23);
        let pool = SharedInterner::new();
        let s = ordered_schema(
            &mut rng,
            &pool,
            &SchemaGenConfig {
                tagged: true,
                ..Default::default()
            },
        );
        let tg = TypeGraph::new(&s);
        let q = joinfree_query(
            &s,
            &tg,
            &mut rng,
            &QueryGenConfig {
                wildcard_prefix: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(QueryClass::of(&q).constant_suffix, "{q}");
    }

    #[test]
    fn node_join_generator_produces_joins() {
        let mut rng = StdRng::seed_from_u64(24);
        let pool = SharedInterner::new();
        let s = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        let tg = TypeGraph::new(&s);
        if let Ok(q) = with_node_join(&s, &tg, &mut rng, &QueryGenConfig::default()) {
            // Either a join was inserted or the fallback returned the base.
            let class = QueryClass::of(&q);
            assert!(class.join_vars.len() <= 1);
        }
    }
}
