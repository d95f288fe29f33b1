//! The adaptive schema-guided evaluator `A_O` (§4.2).
//!
//! Knowledge representation: for every node on the DFS stack, the set of
//! *consistent configurations* `(type, content-state)` — type assignments
//! and positions inside their content models that agree with every edge
//! label observed so far and with the refined type sets of completed
//! subtrees. The traces-style product of segment automata with the type
//! graph supplies the usefulness oracle.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use ssd_automata::syntax::Atom as _;
use ssd_base::{OidId, TypeIdx};
use ssd_model::Node;
use ssd_query::{PatDef, Query};
use ssd_schema::{Schema, TypeDef, TypeGraph};

use crate::adt::{CostedGraph, EdgeRef};
use crate::naive::{combine, Candidates};
use crate::plan::RootQuery;

/// Evaluates with schema-guided downward and sideward pruning. Returns
/// exactly the tuples of [`crate::naive::evaluate_naive`], at
/// less-than-or-equal cost.
pub fn evaluate_adaptive(
    cg: &CostedGraph<'_>,
    rq: &RootQuery,
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
) -> BTreeSet<Vec<OidId>> {
    let oracle = Oracle::new(rq, q, s, tg);
    let k = rq.len();
    let mut cands: Candidates = vec![BTreeMap::new(); k];

    // Every segment starts at the root, in its automaton's start state.
    let root_live: Vec<Live> = rq
        .nfas
        .iter()
        .enumerate()
        .map(|(i, nfa)| (i, vec![nfa.start()]))
        .collect();
    // The root node's configurations start at the root type's automaton.
    let root_confs = start_confs(s, tg, s.root());
    let mut walker = Walker {
        cg,
        rq,
        oracle: &oracle,
        root_live: &root_live,
        cands: &mut cands,
        visited: vec![false; cg.graph().len()],
    };
    walker.scan_node(cg.root(), root_confs, None, 0);
    combine(&cands)
}

/// A consistent configuration of one node: its possible type and the
/// content-automaton state after the edges consumed so far.
type Conf = (TypeIdx, usize);

/// A live segment: its index and the path-automaton states reached.
type Live = (usize, Vec<usize>);

fn start_confs(s: &Schema, tg: &TypeGraph, t: TypeIdx) -> Vec<Conf> {
    match s.def(t) {
        TypeDef::Atomic(_) => Vec::new(),
        _ => match tg.pruned_nfa(t) {
            Some(n) => vec![(t, n.start())],
            None => Vec::new(),
        },
    }
}

/// Everything `A_O` consults that depends only on the schema and the
/// query, computed once per evaluation.
struct Oracle<'a> {
    s: &'a Schema,
    tg: &'a TypeGraph,
    /// Per segment: the number of path-automaton states.
    path_states: Vec<usize>,
    /// Per segment, indexed `t * path_states + q`: whether acceptance
    /// needs ≥1 more step from the product pair `(t, q)` and can be
    /// reached (the descend decision).
    good_strict: Vec<Vec<bool>>,
    /// The sideward table. Per segment and type, indexed
    /// `qc * path_states + q`: whether some symbol the content automaton
    /// of `t` can read from state `qc` onwards advances the segment from
    /// path state `q` to acceptance or to a productive pair. `step`
    /// distributes over unions of states, so a set of live path states is
    /// useful exactly when one of its members is.
    useful: Vec<Vec<Vec<bool>>>,
}

impl<'a> Oracle<'a> {
    fn new(rq: &RootQuery, q: &Query, s: &'a Schema, tg: &'a TypeGraph) -> Oracle<'a> {
        let mut path_states = Vec::with_capacity(rq.len());
        let mut good_strict = Vec::with_capacity(rq.len());
        let mut useful = Vec::with_capacity(rq.len());
        for (i, nfa) in rq.nfas.iter().enumerate() {
            // Admissible end types for this segment's target variable.
            let target = rq.targets[i];
            let leaf_ok = |t: TypeIdx| match q.def(target) {
                None => true,
                Some(PatDef::Value(v)) => s.def(t).atomic().is_some_and(|a| a.admits(v)),
                Some(PatDef::ValueVar(_)) => s.def(t).atomic().is_some(),
                Some(_) => false,
            };
            // Backward closure over the (type-graph × path-NFA) product:
            // `good` holds the pairs from which the automaton can reach
            // acceptance at an admissible leaf in ≥0 steps.
            let mut base: HashSet<(TypeIdx, usize)> = HashSet::new();
            for t in s.types() {
                if !tg.is_inhabited(t) || !leaf_ok(t) {
                    continue;
                }
                for qstate in 0..nfa.num_states() {
                    if nfa.is_accepting(qstate) {
                        base.insert((t, qstate));
                    }
                }
            }
            let mut rev: HashMap<(TypeIdx, usize), Vec<(TypeIdx, usize)>> = HashMap::new();
            for t1 in s.types() {
                for atom in tg.step(t1) {
                    for qstate in 0..nfa.num_states() {
                        for (a, q2) in nfa.edges(qstate) {
                            if a.matches(&atom.label) {
                                rev.entry((atom.target, *q2))
                                    .or_default()
                                    .push((t1, qstate));
                            }
                        }
                    }
                }
            }
            let mut good = base.clone();
            let mut strict: HashSet<(TypeIdx, usize)> = HashSet::new();
            let mut stack: Vec<(TypeIdx, usize)> = base.iter().copied().collect();
            while let Some(p) = stack.pop() {
                if let Some(preds) = rev.get(&p) {
                    for &pr in preds {
                        strict.insert(pr);
                        if good.insert(pr) {
                            stack.push(pr);
                        }
                    }
                }
            }
            // `strict` as computed contains predecessors of reachable
            // pairs; close it upward too.
            let mut stack2: Vec<(TypeIdx, usize)> = strict.iter().copied().collect();
            while let Some(p) = stack2.pop() {
                if let Some(preds) = rev.get(&p) {
                    for &pr in preds {
                        if strict.insert(pr) {
                            stack2.push(pr);
                        }
                    }
                }
            }

            let ns = nfa.num_states();
            let mut strict_dense = vec![false; s.len() * ns];
            for &(t, qs) in &strict {
                strict_dense[t.index() * ns + qs] = true;
            }
            let per_type = s
                .types()
                .map(|t| {
                    let Some(n) = tg.pruned_nfa(t) else {
                        return Vec::new();
                    };
                    let nc = n.num_states();
                    // `local[qs * ns + p]`: some edge leaving content state
                    // `qs` is useful from path state `p`.
                    let mut local = vec![false; nc * ns];
                    for qs in 0..nc {
                        for (a, _) in n.edges(qs) {
                            for p in 0..ns {
                                local[qs * ns + p] |= nfa.edges(p).iter().any(|(pa, q2s)| {
                                    pa.matches(&a.label)
                                        && (nfa.is_accepting(*q2s)
                                            || good.contains(&(a.target, *q2s)))
                                });
                            }
                        }
                    }
                    // Close over the content states reachable from `qc`.
                    let mut table = vec![false; nc * ns];
                    for qc in 0..nc {
                        let mut seen = vec![false; nc];
                        let mut stack = vec![qc];
                        seen[qc] = true;
                        while let Some(qs) = stack.pop() {
                            for p in 0..ns {
                                table[qc * ns + p] |= local[qs * ns + p];
                            }
                            for &(_, q2) in n.edges(qs) {
                                if !seen[q2] {
                                    seen[q2] = true;
                                    stack.push(q2);
                                }
                            }
                        }
                    }
                    table
                })
                .collect();
            path_states.push(ns);
            good_strict.push(strict_dense);
            useful.push(per_type);
        }
        Oracle {
            s,
            tg,
            path_states,
            good_strict,
            useful,
        }
    }

    /// Whether segment `seg`, at path state `q`, can make strict progress
    /// below a node of type `t`.
    fn strict(&self, seg: usize, t: TypeIdx, q: usize) -> bool {
        self.good_strict[seg][t.index() * self.path_states[seg] + q]
    }
}

struct Walker<'a, 'b> {
    cg: &'a CostedGraph<'a>,
    rq: &'a RootQuery,
    oracle: &'a Oracle<'b>,
    root_live: &'a [Live],
    cands: &'a mut Candidates,
    visited: Vec<bool>,
}

impl<'a, 'b> Walker<'a, 'b> {
    /// Scans `node`'s edges; `live` is `None` at the root (segments start
    /// there) and `Some` below it. Returns the refined set of possible
    /// types for `node`, sorted.
    fn scan_node(
        &mut self,
        node: OidId,
        confs: Vec<Conf>,
        live: Option<&[Live]>,
        root_pos_base: usize,
    ) -> Vec<TypeIdx> {
        let mut confs = confs;
        // Atomic nodes / no configurations: nothing to scan.
        if confs.is_empty() || std::mem::replace(&mut self.visited[node.index()], true) {
            return closing_types(&confs);
        }
        let segs = live.unwrap_or(self.root_live);

        let mut pos = root_pos_base;
        let mut edge: Option<EdgeRef> = None;
        loop {
            // Sideward pruning: is another (useful) edge possible?
            if !self.should_scan_more(&confs, segs) {
                break;
            }
            edge = match edge {
                None => self.cg.first_edge(node),
                Some(e) => self.cg.next_edge(e),
            };
            let Some(e) = edge else { break };
            let label = self.cg.label(e);
            let child = self.cg.target(e);
            let rp = if live.is_none() { pos } else { root_pos_base };

            // Possible child types under current configurations.
            let mut child_types: Vec<TypeIdx> = Vec::new();
            for &(t, qc) in &confs {
                if let Some(n) = self.oracle.tg.pruned_nfa(t) {
                    for (a, _) in n.edges(qc) {
                        if a.label == label {
                            child_types.push(a.target);
                        }
                    }
                }
            }
            child_types.sort_unstable();
            child_types.dedup();

            // Advance live segments over this edge.
            let mut next_live: Vec<Live> = Vec::new();
            let mut useful_below = false;
            for (i, states) in segs {
                let nfa = &self.rq.nfas[*i];
                let next = nfa.step(states, &label);
                if next.is_empty() {
                    continue;
                }
                // Record acceptance at the child (value checks read free).
                if next.iter().any(|&qs| nfa.is_accepting(qs)) {
                    self.cands[*i].entry(rp).or_default().insert(child);
                }
                // Downward usefulness: some consistent child type allows
                // strict progress.
                if next
                    .iter()
                    .any(|&qs| child_types.iter().any(|&ct| self.oracle.strict(*i, ct, qs)))
                {
                    useful_below = true;
                    next_live.push((*i, next));
                }
            }

            // Narrow child types by the node's actual kind (a free read,
            // like value reads: only edge traversals are charged).
            let child_is_atomic = matches!(self.cg.graph().node(child), Node::Atomic(_));
            let kinded: Vec<TypeIdx> = child_types
                .into_iter()
                .filter(|&t| matches!(self.oracle.s.def(t), TypeDef::Atomic(_)) == child_is_atomic)
                .collect();

            // Descend only when useful (downward pruning).
            let refined: Vec<TypeIdx> = if useful_below && !child_is_atomic {
                let child_confs: Vec<Conf> = kinded
                    .iter()
                    .flat_map(|&t| start_confs(self.oracle.s, self.oracle.tg, t))
                    .collect();
                let types = self.scan_node(child, child_confs, Some(&next_live), rp);
                if types.is_empty() {
                    kinded
                } else {
                    types
                }
            } else {
                kinded
            };

            // Advance configurations with the refined child types
            // (adaptive narrowing).
            let mut next_confs: Vec<Conf> = Vec::new();
            for &(t, qc) in &confs {
                if let Some(n) = self.oracle.tg.pruned_nfa(t) {
                    for (a, q2) in n.edges(qc) {
                        if a.label == label && refined.binary_search(&a.target).is_ok() {
                            let c = (t, *q2);
                            if !next_confs.contains(&c) {
                                next_confs.push(c);
                            }
                        }
                    }
                }
            }
            confs = next_confs;
            pos += 1;
            if confs.is_empty() {
                break; // inconsistent (data outside schema); stop
            }
        }
        closing_types(&confs)
    }

    /// Sideward pruning test: may a useful edge still occur? A lookup in
    /// the oracle's sideward table per configuration and live path state.
    fn should_scan_more(&self, confs: &[Conf], segs: &[Live]) -> bool {
        let o = self.oracle;
        confs.iter().any(|&(t, qc)| {
            segs.iter().any(|(i, states)| {
                let ns = o.path_states[*i];
                let row = &o.useful[*i][t.index()][qc * ns..(qc + 1) * ns];
                states.iter().any(|&q| row[q])
            })
        })
    }
}

/// Closing a node: the types of its remaining configurations, sorted
/// (content state accepting or completable without further scanning —
/// unscanned tails remain possible).
fn closing_types(confs: &[Conf]) -> Vec<TypeIdx> {
    let mut types: Vec<TypeIdx> = confs.iter().map(|&(t, _)| t).collect();
    types.sort_unstable();
    types.dedup();
    types
}

#[cfg(test)]
mod tests {
    use crate::compare::compare;
    use ssd_base::SharedInterner;
    use ssd_model::parse_data_graph;
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    fn check(schema: &str, query: &str, data: &str) -> (u64, u64) {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        let g = parse_data_graph(data, &pool).unwrap();
        assert!(
            ssd_schema::conforms(&g, &s).is_some(),
            "test data must conform"
        );
        let c = compare(&q, &s, &g).unwrap();
        assert_eq!(c.naive_results, c.adaptive_results, "results must agree");
        assert!(
            c.adaptive_cost <= c.naive_cost,
            "A_O must not explore more edges ({} vs {})",
            c.adaptive_cost,
            c.naive_cost
        );
        (c.naive_cost, c.adaptive_cost)
    }

    /// The paper's downward-pruning example (Section 4.2, example 1),
    /// expressed as one schema with three alternative instances.
    const DOWNWARD_SCHEMA: &str = r#"
        ROOT = [a->AC | a->AD | b->BD];
        AC = [c->E]; AD = [d->E]; BD = [d->E]; E = [()]
    "#;

    #[test]
    fn downward_pruning_db3() {
        // DB3 = [b→[d→[]]]: on seeing `b` the search stops early — A_O
        // skips both the descent and the trailing nextEdge at the root.
        let (naive, adaptive) = check(
            DOWNWARD_SCHEMA,
            "SELECT X WHERE Root = [a.c -> X]",
            "o1 = [b -> o2]; o2 = [d -> o3]; o3 = []",
        );
        assert!(adaptive < naive, "naive={naive} adaptive={adaptive}");
    }

    #[test]
    fn downward_pruning_db2() {
        // DB2 = [a→[d→[]]]: must look below `a`, but after seeing `d` the
        // schema says nothing more can follow.
        let (naive, adaptive) = check(
            DOWNWARD_SCHEMA,
            "SELECT X WHERE Root = [a.c -> X]",
            "o1 = [a -> o2]; o2 = [d -> o3]; o3 = []",
        );
        assert!(adaptive < naive, "naive={naive} adaptive={adaptive}");
    }

    #[test]
    fn match_on_db1_is_found() {
        let (naive, adaptive) = check(
            DOWNWARD_SCHEMA,
            "SELECT X WHERE Root = [a.c -> X]",
            "o1 = [a -> o2]; o2 = [c -> o3]; o3 = []",
        );
        assert!(adaptive <= naive);
    }

    #[test]
    fn agreement_on_the_bibliography() {
        let pool = SharedInterner::new();
        let s = parse_schema(ssd_gen_corpora_schema(), &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [paper -> X]", &pool).unwrap();
        let g = parse_data_graph(
            r#"o1 = [paper -> o2];
               o2 = [title -> o3, author -> o4];
               o3 = "t";
               o4 = [name -> o5, email -> o6];
               o5 = [firstname -> o7, lastname -> o8];
               o6 = "e"; o7 = "J"; o8 = "S""#,
            &pool,
        )
        .unwrap();
        let c = compare(&q, &s, &g).unwrap();
        assert_eq!(c.naive_results, c.adaptive_results);
        assert_eq!(c.naive_results.len(), 1);
        assert!(c.adaptive_cost <= c.naive_cost);
    }

    fn ssd_gen_corpora_schema() -> &'static str {
        r#"DOCUMENT = [(paper->PAPER)*];
           PAPER = [title->TITLE.(author->AUTHOR)*];
           AUTHOR = [name->NAME.email->EMAIL];
           NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
           TITLE = string; FIRSTNAME = string;
           LASTNAME = string; EMAIL = string"#
    }

    #[test]
    fn sideward_pruning_via_fixed_arity() {
        // Schema fixes exactly two children; after the second child no
        // nextEdge is needed.
        let (naive, adaptive) = check(
            "ROOT = [a->U.b->V]; U = [()]; V = [()]",
            "SELECT X WHERE Root = [a -> X]",
            "o1 = [a -> o2, b -> o3]; o2 = []; o3 = []",
        );
        assert!(adaptive < naive, "naive={naive} adaptive={adaptive}");
    }
}
