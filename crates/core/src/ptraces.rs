//! The literal P-traces construction of Section 3.4, for single ordered
//! pattern definitions `X = [R₁→X₁, …, Rₖ→Xₖ]`.
//!
//! * [`tr_pattern`] builds the regular expression
//!   `X R₁ X₁ R₂ X₂ … Rₖ Xₖ` — the paper's `Tr(P)`;
//! * [`trace_product`] builds an automaton for `Tr(P) ∩ Tr(S)` directly:
//!   states track the position inside the root type's content word
//!   (segments must use strictly increasing first-edge positions — the
//!   order of paths of Definition 2.2), and, inside a segment, the current
//!   type-graph node and path-automaton state. Its language is exactly the
//!   set of traces `X w₁ X₁^{T₁} … wₖ Xₖ^{Tₖ}` realizable in instances of
//!   the schema, so: satisfiability ⇔ non-emptiness, type inference ⇔
//!   marker projection, and feedback queries ⇔ per-segment label
//!   projection (Proposition 4.1, implemented in `ssd-feedback`).
//!
//! The lazy emptiness check deliberately steps [`Stepper`] over the entry
//! *NFAs* rather than compiled tables: entry regexes are adversarial
//! (fuzzed, user-supplied) and determinizing them can blow up, and the
//! materialized and lazy paths must share one-step semantics verbatim.
//! Its speed instead comes from the BFS driver itself —
//! [`is_empty_product_b`]'s seen-set is an open-addressed table over the
//! small `Copy` product states, with honest (capacity-aware) retained-byte
//! metering.

use std::collections::{BTreeSet, HashMap, VecDeque};

use ssd_automata::glushkov;
use ssd_automata::ops::is_empty_product_b;
use ssd_automata::{LabelAtom, Nfa, Regex};
use ssd_base::budget::{Budget, Verdict};
use ssd_base::{Error, Result, TypeIdx, VarId};
use ssd_obs::names;
use ssd_query::{EdgeExpr, PatDef, Query, VarKind};
use ssd_schema::{Schema, SchemaAtom, TypeDef, TypeGraph};

use crate::marker::TraceAtom;
use crate::session::Session;

/// Regex entries of a single pattern definition: `(Rᵢ, Xᵢ)` pairs.
type DefEntries = Vec<(Regex<LabelAtom>, VarId)>;

/// Extracts the single ordered definition this module handles, with its
/// regex entries. Errors for multi-definition patterns, unordered roots,
/// or label variables (use the general engines for those).
fn single_def(q: &Query) -> Result<(VarId, DefEntries)> {
    let mut collection_defs = q
        .defs()
        .iter()
        .filter(|(_, d)| matches!(d, PatDef::Ordered(_) | PatDef::Unordered(_)));
    let Some((v, def)) = collection_defs.next() else {
        return Err(Error::unsupported("P-traces need a collection definition"));
    };
    if collection_defs.next().is_some() {
        return Err(Error::unsupported(
            "P-traces handle a single collection definition (see crate::feas for trees)",
        ));
    }
    let PatDef::Ordered(entries) = def else {
        return Err(Error::unsupported("P-traces handle ordered definitions"));
    };
    if *v != q.root_var() {
        return Err(Error::unsupported("the single definition must be the root"));
    }
    let mut out = Vec::with_capacity(entries.len());
    for e in entries {
        match &e.expr {
            EdgeExpr::Regex(r) => out.push((r.clone(), e.target)),
            EdgeExpr::LabelVar(_) => {
                return Err(Error::unsupported("P-traces handle regex entries only"))
            }
        }
    }
    Ok((*v, out))
}

/// `Tr(P)` as a regular expression over the trace alphabet, with untyped
/// markers: `X R₁ X₁ … Rₖ Xₖ`.
pub fn tr_pattern(q: &Query) -> Result<Regex<TraceAtom>> {
    let (root, entries) = single_def(q)?;
    let mut parts = vec![Regex::atom(TraceAtom::Mark(root, None))];
    for (r, target) in &entries {
        parts.push(r.map_atoms(&mut |a| {
            Regex::atom(match a {
                LabelAtom::Label(l) => TraceAtom::Label(*l),
                LabelAtom::Any => TraceAtom::AnyLabel,
            })
        }));
        parts.push(Regex::atom(TraceAtom::Mark(*target, None)));
    }
    Ok(Regex::concat(parts))
}

/// States of the trace-product automaton.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum St {
    /// Before the initial root marker.
    Init,
    /// Between segments: `i` segments done, root-content NFA in `s`.
    Root { done: usize, s: usize },
    /// Inside segment `i` (1-based): saved root state, current type, and
    /// path-automaton state.
    Path {
        seg: usize,
        saved: usize,
        ty: TypeIdx,
        q: usize,
    },
}

/// Builds the `Tr(P) ∩ Tr(S)` automaton (all atoms concrete).
pub fn trace_product(q: &Query, s: &Schema, tg: &TypeGraph) -> Result<Nfa<TraceAtom>> {
    let (root_var, entries) = single_def(q)?;
    let root_t = s.root();
    Ok(def_trace_automaton(
        s,
        tg,
        root_var,
        &[root_t],
        &entries,
        &|_, _| true,
    ))
}

/// The generalized per-definition trace automaton: the definition's
/// variable may start at any type in `start_types`, and a segment may end
/// at type `T` only when `leaf_allowed(target, T)` holds. Used directly by
/// feedback queries (Section 4.1), where start types come from globally
/// pinned satisfiability and leaf predicates from the bottom-up `Feas`
/// sets.
pub fn def_trace_automaton(
    s: &Schema,
    tg: &TypeGraph,
    def_var: VarId,
    start_types: &[TypeIdx],
    entries: &[(Regex<LabelAtom>, VarId)],
    leaf_allowed: &dyn Fn(VarId, TypeIdx) -> bool,
) -> Nfa<TraceAtom> {
    let mut out: Option<Nfa<TraceAtom>> = None;
    for &t0 in start_types {
        let one = def_trace_automaton_one(s, tg, def_var, t0, entries, leaf_allowed);
        out = Some(match out {
            None => one,
            Some(acc) => union_nfa(&acc, &one),
        });
    }
    out.unwrap_or_else(|| Nfa::with_states(1, 0))
}

/// Union of two trace automata that both start with an initial marker
/// transition: merge by identifying the two start states (state 0 in each;
/// safe because Glushkov-style starts here have no incoming edges).
fn union_nfa(a: &Nfa<TraceAtom>, b: &Nfa<TraceAtom>) -> Nfa<TraceAtom> {
    let offset = a.num_states();
    let mut out = Nfa::with_states(a.num_states() + b.num_states(), a.start());
    for (x, atom, y) in a.all_edges() {
        out.add_transition(x, *atom, y);
    }
    for i in 0..a.num_states() {
        if a.is_accepting(i) {
            out.set_accepting(i, true);
        }
    }
    for (x, atom, y) in b.all_edges() {
        let src = if x == b.start() {
            a.start()
        } else {
            x + offset
        };
        let dst = if y == b.start() {
            a.start()
        } else {
            y + offset
        };
        out.add_transition(src, *atom, dst);
    }
    for i in 0..b.num_states() {
        if b.is_accepting(i) {
            let j = if i == b.start() {
                a.start()
            } else {
                i + offset
            };
            out.set_accepting(j, true);
        }
    }
    out
}

/// The one-step semantics of the trace product, shared verbatim by the
/// materialized construction ([`def_trace_automaton_one`]) and the lazy
/// emptiness check ([`satisfiable_ptraces_in_b`]), so both decide exactly
/// the same language.
struct Stepper<'a> {
    s: &'a Schema,
    tg: &'a TypeGraph,
    /// The root type's pruned content automaton.
    n0: &'a Nfa<SchemaAtom>,
    /// `skip[s]` = root-automaton states reachable from `s` in ≥0 steps.
    skip: &'a [Vec<usize>],
    entry_nfas: Vec<&'a Nfa<LabelAtom>>,
    entries: &'a [(Regex<LabelAtom>, VarId)],
    root_var: VarId,
    root_t: TypeIdx,
    leaf_allowed: &'a dyn Fn(VarId, TypeIdx) -> bool,
}

impl Stepper<'_> {
    /// Emits every `(label, successor)` of `st`.
    fn successors(&self, st: &St, emit: &mut dyn FnMut(TraceAtom, St)) {
        match *st {
            St::Init => {
                emit(
                    TraceAtom::Mark(self.root_var, Some(self.root_t)),
                    St::Root {
                        done: 0,
                        s: self.n0.start(),
                    },
                );
            }
            St::Root { done, s: rs } => {
                if done == self.entries.len() {
                    return; // final segment: only acceptance remains
                }
                let seg = done + 1;
                let nfa_i = self.entry_nfas[seg - 1];
                // First edge of segment `seg`: skip to any later position,
                // take one root transition, start the path automaton.
                for &s2 in &self.skip[rs] {
                    for (atom, s3) in self.n0.edges(s2) {
                        for q1 in nfa_i.step(&[nfa_i.start()], &atom.label) {
                            emit(
                                TraceAtom::Label(atom.label),
                                St::Path {
                                    seg,
                                    saved: *s3,
                                    ty: atom.target,
                                    q: q1,
                                },
                            );
                        }
                    }
                }
            }
            St::Path { seg, saved, ty, q } => {
                let nfa_i = self.entry_nfas[seg - 1];
                // Continue the path through the type graph.
                if self.s.def(ty).regex().is_some() {
                    for atom in self.tg.step(ty) {
                        for q2 in nfa_i.step(&[q], &atom.label) {
                            emit(
                                TraceAtom::Label(atom.label),
                                St::Path {
                                    seg,
                                    saved,
                                    ty: atom.target,
                                    q: q2,
                                },
                            );
                        }
                    }
                }
                // Close the segment with a typed marker.
                if nfa_i.is_accepting(q)
                    && self.tg.is_inhabited(ty)
                    && (self.leaf_allowed)(self.entries[seg - 1].1, ty)
                {
                    emit(
                        TraceAtom::Mark(self.entries[seg - 1].1, Some(ty)),
                        St::Root {
                            done: seg,
                            s: saved,
                        },
                    );
                }
            }
        }
    }

    /// Whether `st` is accepting: all segments closed and the remaining
    /// root content can finish.
    fn accepting(&self, st: &St) -> bool {
        matches!(*st, St::Root { done, s: rs }
            if done == self.entries.len()
                && self.skip[rs].iter().any(|&s2| self.n0.is_accepting(s2)))
    }
}

fn def_trace_automaton_one(
    s: &Schema,
    tg: &TypeGraph,
    root_var: VarId,
    root_t: TypeIdx,
    entries: &[(Regex<LabelAtom>, VarId)],
    leaf_allowed: &dyn Fn(VarId, TypeIdx) -> bool,
) -> Nfa<TraceAtom> {
    if !matches!(s.def(root_t), TypeDef::Ordered(_)) || !tg.is_inhabited(root_t) {
        // The pattern needs an ordered node; empty language.
        return Nfa::with_states(1, 0);
    }
    // Invariant: the early return above guarantees an inhabited ordered
    // type, and every such type has a pruned content automaton.
    let n0 = tg.pruned_nfa(root_t).expect("inhabited ordered root");
    let entry_nfas: Vec<Nfa<LabelAtom>> = entries.iter().map(|(r, _)| glushkov::build(r)).collect();

    // Skip closure in the root automaton: states reachable via ≥0 symbols.
    let skip = reach_closure(n0);
    let stepper = Stepper {
        s,
        tg,
        n0,
        skip: &skip,
        entry_nfas: entry_nfas.iter().collect(),
        entries,
        root_var,
        root_t,
        leaf_allowed,
    };

    // BFS materialization over product states.
    let mut index: HashMap<St, usize> = HashMap::new();
    let mut states: Vec<St> = Vec::new();
    let mut edges: Vec<(usize, TraceAtom, usize)> = Vec::new();
    let mut queue: VecDeque<St> = VecDeque::new();
    fn intern(
        st: St,
        index: &mut HashMap<St, usize>,
        states: &mut Vec<St>,
        queue: &mut VecDeque<St>,
    ) -> usize {
        *index.entry(st).or_insert_with(|| {
            states.push(st);
            queue.push_back(st);
            states.len() - 1
        })
    }

    let init = intern(St::Init, &mut index, &mut states, &mut queue);
    debug_assert_eq!(init, 0);

    while let Some(st) = queue.pop_front() {
        let src = index[&st];
        stepper.successors(&st, &mut |atom, dst_st| {
            let dst = intern(dst_st, &mut index, &mut states, &mut queue);
            edges.push((src, atom, dst));
        });
    }

    let mut nfa = Nfa::with_states(states.len().max(1), 0);
    for (a, atom, b) in edges {
        nfa.add_transition(a, atom, b);
    }
    for (i, st) in states.iter().enumerate() {
        if stepper.accepting(st) {
            nfa.set_accepting(i, true);
        }
    }
    // Keep only useful states.
    ssd_automata::ops::trim(&nfa)
}

/// Completes the leaf check against the query (kind and value filters);
/// applied as a post-pass because it needs the query context.
fn leaf_filter(q: &Query, s: &Schema, nfa: &Nfa<TraceAtom>) -> Nfa<TraceAtom> {
    let mut out = Nfa::with_states(nfa.num_states(), nfa.start());
    for (a, atom, b) in nfa.all_edges() {
        let keep = match atom {
            TraceAtom::Mark(v, Some(t)) if *v != q.root_var() => leaf_type_ok(q, s, *v, *t),
            _ => true,
        };
        if keep {
            out.add_transition(a, *atom, b);
        }
    }
    for i in 0..nfa.num_states() {
        if nfa.is_accepting(i) {
            out.set_accepting(i, true);
        }
    }
    ssd_automata::ops::trim(&out)
}

/// Kind / referenceability / value admissibility of binding leaf `v` to a
/// node of type `t`.
fn leaf_type_ok(q: &Query, s: &Schema, v: VarId, t: TypeIdx) -> bool {
    if let VarKind::Node { referenceable } = q.kind(v) {
        if referenceable && !s.is_referenceable(t) {
            return false;
        }
    }
    match q.def(v) {
        None => true,
        Some(PatDef::Value(val)) => s.def(t).atomic().is_some_and(|a| a.admits(val)),
        Some(PatDef::ValueVar(_)) => s.def(t).atomic().is_some(),
        Some(_) => false,
    }
}

/// The full trace language of the query against the schema (product with
/// leaf filtering applied).
pub fn trace_language(q: &Query, s: &Schema, tg: &TypeGraph) -> Result<Nfa<TraceAtom>> {
    let raw = trace_product(q, s, tg)?;
    Ok(leaf_filter(q, s, &raw))
}

/// Satisfiability by the literal traces construction:
/// `Tr(P) ∩ Tr(S) ≠ ∅`, with the product emptiness decided *lazily*:
/// instead of materializing (and trimming) the whole `Tr(P) ∩ Tr(S)`
/// automaton and then testing it, the product state space is explored on
/// the fly ([`is_empty_product_b`]) with the leaf filters folded into the
/// step relation, returning at the first accepting state. The one-step
/// semantics is [`Stepper`] — the same code the materialized construction
/// runs — so the verdict is identical by construction; path automata come
/// from the session's cache.
///
/// The lazy product BFS ticks `budget` per explored state and returns
/// [`Verdict::Exhausted`] instead of completing an oversized
/// exploration. Structural errors (multi-definition queries, label
/// variables) stay in the `Err` channel.
pub fn satisfiable_ptraces_in_b(
    q: &Query,
    s: &Schema,
    sess: &Session,
    budget: &Budget,
) -> Result<Verdict<bool>> {
    // Top-level entry: one trace id per ptraces request.
    let _req = ssd_obs::begin_request();
    let rec = sess.recorder();
    let _span = ssd_obs::span(rec, names::span::PTRACES);
    let (root_var, entries) = single_def(q)?;
    let tg = sess.type_graph(s);
    let root_t = s.root();
    if !matches!(s.def(root_t), TypeDef::Ordered(_)) || !tg.is_inhabited(root_t) {
        return Ok(Verdict::Done(false));
    }
    // Invariant: `is_inhabited(root_t)` was just checked, and every
    // inhabited collection type has a pruned content automaton.
    let n0 = tg.pruned_nfa(root_t).expect("inhabited ordered root");
    let skip = reach_closure(n0);
    let cache = sess.automata();
    let entry_arcs: Vec<_> = entries.iter().map(|(r, _)| cache.nfa(r)).collect();
    // Fold the post-pass leaf filter into the step relation (the root
    // marker is emitted only for the root variable, which it never drops).
    let leaf_allowed = |v: VarId, t: TypeIdx| v == root_var || leaf_type_ok(q, s, v, t);
    let stepper = Stepper {
        s,
        tg: &tg,
        n0,
        skip: &skip,
        entry_nfas: entry_arcs.iter().map(|a| a.as_ref()).collect(),
        entries: &entries,
        root_var,
        root_t,
        leaf_allowed: &leaf_allowed,
    };
    let empty = match is_empty_product_b(
        [St::Init],
        |st| stepper.accepting(st),
        |st, buf| stepper.successors(st, &mut |_, dst| buf.push(dst)),
        rec,
        budget,
    ) {
        Ok(empty) => empty,
        Err(e) => {
            rec.add(names::counter::BUDGET_EXHAUSTED, 1);
            return Ok(Verdict::Exhausted(e));
        }
    };
    if rec.enabled() {
        rec.add(
            if empty {
                names::counter::VERDICT_UNSAT
            } else {
                names::counter::VERDICT_SAT
            },
            1,
        );
    }
    Ok(Verdict::Done(!empty))
}

/// Enumerates the marker tuples (type assignments of all pattern
/// variables) of the trace language — the paper's "erase the other
/// symbols" projection.
pub fn marker_assignments(q: &Query, s: &Schema) -> Result<BTreeSet<Vec<(VarId, TypeIdx)>>> {
    let tg = TypeGraph::new(s);
    let lang = trace_language(q, s, &tg)?;
    // suffixes[state] = set of marker tuples readable from `state` to
    // acceptance; computed as a monotone fixpoint (label loops contribute
    // nothing new, so it converges).
    let n = lang.num_states();
    let mut suffixes: Vec<BTreeSet<Vec<(VarId, TypeIdx)>>> = vec![BTreeSet::new(); n];
    for (st, suf) in suffixes.iter_mut().enumerate() {
        if lang.is_accepting(st) {
            suf.insert(Vec::new());
        }
    }
    loop {
        let mut changed = false;
        for st in 0..n {
            let mut add: Vec<Vec<(VarId, TypeIdx)>> = Vec::new();
            for (atom, dst) in lang.edges(st) {
                for suf in &suffixes[*dst] {
                    let tuple = match atom {
                        TraceAtom::Mark(v, Some(t)) => {
                            let mut t2 = Vec::with_capacity(suf.len() + 1);
                            t2.push((*v, *t));
                            t2.extend(suf.iter().copied());
                            t2
                        }
                        _ => suf.clone(),
                    };
                    add.push(tuple);
                }
            }
            for t in add {
                if suffixes[st].insert(t) {
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    Ok(suffixes[lang.start()].clone())
}

/// All-pairs ≥0-step reachability per state.
fn reach_closure<A>(nfa: &Nfa<A>) -> Vec<Vec<usize>> {
    let n = nfa.num_states();
    let mut out = Vec::with_capacity(n);
    for s0 in 0..n {
        let mut seen = vec![false; n];
        let mut stack = vec![s0];
        seen[s0] = true;
        while let Some(s) = stack.pop() {
            for (_, r) in nfa.edges(s) {
                if !seen[*r] {
                    seen[*r] = true;
                    stack.push(*r);
                }
            }
        }
        out.push((0..n).filter(|&i| seen[i]).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feas::Constraints;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    const SCHEMA: &str = r#"
        ROOT = [a->U.(b->V)*.c->W];
        U = [x->P]; V = int; W = string; P = int
    "#;

    fn setup(query: &str) -> (Query, Schema) {
        let pool = SharedInterner::new();
        let s = parse_schema(SCHEMA, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        (q, s)
    }

    fn satisfiable_ptraces(q: &Query, s: &Schema) -> Result<bool> {
        Session::new().satisfiable_ptraces(q, s)
    }

    #[test]
    fn tr_pattern_shape() {
        let (q, _) = setup("SELECT X WHERE Root = [a -> X, b.c -> Y]");
        let re = tr_pattern(&q).unwrap();
        // Mark . a . Mark . b . c . Mark
        assert_eq!(re.size(), 7);
    }

    #[test]
    fn satisfiability_matches_trace_nonemptiness() {
        for (query, want) in [
            ("SELECT X WHERE Root = [a -> X]", true),
            ("SELECT X WHERE Root = [a -> X, c -> Y]", true),
            ("SELECT X WHERE Root = [c -> X, a -> Y]", false), // order
            ("SELECT X WHERE Root = [b -> X, b -> Y, c -> Z]", true),
            ("SELECT X WHERE Root = [a.x -> X]", true),
            ("SELECT X WHERE Root = [a.y -> X]", false),
            ("SELECT X WHERE Root = [d -> X]", false),
        ] {
            let (q, s) = setup(query);
            assert_eq!(satisfiable_ptraces(&q, &s).unwrap(), want, "query {query}");
        }
    }

    #[test]
    fn ptraces_agree_with_trace_product_engine() {
        for query in [
            "SELECT X WHERE Root = [a -> X]",
            "SELECT X WHERE Root = [a -> X, b -> Y]",
            "SELECT X WHERE Root = [_ -> X, _ -> Y]",
            "SELECT X WHERE Root = [_._ -> X]",
            "SELECT X WHERE Root = [c -> X, c -> Y]",
            "SELECT X WHERE Root = [b -> X, a -> Y]",
        ] {
            let (q, s) = setup(query);
            let sess = Session::new();
            let tg = sess.type_graph(&s);
            let by_feas = sess
                .feas_analysis(&q, &s, &tg, &Constraints::none())
                .satisfiable;
            let by_traces = satisfiable_ptraces(&q, &s).unwrap();
            assert_eq!(by_feas, by_traces, "query {query}");
        }
    }

    #[test]
    fn marker_projection_infers_types() {
        let (q, s) = setup("SELECT X WHERE Root = [_ -> X]");
        let tuples = marker_assignments(&q, &s).unwrap();
        let x = q.var_by_name("X").unwrap();
        let types: BTreeSet<TypeIdx> = tuples
            .iter()
            .map(|t| t.iter().find(|(v, _)| *v == x).map(|(_, ty)| *ty).unwrap())
            .collect();
        // First edges can be a→U, b→V, or c→W.
        assert_eq!(
            types,
            ["U", "V", "W"]
                .into_iter()
                .map(|n| s.by_name(n).unwrap())
                .collect()
        );
    }

    #[test]
    fn value_constraints_filter_markers() {
        let (q, s) = setup(r#"SELECT X WHERE Root = [_ -> X]; X = 42"#);
        let tuples = marker_assignments(&q, &s).unwrap();
        let x = q.var_by_name("X").unwrap();
        let types: BTreeSet<TypeIdx> = tuples
            .iter()
            .map(|t| t.iter().find(|(v, _)| *v == x).map(|(_, ty)| *ty).unwrap())
            .collect();
        // Only V (int) admits 42.
        assert_eq!(types, [s.by_name("V").unwrap()].into_iter().collect());
    }

    #[test]
    fn multi_def_queries_are_rejected() {
        let (q, s) = setup("SELECT X WHERE Root = [a -> X]; X = [x -> Y]");
        assert!(satisfiable_ptraces(&q, &s).is_err());
    }
}
