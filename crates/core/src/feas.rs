//! The trace-product engine: per-variable feasible-type sets for join-free
//! (tree-shaped) patterns.
//!
//! This is the operational core of the paper's PTIME results (Table 2, the
//! join-free columns over ordered schemas). For every pattern variable `X`
//! we compute `Feas(X)` — the types `T` such that the subtree rooted at
//! `X` is satisfiable when `X` is bound to a node of type `T` in *some*
//! instance — bottom-up over the pattern tree:
//!
//! * leaves constrain kinds, atomic values, and pinned types;
//! * a collection definition `X = [L₁→X₁, …, Lₖ→Xₖ]` admits type `T` iff
//!   there is a word of `T`'s (pruned) regex containing, at increasing
//!   positions, one *first-edge symbol* per entry, where a symbol `a→T'`
//!   is first-edge-feasible for entry `i` iff some word of `lang(Lᵢ)`
//!   starts with `a` and remainder can run through the schema's type graph
//!   from `T'` into a type of `Feas(Xᵢ)` (computed by a backward product
//!   reachability — the lazily-evaluated `Tr(P) ∩ Tr(S)`).
//!
//! Cost: the reachability depends only on the entry and `Feas(Xᵢ)`, so an
//! analysis runs it once per `(definition, entry)`, into a dense table
//! indexed `t·|Q| + q`, over a reversed `Step` adjacency built once per
//! analysis. Each candidate type's first-edge test is then a table read.
//!
//! Exactness: for ordered schemas (plus homogeneous unordered collections)
//! and join-free queries this decides satisfiability exactly — pattern
//! paths are independent after their jointly-realizable first edges, since
//! ordered definitions force distinct first edges and fresh intermediate
//! nodes can always be chosen. For *inhomogeneous* unordered types the
//! engine uses distinct-position semantics (no forced sharing) and is used
//! only as a pruning aid; the complete search lives in [`crate::solver`].

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use ssd_automata::bag::homogeneous_symbol;
use ssd_automata::ops::{contains_ordered_selection, contains_unordered_selection};
use ssd_automata::syntax::Atom as _;
use ssd_automata::{AutomataCache, LabelAtom, Nfa};
use ssd_base::{Error, LabelId, Result, TypeIdx, VarId};
use ssd_obs::{names, Recorder};
use ssd_query::{EdgeExpr, PatDef, PatEdge, Query, VarKind};
use ssd_schema::{AtomicType, Schema, SchemaAtom, TypeDef, TypeGraph};

/// Pinned assignments for type checking / inference: node and value
/// variables may be pinned to a type, label variables to a label.
#[derive(Clone, Debug, Default)]
pub struct Constraints {
    /// Pinned types per (node or value) variable.
    pub var_types: HashMap<VarId, TypeIdx>,
    /// Pinned labels per label variable.
    pub label_vars: HashMap<VarId, LabelId>,
    /// Variables whose definitions are *not* expanded (treated as pinned
    /// leaves). Used by total type checking and by the bounded-join
    /// wrapper, where a pinned variable's subtree is checked separately.
    pub leaf_vars: HashSet<VarId>,
}

impl Constraints {
    /// No pins at all (plain satisfiability).
    pub fn none() -> Constraints {
        Constraints::default()
    }

    /// Pins one variable's type.
    pub fn pin_type(mut self, v: VarId, t: TypeIdx) -> Constraints {
        self.var_types.insert(v, t);
        self
    }

    /// Pins one label variable.
    pub fn pin_label(mut self, v: VarId, l: LabelId) -> Constraints {
        self.label_vars.insert(v, l);
        self
    }

    /// Marks a variable's definition as externally checked (leaf
    /// treatment).
    pub fn leaf(mut self, v: VarId) -> Constraints {
        self.leaf_vars.insert(v);
        self
    }
}

/// The result of the feasible-set analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeasAnalysis {
    /// `feas[v]` = feasible types of variable `v` (node and value
    /// variables; empty for label variables).
    pub feas: Vec<BTreeSet<TypeIdx>>,
    /// Whether the query is satisfiable (root type feasible for the root
    /// variable).
    pub satisfiable: bool,
}

impl FeasAnalysis {
    /// Rough retained heap size of this analysis, for cache accounting.
    /// Counts each feasible-set entry plus per-set and per-analysis node
    /// overhead; the constants approximate `BTreeSet` internals and only
    /// need to be stable, not exact.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .feas
                .iter()
                .map(|s| s.len() * (std::mem::size_of::<TypeIdx>() + 32) + 48)
                .sum::<usize>()
    }
}

/// Runs the analysis, translating path regexes through `cache`. Requires a
/// join-free query (errors otherwise — use [`crate::solver`] or the
/// bounded-join wrapper for joins). `(variable, type)` feasibility checks
/// are counted on `rec` (`feas_types_checked`).
pub fn analyze_obs(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    cache: &AutomataCache,
    rec: &dyn Recorder,
) -> Result<FeasAnalysis> {
    if !q.class().join_free() {
        return Err(Error::unsupported(
            "the trace-product engine requires a join-free query",
        ));
    }
    Ok(analyze_tree_obs(q, s, tg, c, cache, rec))
}

/// The analysis itself, without the class check (callers that pre-pin all
/// join variables may use it directly); otherwise as [`analyze_obs`].
pub fn analyze_tree_obs(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    cache: &AutomataCache,
    rec: &dyn Recorder,
) -> FeasAnalysis {
    let rev_step = Csr::new(
        s.len(),
        s.types()
            .filter(|&t1| tg.is_inhabited(t1))
            .flat_map(|t1| {
                tg.step(t1)
                    .iter()
                    .map(move |a| (a.target.index(), (t1, a.label)))
            })
            .collect(),
    );
    let mut engine = Engine {
        q,
        s,
        tg,
        c,
        cache,
        rec,
        rev_step: &rev_step,
        feas: vec![None; q.num_vars()],
    };
    let root = q.root_var();
    let satisfiable = engine.feas_of(root).contains(&s.root());
    // Force computation for every variable (reachable from root — connected).
    for v in q.vars() {
        if matches!(q.kind(v), VarKind::Node { .. } | VarKind::Value) {
            engine.feas_of(v);
        }
    }
    let feas = engine
        .feas
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    FeasAnalysis { feas, satisfiable }
}

struct Engine<'a> {
    q: &'a Query,
    s: &'a Schema,
    tg: &'a TypeGraph,
    c: &'a Constraints,
    cache: &'a AutomataCache,
    rec: &'a dyn Recorder,
    feas: Vec<Option<BTreeSet<TypeIdx>>>,
    /// `Step` reversed: the `(source, label)` pairs of the symbols
    /// `label→t` of every inhabited source's `Step`, keyed by `t`.
    rev_step: &'a Csr<(TypeIdx, LabelId)>,
}

/// One entry's first-edge table, filled once per `(definition, entry)`
/// and read by every candidate type of the definition.
enum EntryTable {
    /// A label-variable entry: its pinned label, if any, and
    /// `target_ok[t]` iff `t ∈ Feas(target)`.
    Label {
        pinned: Option<LabelId>,
        target_ok: Vec<bool>,
    },
    /// A regex entry: the path NFA and its backward product table,
    /// `good[t * |Q| + q]` iff from type `t` in NFA state `q` the rest of
    /// the path can run through the type graph into an accepting state at
    /// a type of `Feas(target)`.
    Regex {
        nfa: Arc<Nfa<LabelAtom>>,
        good: Vec<bool>,
    },
}

impl EntryTable {
    /// The first-edge symbols `a→T'` of `Step(t)` that this entry can
    /// take: `T'` admits the target (label variable), or some start edge of
    /// the path NFA reads `a` into a good state at `T'` (regex).
    fn first_edges(&self, step: &[SchemaAtom]) -> HashSet<SchemaAtom> {
        match self {
            EntryTable::Label { pinned, target_ok } => step
                .iter()
                .filter(|a| pinned.is_none_or(|l| a.label == l) && target_ok[a.target.index()])
                .copied()
                .collect(),
            EntryTable::Regex { nfa, good } => {
                let nq = nfa.num_states();
                let starts = nfa.edges(nfa.start());
                step.iter()
                    .filter(|a| {
                        starts
                            .iter()
                            .any(|(l, q)| l.matches(&a.label) && good[a.target.index() * nq + q])
                    })
                    .copied()
                    .collect()
            }
        }
    }
}

/// Compressed adjacency lists: the items keyed `k` are
/// `items[start[k]..start[k + 1]]`, in insertion order.
struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    fn new(keys: usize, mut pairs: Vec<(usize, T)>) -> Csr<T> {
        pairs.sort_by_key(|p| p.0);
        let mut start = vec![0; keys + 1];
        for &(k, _) in &pairs {
            start[k + 1] += 1;
        }
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let items = pairs.into_iter().map(|p| p.1).collect();
        Csr { start, items }
    }

    fn get(&self, k: usize) -> &[T] {
        &self.items[self.start[k]..self.start[k + 1]]
    }
}

impl<'a> Engine<'a> {
    fn feas_of(&mut self, v: VarId) -> &BTreeSet<TypeIdx> {
        let set = match self.feas[v.index()].take() {
            Some(set) => set,
            None => self.compute_feas(v),
        };
        self.feas[v.index()].insert(set)
    }

    fn compute_feas(&mut self, v: VarId) -> BTreeSet<TypeIdx> {
        let referenceable_required = match self.q.kind(v) {
            VarKind::Node { referenceable } => referenceable,
            VarKind::Value => false,
            VarKind::Label => return BTreeSet::new(),
        };
        let pinned = self.c.var_types.get(&v).copied();
        let entries = match self.q.def(v) {
            Some(PatDef::Ordered(es) | PatDef::Unordered(es)) => es.len(),
            _ => 0,
        };
        let mut tables: Vec<Option<EntryTable>> =
            std::iter::repeat_with(|| None).take(entries).collect();
        let mut out = BTreeSet::new();
        for t in self.s.types() {
            if !self.tg.is_inhabited(t) {
                continue;
            }
            if referenceable_required && !self.s.is_referenceable(t) {
                continue;
            }
            if let Some(p) = pinned {
                if p != t {
                    continue;
                }
            }
            if self.type_feasible(v, t, &mut tables) {
                out.insert(t);
            }
        }
        out
    }

    fn type_feasible(&mut self, v: VarId, t: TypeIdx, tables: &mut [Option<EntryTable>]) -> bool {
        self.rec.add(names::counter::FEAS_TYPES_CHECKED, 1);
        match self.q.kind(v) {
            VarKind::Value => {
                // A value variable's "type" is the atomic type of its value.
                return matches!(self.s.def(t), TypeDef::Atomic(_));
            }
            VarKind::Label => return false,
            VarKind::Node { .. } => {}
        }
        if self.c.leaf_vars.contains(&v) {
            // The variable's definition is checked elsewhere (pinned leaf).
            return true;
        }
        let Some(def) = self.q.def(v) else {
            // Leaf node variable: any node of any (inhabited) type.
            return true;
        };
        match (def, self.s.def(t)) {
            (PatDef::Value(val), TypeDef::Atomic(a)) => a.admits(val),
            (PatDef::ValueVar(vv), TypeDef::Atomic(a)) => {
                match self.c.var_types.get(vv) {
                    // The value variable pinned to an atomic type must agree.
                    Some(&p) => self.s.def(p).atomic() == Some(*a),
                    None => true,
                }
            }
            (PatDef::Value(_) | PatDef::ValueVar(_), _) => false,
            (PatDef::Ordered(entries), TypeDef::Ordered(_)) => {
                let sets = match self.first_ok_sets(entries, t, tables) {
                    Some(s) => s,
                    None => return false,
                };
                // Invariant: `compute_feas` skips uninhabited types, and
                // every inhabited collection type has a pruned NFA.
                let nfa = self.tg.pruned_nfa(t).expect("inhabited collection");
                contains_ordered_selection(nfa, &sets)
            }
            (PatDef::Unordered(entries), TypeDef::Unordered(r)) => {
                let sets = match self.first_ok_sets(entries, t, tables) {
                    Some(s) => s,
                    None => return false,
                };
                if homogeneous_symbol(r).is_some() {
                    // Homogeneous collections pump to any multiplicity, so
                    // nonempty first-edge sets suffice.
                    sets.iter().all(|f| !f.is_empty())
                } else {
                    // Invariant: same as the ordered arm — `t` passed the
                    // inhabitedness filter in `compute_feas`.
                    let nfa = self.tg.pruned_nfa(t).expect("inhabited collection");
                    contains_unordered_selection(nfa, &sets)
                }
            }
            _ => false,
        }
    }

    /// The first-edge-feasible symbol set per entry, or `None` if an entry
    /// has none (short-circuit: the definition is then unsatisfiable at
    /// `t`). An entry's table is filled the first time a type reaches it.
    fn first_ok_sets(
        &mut self,
        entries: &[PatEdge],
        t: TypeIdx,
        tables: &mut [Option<EntryTable>],
    ) -> Option<Vec<HashSet<SchemaAtom>>> {
        let mut sets = Vec::with_capacity(entries.len());
        for (e, table) in entries.iter().zip(tables.iter_mut()) {
            let table = match table {
                Some(table) => table,
                None => table.insert(self.entry_table(e)),
            };
            let set = table.first_edges(self.tg.step(t));
            if set.is_empty() {
                return None;
            }
            sets.push(set);
        }
        Some(sets)
    }

    /// Builds one entry's table; a regex entry runs the backward product
    /// pass.
    fn entry_table(&mut self, e: &PatEdge) -> EntryTable {
        let (s, c, cache, rec, rev_step) = (self.s, self.c, self.cache, self.rec, self.rev_step);
        let targets = self.feas_of(e.target);
        match &e.expr {
            EdgeExpr::LabelVar(lv) => {
                let mut target_ok = vec![false; s.len()];
                for t in targets {
                    target_ok[t.index()] = true;
                }
                EntryTable::Label {
                    pinned: c.label_vars.get(lv).copied(),
                    target_ok,
                }
            }
            EdgeExpr::Regex(r) => {
                let nfa = cache.nfa(r);
                rec.add(names::counter::FEAS_PRODUCT_PASSES, 1);
                let good = good_states(rev_step, s.len(), &nfa, targets);
                EntryTable::Regex { nfa, good }
            }
        }
    }
}

/// Backward product reachability over `Tr(P) ∩ Tr(S)`: the dense table of
/// `(type, state)` pairs, indexed `t * |Q| + q`, from which some accepting
/// state can be reached at a type in `targets` (in zero or more steps
/// through the type graph). A product edge `(t1, q) → (t2, q2)` exists iff
/// `label→t2 ∈ Step(t1)` and `q --a--> q2` with `a` matching `label`.
fn good_states(
    rev_step: &Csr<(TypeIdx, LabelId)>,
    num_types: usize,
    nfa: &Nfa<LabelAtom>,
    targets: &BTreeSet<TypeIdx>,
) -> Vec<bool> {
    let nq = nfa.num_states();
    let rev_nfa = Csr::new(nq, nfa.all_edges().map(|(q, a, q2)| (q2, (q, a))).collect());
    let mut good = vec![false; num_types * nq];
    let mut stack: Vec<(TypeIdx, usize)> = Vec::new();
    for &t in targets {
        for q in (0..nq).filter(|&q| nfa.is_accepting(q)) {
            good[t.index() * nq + q] = true;
            stack.push((t, q));
        }
    }
    while let Some((t2, q2)) = stack.pop() {
        for &(t1, label) in rev_step.get(t2.index()) {
            for &(q, a) in rev_nfa.get(q2) {
                let i = t1.index() * nq + q;
                if !good[i] && a.matches(&label) {
                    good[i] = true;
                    stack.push((t1, q));
                }
            }
        }
    }
    good
}

/// The atomic type of a schema type, if atomic (helper shared by callers).
pub fn atomic_of(s: &Schema, t: TypeIdx) -> Option<AtomicType> {
    s.def(t).atomic()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    const PAPER_SCHEMA: &str = r#"
        DOCUMENT = [(paper->PAPER)*];
        PAPER = [title->TITLE.(author->AUTHOR)*];
        AUTHOR = [name->NAME.email->EMAIL];
        NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
        TITLE = string; FIRSTNAME = string;
        LASTNAME = string; EMAIL = string
    "#;

    fn analyze(q: &Query, s: &Schema, tg: &TypeGraph, c: &Constraints) -> Result<FeasAnalysis> {
        analyze_obs(q, s, tg, c, &AutomataCache::new(), ssd_obs::noop())
    }

    fn sat(schema: &str, query: &str) -> bool {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        let tg = TypeGraph::new(&s);
        analyze(&q, &s, &tg, &Constraints::none())
            .unwrap()
            .satisfiable
    }

    fn analysis(schema: &str, query: &str) -> (Query, Schema, FeasAnalysis) {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        let tg = TypeGraph::new(&s);
        let a = analyze(&q, &s, &tg, &Constraints::none()).unwrap();
        (q, s, a)
    }

    #[test]
    fn papers_query_is_satisfiable() {
        assert!(sat(
            PAPER_SCHEMA,
            r#"SELECT X1
               WHERE Root = [paper -> X1];
                     X1 = [author.name._+ -> X2, author.name._+ -> X3];
                     X2 = "Vianu"; X3 = "Abiteboul""#,
        ));
    }

    #[test]
    fn papers_single_author_schema_is_unsatisfiable() {
        // The variant schema with exactly one author (Section 3 example).
        let single = r#"
            DOCUMENT = [(paper->PAPER)*];
            PAPER = [title->TITLE.author->AUTHOR];
            AUTHOR = [name->NAME];
            NAME = string; TITLE = string
        "#;
        assert!(!sat(
            single,
            r#"SELECT X1
               WHERE Root = [paper -> X1];
                     X1 = [author._+ -> X2, author._+ -> X3];
                     X2 = "Vianu"; X3 = "Abiteboul""#,
        ));
    }

    #[test]
    fn feasible_types_match_paper_example() {
        // Partial type checking: X1/PAPER positive, X1/NAME negative.
        let (q, s, a) = analysis(
            PAPER_SCHEMA,
            r#"SELECT X1
               WHERE Root = [paper -> X1];
                     X1 = [author.name._+ -> X2, author.name._+ -> X3];
                     X2 = "Vianu"; X3 = "Abiteboul""#,
        );
        let x1 = q.var_by_name("X1").unwrap();
        let paper = s.by_name("PAPER").unwrap();
        let name = s.by_name("NAME").unwrap();
        assert!(a.feas[x1.index()].contains(&paper));
        assert!(!a.feas[x1.index()].contains(&name));
        // Inference for the paper's query yields the single type PAPER.
        assert_eq!(a.feas[x1.index()].len(), 1);
    }

    #[test]
    fn leaf_types_are_constrained_by_paths() {
        // `Feas` is the *local* bottom-up set (any type works for a bare
        // leaf); the globally feasible types of X2 are obtained by pinning
        // it and re-running satisfiability: author.name._+ reaches only
        // FIRSTNAME and LASTNAME.
        let (q, s, a) = analysis(
            PAPER_SCHEMA,
            "SELECT X2 WHERE Root = [paper -> X1]; X1 = [author.name._+ -> X2]",
        );
        let x2 = q.var_by_name("X2").unwrap();
        assert_eq!(a.feas[x2.index()].len(), s.len()); // local: unconstrained
        let tg = TypeGraph::new(&s);
        let global: BTreeSet<TypeIdx> = s
            .types()
            .filter(|&t| {
                analyze(&q, &s, &tg, &Constraints::none().pin_type(x2, t))
                    .unwrap()
                    .satisfiable
            })
            .collect();
        let fs = s.by_name("FIRSTNAME").unwrap();
        let ls = s.by_name("LASTNAME").unwrap();
        assert_eq!(global, [fs, ls].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn ordering_constraint_detected() {
        // title must come before authors in PAPER, so asking for an author
        // path strictly before a title path is unsatisfiable.
        assert!(!sat(
            PAPER_SCHEMA,
            "SELECT X WHERE Root = [paper -> P]; P = [author -> X, title -> Y]",
        ));
        assert!(sat(
            PAPER_SCHEMA,
            "SELECT X WHERE Root = [paper -> P]; P = [title -> Y, author -> X]",
        ));
    }

    #[test]
    fn value_kind_mismatch_is_unsat() {
        // TITLE is a string; matching an int constant fails.
        assert!(!sat(
            PAPER_SCHEMA,
            "SELECT X WHERE Root = [paper -> P]; P = [title -> X]; X = 42",
        ));
        assert!(sat(
            PAPER_SCHEMA,
            r#"SELECT X WHERE Root = [paper -> P]; P = [title -> X]; X = "t""#,
        ));
    }

    #[test]
    fn pinned_types_constrain_satisfiability() {
        let pool = SharedInterner::new();
        let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
        let q = parse_query(
            "SELECT X1 WHERE Root = [paper -> X1]; X1 = [title -> X2]",
            &pool,
        )
        .unwrap();
        let tg = TypeGraph::new(&s);
        let x1 = q.var_by_name("X1").unwrap();
        let paper = s.by_name("PAPER").unwrap();
        let author = s.by_name("AUTHOR").unwrap();
        let ok = analyze(&q, &s, &tg, &Constraints::none().pin_type(x1, paper)).unwrap();
        assert!(ok.satisfiable);
        let bad = analyze(&q, &s, &tg, &Constraints::none().pin_type(x1, author)).unwrap();
        assert!(!bad.satisfiable);
    }

    #[test]
    fn label_variables_range_over_schema_labels() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U | b->V]; U = int; V = string", &pool).unwrap();
        let q = parse_query("SELECT L WHERE Root = [L -> X]", &pool).unwrap();
        let tg = TypeGraph::new(&s);
        let l = q.var_by_name("L").unwrap();
        let a = pool.get("a").unwrap();
        let b = pool.get("b").unwrap();
        let c = pool.intern("c");
        for (lbl, want) in [(a, true), (b, true), (c, false)] {
            let r = analyze(&q, &s, &tg, &Constraints::none().pin_label(l, lbl)).unwrap();
            assert_eq!(r.satisfiable, want);
        }
    }

    #[test]
    fn homogeneous_unordered_collections_are_ptime_friendly() {
        let schema = "T = {(item->U)*}; U = [a->W.b->W2]; W = int; W2 = string";
        assert!(sat(
            schema,
            "SELECT X, Y WHERE Root = {item -> X, item -> Y, item.a -> Z}",
        ));
        assert!(!sat(schema, "SELECT X WHERE Root = {other -> X}"));
    }

    #[test]
    fn uninhabited_types_are_excluded() {
        // B's forced non-referenceable recursion makes it uninhabited; a
        // path through b is therefore unsatisfiable.
        let schema = "T = [a->U | b->B]; U = int; B = [x->B]";
        assert!(sat(schema, "SELECT X WHERE Root = [a -> X]"));
        assert!(!sat(schema, "SELECT X WHERE Root = [b -> X]"));
    }

    #[test]
    fn joins_are_rejected() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.b->U]; U = int", &pool).unwrap();
        let q = parse_query("SELECT X WHERE Root = [a -> &X, b -> &X]", &pool).unwrap();
        let tg = TypeGraph::new(&s);
        assert!(analyze(&q, &s, &tg, &Constraints::none()).is_err());
    }

    #[test]
    fn deep_wildcard_paths() {
        assert!(sat(PAPER_SCHEMA, "SELECT X WHERE Root = [_._._._ -> X]",));
        // DOCUMENT→PAPER→AUTHOR→NAME→FIRSTNAME is depth 5; depth 7 exceeds
        // the schema's reach only if no cycles — this schema is acyclic
        // with max depth 5 (root edge + 4).
        assert!(!sat(
            PAPER_SCHEMA,
            "SELECT X WHERE Root = [_._._._._._._ -> X]",
        ));
    }

    #[test]
    fn recursive_schema_allows_unbounded_paths() {
        let schema = "T = [(child->&T2)*]; &T2 = [(child->&T2)*.val->V]; V = int";
        assert!(sat(
            schema,
            "SELECT X WHERE Root = [child.child.child.child.val -> X]",
        ));
    }
}
