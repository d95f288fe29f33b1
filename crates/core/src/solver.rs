//! The general satisfiability search: unordered types, joins, and label
//! variables — the NP-complete cells of Table 2.
//!
//! The algorithm enumerates assignments for the *join variables* (node
//! joins range over referenceable inhabited types, label joins over the
//! schema's labels, value joins over atomic kinds) and then runs a
//! requirement-routing search over the schema's type graph:
//!
//! * a node carries *requirements* — in-flight path automata that entered
//!   it — and *anchors* — pattern variables bound to it;
//! * anchored collection definitions contribute their entries as fresh
//!   requirements; all requirements are then routed onto the positions of
//!   a word of the node type's regex (ordered definitions claim strictly
//!   increasing, distinct positions; unordered definitions and in-flight
//!   paths may share positions — the paper's set semantics);
//! * requirements routed to the same position proceed *together* into one
//!   child node, which is how forced sharing under rigid unordered types
//!   is decided exactly.
//!
//! Worst-case exponential, as it must be (Theorem 3.1); the PTIME classes
//! of Table 2 are served by [`crate::feas`] and [`crate::tagged`] instead.
//!
//! Witness-shape scope (documented in DESIGN.md): multiply-referenced node
//! variables are bound to referenceable types (after deduplicating
//! identical entries); exotic witnesses that satisfy a non-referenceable
//! join by collapsing distinct variables onto one node are not explored.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use ssd_automata::{AutomataCache, LabelAtom, Nfa};
use ssd_base::budget::{Budget, BudgetResult, Exhausted, Meter};
use ssd_base::{LabelId, TypeIdx, VarId};
use ssd_obs::{names, Recorder};
use ssd_query::{EdgeExpr, PatDef, Query, VarKind};
use ssd_schema::{Schema, TypeDef, TypeGraph};

use crate::feas::Constraints;
use crate::session::Session;

/// The outcome of the general search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveResult {
    /// Whether a conforming database with a non-empty result exists (within
    /// the documented witness-shape scope).
    pub satisfiable: bool,
    /// The join-variable assignment that succeeded, if any: node/value
    /// variables to types, label variables to labels.
    pub join_assignment: Option<(HashMap<VarId, TypeIdx>, HashMap<VarId, LabelId>)>,
}

/// Solves satisfiability for an arbitrary query (joins, unordered types,
/// label variables) against an arbitrary schema, with the pinned variable
/// types / labels of `c` (used for partial type checking and inference in
/// the general case). The schema's `TypeGraph` and the per-entry path
/// automata come from `sess`'s caches.
///
/// Runs under `budget`: one fuel unit per search node expanded
/// ([`Ctx::sat_node`]) and per join assignment tried, with the
/// retained-bytes estimate covering the success memo. An `Err` means
/// the budget tripped before the search finished; the session's caches
/// remain valid (the solver memoizes per call, not per session).
pub fn solve_with_in_b(
    q: &Query,
    s: &Schema,
    c: &Constraints,
    sess: &Session,
    budget: &Budget,
) -> BudgetResult<SolveResult> {
    let tg = sess.type_graph(s);
    let mut ctx = Ctx::new(q, s, &tg, c, sess.automata(), sess.recorder(), budget);

    // Domains for join variables.
    let join_vars: Vec<VarId> = q.class().join_vars.clone();
    let mut domains: Vec<Vec<JoinChoice>> = Vec::with_capacity(join_vars.len());
    for &v in &join_vars {
        let dom = ctx.join_domain(v);
        if dom.is_empty() {
            return Ok(SolveResult {
                satisfiable: false,
                join_assignment: None,
            });
        }
        domains.push(dom);
    }

    // Enumerate the product of join domains.
    let mut pick = vec![0usize; join_vars.len()];
    loop {
        ctx.meter.tick()?;
        let mut types = c.var_types.clone();
        let mut labels = c.label_vars.clone();
        let mut consistent = true;
        for (i, &v) in join_vars.iter().enumerate() {
            match domains[i][pick[i]] {
                JoinChoice::Type(t) => {
                    if *types.entry(v).or_insert(t) != t {
                        consistent = false;
                    }
                }
                JoinChoice::Label(l) => {
                    if *labels.entry(v).or_insert(l) != l {
                        consistent = false;
                    }
                }
            }
        }
        if consistent && ctx.check_assignment(&join_vars, &types, &labels) {
            return Ok(SolveResult {
                satisfiable: true,
                join_assignment: Some((types, labels)),
            });
        }
        // A trip inside the recursive search surfaces as `false` above;
        // re-raise it instead of moving on to the next assignment.
        if let Some(e) = ctx.tripped.take() {
            return Err(e);
        }
        // Advance the odometer.
        let mut i = 0;
        loop {
            if i == pick.len() {
                return Ok(SolveResult {
                    satisfiable: false,
                    join_assignment: None,
                });
            }
            pick[i] += 1;
            if pick[i] < domains[i].len() {
                break;
            }
            pick[i] = 0;
            i += 1;
        }
        if pick.is_empty() {
            // No join variables: single iteration.
            return Ok(SolveResult {
                satisfiable: false,
                join_assignment: None,
            });
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum JoinChoice {
    Type(TypeIdx),
    Label(LabelId),
}

/// An in-flight requirement: a pattern entry's path automaton that has
/// consumed at least one edge, currently in `states`, ending at `target`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct Req {
    def_idx: usize,
    entry_idx: usize,
    states: Vec<usize>,
    target: VarId,
}

struct Ctx<'a> {
    q: &'a Query,
    s: &'a Schema,
    tg: &'a TypeGraph,
    base: &'a Constraints,
    /// Glushkov automata per (def, entry), `None` for label variables;
    /// shared with (and memoized by) the session's automata cache.
    entry_nfas: Vec<Vec<Option<Arc<Nfa<LabelAtom>>>>>,
    join_set: HashSet<VarId>,
    /// Current enumeration state (types of join + pinned vars, labels).
    types: HashMap<VarId, TypeIdx>,
    labels: HashMap<VarId, LabelId>,
    /// Memoized successes of `sat_node` and the recursion stack.
    memo_true: HashSet<(TypeIdx, Vec<Req>, Vec<VarId>)>,
    on_stack: Vec<(TypeIdx, Vec<Req>, Vec<VarId>)>,
    rec: &'a dyn Recorder,
    /// Budget meter: one tick per search node / join assignment.
    meter: Meter<'a>,
    /// Set when the meter trips inside the boolean recursion; the
    /// nearest fallible caller re-raises it as an `Err`.
    tripped: Option<Exhausted>,
}

/// Rough heap footprint of one success-memo entry, for the budget's
/// retained-bytes diagnostic.
const MEMO_ENTRY_BYTES: usize = 160;

impl<'a> Ctx<'a> {
    fn new(
        q: &'a Query,
        s: &'a Schema,
        tg: &'a TypeGraph,
        base: &'a Constraints,
        cache: &AutomataCache,
        rec: &'a dyn Recorder,
        budget: &'a Budget,
    ) -> Ctx<'a> {
        let entry_nfas = q
            .defs()
            .iter()
            .map(|(_, def)| {
                def.edges()
                    .iter()
                    .map(|e| match &e.expr {
                        EdgeExpr::Regex(r) => Some(cache.nfa(r)),
                        EdgeExpr::LabelVar(_) => None,
                    })
                    .collect()
            })
            .collect();
        let join_set = q.class().join_vars.iter().copied().collect();
        Ctx {
            q,
            s,
            tg,
            base,
            entry_nfas,
            join_set,
            types: HashMap::new(),
            labels: HashMap::new(),
            memo_true: HashSet::new(),
            on_stack: Vec::new(),
            rec,
            meter: budget.meter("solver"),
            tripped: None,
        }
    }

    fn join_domain(&self, v: VarId) -> Vec<JoinChoice> {
        match self.q.kind(v) {
            VarKind::Node { .. } => {
                // Multiply-referenced nodes need referenceable types.
                self.s
                    .types()
                    .filter(|&t| {
                        self.tg.is_inhabited(t)
                            && self.s.is_referenceable(t)
                            && self.base.var_types.get(&v).is_none_or(|&p| p == t)
                    })
                    .map(JoinChoice::Type)
                    .collect()
            }
            VarKind::Value => {
                // One representative atomic type per kind present.
                let mut seen = HashSet::new();
                self.s
                    .types()
                    .filter_map(|t| {
                        let a = self.s.def(t).atomic()?;
                        seen.insert(a).then_some(JoinChoice::Type(t))
                    })
                    .collect()
            }
            VarKind::Label => {
                // Label variables range over the schema's (realizable)
                // label alphabet.
                let mut ls = BTreeSet::new();
                for t in self.s.types() {
                    for a in self.tg.step(t) {
                        ls.insert(a.label);
                    }
                }
                ls.into_iter()
                    .filter(|&l| self.base.label_vars.get(&v).is_none_or(|&p| p == l))
                    .map(JoinChoice::Label)
                    .collect()
            }
        }
    }

    fn check_assignment(
        &mut self,
        join_vars: &[VarId],
        types: &HashMap<VarId, TypeIdx>,
        labels: &HashMap<VarId, LabelId>,
    ) -> bool {
        self.types = types.clone();
        self.labels = labels.clone();
        self.memo_true.clear();
        self.on_stack.clear();

        // The root variable binds the root node: root type forced.
        if self
            .types
            .get(&self.q.root_var())
            .is_some_and(|&t| t != self.s.root())
        {
            return false;
        }
        // Each join variable's own subtree must be realizable at its type.
        for &jv in join_vars {
            if matches!(self.q.kind(jv), VarKind::Node { .. }) {
                let t = self.types[&jv];
                if !self.sat_node(t, Vec::new(), vec![jv]) {
                    return false;
                }
            }
        }
        self.sat_node(self.s.root(), Vec::new(), vec![self.q.root_var()])
    }

    /// Can a node of type `t` absorb the arriving requirements and anchor
    /// the given variables, in some instance?
    ///
    /// A budget trip inside this boolean recursion is recorded in
    /// `self.tripped` and surfaces as `false` (the search unwinds
    /// without exploring further); [`solve_with_in_b`] re-raises it.
    fn sat_node(&mut self, t: TypeIdx, arriving: Vec<Req>, anchors: Vec<VarId>) -> bool {
        if self.tripped.is_some() {
            return false;
        }
        self.meter.set_frontier(self.on_stack.len());
        self.meter
            .set_retained(self.memo_true.len() * MEMO_ENTRY_BYTES);
        if let Err(e) = self.meter.tick() {
            self.tripped = Some(e);
            return false;
        }
        self.rec.add(names::counter::SOLVER_NODES, 1);
        if !self.tg.is_inhabited(t) {
            return false;
        }
        let mut anchors = anchors;
        anchors.sort();
        anchors.dedup();
        let mut arriving = arriving;
        arriving.sort();
        arriving.dedup();
        let key = (t, arriving.clone(), anchors.clone());
        if self.memo_true.contains(&key) {
            return true;
        }
        if self.on_stack.contains(&key) {
            return false; // least fixpoint: a repeated subproblem is cut
        }
        self.on_stack.push(key.clone());
        let ok = self.finish_split(t, &arriving, &anchors, 0, Vec::new());
        self.on_stack.pop();
        if ok {
            self.memo_true.insert(key);
        }
        ok
    }

    /// Branch over which arriving requirements finish at this node.
    fn finish_split(
        &mut self,
        t: TypeIdx,
        arriving: &[Req],
        anchors: &[VarId],
        i: usize,
        continuing: Vec<Req>,
    ) -> bool {
        if i == arriving.len() {
            return self.anchor_and_route(t, continuing, anchors.to_vec());
        }
        let req = arriving[i].clone();
        let (can_finish, is_regex) = match self.entry_nfas[req.def_idx][req.entry_idx].as_deref() {
            Some(n) => (req.states.iter().any(|&q| n.is_accepting(q)), true),
            // Label-variable paths have length exactly 1 and always finish
            // on arrival (states is empty sentinel).
            None => (true, false),
        };
        // Option 1: finish here.
        if can_finish {
            let target = req.target;
            if self.join_set.contains(&target) {
                // Remote anchoring: the shared join node — only the type
                // must agree (its subtree is checked once globally).
                let matches = match self.q.kind(target) {
                    VarKind::Value => {
                        let want = self.types.get(&target).copied();
                        atomic_kind_matches(self.s, t, want)
                    }
                    _ => self.types.get(&target) == Some(&t),
                };
                if matches && self.finish_split(t, arriving, anchors, i + 1, continuing.clone()) {
                    return true;
                }
            } else {
                let mut anchors2 = anchors.to_vec();
                anchors2.push(target);
                anchors2.sort();
                anchors2.dedup();
                if self.finish_split_with(t, &arriving[i + 1..], &anchors2, continuing.clone()) {
                    return true;
                }
            }
        }
        // Option 2: continue past this node (needs outgoing edges, i.e. a
        // collection type; checked during routing).
        if is_regex {
            let mut cont = continuing;
            cont.push(req);
            return self.finish_split(t, arriving, anchors, i + 1, cont);
        }
        false
    }

    fn finish_split_with(
        &mut self,
        t: TypeIdx,
        arriving: &[Req],
        anchors: &[VarId],
        continuing: Vec<Req>,
    ) -> bool {
        self.finish_split(t, arriving, anchors, 0, continuing)
    }

    /// Checks anchors locally and routes all pending requirements through
    /// one word of `t`'s regex.
    fn anchor_and_route(&mut self, t: TypeIdx, continuing: Vec<Req>, anchors: Vec<VarId>) -> bool {
        // Local checks per anchor; collect fresh entry requirements.
        #[derive(Clone)]
        struct Entry {
            def_idx: usize,
            entry_idx: usize,
            ordered: bool,
        }
        let mut entries: Vec<Entry> = Vec::new();
        for &v in &anchors {
            if let VarKind::Node { referenceable } = self.q.kind(v) {
                if referenceable && !self.s.is_referenceable(t) {
                    return false;
                }
            }
            if let Some(&p) = self.types.get(&v) {
                let ok = match self.q.kind(v) {
                    VarKind::Value => atomic_kind_matches(self.s, t, Some(p)),
                    _ => p == t,
                };
                if !ok {
                    return false;
                }
            }
            let Some(def_idx) = self.q.defs().iter().position(|(dv, _)| *dv == v) else {
                continue; // leaf variable: any node
            };
            let (_, def) = &self.q.defs()[def_idx];
            match (def, self.s.def(t)) {
                (PatDef::Value(val), TypeDef::Atomic(a)) => {
                    if !a.admits(val) {
                        return false;
                    }
                }
                (PatDef::ValueVar(vv), TypeDef::Atomic(a)) => {
                    if let Some(&p) = self.types.get(vv) {
                        if self.s.def(p).atomic() != Some(*a) {
                            return false;
                        }
                    }
                }
                (PatDef::Value(_) | PatDef::ValueVar(_), _) => return false,
                (PatDef::Ordered(es), TypeDef::Ordered(_)) => {
                    for j in 0..es.len() {
                        entries.push(Entry {
                            def_idx,
                            entry_idx: j,
                            ordered: true,
                        });
                    }
                }
                (PatDef::Unordered(es), TypeDef::Unordered(_)) => {
                    for j in 0..es.len() {
                        entries.push(Entry {
                            def_idx,
                            entry_idx: j,
                            ordered: false,
                        });
                    }
                }
                _ => return false,
            }
        }

        if matches!(self.s.def(t), TypeDef::Atomic(_)) {
            return continuing.is_empty() && entries.is_empty();
        }
        let nfa = match self.tg.pruned_nfa(t) {
            Some(n) => n.clone(),
            None => return false,
        };

        // Pending work items to route onto word positions.
        let mut pending: Vec<PendingItem> = Vec::new();
        for r in continuing {
            pending.push(PendingItem::Cont(r));
        }
        for e in &entries {
            pending.push(PendingItem::Entry {
                def_idx: e.def_idx,
                entry_idx: e.entry_idx,
                ordered: e.ordered,
            });
        }

        let mut seen_route: HashSet<(usize, Vec<usize>)> = HashSet::new();
        self.route(
            &nfa,
            nfa.start(),
            &pending,
            &mut vec![false; pending.len()],
            &mut seen_route,
        )
    }

    /// DFS over the node regex's NFA, assigning pending items to positions.
    fn route(
        &mut self,
        nfa: &Nfa<ssd_schema::SchemaAtom>,
        state: usize,
        pending: &[PendingItem],
        routed: &mut Vec<bool>,
        seen: &mut HashSet<(usize, Vec<usize>)>,
    ) -> bool {
        if routed.iter().all(|&r| r) && nfa.is_accepting(state) {
            return true;
        }
        let unrouted: Vec<usize> = (0..pending.len()).filter(|&i| !routed[i]).collect();
        let sig = (state, unrouted.clone());
        if !seen.insert(sig) {
            return false;
        }
        for (atom, next_state) in nfa.edges(state).to_vec() {
            // Which unrouted items could take this position?
            let mut options: Vec<(usize, Option<Req>)> = Vec::new();
            for &i in &unrouted {
                if let Some(adv) = self.advance(&pending[i], &atom, pending, routed) {
                    options.push((i, adv));
                }
            }
            // Choose a subset of compatible items to share this position.
            if self.choose_group(
                nfa,
                &atom,
                next_state,
                pending,
                routed,
                seen,
                &options,
                0,
                Vec::new(),
            ) {
                return true;
            }
        }
        false
    }

    fn advance(
        &self,
        item: &PendingItem,
        atom: &ssd_schema::SchemaAtom,
        pending: &[PendingItem],
        routed: &[bool],
    ) -> Option<Option<Req>> {
        match item {
            PendingItem::Cont(req) => {
                // Invariant, not input-reachable: label-variable entries
                // always finish on arrival (`finish_split` never pushes
                // them into `continuing`), so a continuing requirement
                // always has a regex NFA.
                let nfa = self.entry_nfas[req.def_idx][req.entry_idx]
                    .as_deref()
                    .expect("continuing reqs are regex entries");
                let next = nfa.step(&req.states, &atom.label);
                if next.is_empty() {
                    return None;
                }
                Some(Some(Req {
                    def_idx: req.def_idx,
                    entry_idx: req.entry_idx,
                    states: next,
                    target: req.target,
                }))
            }
            PendingItem::Entry {
                def_idx,
                entry_idx,
                ordered,
            } => {
                // Ordered entries must go strictly in order: entry j may be
                // routed only if every earlier entry of the same def is
                // already routed.
                if *ordered {
                    for (i, other) in pending.iter().enumerate() {
                        if let PendingItem::Entry {
                            def_idx: d,
                            entry_idx: e,
                            ordered: true,
                        } = other
                        {
                            if d == def_idx && e < entry_idx && !routed[i] {
                                return None;
                            }
                        }
                    }
                }
                let (_, def) = &self.q.defs()[*def_idx];
                let edge = &def.edges()[*entry_idx];
                match &edge.expr {
                    EdgeExpr::LabelVar(lv) => {
                        if let Some(&l) = self.labels.get(lv) {
                            if l != atom.label {
                                return None;
                            }
                        }
                        // Length-1 path: finishes at the child (sentinel
                        // empty states, handled by finish_split).
                        Some(Some(Req {
                            def_idx: *def_idx,
                            entry_idx: *entry_idx,
                            states: Vec::new(),
                            target: edge.target,
                        }))
                    }
                    EdgeExpr::Regex(_) => {
                        // Invariant: `entry_nfas` is built index-aligned
                        // with the defs, `Some` exactly for regex entries.
                        let nfa = self.entry_nfas[*def_idx][*entry_idx]
                            .as_deref()
                            .expect("regex entry");
                        let next = nfa.step(&[nfa.start()], &atom.label);
                        if next.is_empty() {
                            return None;
                        }
                        Some(Some(Req {
                            def_idx: *def_idx,
                            entry_idx: *entry_idx,
                            states: next,
                            target: edge.target,
                        }))
                    }
                }
            }
        }
    }

    /// Enumerates subsets of `options` sharing this position (ordered
    /// entries of one def never share — distinct first edges), recursing
    /// into the shared child for non-empty groups.
    #[allow(clippy::too_many_arguments)]
    fn choose_group(
        &mut self,
        nfa: &Nfa<ssd_schema::SchemaAtom>,
        atom: &ssd_schema::SchemaAtom,
        next_state: usize,
        pending: &[PendingItem],
        routed: &mut Vec<bool>,
        seen: &mut HashSet<(usize, Vec<usize>)>,
        options: &[(usize, Option<Req>)],
        oi: usize,
        group: Vec<(usize, Req)>,
    ) -> bool {
        if oi == options.len() {
            // Route the group into the child and continue the word.
            for (i, _) in &group {
                routed[*i] = true;
            }
            let child_reqs: Vec<Req> = group.iter().map(|(_, r)| r.clone()).collect();
            let ok = (group.is_empty() || self.sat_node(atom.target, child_reqs, Vec::new()))
                && self.route(nfa, next_state, pending, routed, seen);
            for (i, _) in &group {
                routed[*i] = false;
            }
            return ok;
        }
        // Skip this option.
        if self.choose_group(
            nfa,
            atom,
            next_state,
            pending,
            routed,
            seen,
            options,
            oi + 1,
            group.clone(),
        ) {
            return true;
        }
        // Take this option, if compatible with the group. Invariant: every
        // element of `options` came from a successful `advance`, which
        // always wraps a concrete `Req` for both entry kinds.
        let (i, adv) = &options[oi];
        let req = adv.clone().expect("advance returns Some(req)");
        let compatible = match &pending[*i] {
            PendingItem::Entry {
                ordered: true,
                def_idx,
                ..
            } => !group.iter().any(|(gi, _)| {
                matches!(
                    &pending[*gi],
                    PendingItem::Entry { ordered: true, def_idx: d2, .. } if d2 == def_idx
                )
            }),
            _ => true,
        };
        if compatible {
            let mut g2 = group;
            g2.push((*i, req));
            return self.choose_group(
                nfa,
                atom,
                next_state,
                pending,
                routed,
                seen,
                options,
                oi + 1,
                g2,
            );
        }
        false
    }
}

/// Pending routing work (public to the module for signature reuse).
#[derive(Clone)]
enum PendingItem {
    Cont(Req),
    Entry {
        def_idx: usize,
        entry_idx: usize,
        ordered: bool,
    },
}

/// Whether type `t` is atomic with the same atomic kind as `want`.
fn atomic_kind_matches(s: &Schema, t: TypeIdx, want: Option<TypeIdx>) -> bool {
    match want {
        None => s.def(t).atomic().is_some(),
        Some(w) => match (s.def(t).atomic(), s.def(w).atomic()) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
    }
}
