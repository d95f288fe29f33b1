//! Algorithm selection: the operational rendering of Table 2.
//!
//! Given the query and schema classifications, satisfiability (and, via
//! pins, partial type checking) is routed to:
//!
//! | condition | algorithm | complexity |
//! |---|---|---|
//! | join-free query, ordered (+homog.) schema | trace product ([`crate::feas`]) | PTIME |
//! | bounded joins, ordered (+homog.) schema | join enumeration over the trace product | `O(|S|^B)` · PTIME |
//! | constant-suffix query, tagged ordered schema | forced assignment ([`crate::tagged`]) | PTIME |
//! | otherwise | complete search ([`crate::solver`]) | exponential (NP-complete problem) |
//!
//! All routes bottom out in automata walks; language comparisons issued
//! through the session's [`ssd_automata::AutomataCache`] run on the
//! compiled dense-table kernels ([`ssd_automata::compiled`]) by default,
//! with the interpreted path selectable per session
//! ([`crate::Session::set_compiled_engine`]) for differential testing.

use ssd_base::budget::{Budget, BudgetResult, Meter, Verdict};
use ssd_base::VarId;
use ssd_obs::{names, Recorder};
use ssd_query::{Query, VarKind};
use ssd_schema::{Schema, TypeGraph};

use crate::feas::Constraints;
use crate::session::Session;
use crate::solver;
use crate::tagged;

/// Which algorithm decided the instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// The PTIME trace-product engine (join-free, ordered schemas).
    TraceProduct,
    /// Join enumeration on top of the trace product (bounded joins).
    BoundedJoins,
    /// The PTIME forced-assignment algorithm (tagged + constant suffix).
    TaggedSuffix,
    /// The complete exponential search.
    GeneralSearch,
}

/// A satisfiability verdict plus the algorithm that produced it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SatOutcome {
    /// The verdict.
    pub satisfiable: bool,
    /// The deciding algorithm.
    pub algorithm: Algorithm,
}

/// Type correctness (satisfiability) under pinned types/labels: is there
/// a database conforming to `s` on which `q`, with the pins of `c`,
/// returns a non-empty result? The schema's `TypeGraph` and every path
/// automaton come from (and are recorded in) `sess`.
///
/// The exponential engines (bounded-join enumeration, the general
/// search) check `budget` at their loop frontiers and, instead of hanging
/// on an oversized instance, return [`Verdict::Exhausted`] with a
/// diagnostic. The session remains fully usable afterward: partial engine
/// state is never cached. Structural errors stay in the `Err` channel.
pub fn satisfiable_with_in_b(
    q: &Query,
    s: &Schema,
    c: &Constraints,
    sess: &Session,
    budget: &Budget,
) -> crate::Result<Verdict<SatOutcome>> {
    // One ambient request id for the whole dispatch (nested engine calls
    // join it), so the sampler makes a single coherent decision per
    // request instead of one per span.
    let _req = ssd_obs::begin_request();
    let rec = sess.recorder();
    let _span = ssd_obs::span(rec, names::span::DISPATCH);
    let _budget_span = if budget.is_unlimited() {
        None
    } else {
        Some(ssd_obs::span(rec, names::span::BUDGET_CHECK))
    };
    let outcome = match dispatch_inner(q, s, c, sess, rec, budget)? {
        Verdict::Done(o) => o,
        Verdict::Exhausted(e) => {
            rec.add(names::counter::BUDGET_EXHAUSTED, 1);
            return Ok(Verdict::Exhausted(e));
        }
    };
    if rec.enabled() {
        rec.add(
            if outcome.satisfiable {
                names::counter::VERDICT_SAT
            } else {
                names::counter::VERDICT_UNSAT
            },
            1,
        );
    }
    Ok(Verdict::Done(outcome))
}

fn dispatch_inner(
    q: &Query,
    s: &Schema,
    c: &Constraints,
    sess: &Session,
    rec: &dyn Recorder,
    budget: &Budget,
) -> crate::Result<Verdict<SatOutcome>> {
    let qclass = q.class();
    let sclass = s.class();

    if sclass.is_ordered_plus_homogeneous() {
        let tg = sess.type_graph(s);
        if qclass.join_free() {
            // PTIME: runs to completion without budget checks.
            let _span = ssd_obs::span(rec, names::span::FEAS);
            let a = sess.feas_analysis(q, s, &tg, c);
            return Ok(Verdict::Done(SatOutcome {
                satisfiable: a.satisfiable,
                algorithm: Algorithm::TraceProduct,
            }));
        }
        if qclass.bounded_joins(MAX_ENUMERATED_JOINS) && sclass.ordered {
            let _span = ssd_obs::span(rec, names::span::BOUNDED_JOINS);
            let mut meter = budget.meter("bounded_joins");
            let sat = bounded_joins(q, s, &tg, c, &qclass.join_vars, sess, &mut meter);
            return Ok(match sat {
                Ok(sat) => Verdict::Done(SatOutcome {
                    satisfiable: sat,
                    algorithm: Algorithm::BoundedJoins,
                }),
                Err(e) => Verdict::Exhausted(e),
            });
        }
        if sclass.tagged && qclass.constant_suffix {
            // PTIME: runs to completion without budget checks.
            let _span = ssd_obs::span(rec, names::span::TAGGED);
            let sat = tagged::satisfiable_tagged_in(q, s, &tg, c, sess)?;
            return Ok(Verdict::Done(SatOutcome {
                satisfiable: sat,
                algorithm: Algorithm::TaggedSuffix,
            }));
        }
    }

    let _span = ssd_obs::span(rec, names::span::SOLVER);
    Ok(solver::solve_with_in_b(q, s, c, sess, budget)
        .map(|r| SatOutcome {
            satisfiable: r.satisfiable,
            algorithm: Algorithm::GeneralSearch,
        })
        .into())
}

/// The bound `B` up to which join enumeration is treated as "bounded"
/// (polynomial for each fixed bound — the paper's *bounded joins* class).
pub const MAX_ENUMERATED_JOINS: usize = 4;

/// Bounded-join satisfiability for ordered schemas: enumerate types for
/// the join variables (referenceable — exact for ordered schemas, where
/// distinct first edges prevent path sharing), treat their reference
/// occurrences as pinned leaves, and check each join variable's own
/// definition separately. Every per-pin analysis goes through the
/// session's feas memo, so enumeration prefixes shared across calls are
/// answered from cache.
fn bounded_joins(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    base: &Constraints,
    join_vars: &[VarId],
    sess: &Session,
    meter: &mut Meter<'_>,
) -> BudgetResult<bool> {
    enumerate(q, s, tg, base, join_vars, 0, sess, meter)
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    join_vars: &[VarId],
    i: usize,
    sess: &Session,
    meter: &mut Meter<'_>,
) -> BudgetResult<bool> {
    // One fuel unit per enumeration node — the tree has `O(|S|^B)` leaves
    // and each leaf runs a PTIME (but not free) feas analysis.
    meter.set_frontier(join_vars.len() - i);
    meter.tick()?;
    if i == join_vars.len() {
        // All join variables pinned: leaf-treat them, check the root tree
        // plus each join variable's own definition.
        let mut leafed = c.clone();
        for &v in join_vars {
            leafed.leaf_vars.insert(v);
        }
        let root_ok = sess.feas_analysis(q, s, tg, &leafed).satisfiable;
        if !root_ok {
            return Ok(false);
        }
        for &v in join_vars {
            if matches!(q.kind(v), VarKind::Node { .. }) {
                let t = leafed.var_types[&v];
                let mut own = leafed.clone();
                own.leaf_vars.remove(&v);
                let a = sess.feas_analysis(q, s, tg, &own);
                if !a.feas[v.index()].contains(&t) {
                    return Ok(false);
                }
            }
        }
        return Ok(true);
    }
    let v = join_vars[i];
    match q.kind(v) {
        VarKind::Node { .. } => {
            for t in s.types() {
                if !tg.is_inhabited(t) || !s.is_referenceable(t) {
                    continue;
                }
                if c.var_types.get(&v).is_some_and(|&p| p != t) {
                    continue;
                }
                let next = c.clone().pin_type(v, t);
                if enumerate(q, s, tg, &next, join_vars, i + 1, sess, meter)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        VarKind::Value => {
            // One representative type per atomic kind.
            let mut seen = std::collections::HashSet::new();
            for t in s.types() {
                let Some(a) = s.def(t).atomic() else { continue };
                if !seen.insert(a) {
                    continue;
                }
                if c.var_types
                    .get(&v)
                    .is_some_and(|&p| s.def(p).atomic() != Some(a))
                {
                    continue;
                }
                let next = c.clone().pin_type(v, t);
                if enumerate(q, s, tg, &next, join_vars, i + 1, sess, meter)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        VarKind::Label => {
            let mut labels = std::collections::BTreeSet::new();
            for t in s.types() {
                for a in tg.step(t) {
                    labels.insert(a.label);
                }
            }
            for l in labels {
                if c.label_vars.get(&v).is_some_and(|&p| p != l) {
                    continue;
                }
                let next = c.clone().pin_label(v, l);
                if enumerate(q, s, tg, &next, join_vars, i + 1, sess, meter)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::{parse_dtd, parse_schema};

    fn outcome(schema: &str, query: &str) -> SatOutcome {
        let pool = SharedInterner::new();
        let s = parse_schema(schema, &pool).unwrap();
        let q = parse_query(query, &pool).unwrap();
        Session::new().satisfiable(&q, &s).unwrap()
    }

    #[test]
    fn join_free_ordered_uses_trace_product() {
        let o = outcome(
            "T = [a->U.b->V]; U = int; V = string",
            "SELECT X WHERE Root = [a -> X]",
        );
        assert_eq!(o.algorithm, Algorithm::TraceProduct);
        assert!(o.satisfiable);
    }

    #[test]
    fn node_join_uses_bounded_enumeration() {
        let o = outcome(
            "T = [a->&U.b->&U]; &U = int",
            "SELECT X WHERE Root = [a -> &X, b -> &X]",
        );
        assert_eq!(o.algorithm, Algorithm::BoundedJoins);
        assert!(o.satisfiable);
        // Non-referenceable target type: unsat.
        let o2 = outcome(
            "T = [a->U.b->V]; U = int; V = int",
            "SELECT X WHERE Root = [a -> &X, b -> &X]",
        );
        assert_eq!(o2.algorithm, Algorithm::BoundedJoins);
        assert!(!o2.satisfiable);
    }

    #[test]
    fn unordered_schema_uses_general_search() {
        let o = outcome(
            "T = {a->U.b->V}; U = int; V = string",
            "SELECT X WHERE Root = {a -> X, b -> Y}",
        );
        assert_eq!(o.algorithm, Algorithm::GeneralSearch);
        assert!(o.satisfiable);
    }

    #[test]
    fn tagged_suffix_path_exists_for_many_joins() {
        // Five join variables exceed the enumeration bound; the tagged
        // algorithm takes over for constant-suffix queries.
        let pool = SharedInterner::new();
        let s = parse_dtd(
            "<!ELEMENT r (a*,b*) > <!ELEMENT a (#PCDATA) > <!ELEMENT b (#PCDATA) >",
            &pool,
        )
        .unwrap();
        let q = parse_query(
            "SELECT V1 WHERE Root = [a -> X1, a -> X2, a -> X3, b -> Y1, b -> Y2];
             X1 = V1; X2 = V1; X3 = V2; Y1 = V2; Y2 = V3;
             Z1 = V3",
            &pool,
        );
        // Z1 is disconnected; build a connected variant instead.
        assert!(q.is_err());
        let q2 = parse_query(
            "SELECT V1 WHERE Root = [a -> X1, a -> X2, a -> X3, b -> Y1, b -> Y2];
             X1 = V1; X2 = V1; X3 = V2; Y1 = V2; Y2 = V3; Y3 = V3",
            &pool,
        );
        assert!(q2.is_err()); // Y3 also disconnected
        let q3 = parse_query(
            "SELECT V1 WHERE Root = [a -> X1, a -> X2, a -> X3, b -> Y1, b -> Y2];
             X1 = V1; X2 = V1; X3 = V2; Y1 = V2; Y2 = V1",
            &pool,
        )
        .unwrap();
        let tg = TypeGraph::new(&s);
        let sat =
            tagged::satisfiable_tagged_in(&q3, &s, &tg, &Constraints::none(), &Session::new())
                .unwrap();
        assert!(sat);
    }

    #[test]
    fn satisfiability_agrees_between_algorithms_on_shared_class() {
        // Join-free, ordered, tagged, constant labels: both PTIME paths and
        // the general solver must agree.
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.(b->V)*]; U = [c->W]; V = int; W = string", &pool).unwrap();
        for (query, want) in [
            ("SELECT X WHERE Root = [a.c -> X]", true),
            ("SELECT X WHERE Root = [b -> X, a -> Y]", false), // order
            ("SELECT X WHERE Root = [a -> X, b -> Y, b -> Z]", true),
            ("SELECT X WHERE Root = [c -> X]", false),
        ] {
            let q = parse_query(query, &pool).unwrap();
            let sess = Session::new();
            let tg = sess.type_graph(&s);
            let by_feas = sess
                .feas_analysis(&q, &s, &tg, &Constraints::none())
                .satisfiable;
            let none = Constraints::none();
            let by_solver = solver::solve_with_in_b(&q, &s, &none, &sess, Budget::unlimited_ref())
                .unwrap()
                .satisfiable;
            assert_eq!(by_feas, want, "feas on {query}");
            assert_eq!(by_solver, want, "solver on {query}");
        }
    }
}
