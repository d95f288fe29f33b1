//! The lint pass: a sequence of decided checks over `(query, schema,
//! constraints)`, each anchored to parser-recorded source spans.
//!
//! Soundness contract (DESIGN.md §12): every **error**-level diagnostic
//! is backed by a decided emptiness fact —
//!
//! * `unsat-query`: the dispatcher decided `Tr(P) ∩ Tr(S) = ∅`;
//! * `dead-branch`: the query restricted to one alternative of a path
//!   expression was decided unsatisfiable while the whole query is not;
//! * `unknown-label`: the label is outside the (computed, exact) set of
//!   labels emittable by any inhabited type reachable from the schema
//!   root, so no edge of any conforming instance carries it.
//!
//! Warnings may rest on weaker evidence: `redundant-constraint` compares
//! analyses with and without one pin, and `budget-exhausted` reports
//! that a check gave up — an exhausted budget is *never* promoted to an
//! error.

use std::collections::{BTreeMap, BTreeSet};

use ssd_automata::ops::shortest_witness;
use ssd_automata::{glushkov, LabelAtom, Regex};
use ssd_base::budget::{Budget, Exhausted, Verdict};
use ssd_base::{LabelId, Result, Span};
use ssd_core::dispatch::satisfiable_with_in_b;
use ssd_core::{ptraces, witness, Constraints, Session, TraceAtom};
use ssd_obs::names;
use ssd_query::{EdgeExpr, PatDef, PatEdge, Query};
use ssd_schema::{Schema, TypeGraph};

use crate::diagnostic::{Code, Diagnostic, LintReport, Severity};

/// The full lint pass: runs every check through `sess`'s caches under
/// `budget`, and returns ranked diagnostics. Structural errors (a broken
/// schema, an unsupported query form reaching an engine) stay in the
/// `Err` channel; budget trips become `budget-exhausted` warnings.
pub fn lint_with(
    q: &Query,
    s: &Schema,
    c: &Constraints,
    sess: &Session,
    budget: &Budget,
) -> Result<LintReport> {
    let rec = sess.recorder();
    let _span = ssd_obs::span(rec, names::span::LINT);
    let tg = sess.type_graph(s);
    let mut report = LintReport::default();

    {
        let _s = ssd_obs::span(rec, names::span::LINT_LABELS);
        unknown_labels(q, s, &tg, c, &mut report.diagnostics);
    }

    let sat = {
        let _s = ssd_obs::span(rec, names::span::LINT_SAT);
        satisfiable_with_in_b(q, s, c, sess, budget)?
    };
    match sat {
        Verdict::Exhausted(e) => {
            report
                .diagnostics
                .push(budget_warning(&e, "whole-query satisfiability"));
        }
        Verdict::Done(o) if !o.satisfiable => {
            report.diagnostics.push(unsat_diag(q, s, &tg));
        }
        Verdict::Done(_) => {
            // Branch-level dead code is only meaningful (and only
            // distinguishable from whole-query unsatisfiability) when the
            // query as a whole is satisfiable.
            let _s = ssd_obs::span(rec, names::span::LINT_DEAD_BRANCH);
            dead_branches(q, s, c, sess, budget, &mut report.diagnostics)?;
        }
    }

    if !(c.var_types.is_empty() && c.label_vars.is_empty()) {
        let _s = ssd_obs::span(rec, names::span::LINT_REDUNDANT);
        redundant_constraints(q, s, &tg, c, sess, budget, &mut report.diagnostics)?;
    }

    report.rank();
    rec.add(
        names::counter::LINT_DIAGNOSTICS,
        report.diagnostics.len() as u64,
    );
    Ok(report)
}

/// The `unsat-query` error, with a shortest `Tr(P)` trace (what the query
/// demands of every matching instance) and, when the root type is
/// inhabited, a synthesized minimal conforming database (what the schema
/// actually admits).
fn unsat_diag(q: &Query, s: &Schema, tg: &TypeGraph) -> Diagnostic {
    let span = root_def_span(q);
    let mut d = Diagnostic::new(
        Code::UnsatQuery,
        Severity::Error,
        "no database conforming to the schema satisfies this query",
        span,
    );
    if let Some(w) = query_trace(q) {
        d = d.with_trace_witness(render_trace(&w, q)).with_note(
            "the witness trace is what the query demands; the schema admits no such trace",
        );
    }
    if let Ok(g) = witness::min_instance(s, tg) {
        d = d.with_witness_db(g.to_string());
    }
    d
}

/// For every top-level alternative of every path expression, decides
/// satisfiability of the query with that edge restricted to the single
/// alternative; a decided-unsat alternative is dead. One budget trip
/// aborts the remaining branch checks with a single warning.
fn dead_branches(
    q: &Query,
    s: &Schema,
    c: &Constraints,
    sess: &Session,
    budget: &Budget,
    out: &mut Vec<Diagnostic>,
) -> Result<()> {
    for (i, (_, def)) in q.defs().iter().enumerate() {
        let (entries, ordered) = match def {
            PatDef::Ordered(es) => (es, true),
            PatDef::Unordered(es) => (es, false),
            _ => continue,
        };
        for (j, e) in entries.iter().enumerate() {
            let EdgeExpr::Regex(Regex::Alt(parts)) = &e.expr else {
                continue;
            };
            for (k, branch) in parts.iter().enumerate() {
                let mut es2 = entries.clone();
                es2[j] = PatEdge {
                    expr: EdgeExpr::Regex(branch.clone()),
                    target: e.target,
                };
                let def2 = if ordered {
                    PatDef::Ordered(es2)
                } else {
                    PatDef::Unordered(es2)
                };
                let q2 = q.with_def_replaced(i, def2);
                match satisfiable_with_in_b(&q2, s, c, sess, budget)? {
                    Verdict::Exhausted(e) => {
                        out.push(budget_warning(&e, "dead-branch analysis"));
                        return Ok(());
                    }
                    Verdict::Done(o) if !o.satisfiable => {
                        let span = branch_span(q, i, j, k);
                        let mut d = Diagnostic::new(
                            Code::DeadBranch,
                            Severity::Error,
                            "this alternative can never match in any conforming database",
                            span,
                        )
                        .with_note(
                            "the query stays satisfiable through the other alternatives; \
                             this branch is dead code",
                        );
                        if let Some(w) = query_trace(&q2) {
                            d = d.with_trace_witness(render_trace(&w, q));
                        }
                        out.push(d);
                    }
                    Verdict::Done(_) => {}
                }
            }
        }
    }
    Ok(())
}

/// `unknown-label`: labels mentioned by the query (in path regexes or as
/// pinned label-variable values) that no inhabited type reachable from
/// the schema root can emit. Each offending label is reported once, at
/// its first occurrence.
fn unknown_labels(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    out: &mut Vec<Diagnostic>,
) {
    let mut emittable: BTreeSet<LabelId> = BTreeSet::new();
    for t in tg.reachable_types(s.root()) {
        for a in tg.step(t) {
            emittable.insert(a.label);
        }
    }
    // First occurrence (by source position) per unknown label.
    let mut found: BTreeMap<LabelId, Span> = BTreeMap::new();
    for (i, (_, def)) in q.defs().iter().enumerate() {
        for (j, e) in def.edges().iter().enumerate() {
            let EdgeExpr::Regex(r) = &e.expr else {
                continue;
            };
            let span = expr_span(q, i, j);
            r.for_each_atom(&mut |a| {
                if let LabelAtom::Label(l) = a {
                    if !emittable.contains(l) {
                        found.entry(*l).or_insert(span);
                    }
                }
            });
        }
    }
    for (&v, &l) in &c.label_vars {
        if !emittable.contains(&l) {
            found.entry(l).or_insert_with(|| var_span(q, v));
        }
    }
    let mut diags: Vec<Diagnostic> = found
        .into_iter()
        .map(|(l, span)| {
            Diagnostic::new(
                Code::UnknownLabel,
                Severity::Error,
                format!(
                    "label `{}` can never occur in an instance of this schema",
                    q.pool().resolve(l)
                ),
                span,
            )
            .with_note("no inhabited schema type emits this label; is it a typo?")
        })
        .collect();
    diags.sort_by_key(|d| d.span.start);
    out.append(&mut diags);
}

/// `redundant-constraint`: dropping one pin leaves the analysis
/// unchanged — the full feasible-set tables when the PTIME engine
/// applies, the satisfiability verdict otherwise.
#[allow(clippy::too_many_arguments)]
fn redundant_constraints(
    q: &Query,
    s: &Schema,
    tg: &TypeGraph,
    c: &Constraints,
    sess: &Session,
    budget: &Budget,
    out: &mut Vec<Diagnostic>,
) -> Result<()> {
    let use_feas = q.class().join_free() && s.class().is_ordered_plus_homogeneous();
    let base_sat = if use_feas {
        None
    } else {
        match satisfiable_with_in_b(q, s, c, sess, budget)? {
            Verdict::Done(o) => Some(o.satisfiable),
            Verdict::Exhausted(e) => {
                out.push(budget_warning(&e, "redundant-constraint analysis"));
                return Ok(());
            }
        }
    };
    let mut pins: Vec<(ssd_base::VarId, String)> = c
        .var_types
        .iter()
        .map(|(&v, &t)| {
            (
                v,
                format!("pinning `{}` to type `{}`", q.var_name(v), s.name(t)),
            )
        })
        .chain(c.label_vars.iter().map(|(&v, &l)| {
            (
                v,
                format!(
                    "pinning `{}` to label `{}`",
                    q.var_name(v),
                    q.pool().resolve(l)
                ),
            )
        }))
        .collect();
    pins.sort_by_key(|(v, _)| *v);
    for (v, what) in pins {
        let mut c2 = c.clone();
        c2.var_types.remove(&v);
        c2.label_vars.remove(&v);
        let unchanged = if use_feas {
            let with = sess.feas_analysis(q, s, tg, c);
            let without = sess.feas_analysis(q, s, tg, &c2);
            *with == *without
        } else {
            match satisfiable_with_in_b(q, s, &c2, sess, budget)? {
                Verdict::Done(o) => Some(o.satisfiable) == base_sat,
                Verdict::Exhausted(e) => {
                    out.push(budget_warning(&e, "redundant-constraint analysis"));
                    return Ok(());
                }
            }
        };
        if unchanged {
            out.push(
                Diagnostic::new(
                    Code::RedundantConstraint,
                    Severity::Warning,
                    format!("{what} does not change the analysis"),
                    var_span(q, v),
                )
                .with_note("removing this constraint leaves the feasibility analysis unchanged"),
            );
        }
    }
    Ok(())
}

/// A `budget-exhausted` warning for a tripped check — never an error.
fn budget_warning(e: &Exhausted, during: &str) -> Diagnostic {
    Diagnostic::new(
        Code::BudgetExhausted,
        Severity::Warning,
        format!("analysis gave up during {during}: {e}"),
        Span::DUMMY,
    )
    .with_note("raise the budget to let the check run to completion; no verdict is implied")
}

/// A shortest word of `Tr(P)` — what the query demands of a matching
/// instance. `None` for query shapes the literal traces construction
/// does not cover (multi-definition, unordered root, label variables).
fn query_trace(q: &Query) -> Option<Vec<TraceAtom>> {
    let trp = ptraces::tr_pattern(q).ok()?;
    shortest_witness(&glushkov::build(&trp))
}

/// Renders a trace word with labels spelled out and variables as
/// `<Name>` markers.
fn render_trace(w: &[TraceAtom], q: &Query) -> String {
    w.iter()
        .map(|a| match a {
            TraceAtom::Label(l) => q.pool().resolve(*l),
            TraceAtom::AnyLabel => "_".to_owned(),
            TraceAtom::Mark(v, _) => format!("<{}>", q.var_name(*v)),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn root_def_span(q: &Query) -> Span {
    q.spans()
        .and_then(|sp| sp.defs.first())
        .map(|d| d.whole)
        .unwrap_or(Span::DUMMY)
}

fn expr_span(q: &Query, def: usize, edge: usize) -> Span {
    q.spans()
        .and_then(|sp| sp.defs.get(def))
        .and_then(|d| d.edges.get(edge))
        .map(|e| e.expr)
        .unwrap_or(Span::DUMMY)
}

fn branch_span(q: &Query, def: usize, edge: usize, branch: usize) -> Span {
    q.spans()
        .and_then(|sp| sp.defs.get(def))
        .and_then(|d| d.edges.get(edge))
        .and_then(|e| e.branches.get(branch).copied().or(Some(e.expr)))
        .unwrap_or(Span::DUMMY)
}

fn var_span(q: &Query, v: ssd_base::VarId) -> Span {
    q.spans()
        .and_then(|sp| sp.var_decls.get(v.index()).copied())
        .unwrap_or(Span::DUMMY)
}
