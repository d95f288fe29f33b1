//! Output-schema inference and transformation type checking (§4.3).
//!
//! For transformations whose Skolem functions take at most one variable,
//! the paper shows a most specific output schema exists. Construction:
//! one output type per (function symbol, feasible input type of its
//! argument), with the feasible types and the feasible *pairs* of
//! (source-arg type, target-arg type) computed by the type-inference
//! machinery over the input schema. Each output node collects set-valued
//! edge emissions, so output types are homogeneous-star unordered
//! collections — exactly the shape the paper's PTIME rows favour.
//!
//! Transformation type checking (`∀G ⊨ S1 : Q(G) ⊨ S2`) is PSPACE-hard in
//! general (paper, §4.3); [`check_output_schema`] implements the
//! conservative static test "inferred schema included in the target" —
//! sound (a `true` answer guarantees conformance of every output), and
//! exact when the target's types are permissive unordered collections.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ssd_automata::dfa::included;
use ssd_automata::glushkov;
use ssd_automata::Regex;
use ssd_base::{Error, Result, TypeIdx, VarId};
use ssd_core::feas::Constraints;
use ssd_core::Session;
use ssd_schema::{AtomicType, Schema, SchemaAtom, SchemaBuilder, TypeDef};

use crate::skolem::{Target, Transformation};

/// A node of the inferred output schema: a function symbol together with
/// the inferred type of its argument (`None` for nullary functions and
/// for value arguments collapsing to an atomic kind).
type OutKey = (String, Option<TypeIdx>);

/// Infers the most specific output schema of a single-variable
/// transformation over input schema `s`, deciding every pinned
/// satisfiability probe through `sess`.
pub fn infer_output_schema(t: &Transformation, s: &Schema, sess: &Session) -> Result<Schema> {
    t.validate()?;
    if !t.is_single_variable() {
        return Err(Error::unsupported(
            "output-schema inference needs single-variable Skolem functions \
             (the general case has no best schema — §4.3)",
        ));
    }
    let q = &t.query;

    // Feasible argument types per unary function, and feasible pairs per
    // rule (joint inference of source and target arguments).
    let feasible = |v: VarId, pin: Option<(VarId, TypeIdx)>| -> Result<BTreeSet<TypeIdx>> {
        let mut out = BTreeSet::new();
        for ty in s.types() {
            let mut c = Constraints::none().pin_type(v, ty);
            if let Some((w, wt)) = pin {
                if w == v {
                    if wt != ty {
                        continue;
                    }
                } else {
                    c = c.pin_type(w, wt);
                }
            }
            if sess.satisfiable_with(q, s, &c)?.satisfiable {
                out.insert(ty);
            }
        }
        Ok(out)
    };

    // Collect output types and their edge alphabets.
    let mut edge_sets: BTreeMap<OutKey, BTreeSet<(ssd_base::LabelId, OutKey)>> = BTreeMap::new();
    let root_key: OutKey = (t.root_fun.clone(), None);
    edge_sets.entry(root_key.clone()).or_default();

    for rule in &t.rules {
        let src_arg = rule.source.args.first().copied();
        let src_types: Vec<Option<TypeIdx>> = match src_arg {
            None => vec![None],
            Some(v) => feasible(v, None)?.into_iter().map(Some).collect(),
        };
        for &st in &src_types {
            let src_key: OutKey = (rule.source.fun.clone(), st);
            let entry = edge_sets.entry(src_key.clone()).or_default();
            let _ = entry;
            match &rule.target {
                Target::CopyValue(v) => {
                    // Copied values become atomic leaves; their kinds come
                    // from the feasible types of the copied variable.
                    let pin = src_arg.map(|sv| (sv, st.expect("pinned with Some")));
                    let kinds: BTreeSet<AtomicType> = feasible(*v, pin_opt(pin, st))?
                        .into_iter()
                        .filter_map(|ty| s.def(ty).atomic())
                        .collect();
                    for k in kinds {
                        let leaf: OutKey = (format!("#atomic:{k}"), None);
                        edge_sets.entry(leaf.clone()).or_default();
                        edge_sets
                            .get_mut(&(rule.source.fun.clone(), st))
                            .expect("inserted")
                            .insert((rule.label, leaf));
                    }
                }
                Target::Term(term) => match term.args.first() {
                    None => {
                        let dst: OutKey = (term.fun.clone(), None);
                        edge_sets.entry(dst.clone()).or_default();
                        edge_sets
                            .get_mut(&(rule.source.fun.clone(), st))
                            .expect("inserted")
                            .insert((rule.label, dst));
                    }
                    Some(&tv) => {
                        let pin = match (src_arg, st) {
                            (Some(sv), Some(stt)) => Some((sv, stt)),
                            _ => None,
                        };
                        for tt in feasible(tv, pin)? {
                            let dst: OutKey = (term.fun.clone(), Some(tt));
                            edge_sets.entry(dst.clone()).or_default();
                            edge_sets
                                .get_mut(&(rule.source.fun.clone(), st))
                                .expect("inserted")
                                .insert((rule.label, dst));
                        }
                    }
                },
            }
        }
    }

    // Build the schema: the root first; every output type is an unordered
    // star over its possible symbols; atomic leaves keep their kind.
    let mut b = SchemaBuilder::new(s.pool().clone());
    let mut idx_of: HashMap<OutKey, TypeIdx> = HashMap::new();
    let name_of = |k: &OutKey, s: &Schema| -> String {
        match k.1 {
            None => format!("OUT-{}", k.0),
            Some(t) => format!("OUT-{}-{}", k.0, s.name(t)),
        }
    };
    // Root declared first.
    idx_of.insert(root_key.clone(), b.declare(&name_of(&root_key, s), false));
    for k in edge_sets.keys() {
        if *k == root_key {
            continue;
        }
        // All non-root output nodes are emitted referenceable (they may be
        // shared between bindings), so their types must be referenceable.
        idx_of.insert(k.clone(), b.declare(&name_of(k, s), true));
    }
    for (k, symbols) in &edge_sets {
        let ti = idx_of[k];
        if let Some(kind) = k.0.strip_prefix("#atomic:") {
            let a = AtomicType::from_keyword(kind).expect("known atomic name");
            b.define(ti, TypeDef::Atomic(a))?;
            continue;
        }
        let alts: Vec<Regex<SchemaAtom>> = symbols
            .iter()
            .map(|(l, dst)| Regex::atom(SchemaAtom::new(*l, idx_of[dst])))
            .collect();
        let re = Regex::star(Regex::alt(alts));
        b.define(ti, TypeDef::Unordered(re))?;
    }
    b.finish()
}

fn pin_opt(pin: Option<(VarId, TypeIdx)>, _st: Option<TypeIdx>) -> Option<(VarId, TypeIdx)> {
    pin
}

/// Conservative transformation type checking: every instance of the
/// inferred output schema conforms to `target` if each inferred type's
/// possible bags are allowed by a corresponding target type. Returns
/// `Ok(true)` when the inclusion is established, `Ok(false)` when a
/// definite mismatch is found.
pub fn check_output_schema(
    t: &Transformation,
    s: &Schema,
    target: &Schema,
    sess: &Session,
) -> Result<bool> {
    let inferred = infer_output_schema(t, s, sess)?;
    // Simulation between schema types, starting at the roots: for every
    // inferred symbol set, the target type must allow arbitrary bags over
    // the (simulated) symbols.
    let mut assumed: BTreeSet<(TypeIdx, TypeIdx)> = BTreeSet::new();
    Ok(simulates(
        &inferred,
        target,
        inferred.root(),
        target.root(),
        &mut assumed,
    ))
}

fn simulates(
    a: &Schema,
    b: &Schema,
    ta: TypeIdx,
    tb: TypeIdx,
    assumed: &mut BTreeSet<(TypeIdx, TypeIdx)>,
) -> bool {
    if !assumed.insert((ta, tb)) {
        return true; // coinductive assumption
    }
    match (a.def(ta), b.def(tb)) {
        (TypeDef::Atomic(x), TypeDef::Atomic(y)) => x == y,
        (TypeDef::Unordered(ra), TypeDef::Unordered(rb)) => {
            // Inferred types are stars over symbol sets; the target must
            // accept every bag over the (pairwise simulated) symbols.
            let symbols = ra.atoms();
            // Each inferred symbol must map to some target symbol with the
            // same label whose type simulates.
            let mut mapped: Vec<SchemaAtom> = Vec::new();
            for sym in &symbols {
                let mut found = None;
                for tsym in rb.atoms() {
                    if tsym.label == sym.label && simulates(a, b, sym.target, tsym.target, assumed)
                    {
                        found = Some(tsym);
                        break;
                    }
                }
                match found {
                    Some(tsym) => mapped.push(tsym),
                    None => return false,
                }
            }
            // The target's language must include Σ_mapped* (arbitrary
            // multiplicities of the mapped symbols).
            let star = Regex::star(Regex::alt(mapped.iter().map(|&m| Regex::atom(m)).collect()));
            included(&glushkov::build(&star), &glushkov::build(rb))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skolem::{ConstructEdge, SkolemTerm};
    use ssd_base::SharedInterner;
    use ssd_model::parse_data_graph;
    use ssd_query::parse_query;
    use ssd_schema::{conforms, parse_schema};

    const BIB_SCHEMA: &str = r#"
        DOCUMENT = [(paper->PAPER)*];
        PAPER = [title->TITLE.(author->AUTHOR)*];
        AUTHOR = [name->NAME.email->EMAIL];
        NAME = [firstname->FIRSTNAME.lastname->LASTNAME];
        TITLE = string; FIRSTNAME = string;
        LASTNAME = string; EMAIL = string
    "#;

    fn bib_transform(pool: &SharedInterner) -> Transformation {
        let q = parse_query(
            "SELECT X, V WHERE Root = [paper -> P]; P = [_*.lastname -> X]; X = V",
            pool,
        )
        .unwrap();
        let x = q.var_by_name("X").unwrap();
        let v = q.var_by_name("V").unwrap();
        Transformation {
            query: q,
            rules: vec![
                ConstructEdge {
                    source: SkolemTerm::constant("Names"),
                    label: pool.intern("person"),
                    target: Target::Term(SkolemTerm::unary("P", x)),
                },
                ConstructEdge {
                    source: SkolemTerm::unary("P", x),
                    label: pool.intern("last"),
                    target: Target::CopyValue(v),
                },
            ],
            root_fun: "Names".to_owned(),
        }
    }

    #[test]
    fn inferred_schema_accepts_actual_outputs() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB_SCHEMA, &pool).unwrap();
        let t = bib_transform(&pool);
        let out_schema = infer_output_schema(&t, &s, &Session::new()).unwrap();

        let g = parse_data_graph(
            r#"o1 = [paper -> o2];
               o2 = [title -> o3, author -> o4];
               o3 = "T";
               o4 = [name -> o5, email -> o6];
               o5 = [firstname -> o7, lastname -> o8];
               o6 = "e"; o7 = "A"; o8 = "B""#,
            &pool,
        )
        .unwrap();
        let out = crate::eval::apply(&t, &g).unwrap();
        assert!(
            conforms(&out, &out_schema).is_some(),
            "output:\n{out}\nschema:\n{out_schema}"
        );
    }

    #[test]
    fn inferred_schema_is_specific() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB_SCHEMA, &pool).unwrap();
        let t = bib_transform(&pool);
        let out_schema = infer_output_schema(&t, &s, &Session::new()).unwrap();
        // The person nodes carry `last` leaves of type string only — no
        // int leaf type appears anywhere.
        for ty in out_schema.types() {
            if let Some(a) = out_schema.def(ty).atomic() {
                assert_eq!(a, AtomicType::Str);
            }
        }
    }

    #[test]
    fn check_against_permissive_and_restrictive_targets() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB_SCHEMA, &pool).unwrap();
        let t = bib_transform(&pool);
        // Permissive target: persons with any number of last names.
        let good = parse_schema(
            "ROOT = {(person->&P)*}; &P = {(last->L)*}; L = string",
            &pool,
        )
        .unwrap();
        assert!(check_output_schema(&t, &s, &good, &Session::new()).unwrap());
        // Restrictive target: last names must be ints.
        let bad =
            parse_schema("ROOT = {(person->&P)*}; &P = {(last->L)*}; L = int", &pool).unwrap();
        assert!(!check_output_schema(&t, &s, &bad, &Session::new()).unwrap());
        // Wrong label.
        let bad2 = parse_schema(
            "ROOT = {(human->&P)*}; &P = {(last->L)*}; L = string",
            &pool,
        )
        .unwrap();
        assert!(!check_output_schema(&t, &s, &bad2, &Session::new()).unwrap());
    }

    #[test]
    fn multi_variable_functions_are_rejected() {
        let pool = SharedInterner::new();
        let s = parse_schema(BIB_SCHEMA, &pool).unwrap();
        let q = parse_query("SELECT X, Y WHERE Root = [paper -> X, paper -> Y]", &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        let y = q.var_by_name("Y").unwrap();
        let t = Transformation {
            query: q,
            rules: vec![ConstructEdge {
                source: SkolemTerm::constant("Out"),
                label: pool.intern("pair"),
                target: Target::Term(SkolemTerm {
                    fun: "G".to_owned(),
                    args: vec![x, y],
                }),
            }],
            root_fun: "Out".to_owned(),
        };
        assert!(infer_output_schema(&t, &s, &Session::new()).is_err());
    }
}
