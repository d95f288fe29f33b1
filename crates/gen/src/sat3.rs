//! The 3SAT reduction behind Theorem 3.1.
//!
//! Satisfiability of selection queries is NP-hard already for *join-free*
//! queries over schemas with rigid unordered types ("the interaction of
//! regular expressions and joins in the query with untagged union types
//! and unordered data"). The encoding:
//!
//! * schema: `ROOT = {x₁→V₁ . … . xₙ→Vₙ}` (exactly one edge per
//!   propositional variable), `Vᵢ = {t→B | f→B}` (exactly one child,
//!   labeled `t` or `f`) — instances of the schema are exactly the truth
//!   assignments;
//! * query: one entry per clause, `(xₐ.t | x_b.f | x_c.t) → Y_j` from the
//!   root — the path picks a satisfied literal. Distinct clause paths may
//!   share the `xᵢ` first edges (the paper's set semantics), and the
//!   single `t`/`f` child under each `Vᵢ` forces all clauses to read one
//!   consistent assignment.
//!
//! Hence the query is satisfiable w.r.t. the schema iff the formula is
//! satisfiable. The general solver therefore exhibits the expected
//! exponential behaviour on this family (`benches/table2_np.rs`).

use ssd_base::rng::Rng;

/// A literal: variable index and polarity (`true` = positive).
pub type Lit = (usize, bool);

/// A 3SAT instance.
#[derive(Clone, Debug)]
pub struct Sat3 {
    /// Number of propositional variables.
    pub num_vars: usize,
    /// Clauses of exactly three literals.
    pub clauses: Vec<[Lit; 3]>,
}

impl Sat3 {
    /// Generates a random instance with `num_vars` variables and
    /// `num_clauses` clauses.
    pub fn random(rng: &mut impl Rng, num_vars: usize, num_clauses: usize) -> Sat3 {
        assert!(num_vars >= 3);
        let mut clauses = Vec::with_capacity(num_clauses);
        for _ in 0..num_clauses {
            let mut vars = [0usize; 3];
            vars[0] = rng.gen_range(0..num_vars);
            loop {
                vars[1] = rng.gen_range(0..num_vars);
                if vars[1] != vars[0] {
                    break;
                }
            }
            loop {
                vars[2] = rng.gen_range(0..num_vars);
                if vars[2] != vars[0] && vars[2] != vars[1] {
                    break;
                }
            }
            clauses.push([
                (vars[0], rng.gen_bool(0.5)),
                (vars[1], rng.gen_bool(0.5)),
                (vars[2], rng.gen_bool(0.5)),
            ]);
        }
        Sat3 { num_vars, clauses }
    }

    /// Brute-force satisfiability (for cross-checking; exponential).
    pub fn brute_force(&self) -> bool {
        assert!(self.num_vars <= 24, "brute force limited to 24 variables");
        'assignments: for bits in 0u64..(1 << self.num_vars) {
            for clause in &self.clauses {
                let sat = clause.iter().any(|&(v, pos)| ((bits >> v) & 1 == 1) == pos);
                if !sat {
                    continue 'assignments;
                }
            }
            return true;
        }
        false
    }

    /// The schema of the reduction (textual ScmDL).
    pub fn schema_text(&self) -> String {
        let mut out = String::from("ROOT = {");
        for i in 0..self.num_vars {
            if i > 0 {
                out.push('.');
            }
            out.push_str(&format!("x{i}->V{i}"));
        }
        out.push_str("};\n");
        for i in 0..self.num_vars {
            out.push_str(&format!("V{i} = {{t->B | f->B}};\n"));
        }
        out.push_str("B = int");
        out
    }

    /// The query of the reduction (textual).
    pub fn query_text(&self) -> String {
        let mut out = String::from("SELECT WHERE Root = {");
        for (j, clause) in self.clauses.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let alts: Vec<String> = clause
                .iter()
                .map(|&(v, pos)| format!("x{v}.{}", if pos { "t" } else { "f" }))
                .collect();
            out.push_str(&format!("({}) -> Y{j}", alts.join("|")));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::rng::StdRng;
    use ssd_base::SharedInterner;
    use ssd_core::{solver, Budget, Constraints, Session};
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    fn reduce_and_solve(f: &Sat3) -> bool {
        let pool = SharedInterner::new();
        let s = parse_schema(&f.schema_text(), &pool).unwrap();
        let q = parse_query(&f.query_text(), &pool).unwrap();
        let none = Constraints::none();
        solver::solve_with_in_b(&q, &s, &none, &Session::new(), Budget::unlimited_ref())
            .unwrap()
            .satisfiable
    }

    #[test]
    fn hand_instances() {
        // (x0 ∨ x1 ∨ x2) — trivially satisfiable.
        let f = Sat3 {
            num_vars: 3,
            clauses: vec![[(0, true), (1, true), (2, true)]],
        };
        assert!(f.brute_force());
        assert!(reduce_and_solve(&f));

        // x0 ∧ ¬x0 forced through two 3-clauses sharing dummies pinned
        // both ways: (x0∨x1∨x2)(¬x0∨x1∨x2)(x0∨¬x1∨¬x2)(¬x0∨¬x1∨¬x2)
        // (x0∨¬x1∨x2)(¬x0∨x1∨¬x2)(x0∨x1∨¬x2)(¬x0∨¬x1∨x2) — all eight
        // sign patterns = unsatisfiable.
        let mut clauses = Vec::new();
        for bits in 0..8u8 {
            clauses.push([(0, bits & 1 != 0), (1, bits & 2 != 0), (2, bits & 4 != 0)]);
        }
        let f2 = Sat3 {
            num_vars: 3,
            clauses,
        };
        assert!(!f2.brute_force());
        assert!(!reduce_and_solve(&f2));
    }

    #[test]
    fn random_instances_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..12 {
            let f = Sat3::random(&mut rng, 4, 6 + trial % 4);
            assert_eq!(reduce_and_solve(&f), f.brute_force(), "instance {f:?}");
        }
    }

    #[test]
    fn reduction_artifacts_are_in_the_expected_classes() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = Sat3::random(&mut rng, 4, 5);
        let pool = SharedInterner::new();
        let s = parse_schema(&f.schema_text(), &pool).unwrap();
        let q = parse_query(&f.query_text(), &pool).unwrap();
        let sc = ssd_schema::SchemaClass::of(&s);
        assert!(!sc.ordered);
        assert!(!sc.homogeneous_unordered);
        let qc = ssd_query::QueryClass::of(&q);
        assert!(qc.join_free(), "the reduction uses join-free queries");
    }
}
