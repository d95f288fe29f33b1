//! Pattern and query ASTs (Table 1 of the paper).
//!
//! A selection query is `SELECT Var, … WHERE PatDef; …; PatDef`. Pattern
//! definitions bind *node variables* to values, value variables, or
//! (un)ordered collections of `L → nodeVar` pairs, where `L` is a regular
//! path expression or a *label variable*.
//!
//! Variable-kind convention (matching the paper's examples): identifiers
//! starting with an uppercase letter are variables (`Root`, `X1`, `V`);
//! lowercase identifiers are labels (`paper`, `author`).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ssd_automata::display::regex_to_string;
use ssd_automata::{LabelAtom, Regex};
use ssd_base::sync::OnceLock;
use ssd_base::{SharedInterner, Span, VarId};
use ssd_model::Value;

use crate::canonical::CanonicalQuery;
use crate::classify::QueryClass;

/// The kind of a variable, inferred from its syntactic positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// A node variable; `referenceable` if written `&X`.
    Node {
        /// Whether the variable is `&`-prefixed.
        referenceable: bool,
    },
    /// A label variable (used in edge-expression position).
    Label,
    /// A value variable (used in value position).
    Value,
}

/// An edge expression `L`: a regular path expression or a label variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EdgeExpr {
    /// A regular path expression over labels and `_`.
    Regex(Regex<LabelAtom>),
    /// A label variable (binds to a single label; the path has length 1).
    LabelVar(VarId),
}

/// One `L → nodeVar` entry of a pattern collection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatEdge {
    /// The path expression or label variable.
    pub expr: EdgeExpr,
    /// The node variable the path must end at.
    pub target: VarId,
}

/// The right-hand side of a pattern definition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PatDef {
    /// `X = v` — the node is atomic with exactly this value.
    Value(Value),
    /// `X = V` — the node is atomic; `V` binds its value.
    ValueVar(VarId),
    /// `X = {P}` — an unordered node satisfying the entries.
    Unordered(Vec<PatEdge>),
    /// `X = [P]` — an ordered node satisfying the entries in path order.
    Ordered(Vec<PatEdge>),
}

impl PatDef {
    /// The collection entries, if this is a collection pattern.
    pub fn edges(&self) -> &[PatEdge] {
        match self {
            PatDef::Unordered(es) | PatDef::Ordered(es) => es,
            _ => &[],
        }
    }

    /// Whether this is the ordered collection form.
    pub fn is_ordered(&self) -> bool {
        matches!(self, PatDef::Ordered(_))
    }
}

/// Source spans of one `L → nodeVar` entry of a collection definition.
#[derive(Clone, Debug, Default)]
pub struct EdgeSpans {
    /// The whole entry, `L -> Var`.
    pub entry: Span,
    /// The edge expression `L` alone.
    pub expr: Span,
    /// The top-level `|` branches of `L` (a single span when there is no
    /// top-level alternation; empty for label variables).
    pub branches: Vec<Span>,
}

/// Source spans of one pattern definition.
#[derive(Clone, Debug, Default)]
pub struct DefSpans {
    /// The whole definition, `Var = rhs`.
    pub whole: Span,
    /// The defined variable's occurrence on the left-hand side.
    pub var: Span,
    /// Per-entry spans (empty for value / value-variable definitions).
    pub edges: Vec<EdgeSpans>,
}

/// Source locations for a parsed [`Query`], kept as a side table so the
/// AST itself stays comparable and programmatically constructible
/// (generated queries simply have no spans).
///
/// Indices align with the query: `defs[i]` locates `query.defs()[i]`,
/// and `var_decls[v.index()]` locates variable `v`'s first occurrence.
#[derive(Clone, Debug, Default)]
pub struct QuerySpans {
    /// The original source text the spans index into.
    pub source: String,
    /// First-occurrence span per variable.
    pub var_decls: Vec<Span>,
    /// Per-definition spans, in `defs()` order.
    pub defs: Vec<DefSpans>,
}

impl QuerySpans {
    /// The spanned slice of the stored source, if in bounds.
    pub fn slice(&self, span: Span) -> Option<&str> {
        span.slice(&self.source)
    }
}

/// Facts derived from a query's immutable AST, computed together on
/// first use: the Table-2 class and the canonical memo-key encoding.
#[derive(Debug)]
struct Derived {
    class: QueryClass,
    canonical: CanonicalQuery,
}

/// A selection query.
#[derive(Clone, Debug)]
pub struct Query {
    pool: SharedInterner,
    var_names: Vec<String>,
    var_kinds: Vec<VarKind>,
    /// Pattern definitions in source order; the first is the root variable.
    defs: Vec<(VarId, PatDef)>,
    /// Definition index per node variable, if defined.
    def_of: Vec<Option<usize>>,
    select: Vec<VarId>,
    by_name: HashMap<String, VarId>,
    /// Source spans, when the query came from text (see [`QuerySpans`]).
    /// Deliberately not part of any equality or memoization key: spans
    /// never affect semantics.
    spans: Option<Arc<QuerySpans>>,
    /// The derived facts, filled on first use and shared by clones. The
    /// AST never changes after construction, so they never go stale;
    /// [`Query::with_def_replaced`] builds a new AST and starts empty.
    derived: OnceLock<Arc<Derived>>,
}

impl Query {
    pub(crate) fn from_parts(
        pool: SharedInterner,
        var_names: Vec<String>,
        var_kinds: Vec<VarKind>,
        defs: Vec<(VarId, PatDef)>,
        select: Vec<VarId>,
    ) -> Query {
        let by_name = var_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), VarId::from_usize(i)))
            .collect();
        let mut def_of = vec![None; var_names.len()];
        for (i, (v, _)) in defs.iter().enumerate() {
            def_of[v.index()] = Some(i);
        }
        Query {
            pool,
            var_names,
            var_kinds,
            defs,
            def_of,
            select,
            by_name,
            spans: None,
            derived: OnceLock::new(),
        }
    }

    /// Attaches parser-recorded source spans (parser only).
    pub(crate) fn set_spans(&mut self, spans: QuerySpans) {
        self.spans = Some(Arc::new(spans));
    }

    /// The source spans recorded by the parser, if this query came from
    /// text. Programmatically built or rewritten queries return `None`
    /// (spans are dropped by [`Query::with_def_replaced`], which changes
    /// the AST out from under them).
    pub fn spans(&self) -> Option<&QuerySpans> {
        self.spans.as_deref()
    }

    /// The label pool.
    pub fn pool(&self) -> &SharedInterner {
        &self.pool
    }

    /// Number of variables (node + label + value).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// All variables.
    pub fn vars(&self) -> impl Iterator<Item = VarId> {
        (0..self.var_names.len()).map(VarId::from_usize)
    }

    /// The variable's kind.
    pub fn kind(&self, v: VarId) -> VarKind {
        self.var_kinds[v.index()]
    }

    /// The variable's source name.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.by_name.get(name).copied()
    }

    /// The pattern definitions, in source order.
    pub fn defs(&self) -> &[(VarId, PatDef)] {
        &self.defs
    }

    /// The definition of node variable `v`, if any.
    pub fn def(&self, v: VarId) -> Option<&PatDef> {
        self.def_of[v.index()].map(|i| &self.defs[i].1)
    }

    /// The root variable (owner of the first definition).
    pub fn root_var(&self) -> VarId {
        self.defs[0].0
    }

    /// The SELECT list.
    pub fn select(&self) -> &[VarId] {
        &self.select
    }

    /// Query size: total AST nodes across all definitions (the `|Q|` of the
    /// complexity experiments).
    pub fn size(&self) -> usize {
        self.defs
            .iter()
            .map(|(_, d)| match d {
                PatDef::Value(_) | PatDef::ValueVar(_) => 1,
                PatDef::Unordered(es) | PatDef::Ordered(es) => es
                    .iter()
                    .map(|e| match &e.expr {
                        EdgeExpr::Regex(r) => 1 + r.size(),
                        EdgeExpr::LabelVar(_) => 2,
                    })
                    .sum::<usize>(),
            })
            .sum()
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            Arc::new(Derived {
                class: QueryClass::of(self),
                canonical: CanonicalQuery::of(self),
            })
        })
    }

    /// The query's Table-2 classification ([`QueryClass::of`]), computed
    /// once per query.
    pub fn class(&self) -> &QueryClass {
        &self.derived().class
    }

    /// The query's canonical structural encoding (the memo-key prefix),
    /// computed once per query.
    pub fn canonical(&self) -> &CanonicalQuery {
        &self.derived().canonical
    }

    /// Rewrites the definition at index `i` (used by feedback queries).
    /// Spans are dropped: they would no longer describe the rewritten AST.
    /// So are the derived facts: the rewrite may change the class and
    /// the key.
    pub fn with_def_replaced(&self, i: usize, def: PatDef) -> Query {
        let mut q = self.clone();
        q.defs[i].1 = def;
        q.spans = None;
        q.derived = OnceLock::new();
        q
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, v) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_names[v.index()])?;
        }
        write!(f, "\nWHERE ")?;
        for (i, (v, def)) in self.defs.iter().enumerate() {
            if i > 0 {
                write!(f, ";\n      ")?;
            }
            let amp = match self.var_kinds[v.index()] {
                VarKind::Node {
                    referenceable: true,
                } => "&",
                _ => "",
            };
            write!(f, "{amp}{} = ", self.var_names[v.index()])?;
            match def {
                PatDef::Value(val) => write!(f, "{val}")?,
                PatDef::ValueVar(vv) => write!(f, "{}", self.var_names[vv.index()])?,
                PatDef::Unordered(es) | PatDef::Ordered(es) => {
                    let (open, close) = if def.is_ordered() {
                        ('[', ']')
                    } else {
                        ('{', '}')
                    };
                    write!(f, "{open}")?;
                    for (j, e) in es.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        match &e.expr {
                            EdgeExpr::Regex(r) => {
                                let s = regex_to_string(r, &mut |a: &LabelAtom| match a {
                                    LabelAtom::Label(l) => self.pool.resolve(*l),
                                    LabelAtom::Any => "_".to_owned(),
                                });
                                write!(f, "{s}")?;
                            }
                            EdgeExpr::LabelVar(lv) => write!(f, "{}", self.var_names[lv.index()])?,
                        }
                        let tamp = match self.var_kinds[e.target.index()] {
                            VarKind::Node {
                                referenceable: true,
                            } => "&",
                            _ => "",
                        };
                        write!(f, " -> {tamp}{}", self.var_names[e.target.index()])?;
                    }
                    write!(f, "{close}")?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn accessors_on_paper_query() {
        let pool = SharedInterner::new();
        let q = parse_query(
            r#"SELECT X1
               WHERE Root = [paper -> X1];
                     X1 = [author.name._* -> X2, author.name._* -> X3];
                     X2 = "Vianu"; X3 = "Abiteboul""#,
            &pool,
        )
        .unwrap();
        assert_eq!(q.select().len(), 1);
        let x1 = q.var_by_name("X1").unwrap();
        assert_eq!(q.select()[0], x1);
        assert_eq!(q.var_name(q.root_var()), "Root");
        assert!(matches!(q.kind(x1), VarKind::Node { .. }));
        assert!(q.def(x1).unwrap().is_ordered());
        assert_eq!(q.def(x1).unwrap().edges().len(), 2);
        assert!(q.size() > 5);
    }

    #[test]
    fn display_round_trips() {
        let pool = SharedInterner::new();
        let src = r#"SELECT X2
            WHERE Root = {a.b* -> X1, L -> X2};
                  X1 = [c -> &X3];
                  &X3 = V"#;
        let q = parse_query(src, &pool).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed, &pool).unwrap();
        assert_eq!(q.num_vars(), q2.num_vars());
        assert_eq!(q.defs().len(), q2.defs().len());
        assert_eq!(printed, q2.to_string());
    }
}
