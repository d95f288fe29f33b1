//! Selection queries over semistructured data (Milo & Suciu, PODS 1999,
//! §2): patterns with regular path expressions, node/label/value
//! variables, `SELECT … WHERE` syntax, classification along the axes of
//! Table 2, and a reference evaluator implementing Definitions 2.2/2.3.

#![deny(missing_docs)]

pub mod binding;
pub mod canonical;
pub mod classify;
pub mod eval;
pub mod parser;
pub mod pattern;

pub use binding::{Binding, Bound};
pub use canonical::CanonicalQuery;
pub use classify::QueryClass;
pub use eval::{evaluate, is_nonempty, select_results};
pub use parser::parse_query;
pub use pattern::{DefSpans, EdgeExpr, EdgeSpans, PatDef, PatEdge, Query, QuerySpans, VarKind};
