//! The traces technique of Milo & Suciu (PODS 1999, Section 3): type
//! correctness (satisfiability), total and partial type checking, and type
//! inference for selection queries over ScmDL schemas.
//!
//! The crate implements both sides of the paper's complexity map (Table 2):
//!
//! * **PTIME algorithms** — the trace-product engine for join-free queries
//!   over ordered schemas ([`feas`]), the tagged/constant-suffix algorithm
//!   for `DTD−`/`DTD+` schemas ([`tagged`]), and total type checking for
//!   ordered schemas ([`typecheck`]);
//! * **the general case** — a complete search with witness construction
//!   ([`solver`]) for unordered types, joins, and label-variable joins,
//!   exponential in the worst case (the problems are NP-complete);
//! * the literal single-definition `Tr(P)`/`Tr(S)` construction
//!   ([`ptraces`]), used by the feedback and optimizer applications;
//! * a dispatcher ([`dispatch`]) choosing the right algorithm from the
//!   query/schema classification, and [`infer`] for enumeration.

#![deny(missing_docs)]

pub mod dispatch;
pub mod feas;
pub mod infer;
pub mod marker;
pub mod memo;
pub mod ptraces;
pub mod session;
mod snapshot;
pub mod solver;
pub mod tagged;
pub mod typecheck;
pub mod witness;

pub use dispatch::{satisfiable_with_in_b, Algorithm, SatOutcome};
pub use feas::{Constraints, FeasAnalysis};
pub use infer::{infer_in_b, InferredAssignment};
pub use marker::{TraceAtom, TraceSym};
pub use memo::FeasKey;
pub use session::{Session, SessionLimits, SessionStats};
pub use typecheck::{partial_type_check_in_b, total_type_check_in_b, TypeAssignment};

pub use ssd_base::budget::{Budget, BudgetResult, Exhausted, Verdict};
pub use ssd_base::Result;
pub use ssd_snapshot::{LoadOutcome, RejectReason};
