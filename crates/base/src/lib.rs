//! Shared substrate for the `ssd` workspace.
//!
//! This crate provides the small building blocks every other crate relies
//! on: interned labels (the universe `A` of the paper), strongly-typed
//! identifiers, multisets (the bags used by unordered languages), and the
//! common error type.

#![deny(missing_docs)]

pub mod budget;
pub mod bytes;
pub mod error;
pub mod ids;
pub mod interner;
pub mod limits;
pub mod multiset;
pub mod rng;
pub mod span;
pub mod sync;

pub use budget::{Budget, BudgetResult, Exhausted, Meter, TripReason, Verdict};
pub use bytes::{crc32, crc32_update, fnv1a64, fnv1a64_extend, ByteReader, ByteWriter};
pub use error::{Error, Result};
pub use ids::{LabelId, OidId, TypeIdx, VarId};
pub use interner::{Interner, SharedInterner};
pub use multiset::Multiset;
pub use rng::{Rng, StdRng};
pub use span::{LineMap, Span, Spanned};
