//! Canonical structural fingerprints for queries and constraints — the
//! keys of the session-level feas-analysis memo.
//!
//! The trace-product analysis ([`crate::feas`]) is a pure function of
//! `(schema, query structure, constraints)`: it reads variable kinds,
//! pattern definitions (with their path regexes as `LabelId` structures),
//! and the pinned types/labels/leaves — never variable names, interner
//! pools, or any ambient state. [`FeasKey`] captures exactly that input as
//! an injective byte encoding (every variable-length field is
//! length-prefixed, every enum case tagged, so decoding is unambiguous),
//! plus an FNV-1a fingerprint of the bytes for O(1) hashing. The query
//! half of the encoding lives in [`ssd_query::canonical`] and is computed
//! once per query, so building a key costs only its pin section.
//!
//! Like [`ssd_automata::HcRegex`], the fingerprint is only the fast
//! pre-key: map lookups compare the stored canonical bytes, so a 64-bit
//! collision can never alias two structurally distinct queries — it only
//! costs a bucket walk. `tests/feas_memo_prop.rs` checks injectivity (and
//! collision-freedom in practice) on random corpora.

use ssd_base::fnv1a64;
use ssd_query::Query;
use std::sync::Arc;

use crate::feas::Constraints;

/// A canonical, structural memo key for `(query, constraints)`.
///
/// `Hash` writes only the precomputed fingerprint; `Eq` compares the full
/// canonical encoding, so hash collisions are disambiguated by stored key
/// equality exactly as in the hash-consing table.
#[derive(Clone, Debug)]
pub struct FeasKey {
    fp: u64,
    bytes: Arc<[u8]>,
}

impl FeasKey {
    /// The canonical key of `q` under `c`: the query's cached structural
    /// encoding ([`Query::canonical`]) followed by the pin section. Only
    /// the pins are encoded and hashed here; a key without pins shares
    /// the query's cached bytes instead of copying them.
    pub fn new(q: &Query, c: &Constraints) -> FeasKey {
        let canon = q.canonical();
        if c.var_types.is_empty() && c.label_vars.is_empty() && c.leaf_vars.is_empty() {
            return FeasKey {
                fp: canon.unpinned_fingerprint(),
                bytes: Arc::clone(canon.unpinned()),
            };
        }
        let mut types: Vec<_> = c.var_types.iter().map(|(v, t)| (v.0, t.0)).collect();
        let mut labels: Vec<_> = c.label_vars.iter().map(|(v, l)| (v.0, l.0)).collect();
        let mut leaves: Vec<_> = c.leaf_vars.iter().map(|v| v.0).collect();
        let (fp, bytes) = canon.pinned(&mut types, &mut labels, &mut leaves);
        FeasKey {
            fp,
            bytes: bytes.into(),
        }
    }

    /// The 64-bit FNV-1a fingerprint of the canonical bytes.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// The canonical byte encoding (injective on query/constraint
    /// structure).
    pub fn canonical_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Reconstructs a key from stored canonical bytes (the snapshot-load
    /// path). The fingerprint is recomputed from the bytes, so a key
    /// whose bytes survived a checksummed round trip is identical to the
    /// live one — and a corrupted byte stream yields a key that simply
    /// never matches a live query, which is harmless.
    pub fn from_canonical_bytes(bytes: &[u8]) -> FeasKey {
        FeasKey {
            fp: fnv1a64(bytes),
            bytes: bytes.into(),
        }
    }
}

impl PartialEq for FeasKey {
    fn eq(&self, other: &Self) -> bool {
        self.fp == other.fp && self.bytes == other.bytes
    }
}

impl Eq for FeasKey {}

impl std::hash::Hash for FeasKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.fp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;

    // Labels are encoded as `LabelId`s, which only carry meaning relative
    // to an interner pool (queries and schemas must share one for the
    // engine to compare them at all — and the schema uid is part of the
    // memo key), so all corpus queries here go through one shared pool.
    fn key_in(pool: &SharedInterner, src: &str) -> FeasKey {
        let q = parse_query(src, pool).unwrap();
        FeasKey::new(&q, &Constraints::none())
    }

    #[test]
    fn equal_structure_encodes_equal() {
        let pool = SharedInterner::new();
        let a = key_in(&pool, "SELECT X WHERE Root = [a.b* -> X, c -> Y]");
        let b = key_in(&pool, "SELECT X WHERE Root = [a.b* -> X, c -> Y]");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn alpha_renaming_shares_a_key() {
        // Names are not part of the analysis input; only indices/kinds are.
        let pool = SharedInterner::new();
        let a = key_in(&pool, "SELECT X WHERE Root = [a -> X, b -> Y]");
        let b = key_in(&pool, "SELECT P WHERE Start = [a -> P, b -> Q]");
        assert_eq!(a, b);
    }

    #[test]
    fn structural_differences_change_the_key() {
        let pool = SharedInterner::new();
        let base = key_in(&pool, "SELECT X WHERE Root = [a.b -> X]");
        for other in [
            "SELECT X WHERE Root = [a.c -> X]",  // label
            "SELECT X WHERE Root = [a.b* -> X]", // closure
            "SELECT X WHERE Root = {a.b -> X}",  // unordered
            "SELECT X WHERE Root = [a.b -> &X]", // referenceable
            "SELECT X WHERE Root = [a.b -> X, a.b -> Y]",
            "SELECT X, Y WHERE Root = [a.b -> X, _ -> Y]",
        ] {
            let k = key_in(&pool, other);
            assert_ne!(base.canonical_bytes(), k.canonical_bytes(), "{other}");
            assert_ne!(base, k, "{other}");
        }
    }

    #[test]
    fn select_list_and_constraints_are_part_of_the_key() {
        let pool = SharedInterner::new();
        let q = parse_query("SELECT X WHERE Root = [a -> X, b -> Y]", &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        let plain = FeasKey::new(&q, &Constraints::none());
        let pinned = FeasKey::new(&q, &Constraints::none().pin_type(x, ssd_base::TypeIdx(1)));
        let leafed = FeasKey::new(&q, &Constraints::none().leaf(x));
        assert_ne!(plain, pinned);
        assert_ne!(plain, leafed);
        assert_ne!(pinned, leafed);

        let q2 = parse_query("SELECT Y WHERE Root = [a -> X, b -> Y]", &pool).unwrap();
        assert_ne!(plain, FeasKey::new(&q2, &Constraints::none()));
    }

    #[test]
    fn constraint_insertion_order_is_canonicalized() {
        let pool = SharedInterner::new();
        let q = parse_query("SELECT X, Y WHERE Root = [a -> X, b -> Y]", &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        let y = q.var_by_name("Y").unwrap();
        let (t1, t2) = (ssd_base::TypeIdx(1), ssd_base::TypeIdx(2));
        let ab = Constraints::none().pin_type(x, t1).pin_type(y, t2);
        let ba = Constraints::none().pin_type(y, t2).pin_type(x, t1);
        assert_eq!(FeasKey::new(&q, &ab), FeasKey::new(&q, &ba));
    }
}
