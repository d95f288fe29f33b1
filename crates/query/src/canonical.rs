//! The canonical structural encoding of a query — the query half of the
//! session's feas-memo key (`ssd_core::FeasKey`).
//!
//! The trace-product analysis reads variable kinds (by index), pattern
//! definitions with their path regexes as `LabelId` structures, and the
//! SELECT list — never variable *names*, interner pools, or any ambient
//! state. The encoding captures exactly that input, injectively: every
//! variable-length field is length-prefixed and every enum case tagged,
//! so decoding is unambiguous. A memo key is this structural encoding
//! followed by a *pin section*: the pinned `(variable, type)` pairs, the
//! pinned `(label variable, label)` pairs and the leaf variables, each
//! list sorted and length-prefixed.
//!
//! Queries are immutable, so [`Query::canonical`] computes the encoding
//! once per query, together with the FNV-1a state after it: a key with
//! pins then encodes and hashes only the pin section
//! ([`CanonicalQuery::pinned`]), and a key without pins shares the cached
//! bytes outright ([`CanonicalQuery::unpinned`]).

use std::sync::Arc;

use ssd_automata::{LabelAtom, Regex};
use ssd_base::{fnv1a64, fnv1a64_extend};
use ssd_model::Value;

use crate::pattern::{EdgeExpr, PatDef, Query, VarKind};

/// A query's canonical encoding, computed once per query
/// ([`Query::canonical`]).
#[derive(Debug)]
pub struct CanonicalQuery {
    /// The structural encoding followed by the empty pin section: the
    /// full memo key of the query under no pins.
    unpinned: Arc<[u8]>,
    /// Length of the structural encoding (the prefix of `unpinned`).
    structure_len: usize,
    /// FNV-1a state after the structural encoding.
    structure_state: u64,
    /// FNV-1a fingerprint of `unpinned`.
    unpinned_fp: u64,
}

impl CanonicalQuery {
    pub(crate) fn of(q: &Query) -> CanonicalQuery {
        let mut buf = Vec::with_capacity(64 + 8 * q.size());
        encode_query(q, &mut buf);
        let structure_len = buf.len();
        let structure_state = fnv1a64(&buf);
        encode_pins(&mut [], &mut [], &mut [], &mut buf);
        let unpinned_fp = fnv1a64_extend(structure_state, &buf[structure_len..]);
        CanonicalQuery {
            unpinned: buf.into(),
            structure_len,
            structure_state,
            unpinned_fp,
        }
    }

    /// The structural encoding alone (the prefix every memo key of this
    /// query starts with).
    pub fn structure(&self) -> &[u8] {
        &self.unpinned[..self.structure_len]
    }

    /// The full key bytes under no pins: the structure followed by the
    /// empty pin section. Shared, so keys built from it hold no copy.
    pub fn unpinned(&self) -> &Arc<[u8]> {
        &self.unpinned
    }

    /// The FNV-1a fingerprint of [`CanonicalQuery::unpinned`].
    pub fn unpinned_fingerprint(&self) -> u64 {
        self.unpinned_fp
    }

    /// The key bytes and their FNV-1a fingerprint under pins: the
    /// structure followed by the pin section, hashed by continuing the
    /// cached state over the pins alone. Each list may come in any order
    /// (it is sorted in place), so equal pin sets give equal keys.
    pub fn pinned(
        &self,
        types: &mut [(u32, u32)],
        labels: &mut [(u32, u32)],
        leaves: &mut [u32],
    ) -> (u64, Vec<u8>) {
        let structure = self.structure();
        let pins = 12 + 8 * (types.len() + labels.len()) + 4 * leaves.len();
        let mut buf = Vec::with_capacity(structure.len() + pins);
        buf.extend_from_slice(structure);
        encode_pins(types, labels, leaves, &mut buf);
        let fp = fnv1a64_extend(self.structure_state, &buf[structure.len()..]);
        (fp, buf)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(buf: &mut Vec<u8>, v: usize) {
    put_u32(buf, u32::try_from(v).expect("encoding length overflow"));
}

/// Encodes a pin section, sorting each list first.
fn encode_pins(
    types: &mut [(u32, u32)],
    labels: &mut [(u32, u32)],
    leaves: &mut [u32],
    buf: &mut Vec<u8>,
) {
    types.sort_unstable();
    put_usize(buf, types.len());
    for &(v, t) in types.iter() {
        put_u32(buf, v);
        put_u32(buf, t);
    }
    labels.sort_unstable();
    put_usize(buf, labels.len());
    for &(v, l) in labels.iter() {
        put_u32(buf, v);
        put_u32(buf, l);
    }
    leaves.sort_unstable();
    put_usize(buf, leaves.len());
    for &v in leaves.iter() {
        put_u32(buf, v);
    }
}

/// Encodes everything the engines read from a query: variable kinds (by
/// index), the definitions in source order, and the SELECT list. Variable
/// *names* are deliberately excluded — the analysis never reads them, so
/// alpha-renamed queries share one memo entry.
fn encode_query(q: &Query, buf: &mut Vec<u8>) {
    put_usize(buf, q.num_vars());
    for v in q.vars() {
        buf.push(match q.kind(v) {
            VarKind::Node {
                referenceable: false,
            } => 0,
            VarKind::Node {
                referenceable: true,
            } => 1,
            VarKind::Label => 2,
            VarKind::Value => 3,
        });
    }
    put_usize(buf, q.defs().len());
    for (v, def) in q.defs() {
        put_usize(buf, v.index());
        match def {
            PatDef::Value(val) => {
                buf.push(0);
                encode_value(val, buf);
            }
            PatDef::ValueVar(vv) => {
                buf.push(1);
                put_usize(buf, vv.index());
            }
            PatDef::Unordered(entries) | PatDef::Ordered(entries) => {
                buf.push(if def.is_ordered() { 3 } else { 2 });
                put_usize(buf, entries.len());
                for e in entries {
                    match &e.expr {
                        EdgeExpr::Regex(r) => {
                            buf.push(0);
                            encode_regex(r, buf);
                        }
                        EdgeExpr::LabelVar(lv) => {
                            buf.push(1);
                            put_usize(buf, lv.index());
                        }
                    }
                    put_usize(buf, e.target.index());
                }
            }
        }
    }
    put_usize(buf, q.select().len());
    for v in q.select() {
        put_usize(buf, v.index());
    }
}

/// Preorder structural encoding of a path regex. Tags disambiguate every
/// variant and n-ary nodes carry their arity, so the encoding is injective.
fn encode_regex(r: &Regex<LabelAtom>, buf: &mut Vec<u8>) {
    match r {
        Regex::Empty => buf.push(0),
        Regex::Epsilon => buf.push(1),
        Regex::Atom(LabelAtom::Any) => buf.push(2),
        Regex::Atom(LabelAtom::Label(l)) => {
            buf.push(3);
            put_u32(buf, l.0);
        }
        Regex::Star(inner) => {
            buf.push(4);
            encode_regex(inner, buf);
        }
        Regex::Plus(inner) => {
            buf.push(5);
            encode_regex(inner, buf);
        }
        Regex::Opt(inner) => {
            buf.push(6);
            encode_regex(inner, buf);
        }
        Regex::Concat(parts) => {
            buf.push(7);
            put_usize(buf, parts.len());
            for p in parts {
                encode_regex(p, buf);
            }
        }
        Regex::Alt(parts) => {
            buf.push(8);
            put_usize(buf, parts.len());
            for p in parts {
                encode_regex(p, buf);
            }
        }
    }
}

/// Encodes a constant value with bitwise identity semantics (floats by
/// bits, matching the engine's `Value` equality).
fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(1);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(2);
            put_usize(buf, s.len());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Bool(b) => {
            buf.push(3);
            buf.push(u8::from(*b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use ssd_base::SharedInterner;

    #[test]
    fn unpinned_key_is_structure_plus_empty_pins() {
        let pool = SharedInterner::new();
        let q = parse_query("SELECT X WHERE Root = [a.b* -> X, c -> Y]", &pool).unwrap();
        let c = q.canonical();
        let mut expect = c.structure().to_vec();
        encode_pins(&mut [], &mut [], &mut [], &mut expect);
        assert_eq!(&c.unpinned()[..], &expect[..]);
        assert_eq!(c.structure_state, fnv1a64(c.structure()));
        assert_eq!(c.unpinned_fingerprint(), fnv1a64(&expect));
        assert_eq!(c.pinned(&mut [], &mut [], &mut []), (c.unpinned_fp, expect));
    }
}
