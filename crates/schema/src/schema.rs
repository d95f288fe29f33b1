//! The schema container: named type definitions with cached automata.

use ssd_base::sync::{Arc, OnceLock};
use std::collections::HashMap;
use std::fmt;

use ssd_automata::compiled::{self, CompiledDfa};
use ssd_automata::display::regex_to_string;
use ssd_automata::glushkov;
use ssd_automata::{dfa, Nfa};
use ssd_base::span::format_location;
use ssd_base::{Budget, Error, LabelId, Result, SharedInterner, Span, TypeIdx};

use crate::classify::{self, SchemaClass, TagMap};
use crate::types::{SchemaAtom, TypeDef, TypeKind};

/// Facts derived from a schema's immutable definitions, computed together
/// on first use: the Table-2 class and, if tagged, the tag map.
struct Derived {
    class: SchemaClass,
    tags: Option<TagMap>,
}

/// Source locations for a parsed [`Schema`], kept as a side table so the
/// schema itself stays programmatically constructible (built schemas
/// simply have no spans). Indices align with [`Schema::types`].
#[derive(Clone, Debug, Default)]
pub struct SchemaSpans {
    /// The original source text the spans index into.
    pub source: String,
    /// Span of each type's defining name occurrence ([`Span::DUMMY`] when
    /// the type was only referenced, never textually defined).
    pub names: Vec<Span>,
    /// Span of each whole type definition (`Tid = Type`).
    pub defs: Vec<Span>,
}

impl SchemaSpans {
    /// The spanned slice of the stored source, if in bounds.
    pub fn slice(&self, span: Span) -> Option<&str> {
        span.slice(&self.source)
    }
}

/// A schema: a sequence of type definitions; the first is the root type.
///
/// Collection types carry a Glushkov automaton for their regex, built once
/// at construction and shared by every algorithm downstream.
#[derive(Clone)]
pub struct Schema {
    pool: SharedInterner,
    names: Vec<String>,
    referenceable: Vec<bool>,
    defs: Vec<TypeDef>,
    nfas: Vec<Option<Nfa<SchemaAtom>>>,
    /// Lazily built compiled DFAs, one slot per collection type: `None`
    /// inside an initialized slot means determinization tripped its
    /// internal fuel cap (adversarial regexes can blow up the subset
    /// construction), and callers fall back to the NFA. Clones share the
    /// same initialization state at clone time; slots initialized later
    /// diverge harmlessly (both sides rebuild the identical pure value).
    compiled: Vec<OnceLock<Option<Arc<CompiledDfa<SchemaAtom>>>>>,
    by_name: HashMap<String, TypeIdx>,
    root: TypeIdx,
    /// Process-unique identity, minted once at construction. Schemas are
    /// immutable after `finish()`, so the uid is a sound memoization key
    /// for derived structures (e.g. a session's `TypeGraph` cache); clones
    /// share it, as they share the same content.
    uid: u64,
    /// Source spans, when the schema came from text. Never part of any
    /// equality or memoization key: spans do not affect semantics.
    spans: Option<Arc<SchemaSpans>>,
    /// The derived facts, filled on first use and shared by clones
    /// (sound for the same reason as the uid: the content never changes).
    derived: OnceLock<Arc<Derived>>,
}

impl Schema {
    /// The label pool.
    pub fn pool(&self) -> &SharedInterner {
        &self.pool
    }

    /// A process-unique identity for this schema (shared by clones).
    /// Sound as a cache key because schemas are immutable once built.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The root type.
    pub fn root(&self) -> TypeIdx {
        self.root
    }

    /// Number of type definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the schema has no types (never true once built).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definition of `t`.
    pub fn def(&self, t: TypeIdx) -> &TypeDef {
        &self.defs[t.index()]
    }

    /// The kind of `t`.
    pub fn kind(&self, t: TypeIdx) -> TypeKind {
        self.defs[t.index()].kind()
    }

    /// The cached Glushkov automaton of `t`'s regex (collection types only).
    pub fn nfa(&self, t: TypeIdx) -> Option<&Nfa<SchemaAtom>> {
        self.nfas[t.index()].as_ref()
    }

    /// Determinization fuel cap for [`Schema::compiled`]: generous for
    /// any realistic content model, but bounded so an adversarial regex
    /// (exponential subset construction) degrades to the NFA path instead
    /// of stalling schema use.
    const COMPILE_FUEL: u64 = 10_000;

    /// The compiled dense-table DFA of `t`'s regex, built lazily on first
    /// use (collection types only). Returns `None` for atomic types and
    /// for regexes whose determinization exceeds an internal fuel cap —
    /// callers must then fall back to [`Schema::nfa`], which decides the
    /// same language.
    pub fn compiled(&self, t: TypeIdx) -> Option<&Arc<CompiledDfa<SchemaAtom>>> {
        self.compiled[t.index()]
            .get_or_init(|| {
                let nfa = self.nfas[t.index()].as_ref()?;
                let budget = Budget::unlimited().with_fuel(Self::COMPILE_FUEL);
                let d = dfa::determinize_b(nfa, &budget).ok()?;
                let d = dfa::minimize_b(&d, &budget).ok()?;
                Some(Arc::new(compiled::compile(&d)))
            })
            .as_ref()
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| {
            let (class, tags) = classify::classify(self);
            Arc::new(Derived { class, tags })
        })
    }

    /// The schema's Table-2 classification ([`SchemaClass::of`]),
    /// computed once per schema.
    pub fn class(&self) -> &SchemaClass {
        &self.derived().class
    }

    /// The tag map of a tagged schema — for each label, the unique type it
    /// points to — or `None` if the schema is not tagged. Computed once
    /// per schema, together with [`Schema::class`].
    pub fn tags(&self) -> Option<&HashMap<LabelId, TypeIdx>> {
        self.derived().tags.as_ref()
    }

    /// Whether `t` is referenceable (`&`-prefixed name).
    pub fn is_referenceable(&self, t: TypeIdx) -> bool {
        self.referenceable[t.index()]
    }

    /// The source name of `t` (without `&`).
    pub fn name(&self, t: TypeIdx) -> &str {
        &self.names[t.index()]
    }

    /// Looks up a type by name.
    pub fn by_name(&self, name: &str) -> Option<TypeIdx> {
        self.by_name.get(name).copied()
    }

    /// The source spans recorded by the parser, if this schema came from
    /// text. Programmatically built schemas return `None`.
    pub fn spans(&self) -> Option<&SchemaSpans> {
        self.spans.as_deref()
    }

    /// All type ids in definition order.
    pub fn types(&self) -> impl Iterator<Item = TypeIdx> {
        (0..self.defs.len()).map(TypeIdx::from_usize)
    }

    /// Total size (sum of regex sizes plus one per type), the schema size
    /// measure `|S|` of the combined-complexity experiments.
    pub fn size(&self) -> usize {
        self.defs
            .iter()
            .map(|d| 1 + d.regex().map_or(0, |r| r.size()))
            .sum()
    }

    /// A structural fingerprint of this schema's *content*: type names,
    /// referenceability, root, kinds, and regexes with edge labels
    /// resolved to their *names* (so two processes that interned labels
    /// in different orders still agree). Excludes [`Schema::uid`]
    /// (process-local) and spans (presentation-only). This is the
    /// cross-process identity snapshot sections are keyed by: equal
    /// fingerprints mean snapshot artifacts derived from one schema are
    /// valid for the other.
    pub fn content_fingerprint(&self) -> u64 {
        let mut w = ssd_base::ByteWriter::with_capacity(256);
        w.put_u32(self.defs.len() as u32);
        w.put_u32(self.root.index() as u32);
        for (i, def) in self.defs.iter().enumerate() {
            w.put_str(&self.names[i]);
            w.put_u8(u8::from(self.referenceable[i]));
            match def {
                TypeDef::Atomic(a) => {
                    w.put_u8(0);
                    w.put_u8(*a as u8);
                }
                TypeDef::Unordered(r) => {
                    w.put_u8(1);
                    fingerprint_regex(r, &self.pool, &mut w);
                }
                TypeDef::Ordered(r) => {
                    w.put_u8(2);
                    fingerprint_regex(r, &self.pool, &mut w);
                }
            }
        }
        ssd_base::fnv1a64(w.as_slice())
    }
}

/// Writes the canonical byte form of a schema regex for
/// [`Schema::content_fingerprint`]: structure tags follow the snapshot
/// regex codec, atoms are `(label name, target index)` so the encoding is
/// independent of the interner's id assignment.
fn fingerprint_regex(
    re: &ssd_automata::Regex<SchemaAtom>,
    pool: &SharedInterner,
    w: &mut ssd_base::ByteWriter,
) {
    use ssd_automata::Regex;
    match re {
        Regex::Empty => w.put_u8(0),
        Regex::Epsilon => w.put_u8(1),
        Regex::Atom(a) => {
            w.put_u8(3);
            w.put_str(&pool.resolve(a.label));
            w.put_u32(a.target.index() as u32);
        }
        Regex::Star(inner) => {
            w.put_u8(4);
            fingerprint_regex(inner, pool, w);
        }
        Regex::Plus(inner) => {
            w.put_u8(5);
            fingerprint_regex(inner, pool, w);
        }
        Regex::Opt(inner) => {
            w.put_u8(6);
            fingerprint_regex(inner, pool, w);
        }
        Regex::Concat(parts) => {
            w.put_u8(7);
            w.put_u32(parts.len() as u32);
            for p in parts {
                fingerprint_regex(p, pool, w);
            }
        }
        Regex::Alt(parts) => {
            w.put_u8(8);
            w.put_u32(parts.len() as u32);
            for p in parts {
                fingerprint_regex(p, pool, w);
            }
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, def) in self.defs.iter().enumerate() {
            if i > 0 {
                writeln!(f, ";")?;
            }
            let amp = if self.referenceable[i] { "&" } else { "" };
            write!(f, "{amp}{} = ", self.names[i])?;
            match def {
                TypeDef::Atomic(a) => write!(f, "{a}")?,
                TypeDef::Unordered(r) | TypeDef::Ordered(r) => {
                    let (open, close) = if def.kind() == TypeKind::Unordered {
                        ('{', '}')
                    } else {
                        ('[', ']')
                    };
                    let body = regex_to_string(r, &mut |a: &SchemaAtom| {
                        let amp = if self.referenceable[a.target.index()] {
                            "&"
                        } else {
                            ""
                        };
                        format!(
                            "{}->{amp}{}",
                            self.pool.resolve(a.label),
                            self.names[a.target.index()]
                        )
                    });
                    write!(f, "{open}{body}{close}")?;
                }
            }
        }
        Ok(())
    }
}

/// Two-phase schema construction (declare, then define), mirroring
/// [`ssd_model::GraphBuilder`].
pub struct SchemaBuilder {
    pool: SharedInterner,
    names: Vec<String>,
    referenceable: Vec<bool>,
    defs: Vec<Option<TypeDef>>,
    by_name: HashMap<String, TypeIdx>,
    /// Source text + per-type spans when building from text (parsers only).
    source: Option<String>,
    name_spans: Vec<Span>,
    def_spans: Vec<Span>,
}

impl SchemaBuilder {
    /// Creates a builder over `pool`.
    pub fn new(pool: SharedInterner) -> Self {
        SchemaBuilder {
            pool,
            names: Vec::new(),
            referenceable: Vec::new(),
            defs: Vec::new(),
            by_name: HashMap::new(),
            source: None,
            name_spans: Vec::new(),
            def_spans: Vec::new(),
        }
    }

    /// Records the source text being parsed; enables span recording, and
    /// the finished schema will carry a [`SchemaSpans`] table.
    pub fn attach_source(&mut self, source: &str) {
        self.source = Some(source.to_owned());
    }

    /// Records the span of `t`'s defining name occurrence (first recorded
    /// occurrence wins).
    pub fn note_name_span(&mut self, t: TypeIdx, span: Span) {
        let slot = &mut self.name_spans[t.index()];
        if slot.is_dummy() {
            *slot = span;
        }
    }

    /// Records the span of `t`'s whole definition (`Tid = Type`).
    pub fn note_def_span(&mut self, t: TypeIdx, span: Span) {
        self.def_spans[t.index()] = span;
    }

    /// The builder's label pool.
    pub fn pool(&self) -> &SharedInterner {
        &self.pool
    }

    /// Declares (or retrieves) the type named `name`.
    pub fn declare(&mut self, name: &str, referenceable: bool) -> TypeIdx {
        if let Some(&t) = self.by_name.get(name) {
            if referenceable {
                self.referenceable[t.index()] = true;
            }
            return t;
        }
        let t = TypeIdx::from_usize(self.names.len());
        self.names.push(name.to_owned());
        self.referenceable.push(referenceable);
        self.defs.push(None);
        self.name_spans.push(Span::DUMMY);
        self.def_spans.push(Span::DUMMY);
        self.by_name.insert(name.to_owned(), t);
        t
    }

    /// Defines type `t`.
    pub fn define(&mut self, t: TypeIdx, def: TypeDef) -> Result<()> {
        let slot = &mut self.defs[t.index()];
        if slot.is_some() {
            return Err(Error::invalid(format!(
                "type {} defined twice",
                self.names[t.index()]
            )));
        }
        *slot = Some(def);
        Ok(())
    }

    /// Finalizes the schema; the first declared type is the root.
    pub fn finish(self) -> Result<Schema> {
        if self.names.is_empty() {
            return Err(Error::invalid("a schema needs at least one type"));
        }
        let mut defs = Vec::with_capacity(self.defs.len());
        for (i, d) in self.defs.into_iter().enumerate() {
            match d {
                Some(def) => defs.push(def),
                None => {
                    let loc = self
                        .source
                        .as_deref()
                        .map(|src| {
                            format!(" at {}", format_location(src, self.name_spans[i].start))
                        })
                        .unwrap_or_default();
                    return Err(Error::undefined(format!(
                        "type {} is referenced but never defined{loc}",
                        self.names[i]
                    )));
                }
            }
        }
        let nfas: Vec<Option<Nfa<SchemaAtom>>> = defs
            .iter()
            .map(|d| d.regex().map(glushkov::build))
            .collect();
        let compiled = (0..nfas.len()).map(|_| OnceLock::new()).collect();
        // Relaxed is sufficient: the uid only has to be *unique*, and a
        // fetch_add is atomic at every ordering — no other memory is
        // published through this counter.
        static NEXT_UID: ssd_base::sync::AtomicU64 = ssd_base::sync::AtomicU64::new(0);
        let spans = self.source.map(|source| {
            Arc::new(SchemaSpans {
                source,
                names: self.name_spans,
                defs: self.def_spans,
            })
        });
        Ok(Schema {
            pool: self.pool,
            names: self.names,
            referenceable: self.referenceable,
            defs,
            nfas,
            compiled,
            by_name: self.by_name,
            root: TypeIdx(0),
            uid: NEXT_UID.fetch_add(1, ssd_base::sync::Ordering::Relaxed),
            spans,
            derived: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atomic::AtomicType;
    use ssd_automata::Regex;

    #[test]
    fn builder_round_trip() {
        let pool = SharedInterner::new();
        let mut b = SchemaBuilder::new(pool.clone());
        let doc = b.declare("DOC", false);
        let title = b.declare("TITLE", false);
        let paper = pool.intern("title");
        b.define(
            doc,
            TypeDef::Ordered(Regex::star(Regex::atom(SchemaAtom::new(paper, title)))),
        )
        .unwrap();
        b.define(title, TypeDef::Atomic(AtomicType::Str)).unwrap();
        let s = b.finish().unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.root(), doc);
        assert_eq!(s.kind(doc), TypeKind::Ordered);
        assert!(s.nfa(doc).is_some());
        assert!(s.nfa(title).is_none());
        assert_eq!(s.by_name("TITLE"), Some(title));
        assert!(s.size() >= 3);
    }

    #[test]
    fn missing_definition_rejected() {
        let pool = SharedInterner::new();
        let mut b = SchemaBuilder::new(pool.clone());
        let doc = b.declare("DOC", false);
        let title = b.declare("TITLE", false);
        let l = pool.intern("t");
        b.define(
            doc,
            TypeDef::Ordered(Regex::atom(SchemaAtom::new(l, title))),
        )
        .unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn duplicate_definition_rejected() {
        let pool = SharedInterner::new();
        let mut b = SchemaBuilder::new(pool);
        let t = b.declare("T", false);
        b.define(t, TypeDef::Atomic(AtomicType::Int)).unwrap();
        assert!(b.define(t, TypeDef::Atomic(AtomicType::Str)).is_err());
    }
}
