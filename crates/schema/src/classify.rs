//! Schema classification along the axes of Table 2.
//!
//! * **Ordered** schemas: all collection types ordered. The relaxation
//!   "ordered plus homogeneous unordered collections" admits unordered
//!   types of the shape `{(a→T')*}` only.
//! * **Tagged** schemas: the relation `{(a, T) | a→T occurs in the
//!   schema}` is one-to-one.
//! * **Tree** schemas: no referenceable types.
//! * `DTD−` = ordered ∧ tagged ∧ tree; `DTD+` = ordered ∧ tagged.
//!
//! Schemas are immutable once built, so [`Schema::class`] and
//! [`Schema::tags`] derive both facts in one pass, once per schema;
//! [`SchemaClass::of`] re-derives the class from scratch.

use std::collections::HashMap;

use ssd_automata::bag::homogeneous_symbol;
use ssd_base::{LabelId, TypeIdx};

use crate::schema::Schema;
use crate::types::TypeDef;

/// The classification of a schema.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaClass {
    /// All collection types are ordered.
    pub ordered: bool,
    /// All unordered types are homogeneous collections `{(a→T')*}`.
    pub homogeneous_unordered: bool,
    /// The label↔type relation is one-to-one.
    pub tagged: bool,
    /// No referenceable types.
    pub tree: bool,
}

impl SchemaClass {
    /// Classifies `schema` from scratch (engines read the cached
    /// [`Schema::class`] instead).
    pub fn of(schema: &Schema) -> SchemaClass {
        classify(schema).0
    }

    /// Ordered, or unordered only via homogeneous collections — the schema
    /// class of the PTIME rows of Table 2.
    pub fn is_ordered_plus_homogeneous(&self) -> bool {
        self.ordered || self.homogeneous_unordered
    }

    /// The paper's `DTD−` class (ordered, tagged, tree).
    pub fn is_dtd_minus(&self) -> bool {
        self.ordered && self.tagged && self.tree
    }

    /// The paper's `DTD+` class (ordered, tagged).
    pub fn is_dtd_plus(&self) -> bool {
        self.ordered && self.tagged
    }
}

/// A tagged schema's tag map: for each label, the unique type it points
/// to.
pub(crate) type TagMap = HashMap<LabelId, TypeIdx>;

/// Derives the class and, for a tagged schema, the tag map, in one pass:
/// the tagging check collects the label→type pairs anyway, and when no
/// pair conflicts they are exactly the tag map.
pub(crate) fn classify(schema: &Schema) -> (SchemaClass, Option<TagMap>) {
    let mut ordered = true;
    let mut homogeneous_unordered = true;
    for t in schema.types() {
        if let TypeDef::Unordered(r) = schema.def(t) {
            ordered = false;
            if homogeneous_symbol(r).is_none() {
                homogeneous_unordered = false;
            }
        }
    }

    // Tagging: collect the (label, target) pairs occurring anywhere.
    let mut label_to_type: TagMap = HashMap::new();
    let mut type_to_label: HashMap<TypeIdx, LabelId> = HashMap::new();
    let mut tagged = true;
    'outer: for t in schema.types() {
        if let Some(r) = schema.def(t).regex() {
            for a in r.atoms() {
                if let Some(&t2) = label_to_type.get(&a.label) {
                    if t2 != a.target {
                        tagged = false;
                        break 'outer;
                    }
                }
                if let Some(&l2) = type_to_label.get(&a.target) {
                    if l2 != a.label {
                        tagged = false;
                        break 'outer;
                    }
                }
                label_to_type.insert(a.label, a.target);
                type_to_label.insert(a.target, a.label);
            }
        }
    }

    let tree = schema.types().all(|t| !schema.is_referenceable(t));

    let class = SchemaClass {
        ordered,
        homogeneous_unordered,
        tagged,
        tree,
    };
    (class, tagged.then_some(label_to_type))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_schema;
    use ssd_base::SharedInterner;

    fn classify(src: &str) -> SchemaClass {
        let pool = SharedInterner::new();
        SchemaClass::of(&parse_schema(src, &pool).unwrap())
    }

    #[test]
    fn paper_schema_is_ordered_tagged_tree() {
        let c = classify(
            r#"DOCUMENT = [(paper->PAPER)*];
               PAPER = [title->TITLE.(author->AUTHOR)*];
               AUTHOR = [name->NAME];
               NAME = string; TITLE = string"#,
        );
        assert!(c.ordered && c.tagged && c.tree);
        assert!(c.is_dtd_minus());
    }

    #[test]
    fn unordered_breaks_ordered() {
        let c = classify("T = {(a->U)*}; U = int");
        assert!(!c.ordered);
        assert!(c.homogeneous_unordered);
        assert!(c.is_ordered_plus_homogeneous());
    }

    #[test]
    fn inhomogeneous_unordered_detected() {
        let c = classify("T = {a->U.b->U}; U = int");
        assert!(!c.ordered);
        assert!(!c.homogeneous_unordered);
        assert!(!c.is_ordered_plus_homogeneous());
    }

    #[test]
    fn untagged_when_label_reused() {
        // `a` points to two different types.
        let c = classify("T = [a->U.a->V]; U = int; V = string");
        assert!(!c.tagged);
    }

    #[test]
    fn untagged_when_type_has_two_labels() {
        let c = classify("T = [a->U.b->U]; U = int");
        assert!(!c.tagged);
    }

    #[test]
    fn referenceable_breaks_tree() {
        let c = classify("T = [a->&U]; &U = int");
        assert!(!c.tree);
        assert!(c.is_dtd_plus());
        assert!(!c.is_dtd_minus());
    }

    #[test]
    fn tag_map_for_tagged_schema() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.b->V]; U = int; V = string", &pool).unwrap();
        let map = s.tags().unwrap();
        assert_eq!(map[&pool.get("a").unwrap()], s.by_name("U").unwrap());
        assert_eq!(map[&pool.get("b").unwrap()], s.by_name("V").unwrap());
        let s2 = parse_schema("T = [a->U.a->V]; U = int; V = string", &pool).unwrap();
        assert!(s2.tags().is_none());
    }
}
