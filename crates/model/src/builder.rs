//! Incremental construction of data graphs.

use ssd_base::{Error, OidId, Result, SharedInterner};

use crate::graph::{DataGraph, Names};
use crate::node::{Edge, Node};
use crate::validate::validate;
use crate::value::Value;

/// Builds a [`DataGraph`] object by object. Objects are first *declared*
/// (allocating an oid) and then *defined* (given a value); this two-phase
/// shape supports the forward references of the textual syntax.
pub struct GraphBuilder {
    pool: SharedInterner,
    names: Names,
    referenceable: Vec<bool>,
    nodes: Vec<Option<Node>>,
    fresh: u64,
}

impl GraphBuilder {
    /// Creates a builder interning labels in `pool`.
    pub fn new(pool: SharedInterner) -> Self {
        GraphBuilder {
            pool,
            names: Names::default(),
            referenceable: Vec::new(),
            nodes: Vec::new(),
            fresh: 0,
        }
    }

    /// The builder's label pool.
    pub fn pool(&self) -> &SharedInterner {
        &self.pool
    }

    /// Declares (or retrieves) the object named `name`. A `&` prefix in the
    /// source marks referenceability — pass the bare name here and set
    /// `referenceable`. Re-declaring upgrades referenceability (a name seen
    /// first as `o5` and later as `&o5` denotes one referenceable object).
    pub fn declare(&mut self, name: &str, referenceable: bool) -> OidId {
        if let Some(oid) = self.names.get(name) {
            if referenceable {
                self.referenceable[oid.index()] = true;
            }
            return oid;
        }
        self.referenceable.push(referenceable);
        self.nodes.push(None);
        self.names.push(name)
    }

    /// Declares a fresh, uniquely named object.
    pub fn declare_fresh(&mut self, referenceable: bool) -> OidId {
        loop {
            let name = format!("g{}", self.fresh);
            self.fresh += 1;
            if self.names.get(&name).is_none() {
                return self.declare(&name, referenceable);
            }
        }
    }

    fn define(&mut self, oid: OidId, node: Node) -> Result<()> {
        let slot = &mut self.nodes[oid.index()];
        if slot.is_some() {
            return Err(Error::invalid(format!(
                "object {} defined twice",
                self.names.name(oid)
            )));
        }
        *slot = Some(node);
        Ok(())
    }

    /// Defines `oid` as an atomic value.
    pub fn define_atomic(&mut self, oid: OidId, value: Value) -> Result<()> {
        self.define(oid, Node::Atomic(value))
    }

    /// Defines `oid` as an unordered collection.
    pub fn define_unordered(&mut self, oid: OidId, edges: Vec<Edge>) -> Result<()> {
        self.define(oid, Node::Unordered(edges))
    }

    /// Defines `oid` as an ordered sequence.
    pub fn define_ordered(&mut self, oid: OidId, edges: Vec<Edge>) -> Result<()> {
        self.define(oid, Node::Ordered(edges))
    }

    /// Finalizes the graph. The first declared object is the root (the
    /// paper's convention). Runs full structural validation.
    pub fn finish(self) -> Result<DataGraph> {
        self.finish_with_root(OidId(0))
    }

    /// Finalizes with an explicit root object.
    pub fn finish_with_root(self, root: OidId) -> Result<DataGraph> {
        if self.names.is_empty() {
            return Err(Error::invalid("a data graph needs at least one object"));
        }
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (i, n) in self.nodes.into_iter().enumerate() {
            match n {
                Some(node) => nodes.push(node),
                None => {
                    return Err(Error::undefined(format!(
                        "object {} is referenced but never defined",
                        self.names.name(OidId::from_usize(i))
                    )))
                }
            }
        }
        let g = DataGraph::from_parts(self.pool, self.names, self.referenceable, nodes, root);
        validate(&g)?;
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_definition_rejected() {
        let pool = SharedInterner::new();
        let mut b = GraphBuilder::new(pool);
        let o = b.declare("o1", false);
        b.define_atomic(o, Value::Int(1)).unwrap();
        assert!(b.define_atomic(o, Value::Int(2)).is_err());
    }

    #[test]
    fn undefined_reference_rejected() {
        let pool = SharedInterner::new();
        let mut b = GraphBuilder::new(pool.clone());
        let root = b.declare("o1", false);
        let dangling = b.declare("o2", false);
        let a = pool.intern("a");
        b.define_ordered(root, vec![Edge::new(a, dangling)])
            .unwrap();
        assert!(b.finish().is_err());
    }

    #[test]
    fn referenceability_upgrade() {
        let pool = SharedInterner::new();
        let mut b = GraphBuilder::new(pool.clone());
        let root = b.declare("o1", false);
        let shared = b.declare("o2", false);
        let again = b.declare("o2", true);
        assert_eq!(shared, again);
        let a = pool.intern("a");
        let bl = pool.intern("b");
        b.define_ordered(root, vec![Edge::new(a, shared), Edge::new(bl, shared)])
            .unwrap();
        b.define_atomic(shared, Value::Int(1)).unwrap();
        let g = b.finish().unwrap();
        assert!(g.is_referenceable(shared));
    }

    #[test]
    fn fresh_names_do_not_collide() {
        let pool = SharedInterner::new();
        let mut b = GraphBuilder::new(pool);
        b.declare("g0", false);
        let f = b.declare_fresh(false);
        assert_ne!(b.names.name(f), "g0");
    }

    #[test]
    fn empty_builder_rejected() {
        let b = GraphBuilder::new(SharedInterner::new());
        assert!(b.finish().is_err());
    }
}
