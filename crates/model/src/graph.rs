//! The data graph: a rooted collection of named objects.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use ssd_base::{LabelId, OidId, SharedInterner};

use crate::node::{Edge, Node, NodeKind};

/// Object names in oid order with their reverse index. Each name is
/// stored once and shared by both directions; the builder fills it while
/// parsing and the finished graph keeps it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    names: Vec<Arc<str>>,
    by_name: HashMap<Arc<str>, OidId>,
}

impl Names {
    /// The oid named `name`, if declared.
    pub(crate) fn get(&self, name: &str) -> Option<OidId> {
        self.by_name.get(name).copied()
    }

    /// Declares `name` (not yet present) as the next oid.
    pub(crate) fn push(&mut self, name: &str) -> OidId {
        let oid = OidId::from_usize(self.names.len());
        let name: Arc<str> = Arc::from(name);
        self.names.push(Arc::clone(&name));
        self.by_name.insert(name, oid);
        oid
    }

    /// The name of `oid`.
    pub(crate) fn name(&self, oid: OidId) -> &str {
        &self.names[oid.index()]
    }

    /// Whether no name is declared.
    pub(crate) fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A data graph (Section 2 of the paper): objects with names, a
/// referenceable flag per object, and a distinguished root from which every
/// object is reachable.
#[derive(Clone, Debug)]
pub struct DataGraph {
    pool: SharedInterner,
    names: Names,
    referenceable: Vec<bool>,
    nodes: Vec<Node>,
    root: OidId,
}

impl DataGraph {
    pub(crate) fn from_parts(
        pool: SharedInterner,
        names: Names,
        referenceable: Vec<bool>,
        nodes: Vec<Node>,
        root: OidId,
    ) -> Self {
        DataGraph {
            pool,
            names,
            referenceable,
            nodes,
            root,
        }
    }

    /// The label pool this graph interns into.
    pub fn pool(&self) -> &SharedInterner {
        &self.pool
    }

    /// The root object.
    pub fn root(&self) -> OidId {
        self.root
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no objects (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.nodes.iter().map(Node::degree).sum()
    }

    /// The node stored at `oid`.
    pub fn node(&self, oid: OidId) -> &Node {
        &self.nodes[oid.index()]
    }

    /// The outgoing edges of `oid`.
    pub fn edges(&self, oid: OidId) -> &[Edge] {
        self.nodes[oid.index()].edges()
    }

    /// The kind of the node at `oid`.
    pub fn kind(&self, oid: OidId) -> NodeKind {
        self.nodes[oid.index()].kind()
    }

    /// Whether `oid` is referenceable (`&`-prefixed name).
    pub fn is_referenceable(&self, oid: OidId) -> bool {
        self.referenceable[oid.index()]
    }

    /// The object's source name (without the `&` prefix).
    pub fn name(&self, oid: OidId) -> &str {
        self.names.name(oid)
    }

    /// Looks up an object by source name.
    pub fn by_name(&self, name: &str) -> Option<OidId> {
        self.names.get(name)
    }

    /// All oids, in definition order.
    pub fn oids(&self) -> impl Iterator<Item = OidId> {
        (0..self.nodes.len()).map(OidId::from_usize)
    }

    /// Resolves a label id to its string.
    pub fn label_name(&self, label: LabelId) -> String {
        self.pool.resolve(label)
    }

    /// Number of incoming references per object.
    pub fn incoming_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.len()];
        for node in &self.nodes {
            for e in node.edges() {
                counts[e.target.index()] += 1;
            }
        }
        counts
    }
}

impl fmt::Display for DataGraph {
    /// Prints the graph in the paper's textual syntax (Table 1); the output
    /// parses back via [`crate::parser::parse_data_graph`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, node) in self.nodes.iter().enumerate() {
            if i > 0 {
                writeln!(f, ";")?;
            }
            let amp = if self.referenceable[i] { "&" } else { "" };
            write!(f, "{amp}{} = ", self.names.name(OidId::from_usize(i)))?;
            match node {
                Node::Atomic(v) => write!(f, "{v}")?,
                Node::Unordered(es) | Node::Ordered(es) => {
                    let (open, close) = if node.kind() == NodeKind::Unordered {
                        ('{', '}')
                    } else {
                        ('[', ']')
                    };
                    write!(f, "{open}")?;
                    for (j, e) in es.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        let tgt = e.target.index();
                        let tamp = if self.referenceable[tgt] { "&" } else { "" };
                        write!(
                            f,
                            "{} -> {tamp}{}",
                            self.pool.resolve(e.label),
                            self.names.name(e.target)
                        )?;
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
    use crate::builder::GraphBuilder;
    use crate::value::Value;

    #[test]
    fn basic_accessors() {
        let pool = SharedInterner::new();
        let mut b = GraphBuilder::new(pool.clone());
        let root = b.declare("o1", false);
        let leaf = b.declare("o2", false);
        let a = pool.intern("a");
        b.define_ordered(root, vec![Edge::new(a, leaf)]).unwrap();
        b.define_atomic(leaf, Value::Int(7)).unwrap();
        let g = b.finish().unwrap();

        assert_eq!(g.len(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.root(), root);
        assert_eq!(g.kind(root), NodeKind::Ordered);
        assert_eq!(g.node(leaf).value(), Some(&Value::Int(7)));
        assert_eq!(g.by_name("o2"), Some(leaf));
        assert_eq!(g.label_name(a), "a");
        assert_eq!(g.incoming_counts(), vec![0, 1]);
    }
}
