//! Parser for the paper's textual data-graph syntax (Table 1):
//!
//! ```text
//! GraphDef ::= Oid=Node ; … ; Oid=Node
//! Node     ::= value | {E} | [E]
//! E        ::= label -> Oid , … , label -> Oid
//! ```
//!
//! Oids are identifiers, `&`-prefixed when referenceable. Values are
//! integers, floats, `"strings"`, and booleans. The first definition is the
//! root. `→` is accepted as a synonym for `->`.

use std::collections::HashMap;
use std::fmt;

use ssd_base::{limits, Error, LabelId, Result, SharedInterner};

use crate::builder::GraphBuilder;
use crate::graph::DataGraph;
use crate::node::Edge;
use crate::value::Value;

/// Parses a data graph from the textual syntax.
///
/// Hardened against pathological input: inputs longer than
/// [`limits::MAX_INPUT_LEN`] bytes are rejected with [`Error::Limit`].
/// The grammar itself is non-recursive (edge lists are flat), so no
/// nesting-depth guard is needed.
///
/// Identifiers are borrowed from `input`, and each distinct label is
/// interned once per parse, so the shared pool's lock is taken once per
/// label rather than once per edge.
pub fn parse_data_graph(input: &str, pool: &SharedInterner) -> Result<DataGraph> {
    limits::check_input_len("data graph", input.len())?;
    let mut p = Lexer::new(input);
    let mut b = GraphBuilder::new(pool.clone());
    let mut labels = Labels {
        pool,
        ids: HashMap::new(),
    };
    let mut any = false;
    loop {
        p.skip_ws();
        if p.at_end() {
            break;
        }
        parse_def(&mut p, &mut b, &mut labels)?;
        any = true;
        p.skip_ws();
        if p.eat(b';') {
            continue;
        }
        if !p.at_end() {
            return Err(p.err("expected ';' between definitions"));
        }
    }
    if !any {
        return Err(p.err("empty data graph"));
    }
    b.finish()
}

/// The labels seen so far in one parse, in front of the shared pool.
struct Labels<'a> {
    pool: &'a SharedInterner,
    ids: HashMap<&'a str, LabelId>,
}

impl<'a> Labels<'a> {
    fn intern(&mut self, label: &'a str) -> LabelId {
        *self
            .ids
            .entry(label)
            .or_insert_with(|| self.pool.intern(label))
    }
}

fn parse_def<'a>(p: &mut Lexer<'a>, b: &mut GraphBuilder, labels: &mut Labels<'a>) -> Result<()> {
    let (name, referenceable) = p.oid_ref()?;
    let oid = b.declare(name, referenceable);
    p.expect(b'=')?;
    match p.peek() {
        Some(b'{') => {
            let edges = parse_edges(p, b, labels, b'{', b'}')?;
            b.define_unordered(oid, edges)
        }
        Some(b'[') => {
            let edges = parse_edges(p, b, labels, b'[', b']')?;
            b.define_ordered(oid, edges)
        }
        _ => {
            let v = p.value()?;
            b.define_atomic(oid, v)
        }
    }
}

fn parse_edges<'a>(
    p: &mut Lexer<'a>,
    b: &mut GraphBuilder,
    labels: &mut Labels<'a>,
    open: u8,
    close: u8,
) -> Result<Vec<Edge>> {
    p.expect(open)?;
    let mut edges = Vec::new();
    if p.eat(close) {
        return Ok(edges);
    }
    loop {
        let label = p.ident()?;
        p.arrow()?;
        let (name, referenceable) = p.oid_ref()?;
        let target = b.declare(name, referenceable);
        edges.push(Edge::new(labels.intern(label), target));
        if p.eat(b',') {
            continue;
        }
        p.expect(close)?;
        break;
    }
    Ok(edges)
}

/// A cursor over the input. Every token the grammar needs is ASCII, so
/// the lexer works on bytes and decodes a `char` only at a non-ASCII byte
/// (Unicode whitespace, letters in identifiers, the `→` arrow).
struct Lexer<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer { input, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn byte(&self, at: usize) -> Option<u8> {
        self.input.as_bytes().get(at).copied()
    }

    /// A parse error located at the current position.
    fn err(&self, msg: impl fmt::Display) -> Error {
        Error::parse_at(msg, self.input, self.pos)
    }

    /// A parse error located at `pos`.
    fn err_at(&self, msg: impl fmt::Display, pos: usize) -> Error {
        Error::parse_at(msg, self.input, pos)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    /// Skips whitespace as `str::trim_start` defines it.
    fn skip_ws(&mut self) {
        while let Some(b) = self.byte(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => self.pos += 1,
                0x80.. => {
                    self.pos = self.input.len() - self.rest().trim_start().len();
                    return;
                }
                _ => return,
            }
        }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.byte(self.pos)
    }

    /// Consumes the ASCII byte `c` if it comes next.
    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{}' near {:?}",
                char::from(c),
                self.rest().chars().take(12).collect::<String>()
            )))
        }
    }

    fn arrow(&mut self) -> Result<()> {
        self.skip_ws();
        if self.rest().starts_with("->") {
            self.pos += 2;
            Ok(())
        } else if self.rest().starts_with('→') {
            self.pos += '→'.len_utf8();
            Ok(())
        } else {
            Err(self.err("expected '->'"))
        }
    }

    fn ident(&mut self) -> Result<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while let Some(b) = self.byte(self.pos) {
            match b {
                b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b':' | b'_' => self.pos += 1,
                // '-' only after the first char, and never as part of '->'.
                b'-' if self.pos != start && self.byte(self.pos + 1) != Some(b'>') => self.pos += 1,
                0x80.. => match self.rest().chars().next() {
                    Some(c) if c.is_alphanumeric() => self.pos += c.len_utf8(),
                    _ => break,
                },
                _ => break,
            }
        }
        if self.pos == start {
            return Err(self.err_at("expected identifier", start));
        }
        Ok(&self.input[start..self.pos])
    }

    fn oid_ref(&mut self) -> Result<(&'a str, bool)> {
        let referenceable = self.eat(b'&');
        let name = self.ident()?;
        Ok((name, referenceable))
    }

    fn value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'"') => {
                // Copies each run between escapes as one slice; a literal
                // without escapes is a single copy.
                let open = self.pos;
                let mut s = String::new();
                let mut at = open + 1;
                loop {
                    let rest = &self.input[at..];
                    let Some(i) = rest.bytes().position(|b| b == b'"' || b == b'\\') else {
                        break;
                    };
                    s.push_str(&rest[..i]);
                    if rest.as_bytes()[i] == b'"' {
                        self.pos = at + i + 1;
                        return Ok(Value::Str(s));
                    }
                    let Some(c) = rest[i + 1..].chars().next() else {
                        break;
                    };
                    s.push(c);
                    at += i + 1 + c.len_utf8();
                }
                Err(self.err_at("unterminated string literal", open))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' || c == b'+' => {
                let start = self.pos;
                let mut is_float = false;
                while let Some(b) = self.byte(self.pos) {
                    match b {
                        b'0'..=b'9' => {}
                        b'-' | b'+' if self.pos == start => {}
                        b'.' | b'e' | b'E' => is_float = true,
                        _ => break,
                    }
                    self.pos += 1;
                }
                let text = &self.input[start..self.pos];
                if is_float {
                    text.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|e| self.err_at(format!("bad float {text:?}: {e}"), start))
                } else {
                    text.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|e| self.err_at(format!("bad int {text:?}: {e}"), start))
                }
            }
            _ => {
                let start = self.pos;
                match self.ident()? {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    word => Err(self.err_at(format!("expected a value, found {word:?}"), start)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn pool() -> SharedInterner {
        SharedInterner::new()
    }

    #[test]
    fn parses_the_papers_table1_example() {
        let p = pool();
        let g = parse_data_graph(
            r#"o1={a->o2, b->o3}; o2=[a->o4,c->o5,c->o6];
               o3=3.14; o4="abc"; o5=2.71; o6=6.12"#,
            &p,
        )
        .unwrap();
        assert_eq!(g.len(), 6);
        let o1 = g.by_name("o1").unwrap();
        let o2 = g.by_name("o2").unwrap();
        assert_eq!(g.root(), o1);
        assert_eq!(g.kind(o1), NodeKind::Unordered);
        assert_eq!(g.kind(o2), NodeKind::Ordered);
        assert_eq!(g.edges(o2).len(), 3);
        let o4 = g.by_name("o4").unwrap();
        assert_eq!(g.node(o4).value(), Some(&Value::Str("abc".into())));
    }

    #[test]
    fn parses_the_papers_xml_example_graph() {
        let p = pool();
        let src = r#"
            o1 = [paper -> o2];
            o2 = [title -> o3, author -> o4];
            o3 = "A real nice paper";
            o4 = [name -> o5, email -> o6];
            o5 = [firstname -> o7, lastname -> o8];
            o6 = "..."; o7 = "John"; o8 = "Smith"
        "#;
        let g = parse_data_graph(src, &p).unwrap();
        assert_eq!(g.len(), 8);
        assert_eq!(g.num_edges(), 7);
    }

    #[test]
    fn referenceable_sharing() {
        let p = pool();
        let g = parse_data_graph(
            r#"o1 = [paper -> o2, paper -> o3];
               o2 = [author -> &a1]; o3 = [author -> &a1];
               &a1 = "Smith""#,
            &p,
        )
        .unwrap();
        let a1 = g.by_name("a1").unwrap();
        assert!(g.is_referenceable(a1));
        assert_eq!(g.incoming_counts()[a1.index()], 2);
    }

    #[test]
    fn empty_collections() {
        let p = pool();
        let g = parse_data_graph("o1 = { }", &p).unwrap();
        assert_eq!(g.edges(g.root()).len(), 0);
        let g2 = parse_data_graph("o1 = []", &p).unwrap();
        assert_eq!(g2.kind(g2.root()), NodeKind::Ordered);
    }

    #[test]
    fn unicode_arrow_accepted() {
        let p = pool();
        let g = parse_data_graph("o1 = {a → o2}; o2 = 1", &p).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn value_forms() {
        let p = pool();
        let g = parse_data_graph(
            r#"o1 = [a->o2, b->o3, c->o4, d->o5, e->o6];
               o2 = -17; o3 = 2.5e3; o4 = true; o5 = false; o6 = "q\"uo\\te""#,
            &p,
        )
        .unwrap();
        let v = |n: &str| g.node(g.by_name(n).unwrap()).value().unwrap().clone();
        assert_eq!(v("o2"), Value::Int(-17));
        assert_eq!(v("o3"), Value::Float(2500.0));
        assert_eq!(v("o4"), Value::Bool(true));
        assert_eq!(v("o5"), Value::Bool(false));
        assert_eq!(v("o6"), Value::Str("q\"uo\\te".into()));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let p = pool();
        assert!(parse_data_graph("o1 = 1; o1 = 2", &p).is_err());
    }

    #[test]
    fn syntax_errors() {
        let p = pool();
        assert!(parse_data_graph("", &p).is_err());
        assert!(parse_data_graph("o1 = ", &p).is_err());
        assert!(parse_data_graph("o1 = {a o2}", &p).is_err());
        assert!(parse_data_graph("o1 = {a -> }", &p).is_err());
        assert!(parse_data_graph("o1 = [a -> o2", &p).is_err());
        assert!(parse_data_graph("o1 = \"unterminated", &p).is_err());
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let p = pool();
        let err = parse_data_graph("o1 = {a -> o2};\no2 = {b  }", &p).unwrap_err();
        let msg = err.to_string();
        let loc = ssd_base::span::extract_location(&msg);
        assert_eq!(loc, Some((2, 10)), "{msg}");
        let err = parse_data_graph("o1 = \"unterminated", &p).unwrap_err();
        let msg = err.to_string();
        assert_eq!(
            ssd_base::span::extract_location(&msg),
            Some((1, 6)),
            "{msg}"
        );
    }

    #[test]
    fn oversized_input_is_rejected() {
        let p = pool();
        let huge = " ".repeat(ssd_base::limits::MAX_INPUT_LEN + 1);
        let err = parse_data_graph(&huge, &p).unwrap_err();
        assert!(matches!(err, Error::Limit(_)), "{err}");
    }

    #[test]
    fn display_round_trip() {
        let p = pool();
        let src = r#"o1={a->o2, b->&o3}; o2=[c->&o3]; &o3="shared""#;
        let g = parse_data_graph(src, &p).unwrap();
        let printed = g.to_string();
        let g2 = parse_data_graph(&printed, &p).unwrap();
        assert_eq!(g.len(), g2.len());
        assert_eq!(g.num_edges(), g2.num_edges());
        for oid in g.oids() {
            let o2 = g2.by_name(g.name(oid)).unwrap();
            assert_eq!(g.node(oid).kind(), g2.node(o2).kind());
            assert_eq!(g.is_referenceable(oid), g2.is_referenceable(o2));
        }
    }
}
