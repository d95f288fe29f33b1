//! The data-graph printer and parser are inverse: `parse(g.to_string())`
//! reproduces every object's name, kind, referenceability and value, and
//! every edge's label and target, for sampled instances of each schema
//! generator and for the bibliography corpus. Hand-written cases cover the
//! lexer's corners: Unicode whitespace, the `→` arrow, escaped strings,
//! `-` inside identifiers next to `->`, and `&` re-declaration. String
//! literals with control and combining characters round-trip through both
//! the data-graph and the query printer.

use ssd::base::rng::StdRng;
use ssd::base::SharedInterner;
use ssd::gen::corpora::{bibliography, PAPER_DTD};
use ssd::gen::data_gen::{sample_instance, DataGenConfig};
use ssd::gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd::model::{parse_data_graph, DataGraph, NodeKind, Value};
use ssd::query::{parse_query, PatDef};
use ssd::schema::{parse_dtd, parse_schema, Schema, TypeGraph};

/// Asserts that `h` is `g` up to oid numbering, matching objects by name.
fn assert_same_graph(g: &DataGraph, h: &DataGraph) {
    assert_eq!(g.len(), h.len());
    assert_eq!(g.num_edges(), h.num_edges());
    assert_eq!(g.name(g.root()), h.name(h.root()));
    for o in g.oids() {
        let name = g.name(o);
        assert_eq!(g.by_name(name), Some(o), "{name} in the original");
        let o2 = h
            .by_name(name)
            .unwrap_or_else(|| panic!("{name} after the round trip"));
        assert_eq!(h.name(o2), name);
        assert_eq!(g.kind(o), h.kind(o2), "{name}");
        assert_eq!(g.is_referenceable(o), h.is_referenceable(o2), "{name}");
        assert_eq!(g.node(o).value(), h.node(o2).value(), "{name}");
        let edges = |x: &DataGraph, o| -> Vec<(String, String)> {
            x.edges(o)
                .iter()
                .map(|e| (x.label_name(e.label), x.name(e.target).to_owned()))
                .collect()
        };
        assert_eq!(edges(g, o), edges(h, o2), "{name}");
    }
}

fn round_trip(g: &DataGraph, pool: &SharedInterner) {
    let h = parse_data_graph(&g.to_string(), pool).expect("printed graphs parse");
    assert_same_graph(g, &h);
}

fn sampled(s: &Schema, seed: u64) -> Option<DataGraph> {
    let tg = TypeGraph::new(s);
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = DataGenConfig {
        continue_prob: 0.9,
        max_nodes: 400,
    };
    sample_instance(s, &tg, &mut rng, &cfg).ok()
}

#[test]
fn generated_instances_round_trip() {
    let mut checked = 0;
    for seed in 0..24u64 {
        let pool = SharedInterner::new();
        let mut rng = StdRng::seed_from_u64(3300 + seed);
        let cfg = |tagged| SchemaGenConfig {
            num_types: 6,
            tagged,
            ..Default::default()
        };
        let schemas = [
            ordered_schema(&mut rng, &pool, &cfg(false)),
            ordered_schema(&mut rng, &pool, &cfg(true)),
            unordered_schema(&mut rng, &pool, &cfg(false)),
            parse_schema(
                "ROOT = [(item->A | item->B)*]; A = [name->S.(item->C)*]; \
                 B = [name->S.val->I]; C = [key->S.(val->I)*]; S = string; I = int",
                &pool,
            )
            .unwrap(),
            parse_dtd(PAPER_DTD, &pool).unwrap(),
        ];
        for s in &schemas {
            if let Some(g) = sampled(s, seed) {
                round_trip(&g, &pool);
                checked += 1;
            }
        }
    }
    assert!(checked >= 60, "enough sampled instances ({checked})");
}

#[test]
fn bibliographies_round_trip() {
    let pool = SharedInterner::new();
    for (papers, authors) in [(1, 1), (20, 3), (200, 2)] {
        let g = parse_data_graph(&bibliography(papers, authors), &pool).unwrap();
        round_trip(&g, &pool);
    }
}

#[test]
fn unicode_whitespace_and_arrow() {
    let pool = SharedInterner::new();
    // NBSP, ideographic space, line separator, vertical tab and form feed
    // separate tokens like ASCII whitespace.
    let g = parse_data_graph(
        "o1\u{a0}=\u{3000}[a\u{2028}→\u{b}o2 ,\u{c}b -> o3];\u{a0}o2 = 1; o3 =\u{3000}\"x\"",
        &pool,
    )
    .unwrap();
    let o1 = g.by_name("o1").unwrap();
    assert_eq!(g.kind(o1), NodeKind::Ordered);
    let labels: Vec<String> = g.edges(o1).iter().map(|e| g.label_name(e.label)).collect();
    assert_eq!(labels, ["a", "b"]);
    round_trip(&g, &pool);
    // Unicode letters belong to identifiers.
    let g = parse_data_graph("wurzel = {straße -> ö1}; ö1 = true", &pool).unwrap();
    let root = g.by_name("wurzel").unwrap();
    assert_eq!(g.label_name(g.edges(root)[0].label), "straße");
    assert_eq!(
        g.node(g.by_name("ö1").unwrap()).value(),
        Some(&Value::Bool(true))
    );
    round_trip(&g, &pool);
}

#[test]
fn escaped_strings() {
    let pool = SharedInterner::new();
    let g = parse_data_graph(
        r#"o1 = [a -> o2, b -> o3, c -> o4, d -> o5];
           o2 = "plain"; o3 = "q\"uo\\te"; o4 = ""; o5 = "end\\""#,
        &pool,
    )
    .unwrap();
    let v = |n: &str| g.node(g.by_name(n).unwrap()).value().cloned();
    assert_eq!(v("o2"), Some(Value::Str("plain".into())));
    assert_eq!(v("o3"), Some(Value::Str("q\"uo\\te".into())));
    assert_eq!(v("o4"), Some(Value::Str(String::new())));
    assert_eq!(v("o5"), Some(Value::Str("end\\".into())));
    round_trip(&g, &pool);
    // A backslash at the very end leaves the literal open.
    let err = parse_data_graph(r#"o1 = "open\"#, &pool).unwrap_err();
    assert!(
        err.to_string().contains("unterminated string literal"),
        "{err}"
    );
}

/// Strings whose characters a `{:?}`-style printer would escape in ways
/// the parsers do not read back (`\n`, `\t`, `\0`, `\u{301}`), plus the
/// two characters the printer does escape.
const AWKWARD_STRINGS: [&str; 7] = [
    "x\ny\\z\u{301}",
    "tab\there",
    "nul\0end",
    "e\u{301}",
    "back\\slash",
    "quo\"te",
    "\n\t\0\\\"",
];

/// A string literal as the parsers read it: `\` escapes the next
/// character, every other character stands for itself.
fn literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        if c == '\\' || c == '"' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
    out
}

#[test]
fn control_and_combining_characters_round_trip_in_data_graphs() {
    let pool = SharedInterner::new();
    let mut text = String::from("o = [");
    let edges: Vec<String> = (0..AWKWARD_STRINGS.len())
        .map(|i| format!("a{i} -> v{i}"))
        .collect();
    text.push_str(&edges.join(", "));
    text.push(']');
    for (i, s) in AWKWARD_STRINGS.iter().enumerate() {
        text.push_str(&format!("; v{i} = {}", literal(s)));
    }
    let g = parse_data_graph(&text, &pool).unwrap();
    for (i, s) in AWKWARD_STRINGS.iter().enumerate() {
        let v = g
            .node(g.by_name(&format!("v{i}")).unwrap())
            .value()
            .cloned();
        assert_eq!(v, Some(Value::Str((*s).into())), "{s:?}");
    }
    round_trip(&g, &pool);
}

#[test]
fn control_and_combining_characters_round_trip_in_queries() {
    let pool = SharedInterner::new();
    for s in AWKWARD_STRINGS {
        let text = format!("SELECT X WHERE Root = [a -> X]; X = {}", literal(s));
        let q = parse_query(&text, &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        assert_eq!(
            q.def(x),
            Some(&PatDef::Value(Value::Str(s.into()))),
            "{s:?}"
        );
        let again = parse_query(&q.to_string(), &pool).expect("printed queries parse");
        let x2 = again.var_by_name("X").unwrap();
        assert_eq!(again.def(x2), q.def(x), "{s:?} after the round trip");
    }
}

#[test]
fn dash_inside_identifiers_next_to_arrows() {
    let pool = SharedInterner::new();
    let g = parse_data_graph("o-1 = [first-name->o-2, x-->o-3]; o-2 = 1; o-3 = 2", &pool).unwrap();
    let root = g.by_name("o-1").unwrap();
    let edges: Vec<(String, &str)> = g
        .edges(root)
        .iter()
        .map(|e| (g.label_name(e.label), g.name(e.target)))
        .collect();
    assert_eq!(
        edges,
        [("first-name".to_owned(), "o-2"), ("x-".to_owned(), "o-3")]
    );
    round_trip(&g, &pool);
    // A leading '-' starts no identifier.
    assert!(parse_data_graph("-o = 1", &pool).is_err());
}

#[test]
fn ampersand_redeclaration_upgrades_referenceability() {
    let pool = SharedInterner::new();
    // `o2` is first seen bare, then as `&o2`: one referenceable object.
    let g = parse_data_graph("o1 = [a -> o2, b -> &o2]; o2 = 1", &pool).unwrap();
    let o2 = g.by_name("o2").unwrap();
    assert!(g.is_referenceable(o2));
    assert_eq!(g.len(), 2);
    assert_eq!(g.incoming_counts()[o2.index()], 2);
    round_trip(&g, &pool);
    // Without the upgrade the shared object is rejected.
    assert!(parse_data_graph("o1 = [a -> o2, b -> o2]; o2 = 1", &pool).is_err());
}
