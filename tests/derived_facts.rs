//! Facts derived once from an immutable AST — a query's Table-2 class and
//! canonical key encoding, a schema's class and tag map — must equal what
//! a from-scratch derivation computes, on originals and on clones, and a
//! rewritten query must never inherit its source's facts.
//!
//! The golden block pins the canonical key bytes and fingerprints of the
//! paper's example queries. Snapshots persist feas-memo keys as these
//! bytes, so a change here would silently turn every snapshot written
//! before it cold.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use ssd::base::rng::StdRng;
use ssd::base::{LabelId, SharedInterner, TypeIdx};
use ssd::core::{Constraints, FeasKey, Session};
use ssd::feedback::feedback_query;
use ssd::gen::corpora::{FEEDBACK_QUERY, PAPER_DTD, PAPER_QUERY, PAPER_SCHEMA};
use ssd::gen::query_gen::{joinfree_query, with_node_join, QueryGenConfig};
use ssd::gen::sat3::Sat3;
use ssd::gen::schema_gen::{ordered_schema, unordered_schema, SchemaGenConfig};
use ssd::query::{parse_query, PatDef, Query, QueryClass};
use ssd::schema::{parse_dtd, parse_schema, Schema, SchemaClass, TypeGraph};

/// The tag map computed from scratch: the label→type relation over every
/// atom of every regex, if it is one-to-one; `None` otherwise.
fn tags_from_scratch(s: &Schema) -> Option<HashMap<LabelId, TypeIdx>> {
    let mut pairs: HashSet<(LabelId, TypeIdx)> = HashSet::new();
    for t in s.types() {
        if let Some(r) = s.def(t).regex() {
            for a in r.atoms() {
                pairs.insert((a.label, a.target));
            }
        }
    }
    let by_label: HashMap<LabelId, TypeIdx> = pairs.iter().copied().collect();
    let by_type: HashMap<TypeIdx, LabelId> = pairs.iter().map(|&(l, t)| (t, l)).collect();
    (by_label.len() == pairs.len() && by_type.len() == pairs.len()).then_some(by_label)
}

fn check_schema(s: &Schema, what: &str) {
    let early = s.clone(); // cloned before the facts are derived
    for (tag, s) in [
        ("original", s),
        ("early clone", &early),
        ("late clone", &s.clone()),
    ] {
        assert_eq!(s.class(), &SchemaClass::of(s), "{what} ({tag}): class");
        assert_eq!(
            s.tags(),
            tags_from_scratch(s).as_ref(),
            "{what} ({tag}): tags"
        );
        assert_eq!(s.tags().is_some(), s.class().tagged, "{what} ({tag})");
    }
}

fn check_query(q: &Query, what: &str) {
    let early = q.clone();
    let none = Constraints::none();
    for (tag, q) in [
        ("original", q),
        ("early clone", &early),
        ("late clone", &q.clone()),
    ] {
        assert_eq!(q.class(), &QueryClass::of(q), "{what} ({tag}): class");
        let key = FeasKey::new(q, &none);
        assert_eq!(
            key.canonical_bytes(),
            &q.canonical().unpinned()[..],
            "{what} ({tag})"
        );
        assert_eq!(
            key,
            FeasKey::from_canonical_bytes(key.canonical_bytes()),
            "{what} ({tag}): fingerprint"
        );
        // A key without pins holds the query's bytes, not a copy.
        assert_eq!(
            key.canonical_bytes().as_ptr(),
            q.canonical().unpinned().as_ptr(),
            "{what} ({tag}): unpinned key shares the cached bytes"
        );
        if let Some(&x) = q.select().first() {
            let pinned = FeasKey::new(q, &Constraints::none().leaf(x));
            assert!(pinned
                .canonical_bytes()
                .starts_with(q.canonical().structure()));
            assert_eq!(
                pinned,
                FeasKey::from_canonical_bytes(pinned.canonical_bytes()),
                "{what} ({tag}): continued fingerprint"
            );
        }
    }
    // Clones taken after the facts are derived share them.
    let late = q.clone();
    assert!(Arc::ptr_eq(
        q.canonical().unpinned(),
        late.canonical().unpinned()
    ));
}

#[test]
fn derived_facts_match_a_fresh_derivation_on_every_generator() {
    let pool = SharedInterner::new();
    let qcfg = QueryGenConfig {
        perturb_prob: 0.2,
        ..Default::default()
    };
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(7100 + seed);
        let ordered = ordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        let tagged = ordered_schema(
            &mut rng,
            &pool,
            &SchemaGenConfig {
                tagged: true,
                ..Default::default()
            },
        );
        let unordered = unordered_schema(&mut rng, &pool, &SchemaGenConfig::default());
        for (what, s) in [
            ("ordered", &ordered),
            ("tagged", &tagged),
            ("unordered", &unordered),
        ] {
            check_schema(s, what);
            let tg = TypeGraph::new(s);
            if let Ok(q) = joinfree_query(s, &tg, &mut rng, &qcfg) {
                check_query(&q, what);
            }
            let wild = QueryGenConfig {
                wildcard_prefix: true,
                ..qcfg
            };
            if let Ok(q) = with_node_join(s, &tg, &mut rng, &wild) {
                check_query(&q, what);
            }
        }

        let sat = Sat3::random(&mut rng, 3 + (seed % 3) as usize, 5);
        let s = parse_schema(&sat.schema_text(), &pool).unwrap();
        let q = parse_query(&sat.query_text(), &pool).unwrap();
        check_schema(&s, "3sat");
        check_query(&q, "3sat");
    }

    let dtd = parse_dtd(PAPER_DTD, &pool).unwrap();
    check_schema(&dtd, "dtd");
    assert!(dtd.class().is_dtd_minus());
    check_schema(&parse_schema(PAPER_SCHEMA, &pool).unwrap(), "paper schema");
    for src in [PAPER_QUERY, FEEDBACK_QUERY, EXTRA_QUERY] {
        check_query(&parse_query(src, &pool).unwrap(), "paper query");
    }
}

/// A query that reaches every branch of the encoder: unordered and
/// ordered collections, a label variable, a referenceable variable, a
/// value variable, int/float constants, and every regex operator.
const EXTRA_QUERY: &str = r#"SELECT X2, L
    WHERE Root = {a.b* -> X1, L -> X2, (c|_)+.d? -> &X3};
          X1 = [e -> X4];
          &X3 = V;
          X4 = 7;
          X2 = 2.5"#;

/// `(fingerprint, canonical bytes)` for each golden query under no pins,
/// the first SELECT variable pinned to type 1, and that variable leafed.
const GOLDEN: [[(u64, &str); 3]; 3] = [
    [
        (0x7ff6f67a37b5ef61, "040000000000000004000000000000000301000000000300000000010000000100000003020000000007030000000301000000030200000005020200000000070300000003010000000302000000050203000000020000000002050000005669616e75030000000002090000004162697465626f756c0100000001000000000000000000000000000000"),
        (0xc11ddfbe9b444c40, "040000000000000004000000000000000301000000000300000000010000000100000003020000000007030000000301000000030200000005020200000000070300000003010000000302000000050203000000020000000002050000005669616e75030000000002090000004162697465626f756c01000000010000000100000001000000010000000000000000000000"),
        (0x6d268f3f9a334461, "040000000000000004000000000000000301000000000300000000010000000100000003020000000007030000000301000000030200000005020200000000070300000003010000000302000000050203000000020000000002050000005669616e75030000000002090000004162697465626f756c010000000100000000000000000000000100000001000000"),
    ],
    [
        (0x25f8208395047590, "040000000000000003000000000000000301000000000702000000030000000003010000000100000001000000030200000000070300000004020302000000050202000000000702000000040203030000000300000002000000000204000000477261790100000003000000000000000000000000000000"),
        (0xa6a5ed2577199153, "0400000000000000030000000000000003010000000007020000000300000000030100000001000000010000000302000000000703000000040203020000000502020000000007020000000402030300000003000000020000000002040000004772617901000000030000000100000003000000010000000000000000000000"),
        (0x4d6e44f2c5d15d42, "04000000000000000300000000000000030100000000070200000003000000000301000000010000000100000003020000000007030000000402030200000005020200000000070200000004020303000000030000000200000000020400000047726179010000000300000000000000000000000100000003000000"),
    ],
    [
        (0x48cd8ddb96bd0097, "070000000000020001000305000000000000000203000000000702000000030000000004030100000001000000010200000003000000000702000000050802000000030200000002060303000000040000000100000003010000000003040000000500000004000000010600000005000000000007000000000000000300000000010000000000000440020000000300000002000000000000000000000000000000"),
        (0x2887f05eed66efb4, "0700000000000200010003050000000000000002030000000007020000000300000000040301000000010000000102000000030000000007020000000508020000000302000000020603030000000400000001000000030100000000030400000005000000040000000106000000050000000000070000000000000003000000000100000000000004400200000003000000020000000100000003000000010000000000000000000000"),
        (0xa382550da59a32d5, "07000000000002000100030500000000000000020300000000070200000003000000000403010000000100000001020000000300000000070200000005080200000003020000000206030300000004000000010000000301000000000304000000050000000400000001060000000500000000000700000000000000030000000001000000000000044002000000030000000200000000000000000000000100000003000000"),
    ],
];

#[test]
fn canonical_key_bytes_match_the_golden_encoding() {
    for (src, golden) in [PAPER_QUERY, FEEDBACK_QUERY, EXTRA_QUERY]
        .iter()
        .zip(GOLDEN)
    {
        // A fresh pool per query, so label ids are assigned in parse order.
        let pool = SharedInterner::new();
        let q = parse_query(src, &pool).unwrap();
        let x = q.select()[0];
        let pins = [
            Constraints::none(),
            Constraints::none().pin_type(x, TypeIdx(1)),
            Constraints::none().leaf(x),
        ];
        for (c, (fp, hex)) in pins.iter().zip(golden) {
            let key = FeasKey::new(&q, c);
            let got: String = key
                .canonical_bytes()
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(got, hex, "canonical bytes of {src} under {c:?}");
            assert_eq!(key.fingerprint(), fp, "fingerprint of {src} under {c:?}");
        }
    }
}

/// A rewrite must not inherit its source's facts. Turning the feedback
/// example's join-free query into one with a node join changes both the
/// class and the key; a slot that survived the rewrite would route the
/// joined query to the join-free engine and serve the original's verdict
/// from the memo of a session that has already answered the original.
#[test]
fn a_rewritten_query_derives_its_own_facts() {
    let pool = SharedInterner::new();
    let s = parse_schema(PAPER_SCHEMA, &pool).unwrap();
    let q = parse_query(FEEDBACK_QUERY, &pool).unwrap();
    let none = Constraints::none();

    let warm = Session::new();
    assert!(q.class().join_free());
    let original_key = FeasKey::new(&q, &none);
    let original = warm.satisfiable(&q, &s).unwrap();
    let fed = feedback_query(&q, &s, &warm).unwrap();

    // X1 = [_*.name._+ -> X2, _*.email -> X3, _*.name._+ -> X2]: X2 is
    // referred to twice.
    let x1 = q.var_by_name("X1").unwrap();
    let x2 = q.var_by_name("X2").unwrap();
    let i = q.defs().iter().position(|(v, _)| *v == x1).unwrap();
    let PatDef::Ordered(mut entries) = q.defs()[i].1.clone() else {
        panic!("X1 has an ordered definition");
    };
    entries.push(entries[0].clone());
    let joined = q.with_def_replaced(i, PatDef::Ordered(entries));

    assert_eq!(joined.class(), &QueryClass::of(&joined));
    assert_eq!(joined.class().join_vars, vec![x2]);
    assert!(q.class().join_free(), "the source keeps its own facts");
    assert_ne!(FeasKey::new(&joined, &none), original_key);

    // The reference: the same query text, parsed afresh, in a new session.
    let fresh = Session::new();
    let reparsed = parse_query(&joined.to_string(), &pool).unwrap();
    let verdict = warm.satisfiable(&joined, &s).unwrap();
    assert_eq!(verdict, fresh.satisfiable(&reparsed, &s).unwrap());
    assert_ne!(verdict, original, "the rewrite must change the answer");
    let answer = |q: &Query, sess: &Session| {
        feedback_query(q, &s, sess)
            .map(|f| f.to_string())
            .map_err(|e| e.to_string())
    };
    let warm_answer = answer(&joined, &warm);
    assert_eq!(warm_answer, answer(&reparsed, &fresh));
    assert!(
        warm_answer.is_err(),
        "feedback queries need join-free queries"
    );

    // The feedback result is itself a rewrite of `q`: its facts are its own.
    assert_eq!(fed.class(), &QueryClass::of(&fed));
    let same_ast = fed.with_def_replaced(0, fed.defs()[0].1.clone());
    assert_eq!(FeasKey::new(&fed, &none), FeasKey::new(&same_ast, &none));
}
