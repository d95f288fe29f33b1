//! `ingest`: the data plane. Each request parses a document from text,
//! checks it against its schema, and, when it conforms, evaluates the
//! schema's query on it with the adaptive evaluator `A_O` (§4.2).
//!
//! Documents are bibliographies of 50 to 1000 papers under the paper's
//! schema, and instances sampled (`sample_instance`) from a tagged and an
//! untagged schema (the forced-assignment and the candidate-search
//! conformance paths). Every tenth document has one edge relabelled
//! off-schema, so it must not conform.

use std::collections::BTreeSet;

use ssd_base::rng::{Rng, StdRng};
use ssd_base::{OidId, SharedInterner};
use ssd_gen::corpora::{bibliography, PAPER_SCHEMA};
use ssd_gen::data_gen::{sample_instance, DataGenConfig};
use ssd_model::parse_data_graph;
use ssd_optimizer::{evaluate_adaptive, evaluate_naive, CostedGraph, RootQuery};
use ssd_query::{parse_query, select_results, Bound, Query};
use ssd_schema::{conforms, parse_schema, Schema, SchemaClass, TypeGraph};

use crate::common::{clock, Acc, Config, Layers, Timed};

const SALT: u64 = 0x696e_6765_7374;
/// Timed set-ups at the start and after each replay; `setup_s` is the
/// median of all.
const SETUPS: usize = 21;
/// Nominal requests per second of service time (see [`Config::requests`]).
const RATE: f64 = 250.0;
/// A tagged schema (each label names one type): conformance forces every
/// node's type from its incoming label.
const TAGGED_SCHEMA: &str = "ROOT = [(part->P)*]; P = [pname->PN.(sub->Q)*.cost->C]; \
                             Q = [qname->QN.(qty->QT)*]; PN = string; C = int; \
                             QN = string; QT = int";
const TAGGED_QUERIES: [&str; 2] = [
    "SELECT X WHERE Root = [part.sub -> X]",
    "SELECT X WHERE Root = [_*.qname -> X]",
];
/// An untagged schema (`item` leads to three types, and `S` hangs off
/// two labels): conformance takes the general path of candidate sets,
/// pruning and search. Each type's content tells it apart from the other
/// `item` targets, so pruning leaves one candidate per node; the search
/// stays linear. (Conformance is NP-complete for untagged schemas in
/// general; content models that only the parent's type disambiguates make
/// the search exponential, so this workload keeps to the tractable
/// shape, as the 3SAT cells of `table2-cold` stay small.)
const UNTAGGED_SCHEMA: &str = "ROOT = [(item->A | item->B)*]; A = [name->S.(item->C)*]; \
                               B = [name->S.val->I]; C = [key->S.(val->I)*]; \
                               S = string; I = int";
const UNTAGGED_QUERIES: [&str; 2] = [
    "SELECT X WHERE Root = [item.item -> X]",
    "SELECT X WHERE Root = [_*.val -> X]",
];
/// Queries evaluated on bibliographies (single-entry root queries).
const BIB_QUERIES: [&str; 3] = [
    "SELECT X WHERE Root = [paper.title -> X]",
    "SELECT X WHERE Root = [_*.lastname -> X]",
    "SELECT X WHERE Root = [paper.author.email -> X]",
];

/// A schema with the query text evaluated on its documents.
struct Plane {
    schema: String,
    queries: Vec<String>,
}

struct Doc {
    text: String,
    plane: usize,
    query: usize,
    conforms: bool,
}

/// The inputs: schemas with queries, and a seeded pool of documents.
struct Inputs {
    planes: Vec<Plane>,
    docs: Vec<Doc>,
}

/// A ready data plane: parsed schemas, type graphs, compiled queries.
struct Ready {
    pool: SharedInterner,
    schemas: Vec<(Schema, TypeGraph, bool)>,
    queries: Vec<Vec<(Query, RootQuery)>>,
}

fn generate(cfg: &Config) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SALT);
    let pool = SharedInterner::new();
    let mut planes = vec![Plane {
        schema: PAPER_SCHEMA.to_owned(),
        queries: BIB_QUERIES.iter().map(|q| q.to_string()).collect(),
    }];
    let mut gen_schemas = Vec::new();
    for (schema, queries) in [
        (TAGGED_SCHEMA, &TAGGED_QUERIES),
        (UNTAGGED_SCHEMA, &UNTAGGED_QUERIES),
    ] {
        let s = parse_schema(schema, &pool).map_err(|e| e.to_string())?;
        let tg = TypeGraph::new(&s);
        planes.push(Plane {
            schema: schema.to_owned(),
            queries: queries.iter().map(|q| q.to_string()).collect(),
        });
        gen_schemas.push((s, tg));
    }

    // A fixed size schedule (only contents vary with the seed), so every
    // seed serves the same mix: 40% bibliographies on a log grid of
    // 50..1000 papers, the rest sampled instances of the tagged and
    // untagged schemas on grids of node caps; every tenth document is
    // off-schema.
    let n_docs = if cfg.full() { 40 } else { 8 };
    let n_bib = n_docs * 2 / 5;
    let mut docs = Vec::with_capacity(n_docs);
    for i in 0..n_docs {
        let (plane, text) = if i < n_bib {
            let x = i as f64 / (n_bib - 1) as f64;
            let papers = if cfg.full() {
                (50.0 * 20f64.powf(x)).round() as usize
            } else {
                3 + i
            };
            (0, bibliography(papers, 1 + i % 3))
        } else {
            let k = i - n_bib;
            // Two tagged documents per untagged one: untagged conformance
            // costs far more per node.
            let plane = if k % 3 == 2 { 2 } else { 1 };
            let (s, tg) = &gen_schemas[plane - 1];
            let x = k as f64 / (n_docs - n_bib - 1) as f64;
            let max_nodes = match (cfg.full(), plane) {
                (false, _) => 100,
                (true, 1) => 500 + (5500.0 * x) as usize,
                (true, _) => 200 + (2800.0 * x) as usize,
            };
            // Redraw until the instance reaches half its cap, so sizes
            // follow the grid.
            let mut g = sample_instance(s, tg, &mut rng, &sampling(max_nodes))
                .map_err(|e| e.to_string())?;
            for _ in 0..100 {
                if g.len() >= max_nodes / 2 {
                    break;
                }
                g = sample_instance(s, tg, &mut rng, &sampling(max_nodes))
                    .map_err(|e| e.to_string())?;
            }
            (plane, g.to_string())
        };
        let queries = planes[plane].queries.len();
        if queries == 0 {
            return Err(format!("no query generated for schema {plane}"));
        }
        let query = i % queries;
        let (text, conforms) = if i % 10 == 9 {
            (
                relabel(&text, &mut rng).ok_or("a document without edges")?,
                false,
            )
        } else {
            (text, true)
        };
        docs.push(Doc {
            text,
            plane,
            query,
            conforms,
        });
    }
    Ok(Inputs { planes, docs })
}

/// Sampler settings for generated documents of up to `max_nodes` nodes.
fn sampling(max_nodes: usize) -> DataGenConfig {
    DataGenConfig {
        continue_prob: 0.95,
        max_nodes,
    }
}

/// Replaces the label of one random edge with a label no schema emits.
fn relabel(text: &str, rng: &mut StdRng) -> Option<String> {
    let arrows: Vec<usize> = text.match_indices("->").map(|(i, _)| i).collect();
    let at = *arrows.get(rng.gen_range(0..arrows.len().max(1)))?;
    let head = text[..at].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    Some(format!("{}offschema {}", &text[..start], &text[at..]))
}

fn ready(inputs: &Inputs) -> Result<Ready, String> {
    let pool = SharedInterner::new();
    let mut schemas = Vec::new();
    let mut queries = Vec::new();
    for plane in &inputs.planes {
        let s = parse_schema(&plane.schema, &pool).map_err(|e| e.to_string())?;
        let tg = TypeGraph::new(&s);
        // Compile every content model now, not on the first document.
        for t in s.types() {
            s.compiled(t);
        }
        let tagged = SchemaClass::of(&s).tagged;
        let qs = plane
            .queries
            .iter()
            .map(|text| {
                let q = parse_query(text, &pool).map_err(|e| e.to_string())?;
                let rq = RootQuery::compile(&q).map_err(|e| e.to_string())?;
                Ok((q, rq))
            })
            .collect::<Result<Vec<_>, String>>()?;
        schemas.push((s, tg, tagged));
        queries.push(qs);
    }
    Ok(Ready {
        pool,
        schemas,
        queries,
    })
}

/// The reference answer: the reference evaluator's result tuples,
/// computed on a separate parse of the same text.
fn reference(r: &Ready, d: &Doc) -> Result<Option<BTreeSet<Vec<OidId>>>, String> {
    if !d.conforms {
        return Ok(None);
    }
    let g = parse_data_graph(&d.text, &r.pool).map_err(|e| e.to_string())?;
    let (q, _) = &r.queries[d.plane][d.query];
    select_results(q, &g)
        .into_iter()
        .map(|tuple| {
            tuple
                .into_iter()
                .map(|b| match b {
                    Some(Bound::Node(o)) => Ok(o),
                    other => Err(format!("selected variable bound to {other:?}")),
                })
                .collect()
        })
        .collect::<Result<_, String>>()
        .map(Some)
}

/// One request's answer: `None` when the document was rejected.
type Answer = ssd_base::Result<Option<BTreeSet<Vec<OidId>>>>;

fn serve(r: &Ready, d: &Doc) -> Answer {
    let g = parse_data_graph(&d.text, &r.pool)?;
    let (s, tg, _) = &r.schemas[d.plane];
    if conforms(&g, s).is_none() {
        return Ok(None);
    }
    let (q, rq) = &r.queries[d.plane][d.query];
    Ok(Some(evaluate_adaptive(&CostedGraph::new(&g), rq, q, s, tg)))
}

struct Prepared {
    inputs: Inputs,
    ready: Ready,
    refs: Vec<Option<BTreeSet<Vec<OidId>>>>,
    setups: Vec<f64>,
}

fn prepare(cfg: &Config) -> Result<Prepared, String> {
    let inputs = generate(cfg)?;
    let (setups, ready) = time_setups(&inputs)?;
    let mut refs = inputs
        .docs
        .iter()
        .map(|d| reference(&ready, d))
        .collect::<Result<Vec<_>, String>>()?;
    if cfg.flip_reference {
        // Negative control: the first document's expected answer flips
        // between "rejected" and "accepted with no results".
        refs[0] = match refs[0] {
            Some(_) => None,
            None => Some(BTreeSet::new()),
        };
    }
    Ok(Prepared {
        inputs,
        ready,
        refs,
        setups,
    })
}

/// Times [`SETUPS`] set-ups; returns the times and the last one's result.
fn time_setups(inputs: &Inputs) -> Result<(Vec<f64>, Ready), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let (r, ns) = clock(|| ready(inputs));
        times.push(ns as f64 / 1e9);
        last = Some(r?);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// Document order: seeded shuffles of the whole pool, back to back, so
/// every document is served equally often. The first request is doc 0.
struct Order {
    rng: StdRng,
    n: usize,
    queue: Vec<usize>,
}

impl Order {
    fn new(cfg: &Config, n: usize) -> Order {
        Order {
            rng: StdRng::seed_from_u64(cfg.seed ^ SALT ^ 0x006f_7264_6572),
            n,
            queue: vec![0],
        }
    }

    fn next(&mut self) -> usize {
        if self.queue.is_empty() {
            self.queue = (0..self.n).collect();
            for i in (1..self.n).rev() {
                self.queue.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.queue.pop().expect("refilled above")
    }
}

pub fn timed(cfg: &Config) -> Result<Timed, String> {
    let prep = prepare(cfg)?;
    let docs = &prep.inputs.docs;
    let mut out = Timed {
        setups: prep.setups.clone(),
        ..Timed::default()
    };
    // Every replay serves the same document order.
    let mut order = Order::new(cfg, docs.len());
    let seq: Vec<usize> = (0..cfg.requests(RATE)).map(|_| order.next()).collect();
    out.start(seq.len() * cfg.replays)?;
    for replay in 0..cfg.replays {
        if replay > 0 {
            cfg.pause_before_replay();
        }
        for &i in &seq {
            let (ans, ns) = clock(|| serve(&prep.ready, &docs[i]));
            out.latencies_ns.push(ns);
            out.tally
                .record(matches!(&ans, Ok(a) if *a == prep.refs[i]), true);
        }
        out.setups.extend(time_setups(&prep.inputs)?.0);
    }
    let bytes: usize = seq.iter().map(|&i| docs[i].text.len()).sum();
    let tagged = seq
        .iter()
        .filter(|&&i| prep.ready.schemas[docs[i].plane].2)
        .count();
    let off = seq.iter().filter(|&&i| !docs[i].conforms).count();
    let n = seq.len();
    out.property("requests", n);
    out.property("documents_in_pool", docs.len());
    out.property("tagged_doc_share", tagged as f64 / n.max(1) as f64);
    out.property("untagged_doc_share", 1.0 - tagged as f64 / n.max(1) as f64);
    out.property("off_schema_share", off as f64 / n.max(1) as f64);
    out.property("total_mib", bytes as f64 / (1 << 20) as f64);
    Ok(out)
}

pub fn traced(cfg: &Config) -> Result<Layers, String> {
    let prep = prepare(cfg)?;
    let docs = &prep.inputs.docs;
    let r = &prep.ready;
    let mut layers = Layers::default();
    let (mut parse, mut conf_tagged, mut conf_untagged, mut adaptive) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let (mut bytes, mut explored, mut naive) = (0usize, 0u64, 0u64);
    let mut order = Order::new(cfg, docs.len());
    let (n, mut served, mut busy) = (cfg.requests(RATE), 0, 0u64);
    while served < n {
        let i = order.next();
        let d = &docs[i];
        let (ok, ns) = clock(|| {
            let Ok(g) = parse.time(|| parse_data_graph(&d.text, &r.pool)) else {
                return false;
            };
            bytes += d.text.len();
            let (s, tg, tagged) = &r.schemas[d.plane];
            let conf = if *tagged {
                &mut conf_tagged
            } else {
                &mut conf_untagged
            };
            if conf.time(|| conforms(&g, s)).is_none() {
                return prep.refs[i].is_none();
            }
            let (q, rq) = &r.queries[d.plane][d.query];
            let cg = CostedGraph::new(&g);
            let found = adaptive.time(|| evaluate_adaptive(&cg, rq, q, s, tg));
            explored += cg.cost();
            let cg_naive = CostedGraph::new(&g);
            evaluate_naive(&cg_naive, rq);
            naive += cg_naive.cost();
            prep.refs[i].as_ref() == Some(&found)
        });
        busy += ns;
        served += 1;
        layers.tally.record(ok, true);
    }
    layers.throughput = served as f64 / (busy as f64 / 1e9).max(1e-12);
    let parse_s = parse.ns as f64 / 1e9;
    layers.set(
        "model.parse_mib_s",
        bytes as f64 / (1 << 20) as f64 / parse_s.max(1e-12),
    );
    layers.set_us("schema.conform_tagged_us", &conf_tagged);
    layers.set_us("schema.conform_untagged_us", &conf_untagged);
    layers.set_us("optimizer.adaptive_us", &adaptive);
    layers.set("optimizer.edges_explored", explored as f64);
    layers.set("optimizer.edges_naive", naive as f64);
    let total = (parse.ns + conf_tagged.ns + conf_untagged.ns + adaptive.ns).max(1) as f64;
    layers.notes.push(format!(
        "ingest time shares: model parser {:.3}, conformance {:.3} (tagged {:.3}, untagged {:.3}), \
         A_O {:.3}",
        parse.ns as f64 / total,
        (conf_tagged.ns + conf_untagged.ns) as f64 / total,
        conf_tagged.ns as f64 / total,
        conf_untagged.ns as f64 / total,
        adaptive.ns as f64 / total
    ));
    Ok(layers)
}
