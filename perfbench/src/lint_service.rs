//! `lint-service`: a restarted type-check service answering a fixed,
//! snapshot-warmed catalogue of queries.
//!
//! The catalogue is eight generated ordered schemas (half tagged) plus the
//! paper's bibliography DTD, with join-free and node-join queries for
//! each. An untimed pre-pass answers every catalogue request once and
//! saves a snapshot; set-up parses the catalogue and loads that snapshot.
//! Requests are pre-parsed, drawn Zipf-skewed from the catalogue, and mix
//! `satisfiable`, `lint_with`, `total_type_check` and `infer`; a share of
//! the `satisfiable` requests carry never-seen queries (edits), so memo
//! inserts run beside hits.

use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

use ssd_base::rng::{Rng, StdRng};
use ssd_base::SharedInterner;
use ssd_core::{
    solver, Budget, Constraints, FeasKey, InferredAssignment, LoadOutcome, SatOutcome, Session,
    TypeAssignment, Verdict,
};
use ssd_gen::corpora::PAPER_DTD;
use ssd_gen::query_gen::{joinfree_query, with_node_join, QueryGenConfig};
use ssd_gen::schema_gen::{ordered_schema, SchemaGenConfig};
use ssd_lint::{Code, LintReport};
use ssd_obs::MetricsRegistry;
use ssd_query::{parse_query, Query, QueryClass, VarKind};
use ssd_schema::{parse_dtd, parse_schema, Schema, SchemaClass, TypeGraph};

use crate::common::{clock, median, snapshot_path, unit, Acc, Config, Layers, Timed, Zipf};

const SALT: u64 = 0x6c69_6e74_2d73_7663;
/// Seed of the catalogue's schemas, fixed across runs.
const SCHEMA_SEED: u64 = 0x0063_6174_616c_6f67;
/// Fuel of the reference solver; a query it cannot decide is dropped.
const REF_FUEL: u64 = 5_000_000;
/// Request mix: `satisfiable`, `lint_with`, `total_type_check`, `infer`.
const MIX: [f64; 4] = [0.85, 0.10, 0.03, 0.02];
/// Share of all requests that are never-seen `satisfiable` queries.
const EDIT_SHARE: f64 = 0.05;
/// Timed set-ups (boots) after each replay; `setup_s` is the median of
/// all.
const SETUPS: usize = 2;
/// Nominal requests per second of service time (see [`Config::requests`]).
const RATE: f64 = 70_000.0;

enum Syntax {
    ScmDl,
    Dtd,
}

struct CatQuery {
    schema: usize,
    /// Position within its schema's catalogue (fixes shape and class).
    slot: usize,
    text: String,
    sat: bool,
}

struct CatCheck {
    schema: usize,
    /// Position among its schema's checks.
    slot: usize,
    text: String,
    /// Variable name → type name.
    assignment: Vec<(String, String)>,
    holds: bool,
}

/// The catalogue as text, with reference answers.
struct Catalogue {
    schemas: Vec<(Syntax, String)>,
    queries: Vec<CatQuery>,
    checks: Vec<CatCheck>,
    /// Generated queries the reference solver could not decide in fuel.
    dropped: usize,
}

/// What a service holds after parsing the catalogue.
struct Parsed {
    schemas: Vec<Schema>,
    queries: Vec<Query>,
    checks: Vec<(Query, TypeAssignment)>,
}

fn parse_schemas(texts: &[(Syntax, String)], pool: &SharedInterner) -> Result<Vec<Schema>, String> {
    texts
        .iter()
        .map(|(syntax, text)| match syntax {
            Syntax::ScmDl => parse_schema(text, pool),
            Syntax::Dtd => parse_dtd(text, pool),
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("catalogue schema: {e}"))
}

fn assignment(q: &Query, s: &Schema, names: &[(String, String)]) -> Result<TypeAssignment, String> {
    let mut a = TypeAssignment::new();
    for (var, ty) in names {
        let v = q
            .var_by_name(var)
            .ok_or_else(|| format!("no variable {var}"))?;
        let t = s.by_name(ty).ok_or_else(|| format!("no type {ty}"))?;
        a = a.with_type(v, t);
    }
    Ok(a)
}

/// Parses the catalogue in a fixed order, so every parse interns labels
/// identically (the snapshot's label pool must agree with the live one).
fn parse(cat: &Catalogue) -> Result<Parsed, String> {
    let pool = SharedInterner::new();
    let schemas = parse_schemas(&cat.schemas, &pool)?;
    let queries = cat
        .queries
        .iter()
        .map(|c| parse_query(&c.text, &pool).map_err(|e| format!("catalogue query: {e}")))
        .collect::<Result<_, _>>()?;
    let checks = cat
        .checks
        .iter()
        .map(|c| {
            let q = parse_query(&c.text, &pool).map_err(|e| format!("catalogue check: {e}"))?;
            let a = assignment(&q, &schemas[c.schema], &c.assignment)?;
            Ok((q, a))
        })
        .collect::<Result<_, String>>()?;
    Ok(Parsed {
        schemas,
        queries,
        checks,
    })
}

/// The reference verdict: the general search, under fuel, in its own
/// session.
fn reference_sat(q: &Query, s: &Schema, c: &Constraints, reference: &Session) -> Option<bool> {
    let budget = Budget::unlimited().with_fuel(REF_FUEL);
    solver::solve_with_in_b(q, s, c, reference, &budget)
        .ok()
        .map(|r| r.satisfiable)
}

/// A random join-free or node-join query. Catalogue query `k` of each
/// schema has one shape (two definitions of two entries over label paths
/// of two) and a class fixed by `k` (every fourth a node join, every
/// third wildcard-prefixed, every twentieth carrying an off-schema label),
/// so every seed's catalogue puts the same mix at the same Zipf ranks and
/// only the label paths vary. Edits (`k` = `None`) draw shape and class at
/// random, from a space large enough to stay never-seen.
fn random_query(
    s: &Schema,
    tg: &TypeGraph,
    rng: &mut StdRng,
    k: Option<usize>,
) -> ssd_base::Result<Query> {
    let (shape, wildcard, perturb, join) = match k {
        Some(k) => ([2, 2, 2], k % 3 == 2, k % 20 == 19, k % 4 == 3),
        None => (
            [0; 3].map(|_| rng.gen_range(1..=3)),
            rng.gen_bool(0.3),
            rng.gen_bool(0.05),
            rng.gen_bool(0.25),
        ),
    };
    let cfg = QueryGenConfig {
        num_defs: shape[0],
        fanout: shape[1],
        path_len: shape[2],
        wildcard_prefix: wildcard,
        perturb_prob: if perturb { 0.5 } else { 0.0 },
    };
    if join {
        with_node_join(s, tg, rng, &cfg)
    } else {
        joinfree_query(s, tg, rng, &cfg)
    }
}

fn generate(cfg: &Config) -> Result<Catalogue, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ SALT);
    let (n_schemas, per_schema, checks_per_schema) =
        if cfg.full() { (8, 64, 4) } else { (2, 8, 2) };
    // The schemas are the same for every seed (a random schema's costs vary
    // too much between draws for run-to-run comparison); the seed varies
    // the queries, the traffic and the edits.
    let mut srng = StdRng::seed_from_u64(SCHEMA_SEED);
    let gen_pool = SharedInterner::new();
    let mut schemas = Vec::new();
    for i in 0..n_schemas {
        let scfg = SchemaGenConfig {
            // 16, 18, ..., 30 types.
            num_types: 16 + 2 * i,
            tagged: i % 2 == 0,
            ..Default::default()
        };
        schemas.push((
            Syntax::ScmDl,
            ordered_schema(&mut srng, &gen_pool, &scfg).to_string(),
        ));
    }
    schemas.push((Syntax::Dtd, PAPER_DTD.to_owned()));

    // Queries are generated against a parse of the catalogue text, so
    // their labels and type names are the ones the service will see.
    let pool = SharedInterner::new();
    let parsed = parse_schemas(&schemas, &pool)?;
    let reference = Session::new();
    let (mut queries, mut checks, mut dropped) = (Vec::new(), Vec::new(), 0);
    let mut seen = HashSet::new();
    for (si, s) in parsed.iter().enumerate() {
        let tg = TypeGraph::new(s);
        let mut made_checks = 0;
        for k in 0..per_schema {
            // A few draws per slot: duplicates and undecided ones are redrawn.
            let drawn = (0..8).find_map(|_| {
                let q = random_query(s, &tg, &mut rng, Some(k)).ok()?;
                let text = q.to_string();
                if !seen.insert(text.clone()) {
                    return None;
                }
                let sat = reference_sat(&q, s, &Constraints::none(), &reference);
                dropped += usize::from(sat.is_none());
                Some((q, text, sat?))
            });
            let Some((q, text, sat)) = drawn else {
                continue;
            };
            if sat && made_checks < checks_per_schema && QueryClass::of(&q).join_free() {
                if let Some(c) = check_item(si, made_checks, s, &text, &pool, &reference)? {
                    checks.push(c);
                    made_checks += 1;
                }
            }
            queries.push(CatQuery {
                schema: si,
                slot: k,
                text,
                sat,
            });
        }
    }
    Ok(Catalogue {
        schemas,
        queries,
        checks,
        dropped,
    })
}

/// A total-type-check item: the query with every variable selected, one
/// assignment `infer` returns for it, and the reference solver's verdict
/// on that assignment with every variable pinned.
fn check_item(
    si: usize,
    slot: usize,
    s: &Schema,
    text: &str,
    pool: &SharedInterner,
    reference: &Session,
) -> Result<Option<CatCheck>, String> {
    let q = parse_query(text, pool).map_err(|e| e.to_string())?;
    let vars: Vec<&str> = q
        .vars()
        .filter(|&v| {
            v != q.root_var() && matches!(q.kind(v), VarKind::Node { .. } | VarKind::Value)
        })
        .map(|v| q.var_name(v))
        .collect();
    let Some((_, body)) = text.split_once("\nWHERE ") else {
        return Ok(None);
    };
    let all = format!("SELECT {}\nWHERE {body}", vars.join(", "));
    let qa = parse_query(&all, pool).map_err(|e| e.to_string())?;
    let budget = Budget::unlimited().with_fuel(REF_FUEL);
    let Ok(Verdict::Done(found)) = reference.infer_budgeted(&qa, s, &budget) else {
        return Ok(None);
    };
    let Some(first) = found.first() else {
        return Ok(None);
    };
    let mut names = vec![(
        qa.var_name(qa.root_var()).to_owned(),
        s.name(s.root()).to_owned(),
    )];
    for (v, val) in &first.entries {
        let ssd_core::infer::InferredValue::Type(t) = val else {
            return Ok(None);
        };
        names.push((qa.var_name(*v).to_owned(), s.name(*t).to_owned()));
    }
    let a = assignment(&qa, s, &names)?;
    let Some(holds) = reference_sat(&qa, s, &a.to_constraints(), reference) else {
        return Ok(None);
    };
    Ok(Some(CatCheck {
        schema: si,
        slot,
        text: all,
        assignment: names,
        holds,
    }))
}

/// Answers every catalogue request once in a fresh session and saves its
/// snapshot (the untimed pre-pass).
fn write_snapshot(cat: &Catalogue, path: &Path) -> Result<u64, String> {
    let p = parse(cat)?;
    let sess = Session::new();
    for (c, q) in cat.queries.iter().zip(&p.queries) {
        let s = &p.schemas[c.schema];
        sess.satisfiable(q, s).map_err(|e| e.to_string())?;
        ssd_lint::lint_with(q, s, &Constraints::none(), &sess, Budget::unlimited_ref())
            .map_err(|e| e.to_string())?;
        sess.infer(q, s).map_err(|e| e.to_string())?;
    }
    for (c, (q, a)) in cat.checks.iter().zip(&p.checks) {
        sess.total_type_check(q, &p.schemas[c.schema], a)
            .map_err(|e| e.to_string())?;
    }
    let schemas: Vec<&Schema> = p.schemas.iter().collect();
    sess.save_snapshot(path, &schemas)
        .map_err(|e| format!("saving the snapshot: {e}"))
}

/// A ready service: parsed catalogue plus a snapshot-warmed session.
struct Service {
    parsed: Parsed,
    sess: Session,
    load: LoadOutcome,
    load_ns: u64,
    /// Never-seen queries served so far, parsed into this service's pool,
    /// with their schema index.
    edits: Vec<(Query, usize)>,
}

fn boot(cat: &Catalogue, path: &Path, sess: Session) -> Result<Service, String> {
    let parsed = parse(cat)?;
    let schemas: Vec<&Schema> = parsed.schemas.iter().collect();
    let (load, load_ns) = clock(|| sess.load_snapshot(path, &schemas));
    // A silently cold "warm" service would measure a different program.
    if load.sections_rejected > 0 || !load.any_loaded() {
        return Err(format!(
            "load_snapshot rejected {} section(s) ({:?}); refusing to run cold",
            load.sections_rejected, load.rejects
        ));
    }
    Ok(Service {
        parsed,
        sess,
        load,
        load_ns,
        edits: Vec::new(),
    })
}

fn shipping_session() -> Session {
    Session::with_telemetry(Arc::new(MetricsRegistry::new()), 0.01)
}

enum Op {
    Sat(usize),
    Lint(usize),
    Check(usize),
    Infer(usize),
    /// A never-seen query, by index into [`Traffic::edits`].
    Edit(usize),
}

/// A never-seen query as text, with its schema and reference verdict.
struct Edit {
    text: String,
    schema: usize,
    sat: bool,
}

enum Answer {
    Sat(ssd_base::Result<SatOutcome>),
    Lint(ssd_base::Result<LintReport>),
    Check(ssd_base::Result<bool>),
    Infer(ssd_base::Result<Vec<InferredAssignment>>),
}

/// Request generator: Zipf over the catalogue, ranks going round the
/// schemas slot by slot.
struct Traffic {
    rng: StdRng,
    /// A parse of the catalogue that edits are generated against.
    parsed: Parsed,
    queries: Zipf,
    checks: Zipf,
    perm: Vec<usize>,
    check_perm: Vec<usize>,
    seen: HashSet<String>,
    reference: Session,
    edits: Vec<Edit>,
}

impl Traffic {
    fn new(cfg: &Config, cat: &Catalogue) -> Result<Traffic, String> {
        let rng = StdRng::seed_from_u64(cfg.seed ^ SALT ^ 0x7472_6166);
        // Zipf ranks go round the schemas slot by slot, so the hot set has
        // the same composition for every seed.
        let mut perm: Vec<usize> = (0..cat.queries.len()).collect();
        perm.sort_by_key(|&i| (cat.queries[i].slot, cat.queries[i].schema));
        let mut check_perm: Vec<usize> = (0..cat.checks.len()).collect();
        check_perm.sort_by_key(|&i| (cat.checks[i].slot, cat.checks[i].schema));
        Ok(Traffic {
            rng,
            parsed: parse(cat)?,
            queries: Zipf::new(cat.queries.len()),
            checks: Zipf::new(cat.checks.len()),
            perm,
            check_perm,
            seen: cat.queries.iter().map(|c| c.text.clone()).collect(),
            reference: Session::new(),
            edits: Vec::new(),
        })
    }

    /// The catalogue item the negative control flips: the most popular.
    fn hottest(&self) -> usize {
        self.perm[0]
    }

    /// A fresh query against one of the catalogue's schemas, with its
    /// reference verdict.
    fn edit(&mut self) -> Op {
        loop {
            let si = self.rng.gen_range(0..self.parsed.schemas.len());
            let s = &self.parsed.schemas[si];
            // The reference session caches each schema's type graph.
            let tg = self.reference.type_graph(s);
            let Ok(q) = random_query(s, &tg, &mut self.rng, None) else {
                continue;
            };
            let text = q.to_string();
            if !self.seen.insert(text.clone()) {
                continue;
            }
            if let Some(sat) = reference_sat(&q, s, &Constraints::none(), &self.reference) {
                self.edits.push(Edit {
                    text,
                    schema: si,
                    sat,
                });
                return Op::Edit(self.edits.len() - 1);
            }
        }
    }

    /// The first `n` requests, with the references of their edits.
    fn ops(&mut self, n: usize) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let u = unit(&mut self.rng);
                if u < MIX[0] {
                    if self.rng.gen_bool(EDIT_SHARE / MIX[0]) {
                        self.edit()
                    } else {
                        Op::Sat(self.perm[self.queries.sample(&mut self.rng)])
                    }
                } else if u < MIX[0] + MIX[1] {
                    Op::Lint(self.perm[self.queries.sample(&mut self.rng)])
                } else if u < MIX[0] + MIX[1] + MIX[2] && !self.check_perm.is_empty() {
                    Op::Check(self.check_perm[self.checks.sample(&mut self.rng)])
                } else {
                    Op::Infer(self.perm[self.queries.sample(&mut self.rng)])
                }
            })
            .collect()
    }

    /// A booted service with every edit parsed into it (untimed), ready to
    /// serve.
    fn with_edits(&self, mut svc: Service) -> Result<Service, String> {
        for e in &self.edits {
            let q = parse_query(&e.text, svc.parsed.schemas[e.schema].pool())
                .map_err(|e| format!("edit: {e}"))?;
            svc.edits.push((q, e.schema));
        }
        Ok(svc)
    }
}

fn serve(svc: &Service, cat: &Catalogue, op: &Op) -> Answer {
    let p = &svc.parsed;
    let sess = &svc.sess;
    let schema = |i: usize| &p.schemas[cat.queries[i].schema];
    match op {
        Op::Sat(i) => Answer::Sat(sess.satisfiable(&p.queries[*i], schema(*i))),
        Op::Edit(i) => {
            let (q, si) = &svc.edits[*i];
            Answer::Sat(sess.satisfiable(q, &p.schemas[*si]))
        }
        Op::Lint(i) => Answer::Lint(ssd_lint::lint_with(
            &p.queries[*i],
            schema(*i),
            &Constraints::none(),
            sess,
            Budget::unlimited_ref(),
        )),
        Op::Check(i) => {
            let (q, a) = &p.checks[*i];
            Answer::Check(sess.total_type_check(q, &p.schemas[cat.checks[*i].schema], a))
        }
        Op::Infer(i) => Answer::Infer(sess.infer(&p.queries[*i], schema(*i))),
    }
}

/// Whether `ans` agrees with the reference; `flipped` is the catalogue
/// item whose reference the negative control inverts.
fn judge(cat: &Catalogue, edits: &[Edit], op: &Op, ans: &Answer, flipped: Option<usize>) -> bool {
    let sat = |i: usize| cat.queries[i].sat != (flipped == Some(i));
    match (op, ans) {
        (Op::Sat(i), Answer::Sat(Ok(o))) => o.satisfiable == sat(*i),
        (Op::Edit(i), Answer::Sat(Ok(o))) => o.satisfiable == edits[*i].sat,
        (Op::Lint(i), Answer::Lint(Ok(r))) => (r.count(Code::UnsatQuery) > 0) != sat(*i),
        (Op::Check(i), Answer::Check(Ok(holds))) => *holds == cat.checks[*i].holds,
        (Op::Infer(i), Answer::Infer(Ok(found))) => found.is_empty() != sat(*i),
        _ => false,
    }
}

fn decided(ans: &Answer) -> bool {
    match ans {
        Answer::Lint(Ok(r)) => r.count(Code::BudgetExhausted) == 0,
        _ => true,
    }
}

/// A prepared run: catalogue and snapshot on disk.
struct Prepared {
    cat: Catalogue,
    path: std::path::PathBuf,
    setups: Vec<f64>,
    snapshot_bytes: u64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Prepares a run; also returns the service the last timed set-up booted.
fn prepare(cfg: &Config) -> Result<(Prepared, Service), String> {
    let cat = generate(cfg)?;
    let path = snapshot_path("lint-service");
    let written = write_snapshot(&cat, &path);
    let snapshot_bytes = match written {
        Ok(n) => n,
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    };
    let mut setups = Vec::new();
    let mut svc = None;
    for _ in 0..SETUPS {
        let (booted, ns) = clock(|| boot(&cat, &path, shipping_session()));
        setups.push(ns as f64 / 1e9);
        svc = Some(booted);
    }
    let svc = match svc.expect("at least one set-up") {
        Ok(s) => s,
        Err(e) => {
            let _ = std::fs::remove_file(&path);
            return Err(e);
        }
    };
    let prep = Prepared {
        cat,
        path,
        setups,
        snapshot_bytes,
    };
    Ok((prep, svc))
}

/// Times [`SETUPS`] boots into `setups` (right after a replay, while the
/// host is busy rather than just back from idling).
fn time_boots(prep: &Prepared, setups: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..SETUPS {
        let (booted, ns) = clock(|| boot(&prep.cat, &prep.path, shipping_session()));
        booted?;
        setups.push(ns as f64 / 1e9);
    }
    Ok(())
}

fn properties(out: &mut Timed, cat: &Catalogue, served: usize, repeats: usize, edits: usize) {
    let unsat = cat.queries.iter().filter(|c| !c.sat).count();
    out.property("requests", served);
    out.property("schemas", cat.schemas.len());
    out.property("catalogue_queries", cat.queries.len());
    out.property("catalogue_checks", cat.checks.len());
    out.property(
        "catalogue_unsat_share",
        unsat as f64 / cat.queries.len().max(1) as f64,
    );
    out.property("reference_undecided_dropped", cat.dropped);
    out.property("repeat_share", repeats as f64 / served.max(1) as f64);
    out.property("fresh_query_share", edits as f64 / served.max(1) as f64);
}

/// Key of a request for the repeat-share statistic (edits never repeat).
fn op_key(op: &Op) -> Option<(u8, usize)> {
    match op {
        Op::Sat(i) => Some((0, *i)),
        Op::Lint(i) => Some((1, *i)),
        Op::Check(i) => Some((2, *i)),
        Op::Infer(i) => Some((3, *i)),
        Op::Edit(..) => None,
    }
}

pub fn timed(cfg: &Config) -> Result<Timed, String> {
    let (prep, svc) = prepare(cfg)?;
    drop(svc);
    let mut traffic = Traffic::new(cfg, &prep.cat)?;
    let flipped = cfg.flip_reference.then(|| traffic.hottest());
    let mut out = Timed {
        setups: prep.setups.clone(),
        ..Timed::default()
    };
    // The traffic and its references are made before the first timed
    // pass; every replay restarts the service and serves the same
    // requests, so the edits stay never-seen.
    let ops = traffic.ops(cfg.requests(RATE));
    out.start(ops.len() * cfg.replays)?;
    for replay in 0..cfg.replays {
        if replay > 0 {
            cfg.pause_before_replay();
        }
        let svc = boot(&prep.cat, &prep.path, shipping_session())?;
        let svc = traffic.with_edits(svc)?;
        for op in &ops {
            let (ans, ns) = clock(|| serve(&svc, &prep.cat, op));
            out.latencies_ns.push(ns);
            let ok = judge(&prep.cat, &traffic.edits, op, &ans, flipped);
            out.tally.record(ok, decided(&ans));
        }
        drop(svc);
        time_boots(&prep, &mut out.setups)?;
    }
    let mut seen = HashSet::new();
    let repeats = ops
        .iter()
        .filter_map(op_key)
        .filter(|k| !seen.insert(*k))
        .count();
    properties(&mut out, &prep.cat, ops.len(), repeats, traffic.edits.len());
    Ok(out)
}

pub fn traced(cfg: &Config) -> Result<Layers, String> {
    let (prep, svc) = prepare(cfg)?;
    let mut traffic = Traffic::new(cfg, &prep.cat)?;
    let flipped = cfg.flip_reference.then(|| traffic.hottest());
    let mut layers = Layers::default();

    // Set-up layers, on this workload's own catalogue.
    let (mut q_parse, mut s_parse, mut s_tg) = (Acc::default(), Acc::default(), Acc::default());
    let pool = SharedInterner::new();
    let mut schemas = Vec::new();
    for (syntax, text) in &prep.cat.schemas {
        let s = s_parse.time(|| match syntax {
            Syntax::ScmDl => parse_schema(text, &pool),
            Syntax::Dtd => parse_dtd(text, &pool),
        });
        let s = s.map_err(|e| e.to_string())?;
        s_tg.time(|| TypeGraph::new(&s));
        schemas.push(s);
    }
    for c in &prep.cat.queries {
        q_parse
            .time(|| parse_query(&c.text, &pool))
            .map_err(|e| e.to_string())?;
    }
    layers.set_us("query.parse_us", &q_parse);
    layers.set_us("schema.parse_us", &s_parse);
    layers.set_us("schema.type_graph_us", &s_tg);
    layers.set("snapshot.load_ms", svc.load_ns as f64 / 1e6);
    layers.set("snapshot.bytes", prep.snapshot_bytes as f64);
    layers.set("snapshot.sections_loaded", svc.load.sections_loaded as f64);

    let ops = traffic.ops(cfg.requests(RATE));
    let svc = traffic.with_edits(svc)?;
    let mut acc = TraceAccs::default();
    let mut busy = 0u64;
    for op in &ops {
        // Throughput here includes the tracing calls around each request.
        let ((ok, done), ns) =
            clock(|| acc.serve_traced(&svc, &prep.cat, &traffic.edits, op, flipped));
        busy += ns;
        layers.tally.record(ok, done);
    }
    layers.throughput = ops.len() as f64 / (busy as f64 / 1e9).max(1e-12);
    acc.publish(&mut layers, &svc.sess);
    let slice = &ops[..ops.len().min(20_000)];
    layers.set("obs.telemetry_ratio", telemetry_ratio(&prep, slice)?);
    Ok(layers)
}

#[derive(Default)]
struct TraceAccs {
    q_classify: Acc,
    s_classify: Acc,
    feas_key: Acc,
    hit: Acc,
    miss: Acc,
    lint: Acc,
    infer: Acc,
    check: Acc,
    /// Time spent inside the served calls, for the shares below.
    served_ns: u64,
}

impl TraceAccs {
    /// Serves `op`, timing the public calls of each layer it crosses.
    /// Returns (correct, decided).
    fn serve_traced(
        &mut self,
        svc: &Service,
        cat: &Catalogue,
        edits: &[Edit],
        op: &Op,
        flipped: Option<usize>,
    ) -> (bool, bool) {
        let p = &svc.parsed;
        let (q, s) = match op {
            Op::Sat(i) | Op::Lint(i) | Op::Infer(i) => {
                (&p.queries[*i], &p.schemas[cat.queries[*i].schema])
            }
            Op::Check(i) => (&p.checks[*i].0, &p.schemas[cat.checks[*i].schema]),
            Op::Edit(i) => (&svc.edits[*i].0, &p.schemas[svc.edits[*i].1]),
        };
        if matches!(op, Op::Sat(_) | Op::Edit(..)) {
            self.q_classify.time(|| QueryClass::of(q));
            self.s_classify.time(|| SchemaClass::of(s));
            self.feas_key.time(|| FeasKey::new(q, &Constraints::none()));
        }
        let before = svc.sess.stats().feas_memo_table;
        let (ans, ns) = clock(|| serve(svc, cat, op));
        self.served_ns += ns;
        match op {
            Op::Sat(_) | Op::Edit(..) => {
                let after = svc.sess.stats().feas_memo_table;
                if after.misses > before.misses {
                    self.miss.add(ns)
                } else if after.hits > before.hits {
                    self.hit.add(ns)
                }
            }
            Op::Lint(_) => self.lint.add(ns),
            Op::Check(_) => self.check.add(ns),
            Op::Infer(_) => self.infer.add(ns),
        }
        (judge(cat, edits, op, &ans, flipped), decided(&ans))
    }

    fn publish(&self, layers: &mut Layers, sess: &Session) {
        layers.set_us("query.classify_us", &self.q_classify);
        layers.set_us("schema.classify_us", &self.s_classify);
        layers.set_us("core.feas_key_us", &self.feas_key);
        layers.set_us("core.verdict_hit_us", &self.hit);
        layers.set_us("core.verdict_miss_us", &self.miss);
        layers.set_us("lint.lint_us", &self.lint);
        layers.set_us("core.infer_us", &self.infer);
        layers.set_us("core.typecheck_us", &self.check);
        let st = sess.stats();
        layers.set("core.feas_memo.hit_ratio", st.feas_memo_table.hit_ratio());
        layers.set("core.type_graph.hit_ratio", st.type_graph_table.hit_ratio());
        layers.set("core.evicted", st.evicted as f64);
        layers.set("automata.hit_ratio", st.automata.hit_ratio());
        layers.set("automata.misses", st.automata.misses as f64);
        layers.set("automata.compiled_bytes", st.automata.compiled_bytes as f64);
        layers.set("automata.evicted", st.automata.evicted as f64);
        let total = self.served_ns.max(1) as f64;
        let share = |a: &Acc| a.ns as f64 / total;
        layers.notes.push(format!(
            "lint-service time shares: sat hits {:.3}, sat misses (edits) {:.3}, lint {:.3}, \
             check {:.3}, infer {:.3}",
            share(&self.hit),
            share(&self.miss),
            share(&self.lint),
            share(&self.check),
            share(&self.infer)
        ));
    }
}

/// The shipping session's time over a no-op session's on the same slice
/// of catalogue `satisfiable` requests, both snapshot-warmed. Rounds
/// alternate between the two; the ratio is of per-side medians.
fn telemetry_ratio(prep: &Prepared, slice: &[Op]) -> Result<f64, String> {
    let noop = boot(&prep.cat, &prep.path, Session::new())?;
    let shipping = boot(&prep.cat, &prep.path, shipping_session())?;
    let ops: Vec<&Op> = slice.iter().filter(|op| matches!(op, Op::Sat(_))).collect();
    let run = |svc: &Service| {
        clock(|| {
            for op in &ops {
                std::hint::black_box(serve(svc, &prep.cat, op));
            }
        })
        .1 as f64
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        a.push(run(&noop));
        b.push(run(&shipping));
    }
    Ok(median(b) / median(a).max(1.0))
}
