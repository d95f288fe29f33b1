//! `table2-cold`: every request is a schema and a query, sent as text,
//! that the session has never seen, swept across the cells of the
//! paper's Table 2.
//!
//! Cells: join-free queries over ordered schemas of 8 to 64 types (the
//! PTIME trace product), node joins (bounded-join enumeration), tagged
//! schemas with wildcard-suffix queries, and small 3SAT reductions
//! (Theorem 3.1, the general search). Each request has a wall-clock
//! deadline; the session's feas memo and automata cache are capped below
//! the working set, so eviction runs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ssd_base::rng::{Rng, StdRng};
use ssd_base::SharedInterner;
use ssd_core::{
    solver, Algorithm, Budget, Constraints, FeasKey, SatOutcome, Session, SessionLimits, Verdict,
};
use ssd_gen::corpora::{FEEDBACK_QUERY, PAPER_QUERY, PAPER_SCHEMA, SINGLE_AUTHOR_SCHEMA};
use ssd_gen::query_gen::{joinfree_query, with_node_join, QueryGenConfig};
use ssd_gen::sat3::Sat3;
use ssd_gen::schema_gen::{ordered_schema, SchemaGenConfig};
use ssd_obs::MetricsRegistry;
use ssd_query::{parse_query, QueryClass};
use ssd_schema::{parse_schema, SchemaClass, TypeGraph};

use crate::common::{clock, loglog_slope, median, Acc, Config, Layers, Timed};

const SALT: u64 = 0x7461_626c_6532;
/// Per-request wall-clock deadline.
const DEADLINE: Duration = Duration::from_millis(40);
/// Fuel of the reference solver; an instance it cannot decide is redrawn.
const REF_FUEL: u64 = 5_000_000;
/// Timed set-ups after each replay; `setup_s` is the median of all.
const SETUPS: usize = 21;
/// Nominal requests per second of service time (see [`Config::requests`]).
const RATE: f64 = 1_000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Cell {
    Ordered,
    NodeJoin,
    Tagged,
    Sat3,
}

/// One block of the sweep: 45% join-free ordered, 20% node joins, 25%
/// tagged wildcard-suffix, 10% 3SAT. Blocks are shuffled, and each cell
/// cycles through its sizes, so every seed gets the same mix.
const BLOCK: [Cell; 20] = [
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::Ordered,
    Cell::NodeJoin,
    Cell::NodeJoin,
    Cell::NodeJoin,
    Cell::NodeJoin,
    Cell::Tagged,
    Cell::Tagged,
    Cell::Tagged,
    Cell::Tagged,
    Cell::Tagged,
    Cell::Sat3,
    Cell::Sat3,
];

struct Request {
    schema: String,
    query: String,
    /// Reference verdict.
    sat: bool,
    cell: Cell,
    /// |Q| + |S| of the generated instance.
    size: usize,
    /// 3SAT variables (0 for the other cells).
    vars: usize,
}

struct Generator {
    rng: StdRng,
    full: bool,
    /// The shuffled block being drawn from.
    block: Vec<Cell>,
    /// Per-cell position in its size cycle.
    turn: [usize; 4],
    /// Instances the reference could not decide within its fuel.
    dropped: usize,
}

impl Generator {
    fn new(cfg: &Config) -> Generator {
        Generator {
            rng: StdRng::seed_from_u64(cfg.seed ^ SALT),
            full: cfg.full(),
            block: Vec::new(),
            turn: [0; 4],
            dropped: 0,
        }
    }

    fn cell(&mut self) -> Cell {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..=i));
            }
        }
        self.block.pop().expect("refilled above")
    }

    /// The next size of `cell`'s cycle.
    fn size(&mut self, cell: Cell, sizes: &[usize]) -> usize {
        let t = &mut self.turn[cell as usize];
        *t += 1;
        sizes[*t % sizes.len()]
    }

    fn next(&mut self) -> Request {
        loop {
            let cell = self.cell();
            if let Some(r) = self.instance(cell) {
                return r;
            }
        }
    }

    fn instance(&mut self, cell: Cell) -> Option<Request> {
        if cell == Cell::Sat3 {
            let vars = self.size(cell, if self.full { &[4, 5, 6, 7, 8] } else { &[4, 5] });
            let rng = &mut self.rng;
            // The repository's Table-2 NP bench shape: vars + 2 clauses.
            let f = Sat3::random(rng, vars, vars + 2);
            return Some(Request {
                schema: f.schema_text(),
                query: f.query_text(),
                sat: f.brute_force(),
                cell,
                size: 0,
                vars,
            });
        }
        let sizes: &[usize] = match (cell, self.full) {
            (_, false) => &[8, 12],
            (Cell::Ordered, true) => &[8, 16, 32, 64],
            _ => &[8, 16, 32],
        };
        let num_types = self.size(cell, sizes);
        let rng = &mut self.rng;
        let pool = SharedInterner::new();
        let scfg = SchemaGenConfig {
            num_types,
            tagged: cell == Cell::Tagged,
            ..Default::default()
        };
        let s = ordered_schema(rng, &pool, &scfg);
        let tg = TypeGraph::new(&s);
        let qcfg = QueryGenConfig {
            num_defs: rng.gen_range(2..=4),
            wildcard_prefix: cell == Cell::Tagged,
            perturb_prob: 0.05,
            ..Default::default()
        };
        let q = if cell == Cell::NodeJoin {
            with_node_join(&s, &tg, rng, &qcfg).ok()?
        } else {
            joinfree_query(&s, &tg, rng, &qcfg).ok()?
        };
        let budget = Budget::unlimited().with_fuel(REF_FUEL);
        let reference = Session::new();
        let Ok(r) = solver::solve_with_in_b(&q, &s, &Constraints::none(), &reference, &budget)
        else {
            self.dropped += 1;
            return None;
        };
        Some(Request {
            schema: s.to_string(),
            query: q.to_string(),
            sat: r.satisfiable,
            cell,
            size: q.size() + s.size(),
            vars: 0,
        })
    }

    /// The first `n` requests of the sweep, with their references.
    fn requests(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// The shipping configuration with cache ceilings below the working set.
fn service_session(telemetry: bool) -> Session {
    let mut sess = if telemetry {
        Session::with_telemetry(Arc::new(MetricsRegistry::new()), 0.01)
    } else {
        Session::new()
    };
    sess.set_limits(
        SessionLimits::unlimited()
            .max_feas_memo_entries(256)
            .max_automata_entries(2048)
            .max_type_graph_bytes(1 << 20),
    );
    sess
}

/// Answers one request from its text.
fn serve(
    sess: &Session,
    pool: &SharedInterner,
    r: &Request,
) -> ssd_base::Result<Verdict<SatOutcome>> {
    let s = parse_schema(&r.schema, pool)?;
    let q = parse_query(&r.query, pool)?;
    let budget = Budget::unlimited().with_deadline_in(DEADLINE);
    sess.satisfiable_budgeted(&q, &s, &budget)
}

/// (correct, decided) of an answer against the reference.
fn judge(ans: &ssd_base::Result<Verdict<SatOutcome>>, want: bool) -> (bool, bool) {
    match ans {
        Ok(Verdict::Done(o)) => (o.satisfiable == want, true),
        Ok(Verdict::Exhausted(_)) => (true, false),
        Err(_) => (false, false),
    }
}

/// Times of [`SETUPS`] set-ups: until a fresh shipping session has
/// answered fixed first requests (the paper's queries on its bibliography
/// schemas).
fn setups() -> Result<Vec<f64>, String> {
    let first = [
        (PAPER_SCHEMA, FEEDBACK_QUERY),
        (PAPER_SCHEMA, PAPER_QUERY),
        (SINGLE_AUTHOR_SCHEMA, PAPER_QUERY),
    ];
    let mut times = Vec::new();
    for _ in 0..SETUPS {
        let (ok, ns) = clock(|| {
            let sess = service_session(true);
            let pool = SharedInterner::new();
            first.iter().try_for_each(|(schema, query)| {
                let s = parse_schema(schema, &pool)?;
                sess.satisfiable(&parse_query(query, &pool)?, &s).map(drop)
            })
        });
        ok.map_err(|e| e.to_string())?;
        times.push(ns as f64 / 1e9);
    }
    Ok(times)
}

fn properties(out: &mut Timed, counts: &BTreeMap<String, u64>, served: u64, dropped: usize) {
    out.property("requests", served);
    for (k, n) in counts {
        out.property(k, *n as f64 / served.max(1) as f64);
    }
    out.property("reference_undecided_redrawn", dropped);
}

fn algorithm_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::TraceProduct => "trace_product",
        Algorithm::BoundedJoins => "bounded_joins",
        Algorithm::TaggedSuffix => "tagged_suffix",
        Algorithm::GeneralSearch => "general_search",
    }
}

pub fn timed(cfg: &Config) -> Result<Timed, String> {
    let mut out = Timed::default();
    let mut gen = Generator::new(cfg);
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut cell_ns: BTreeMap<Cell, u64> = BTreeMap::new();
    let mut evicted = 0;
    // Every request and its reference are made before the first timed
    // pass; each replay serves them again from a fresh session, so they
    // stay never-seen.
    let n = cfg.requests(RATE);
    let reqs = gen.requests(n);
    out.start(n * cfg.replays)?;
    for replay in 0..cfg.replays {
        if replay > 0 {
            cfg.pause_before_replay();
        }
        let sess = service_session(true);
        let pool = SharedInterner::new();
        for (i, r) in reqs.iter().enumerate() {
            let (ans, ns) = clock(|| serve(&sess, &pool, r));
            out.latencies_ns.push(ns);
            let want = r.sat != (cfg.flip_reference && i == 0);
            let (ok, done) = judge(&ans, want);
            out.tally.record(ok, done);
            if replay > 0 {
                continue;
            }
            let key = match &ans {
                Ok(Verdict::Done(o)) => algorithm_name(o.algorithm),
                Ok(Verdict::Exhausted(_)) => "exhausted",
                Err(_) => "error",
            };
            *counts.entry(format!("algorithm_share.{key}")).or_default() += 1;
            *cell_ns.entry(r.cell).or_default() += ns;
            if r.cell == Cell::Sat3 {
                *counts.entry("np_share".into()).or_default() += 1;
            }
        }
        let st = sess.stats();
        evicted = st.evicted + st.automata.evicted;
        out.setups.extend(setups()?);
    }
    out.property("evicted", evicted);
    let total: u64 = cell_ns.values().sum();
    for (cell, ns) in &cell_ns {
        out.property(
            &format!("cell_time_share.{cell:?}"),
            *ns as f64 / total.max(1) as f64,
        );
    }
    properties(&mut out, &counts, n as u64, gen.dropped);
    Ok(out)
}

#[derive(Default)]
struct TraceAccs {
    q_parse: Acc,
    s_parse: Acc,
    q_classify: Acc,
    s_classify: Acc,
    type_graph: Acc,
    feas_key: Acc,
    hit: Acc,
    miss: Acc,
    engine: BTreeMap<&'static str, Acc>,
    tagged: Acc,
    exhausted: u64,
    ptime: Vec<(f64, f64)>,
    np: BTreeMap<usize, Acc>,
}

impl TraceAccs {
    /// Serves `r`, timing the public call of each layer it crosses from
    /// outside. Returns (correct, decided).
    fn serve_traced(
        &mut self,
        sess: &Session,
        pool: &SharedInterner,
        r: &Request,
        want: bool,
    ) -> (bool, bool) {
        let none = Constraints::none();
        let Ok(s) = self.s_parse.time(|| parse_schema(&r.schema, pool)) else {
            return (false, false);
        };
        let Ok(q) = self.q_parse.time(|| parse_query(&r.query, pool)) else {
            return (false, false);
        };
        let sclass = self.s_classify.time(|| SchemaClass::of(&s));
        let qclass = self.q_classify.time(|| QueryClass::of(&q));
        let tg = self.type_graph.time(|| TypeGraph::new(&s));
        self.feas_key.time(|| FeasKey::new(&q, &none));
        let before = sess.stats().feas_memo_table;
        let budget = Budget::unlimited().with_deadline_in(DEADLINE);
        let (ans, ns) = clock(|| sess.satisfiable_budgeted(&q, &s, &budget));
        let after = sess.stats().feas_memo_table;
        if after.misses > before.misses {
            self.miss.add(ns);
        } else if after.hits > before.hits {
            self.hit.add(ns);
        }
        match &ans {
            Ok(Verdict::Done(o)) => {
                self.engine
                    .entry(algorithm_name(o.algorithm))
                    .or_default()
                    .add(ns);
                if o.algorithm == Algorithm::TraceProduct {
                    self.ptime.push((r.size as f64, ns as f64));
                }
                if r.cell == Cell::Sat3 {
                    self.np.entry(r.vars).or_default().add(ns);
                }
            }
            Ok(Verdict::Exhausted(e)) => {
                self.exhausted += 1;
                let engine = if e.engine == "bounded_joins" {
                    "bounded_joins"
                } else {
                    "general_search"
                };
                self.engine.entry(engine).or_default().add(ns);
            }
            Err(_) => {}
        }
        let (mut ok, done) = judge(&ans, want);
        // The tagged engine, called directly on the tagged cell's inputs.
        if r.cell == Cell::Tagged && sclass.is_dtd_plus() && qclass.constant_suffix {
            let tagged = self
                .tagged
                .time(|| ssd_core::tagged::satisfiable_tagged_in(&q, &s, &tg, &none, sess));
            ok &= tagged.is_ok_and(|sat| sat == want);
        }
        (ok, done)
    }

    fn publish(&self, layers: &mut Layers, sess: &Session) {
        layers.set_us("query.parse_us", &self.q_parse);
        layers.set_us("schema.parse_us", &self.s_parse);
        layers.set_us("query.classify_us", &self.q_classify);
        layers.set_us("schema.classify_us", &self.s_classify);
        layers.set_us("schema.type_graph_us", &self.type_graph);
        layers.set_us("core.feas_key_us", &self.feas_key);
        layers.set_us("core.verdict_hit_us", &self.hit);
        layers.set_us("core.verdict_miss_us", &self.miss);
        for (engine, acc) in &self.engine {
            let name = match *engine {
                "trace_product" => "core.trace_product_us",
                "bounded_joins" => "core.bounded_joins_us",
                "tagged_suffix" => continue,
                _ => "core.general_search_us",
            };
            layers.set_us(name, acc);
        }
        layers.set_us("core.tagged_suffix_us", &self.tagged);
        layers.set("core.exhausted", self.exhausted as f64);
        layers.set("core.ptime_slope", loglog_slope(&self.ptime));
        layers.set("core.np_growth_per_var", np_growth(&self.np));
        let st = sess.stats();
        layers.set("core.feas_memo.hit_ratio", st.feas_memo_table.hit_ratio());
        layers.set("core.type_graph.hit_ratio", st.type_graph_table.hit_ratio());
        layers.set("core.evicted", st.evicted as f64);
        layers.set("automata.hit_ratio", st.automata.hit_ratio());
        layers.set("automata.misses", st.automata.misses as f64);
        layers.set("automata.compiled_bytes", st.automata.compiled_bytes as f64);
        layers.set("automata.evicted", st.automata.evicted as f64);
        let total: u64 = self.engine.values().map(|a| a.ns).sum::<u64>()
            + [&self.q_parse, &self.s_parse, &self.type_graph]
                .iter()
                .map(|a| a.ns)
                .sum::<u64>();
        let share = |ns: u64| ns as f64 / total.max(1) as f64;
        layers.notes.push(format!(
            "table2-cold time shares (of parse + type graph + verdict calls): parse {:.3}, \
             type graph {:.3}, verdicts {:.3}; classification and FeasKey calls cost {:.3} of it",
            share(self.q_parse.ns + self.s_parse.ns),
            share(self.type_graph.ns),
            share(self.engine.values().map(|a| a.ns).sum()),
            share(self.q_classify.ns + self.s_classify.ns + self.feas_key.ns),
        ));
    }
}

/// Geometric mean of the ratios of mean `GeneralSearch` time between
/// successive 3SAT variable counts.
fn np_growth(np: &BTreeMap<usize, Acc>) -> f64 {
    let means: Vec<(usize, f64)> = np.iter().map(|(v, a)| (*v, a.mean_us())).collect();
    let logs: Vec<f64> = means
        .windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1 && w[0].1 > 0.0)
        .map(|w| (w[1].1 / w[0].1).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

pub fn traced(cfg: &Config) -> Result<Layers, String> {
    let reqs = Generator::new(cfg).requests(cfg.requests(RATE));
    let sess = service_session(true);
    let pool = SharedInterner::new();
    let mut acc = TraceAccs::default();
    let mut layers = Layers::default();
    let mut busy = 0u64;
    let mut flip = cfg.flip_reference;
    for r in &reqs {
        let want = r.sat != std::mem::take(&mut flip);
        let ((ok, done), ns) = clock(|| acc.serve_traced(&sess, &pool, r, want));
        busy += ns;
        layers.tally.record(ok, done);
    }
    layers.throughput = reqs.len() as f64 / (busy as f64 / 1e9).max(1e-12);
    acc.publish(&mut layers, &sess);
    let slice = &reqs[..reqs.len().min(100)];
    layers.set("obs.telemetry_ratio", telemetry_ratio(slice));
    Ok(layers)
}

/// The shipping session's time over a no-op session's on the same cold
/// slice; every round starts both sides from fresh sessions.
fn telemetry_ratio(slice: &[Request]) -> f64 {
    let run = |telemetry: bool| {
        let sess = service_session(telemetry);
        let pool = SharedInterner::new();
        clock(|| {
            for r in slice {
                let _ = std::hint::black_box(serve(&sess, &pool, r));
            }
        })
        .1 as f64
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        a.push(run(false));
        b.push(run(true));
    }
    median(b) / median(a).max(1.0)
}
