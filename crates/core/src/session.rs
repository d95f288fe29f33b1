//! The incremental-analysis session: shared caches threaded through every
//! engine.
//!
//! A [`Session`] owns
//!
//! * an [`AutomataCache`] — hash-consed path regexes with memoized
//!   Glushkov NFAs, DFAs, and emptiness/inclusion verdicts — shared by the
//!   trace-product engine, the P-traces construction, and the general
//!   solver; and
//! * a per-schema [`TypeGraph`] cache, keyed by [`Schema::uid`], so
//!   repeated queries against one schema reuse its inhabitation analysis
//!   and pruned automata instead of recomputing them per call; and
//! * a **feas-analysis memo** — whole [`FeasAnalysis`] results (`Feas(X)`
//!   tables plus the satisfiability verdict) keyed by
//!   `(schema uid, canonical query fingerprint, constraint key)`
//!   ([`crate::memo::FeasKey`]), so warm repeat queries skip the
//!   trace-product engine entirely.
//!
//! All caches only ever grow: schemas are immutable once parsed, regexes
//! and queries are immutable values, so keys never dangle and cached
//! results never need invalidation — warm answers are bit-identical to
//! cold ones. The session maps are N-way sharded
//! ([`ssd_automata::ShardedMap`], with poison-recovering lock helpers), so
//! concurrent cold misses on different keys do not serialize and a
//! panicking caller thread cannot poison the caches for later callers.
//!
//! The session is the only way into the engine: every decision —
//! satisfiability, inference, total and partial type checking, P-traces
//! satisfiability — is one `Session` method over one module-level
//! implementation that takes the session and a [`Budget`]. There is no
//! process-wide default session, so every call runs under its caller's
//! [`SessionLimits`] and recorder.

use ssd_base::sync::{Arc, AtomicU64, Ordering};

use ssd_automata::{AutomataCache, CacheStats, ShardedMap, TableStats};
use ssd_base::budget::{Budget, Verdict};
use ssd_obs::{names, Recorder};
use ssd_query::Query;
use ssd_schema::{Schema, TypeGraph};

use crate::dispatch::{self, SatOutcome};
use crate::feas::{self, Constraints, FeasAnalysis};
use crate::infer::{self, InferredAssignment};
use crate::memo::FeasKey;
use crate::ptraces;
use crate::typecheck::{self, TypeAssignment};
use crate::Result;

/// The full memo key of one feas-analysis result: which schema, plus the
/// canonical query/constraint fingerprint. `Hash` mixes the schema uid
/// into the key's fingerprint; `Eq` compares the stored canonical bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FeasMemoKey {
    schema: u64,
    key: FeasKey,
}

impl std::hash::Hash for FeasMemoKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.schema ^ self.key.fingerprint());
    }
}

/// A cached value plus its last-touch epoch stamp, for second-chance
/// eviction. Clones share the stamp, so touching a returned handle
/// refreshes the entry still sitting in the map.
#[derive(Clone)]
struct Tracked<T> {
    value: T,
    stamp: Arc<AtomicU64>,
}

impl<T> Tracked<T> {
    fn new(value: T, epoch: u64) -> Tracked<T> {
        Tracked {
            value,
            stamp: Arc::new(AtomicU64::new(epoch)),
        }
    }

    fn touch(&self, epoch: u64) {
        // Relaxed: the stamp is a recency *hint* for second-chance
        // eviction, read under the shard's write lock during the sweep.
        // A racing touch that the sweep misses costs one early eviction
        // (recomputed on the next miss), never a correctness violation —
        // the eviction-invariance tests pin that down.
        self.stamp.store(epoch, Ordering::Relaxed);
    }
}

/// Approximate per-entry key/bookkeeping overhead of one feas-memo entry
/// (the canonical key bytes plus map and stamp overhead), added on top of
/// [`FeasAnalysis::approx_bytes`] when checking the byte ceiling.
const FEAS_ENTRY_OVERHEAD_BYTES: usize = 96;

/// Optional ceilings on a [`Session`]'s retained caches (ROADMAP:
/// "bounded cache lifetimes"). All fields default to `None` — unlimited,
/// the historical behavior. When a ceiling is exceeded after a miss, the
/// session runs a *second-chance* eviction pass over the offending table:
/// entries not touched since the previous pass are dropped; if the table
/// is still over its ceiling, a hard-cap pass keeps roughly half the
/// entries. Eviction is always sound — every cached value is a pure
/// function of immutable keys, so evict-then-recompute returns
/// bit-identical answers (the eviction-invariance differential test
/// pins this down) — it costs recomputation, never correctness.
///
/// Size the ceilings from [`SessionStats`]: run a representative warm
/// workload unlimited, read `type_graph_bytes` / `feas_memos` /
/// `automata.nfas + automata.dfas + automata.verdicts`, and set ceilings
/// at the steady-state working set (plus headroom) so only cold entries
/// are shed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionLimits {
    /// Ceiling on approximate heap bytes retained by cached type graphs.
    pub max_type_graph_bytes: Option<usize>,
    /// Ceiling on approximate heap bytes retained by the feas-analysis
    /// memo (values plus per-entry key overhead).
    pub max_feas_memo_bytes: Option<usize>,
    /// Ceiling on the number of memoized feas-analysis entries.
    pub max_feas_memo_entries: Option<usize>,
    /// Ceiling on entries across the automata cache's artifact and
    /// verdict tables ([`AutomataCache::artifact_entries`]); exceeding it
    /// triggers a whole-cache epoch flush ([`AutomataCache::flush`]).
    pub max_automata_entries: Option<usize>,
}

impl SessionLimits {
    /// No ceilings at all (the default: caches only grow).
    pub fn unlimited() -> SessionLimits {
        SessionLimits::default()
    }

    /// Sets the type-graph byte ceiling.
    pub fn max_type_graph_bytes(mut self, bytes: usize) -> SessionLimits {
        self.max_type_graph_bytes = Some(bytes);
        self
    }

    /// Sets the feas-memo byte ceiling.
    pub fn max_feas_memo_bytes(mut self, bytes: usize) -> SessionLimits {
        self.max_feas_memo_bytes = Some(bytes);
        self
    }

    /// Sets the feas-memo entry ceiling.
    pub fn max_feas_memo_entries(mut self, entries: usize) -> SessionLimits {
        self.max_feas_memo_entries = Some(entries);
        self
    }

    /// Sets the automata-cache entry ceiling.
    pub fn max_automata_entries(mut self, entries: usize) -> SessionLimits {
        self.max_automata_entries = Some(entries);
        self
    }

    /// Whether any ceiling is set.
    fn any(&self) -> bool {
        self.max_type_graph_bytes.is_some()
            || self.max_feas_memo_bytes.is_some()
            || self.max_feas_memo_entries.is_some()
            || self.max_automata_entries.is_some()
    }
}

/// A handle to shared analysis caches. See the module docs.
#[derive(Default)]
pub struct Session {
    automata: AutomataCache,
    type_graphs: ShardedMap<u64, Tracked<Arc<TypeGraph>>>,
    feas_memo: ShardedMap<FeasMemoKey, Tracked<Arc<FeasAnalysis>>>,
    /// Cache ceilings; all-`None` (the default) disables eviction.
    limits: SessionLimits,
    /// Second-chance clocks, one per governed table.
    tg_epoch: AtomicU64,
    fm_epoch: AtomicU64,
    /// Session-table entries dropped by eviction passes (the automata
    /// cache counts its own flushes separately).
    evicted: AtomicU64,
    // Hit/miss tallies are bumped and read at Relaxed: monotone
    // diagnostics with no data published through them. A stats snapshot
    // racing a lookup may see hit and miss counts from slightly
    // different instants — fine for ratios, which is all they feed.
    tg_hits: AtomicU64,
    tg_misses: AtomicU64,
    fm_hits: AtomicU64,
    fm_misses: AtomicU64,
    /// Payload bytes retained from the last [`Session::load_snapshot`]
    /// (0 = no snapshot loaded, or the load salvaged nothing).
    snap_bytes: AtomicU64,
    /// Snapshot age at load time plus one (0 = no snapshot loaded), so
    /// the all-zeroes `Default` means "none" rather than "age 0".
    snap_age_plus1: AtomicU64,
}

impl Session {
    /// A fresh session with cold caches.
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh session whose caches are bounded by `limits` (see
    /// [`SessionLimits`] for the eviction policy).
    pub fn with_limits(limits: SessionLimits) -> Session {
        Session {
            limits,
            ..Session::default()
        }
    }

    /// Replaces the cache ceilings. Requires exclusive access; takes
    /// effect at the next miss (no eager eviction pass).
    pub fn set_limits(&mut self, limits: SessionLimits) {
        self.limits = limits;
    }

    /// The session's cache ceilings.
    pub fn limits(&self) -> SessionLimits {
        self.limits
    }

    /// A fresh session whose engines report spans and counters into
    /// `rec` — the pipeline phases (`dispatch`, `feas`, `product_bfs`, …)
    /// and the per-table cache traffic of both the automata cache and the
    /// type-graph cache.
    pub fn with_recorder(rec: Arc<dyn Recorder>) -> Session {
        Session {
            automata: AutomataCache::with_recorder(rec),
            ..Session::default()
        }
    }

    /// The session's recorder, held by its automata cache (the shared
    /// no-op recorder when tracing is off, so instrumented code never
    /// branches on `Option`).
    pub fn recorder(&self) -> &dyn Recorder {
        self.automata.recorder()
    }

    /// A fresh session wired for *always-on* production telemetry:
    /// counters and observations stream into `registry` exactly, while
    /// span timing goes through a [`ssd_obs::SamplingRecorder`] at
    /// `rate` (plus always-on sampling of budget-exhausted traces), so
    /// the warm dispatch path keeps its bounded overhead. Pair with
    /// [`Session::publish_gauges`] from the exporter loop.
    pub fn with_telemetry(registry: Arc<ssd_obs::MetricsRegistry>, rate: f64) -> Session {
        Session::with_recorder(Arc::new(ssd_obs::SamplingRecorder::new(registry, rate)))
    }

    /// Publishes this session's point-in-time cache state into `registry`
    /// as gauges: per-shard occupancy of the feas memo, type-graph cache,
    /// and automata tables, entry totals, lifetime hit ratios, retained
    /// bytes, eviction and contention totals. Cheap (a shared lock per
    /// shard); call it from the exporter/dashboard loop, not per query.
    pub fn publish_gauges(&self, registry: &ssd_obs::MetricsRegistry) {
        use ssd_obs::names::gauge;
        let stats = self.stats();
        let a = &stats.automata;
        registry.set_gauge(gauge::FEAS_MEMO_ENTRIES, stats.feas_memos as f64);
        registry.set_gauge(gauge::TYPE_GRAPH_ENTRIES, stats.type_graphs as f64);
        registry.set_gauge(gauge::SESSION_CACHE_BYTES, stats.type_graph_bytes as f64);
        registry.set_gauge(
            gauge::AUTOMATA_ENTRIES,
            (a.nfas + a.dfas + a.compiled + a.verdicts + a.interned) as f64,
        );
        registry.set_gauge(gauge::COMPILED_ENTRIES, a.compiled as f64);
        registry.set_gauge(gauge::COMPILED_BYTES, a.compiled_bytes as f64);
        registry.set_gauge(
            gauge::HIT_RATIO_FEAS_MEMO,
            stats.feas_memo_table.hit_ratio(),
        );
        registry.set_gauge(
            gauge::HIT_RATIO_TYPE_GRAPH,
            stats.type_graph_table.hit_ratio(),
        );
        registry.set_gauge(gauge::HIT_RATIO_AUTOMATA, a.hit_ratio());
        registry.set_gauge(gauge::EVICTED_SESSION, (stats.evicted + a.evicted) as f64);
        registry.set_gauge(gauge::SNAPSHOT_BYTES, stats.snapshot_bytes as f64);
        if let Some(age) = stats.snapshot_age_seconds {
            registry.set_gauge(gauge::SNAPSHOT_AGE_SECONDS, age as f64);
        }
        registry.set_gauge(
            gauge::SHARD_CONTENTION,
            (stats.contended + a.contended) as f64,
        );
        for (i, n) in self.feas_memo.len_by_shard().iter().enumerate() {
            registry.set_gauge_slot(gauge::SHARD_OCCUPANCY_FEAS_MEMO, i, *n as f64);
        }
        for (i, n) in self.type_graphs.len_by_shard().iter().enumerate() {
            registry.set_gauge_slot(gauge::SHARD_OCCUPANCY_TYPE_GRAPH, i, *n as f64);
        }
        for (i, n) in self.automata.occupancy_by_shard().iter().enumerate() {
            registry.set_gauge_slot(gauge::SHARD_OCCUPANCY_AUTOMATA, i, *n as f64);
        }
    }

    /// The shared automata cache.
    pub fn automata(&self) -> &AutomataCache {
        &self.automata
    }

    /// Selects the automata execution engine for this session's language
    /// comparisons: `true` (the default) uses the compiled dense-table
    /// kernels, `false` pins the interpreted NFA/DFA path behind the same
    /// entry points. Verdicts are identical either way — the interpreter
    /// is retained for differential testing.
    pub fn set_compiled_engine(&self, on: bool) {
        self.automata.set_compiled(on);
    }

    /// Whether language comparisons run on the compiled kernels.
    pub fn compiled_engine(&self) -> bool {
        self.automata.compiled_enabled()
    }

    /// The `TypeGraph` of `s`, computed once per schema per session (and
    /// recomputed after an eviction, which yields an identical graph).
    pub fn type_graph(&self, s: &Schema) -> Arc<TypeGraph> {
        if let Some(tg) = self.type_graphs.get(&s.uid()) {
            tg.touch(self.tg_epoch.load(Ordering::Relaxed));
            self.tg_hits.fetch_add(1, Ordering::Relaxed);
            self.recorder().add(names::counter::CACHE_TYPE_GRAPH_HIT, 1);
            return tg.value;
        }
        self.tg_misses.fetch_add(1, Ordering::Relaxed);
        let rec = self.recorder();
        rec.add(names::counter::CACHE_TYPE_GRAPH_MISS, 1);
        // Double-checked construction under the key's shard lock.
        let entry = self.type_graphs.get_or_insert_with(s.uid(), || {
            let _span = ssd_obs::span(rec, names::span::TYPE_GRAPH);
            Tracked::new(
                Arc::new(TypeGraph::new(s)),
                self.tg_epoch.load(Ordering::Relaxed),
            )
        });
        if self.limits.max_type_graph_bytes.is_some() {
            self.enforce_type_graph_limit();
        }
        entry.value
    }

    /// The trace-product analysis of `(q, c)` against `s`, memoized per
    /// `(schema uid, canonical query fingerprint, constraint key)`. A warm
    /// hit returns the shared [`FeasAnalysis`] — `Feas(X)` tables and the
    /// satisfiability verdict — without running the engine at all.
    ///
    /// Soundness matches the other caches: the analysis is a pure function
    /// of the canonical key (it reads variable kinds/indices, definitions,
    /// path regexes over `LabelId`s, and pins — never names or pools), the
    /// key is collision-checked by stored-bytes equality, and entries are
    /// grow-only over immutable inputs, so warm answers are bit-identical
    /// to cold ones.
    pub fn feas_analysis(
        &self,
        q: &Query,
        s: &Schema,
        tg: &TypeGraph,
        c: &Constraints,
    ) -> Arc<FeasAnalysis> {
        let rec = self.recorder();
        let _span = ssd_obs::span(rec, names::span::FEAS_MEMO);
        let key = FeasMemoKey {
            schema: s.uid(),
            key: FeasKey::new(q, c),
        };
        if let Some(a) = self.feas_memo.get(&key) {
            a.touch(self.fm_epoch.load(Ordering::Relaxed));
            self.fm_hits.fetch_add(1, Ordering::Relaxed);
            rec.add(names::counter::CACHE_FEAS_MEMO_HIT, 1);
            return a.value;
        }
        self.fm_misses.fetch_add(1, Ordering::Relaxed);
        rec.add(names::counter::CACHE_FEAS_MEMO_MISS, 1);
        // Compute outside the shard lock (the analysis can be slow; a
        // racing duplicate is rare and both sides produce equal values),
        // then publish with a double-checked insert.
        let built = Arc::new(feas::analyze_tree_obs(q, s, tg, c, self.automata(), rec));
        let entry = self.feas_memo.insert_if_absent(
            key,
            Tracked::new(built, self.fm_epoch.load(Ordering::Relaxed)),
        );
        if self.limits.any() {
            self.enforce_feas_memo_limits();
            self.enforce_automata_limit();
        }
        entry.value
    }

    /// Books `dropped` evicted entries into the session counter and the
    /// recorder's `cache_evicted` telemetry.
    fn note_evicted(&self, dropped: u64) {
        if dropped > 0 {
            self.evicted.fetch_add(dropped, Ordering::Relaxed);
            self.recorder().add(names::counter::CACHE_EVICTED, dropped);
        }
    }

    fn type_graph_bytes(&self) -> usize {
        self.type_graphs
            .fold_values(0, |n, t| n + t.value.approx_bytes())
    }

    /// Second-chance (then hard-cap) eviction over the type-graph cache.
    fn enforce_type_graph_limit(&self) {
        let Some(max) = self.limits.max_type_graph_bytes else {
            return;
        };
        if self.type_graph_bytes() <= max {
            return;
        }
        // Second chance: drop entries not touched since the last pass
        // (freshly inserted or re-read entries carry the current epoch
        // and survive), then open a new epoch.
        let e = self.tg_epoch.load(Ordering::Relaxed);
        let mut dropped = self
            .type_graphs
            .retain(|_, v| v.stamp.load(Ordering::Relaxed) >= e);
        self.tg_epoch.store(e + 1, Ordering::Relaxed);
        if self.type_graph_bytes() > max {
            // Everything is hot and the table is still over its ceiling:
            // hard cap at roughly half the entries (possibly zero — a
            // single over-ceiling graph is shed and recomputed on demand).
            let keep = self.type_graphs.len() / 2;
            let mut seen = 0usize;
            dropped += self.type_graphs.retain(|_, _| {
                seen += 1;
                seen <= keep
            });
        }
        self.note_evicted(dropped);
    }

    /// Whether the feas memo exceeds its entry or byte ceiling.
    fn feas_memo_over(&self) -> bool {
        if let Some(max) = self.limits.max_feas_memo_entries {
            if self.feas_memo.len() > max {
                return true;
            }
        }
        if let Some(max) = self.limits.max_feas_memo_bytes {
            let bytes = self.feas_memo.fold_values(0, |n, t| {
                n + t.value.approx_bytes() + FEAS_ENTRY_OVERHEAD_BYTES
            });
            if bytes > max {
                return true;
            }
        }
        false
    }

    /// Second-chance (then hard-cap) eviction over the feas memo.
    fn enforce_feas_memo_limits(&self) {
        if self.limits.max_feas_memo_bytes.is_none() && self.limits.max_feas_memo_entries.is_none()
        {
            return;
        }
        if !self.feas_memo_over() {
            return;
        }
        let e = self.fm_epoch.load(Ordering::Relaxed);
        let mut dropped = self
            .feas_memo
            .retain(|_, v| v.stamp.load(Ordering::Relaxed) >= e);
        self.fm_epoch.store(e + 1, Ordering::Relaxed);
        if self.feas_memo_over() {
            let keep = self.feas_memo.len() / 2;
            let mut seen = 0usize;
            dropped += self.feas_memo.retain(|_, _| {
                seen += 1;
                seen <= keep
            });
        }
        self.note_evicted(dropped);
    }

    /// Whole-cache epoch flush of the automata cache when its artifact
    /// count exceeds the ceiling (the cache has no per-entry stamps; its
    /// flush counts its own evictions into [`CacheStats::evicted`] and
    /// `cache_evicted`).
    fn enforce_automata_limit(&self) {
        let Some(max) = self.limits.max_automata_entries else {
            return;
        };
        if self.automata.artifact_entries() > max {
            self.automata.flush();
        }
    }

    /// Serializes this session's warmed artifacts — label pools, type
    /// graphs, feas-memo entries (per schema in `schemas`), and the
    /// automata cache's minimized DFAs and compiled dense tables — into a
    /// crash-safe snapshot at `path` (temp file + fsync + rename; a crash
    /// leaves the old file or the new one, never a torn mix). Sections
    /// are keyed by [`Schema::content_fingerprint`], so a later process
    /// can re-associate them with re-parsed schemas. Returns the bytes
    /// written.
    ///
    /// `LabelId`-bearing artifacts (everything but the pools themselves)
    /// are valid only under the pool they were interned in; the snapshot
    /// therefore records each schema's pool and `load_snapshot` rejects
    /// dependent sections when the live pool disagrees. The automata
    /// entries are attributed to `schemas[0]` (sessions run one pool);
    /// with no schemas only pool-independent framing is written.
    pub fn save_snapshot(
        &self,
        path: &std::path::Path,
        schemas: &[&Schema],
    ) -> std::io::Result<u64> {
        use ssd_automata::codec;
        let rec = self.recorder();
        let _span = ssd_obs::span(rec, names::span::SNAPSHOT_SAVE);
        let mut writer = ssd_snapshot::SnapshotWriter::new();
        for s in schemas {
            let fp = s.content_fingerprint();
            let mut w = ssd_base::ByteWriter::new();
            ssd_snapshot::encode_pool(s.pool(), &mut w);
            writer.section(ssd_snapshot::tag::LABEL_POOL, fp, w.into_bytes());
            if let Some(tg) = self.type_graphs.get(&s.uid()) {
                let mut w = ssd_base::ByteWriter::new();
                tg.value.encode(&mut w);
                writer.section(ssd_snapshot::tag::TYPE_GRAPH, fp, w.into_bytes());
            }
            let entries = self.feas_memo.fold(Vec::new(), |mut acc, k, v| {
                if k.schema == s.uid() {
                    acc.push((k.key.clone(), Arc::clone(&v.value)));
                }
                acc
            });
            if !entries.is_empty() {
                let mut w = ssd_base::ByteWriter::new();
                w.put_u32(entries.len() as u32);
                for (key, analysis) in &entries {
                    w.put_len_bytes(key.canonical_bytes());
                    crate::snapshot::encode_feas(analysis, &mut w);
                }
                writer.section(ssd_snapshot::tag::FEAS_MEMO, fp, w.into_bytes());
            }
        }
        if let Some(owner) = schemas.first() {
            let fp = owner.content_fingerprint();
            // One section per cache entry: per-entry CRCs mean one
            // corrupted table costs exactly one recompute, not the whole
            // automata cache.
            for (re, dfa) in self.automata.export_dfas() {
                let mut w = ssd_base::ByteWriter::new();
                codec::encode_regex(&re, &mut w);
                codec::encode_dfa(&dfa, &mut w, codec::encode_label_atom);
                writer.section(ssd_snapshot::tag::DFA, fp, w.into_bytes());
            }
            for (re, c) in self.automata.export_compiled() {
                let mut w = ssd_base::ByteWriter::new();
                codec::encode_regex(&re, &mut w);
                codec::encode_compiled(&c, &mut w, |k, w| w.put_u32(k.0));
                writer.section(ssd_snapshot::tag::COMPILED_DFA, fp, w.into_bytes());
            }
        }
        writer.write_atomic(path)
    }

    /// Loads a snapshot written by [`Session::save_snapshot`], hydrating
    /// every section that survives validation into this session's caches
    /// and degrading the rest to recompute-on-demand. **Total**: any
    /// corruption, truncation, version or format skew, unknown schema, or
    /// pool disagreement rejects the affected section (or, for header
    /// damage, the whole file) in the returned [`ssd_snapshot::LoadOutcome`]
    /// — the session is always left fully usable and warm verdicts stay
    /// bit-identical to cold ones, because hydrated values pass the same
    /// structural validation live construction guarantees and publish
    /// through the same double-checked cache-insert paths.
    pub fn load_snapshot(
        &self,
        path: &std::path::Path,
        schemas: &[&Schema],
    ) -> ssd_snapshot::LoadOutcome {
        use ssd_automata::codec;
        use ssd_snapshot::{tag, LoadOutcome, RejectReason};
        /// Decode-work budget per section; corrupt payloads declaring
        /// absurd sizes stop here instead of grinding or allocating.
        const SECTION_FUEL: u64 = 1 << 24;

        let rec = self.recorder();
        let _span = ssd_obs::span(rec, names::span::SNAPSHOT_LOAD);
        let finish = |out: LoadOutcome| {
            self.snap_bytes.store(out.bytes_retained, Ordering::Relaxed);
            self.snap_age_plus1.store(
                out.age_seconds.map_or(0, |a| a.saturating_add(1)),
                Ordering::Relaxed,
            );
            out.record(rec);
            out
        };
        let Ok(bytes) = std::fs::read(path) else {
            return finish(LoadOutcome::rejected_outright(
                RejectReason::TruncatedHeader,
            ));
        };
        let parsed = match ssd_snapshot::parse(&bytes) {
            Ok(p) => p,
            Err(rej) => return finish(LoadOutcome::rejected_outright(rej.reason)),
        };
        let mut out = LoadOutcome::default();
        for rej in parsed.rejected {
            out.note_rejected(rej.tag, rej.reason);
        }
        if parsed.written_at > 0 {
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            out.age_seconds = Some(now.saturating_sub(parsed.written_at));
        }
        let by_fp: std::collections::HashMap<u64, &Schema> = schemas
            .iter()
            .map(|s| (s.content_fingerprint(), *s))
            .collect();
        // Pool agreement per schema fingerprint. Save order puts each
        // pool before its dependents, so a single in-order pass suffices;
        // a missing/corrupt/mismatched pool conservatively rejects every
        // `LabelId`-keyed section of that schema.
        let mut pool_ok: std::collections::HashMap<u64, bool> = std::collections::HashMap::new();
        for sec in &parsed.sections {
            let Some(schema) = by_fp.get(&sec.meta).copied() else {
                out.note_rejected(Some(sec.tag), RejectReason::UnknownSchema);
                continue;
            };
            let mut r = ssd_base::ByteReader::new(sec.payload);
            let mut fuel = SECTION_FUEL;
            if sec.tag != tag::LABEL_POOL && pool_ok.get(&sec.meta) != Some(&true) {
                out.note_rejected(Some(sec.tag), RejectReason::PoolMismatch);
                continue;
            }
            match sec.tag {
                tag::LABEL_POOL => match ssd_snapshot::hydrate_pool(schema.pool(), &mut r) {
                    None => out.note_rejected(Some(sec.tag), RejectReason::Decode),
                    Some(false) => {
                        pool_ok.insert(sec.meta, false);
                        out.note_rejected(Some(sec.tag), RejectReason::PoolMismatch);
                    }
                    Some(true) => {
                        pool_ok.insert(sec.meta, true);
                        out.note_loaded(sec.payload.len(), 0);
                    }
                },
                tag::TYPE_GRAPH => match TypeGraph::decode(&mut r, &mut fuel, schema) {
                    Some(tg) => {
                        self.type_graphs.insert_if_absent(
                            schema.uid(),
                            Tracked::new(Arc::new(tg), self.tg_epoch.load(Ordering::Relaxed)),
                        );
                        out.note_loaded(sec.payload.len(), 1);
                    }
                    None => out.note_rejected(
                        Some(sec.tag),
                        if fuel == 0 {
                            RejectReason::Fuel
                        } else {
                            RejectReason::Decode
                        },
                    ),
                },
                tag::DFA => {
                    let decoded = codec::decode_regex(&mut r, &mut fuel).and_then(|re| {
                        codec::decode_dfa(&mut r, &mut fuel, codec::decode_label_atom)
                            .map(|d| (re, d))
                    });
                    match decoded {
                        Some((re, dfa)) => {
                            self.automata.hydrate_dfa(&re, dfa);
                            out.note_loaded(sec.payload.len(), 1);
                        }
                        None => out.note_rejected(
                            Some(sec.tag),
                            if fuel == 0 {
                                RejectReason::Fuel
                            } else {
                                RejectReason::Decode
                            },
                        ),
                    }
                }
                tag::COMPILED_DFA => {
                    let decoded = codec::decode_regex(&mut r, &mut fuel).and_then(|re| {
                        codec::decode_compiled(&mut r, &mut fuel, |r| {
                            r.get_u32().map(ssd_base::LabelId)
                        })
                        .map(|c| (re, c))
                    });
                    match decoded {
                        Some((re, c)) => {
                            self.automata.hydrate_compiled(&re, c);
                            out.note_loaded(sec.payload.len(), 1);
                        }
                        None => out.note_rejected(
                            Some(sec.tag),
                            if fuel == 0 {
                                RejectReason::Fuel
                            } else {
                                RejectReason::Decode
                            },
                        ),
                    }
                }
                tag::FEAS_MEMO => {
                    // Decode the whole section before publishing any
                    // entry, so a mid-section decode failure never leaves
                    // a partially hydrated memo behind.
                    let decoded = (|| {
                        let n = r.get_count(crate::snapshot::MAX_VARS)?;
                        let mut entries = Vec::with_capacity(n.min(1024));
                        for _ in 0..n {
                            let key_bytes = r.get_len_bytes(sec.payload.len())?;
                            let key = FeasKey::from_canonical_bytes(key_bytes);
                            let analysis =
                                crate::snapshot::decode_feas(&mut r, &mut fuel, schema.len())?;
                            entries.push((key, analysis));
                        }
                        Some(entries)
                    })();
                    match decoded {
                        Some(entries) => {
                            let count = entries.len() as u64;
                            let epoch = self.fm_epoch.load(Ordering::Relaxed);
                            for (key, analysis) in entries {
                                self.feas_memo.insert_if_absent(
                                    FeasMemoKey {
                                        schema: schema.uid(),
                                        key,
                                    },
                                    Tracked::new(Arc::new(analysis), epoch),
                                );
                            }
                            out.note_loaded(sec.payload.len(), count);
                        }
                        None => out.note_rejected(
                            Some(sec.tag),
                            if fuel == 0 {
                                RejectReason::Fuel
                            } else {
                                RejectReason::Decode
                            },
                        ),
                    }
                }
                // Unknown tag from a future writer: not salvageable here,
                // degrade to recompute.
                _ => out.note_rejected(Some(sec.tag), RejectReason::Decode),
            }
        }
        finish(out)
    }

    /// Satisfiability (type correctness) through this session's caches.
    pub fn satisfiable(&self, q: &Query, s: &Schema) -> Result<SatOutcome> {
        unlimited(|b| self.satisfiable_budgeted(q, s, b))
    }

    /// [`Session::satisfiable`] under a [`Budget`]: returns
    /// [`Verdict::Exhausted`] instead of running past the budget's fuel,
    /// deadline, or memory ceiling. The session stays fully usable after
    /// a trip — partial work is discarded, caches keep only completed
    /// artifacts.
    pub fn satisfiable_budgeted(
        &self,
        q: &Query,
        s: &Schema,
        budget: &Budget,
    ) -> Result<Verdict<SatOutcome>> {
        dispatch::satisfiable_with_in_b(q, s, &Constraints::none(), self, budget)
    }

    /// [`Session::infer`] under a [`Budget`] (shared by every per-prefix
    /// satisfiability probe of the enumeration).
    pub fn infer_budgeted(
        &self,
        q: &Query,
        s: &Schema,
        budget: &Budget,
    ) -> Result<Verdict<Vec<InferredAssignment>>> {
        infer::infer_in_b(q, s, self, budget)
    }

    /// [`Session::satisfiable_ptraces`] under a [`Budget`].
    pub fn satisfiable_ptraces_budgeted(
        &self,
        q: &Query,
        s: &Schema,
        budget: &Budget,
    ) -> Result<Verdict<bool>> {
        ptraces::satisfiable_ptraces_in_b(q, s, self, budget)
    }

    /// Satisfiability under pinned types/labels.
    pub fn satisfiable_with(&self, q: &Query, s: &Schema, c: &Constraints) -> Result<SatOutcome> {
        unlimited(|b| dispatch::satisfiable_with_in_b(q, s, c, self, b))
    }

    /// Type inference (all satisfiable SELECT assignments).
    pub fn infer(&self, q: &Query, s: &Schema) -> Result<Vec<InferredAssignment>> {
        unlimited(|b| self.infer_budgeted(q, s, b))
    }

    /// Total type checking of a full assignment.
    pub fn total_type_check(&self, q: &Query, s: &Schema, a: &TypeAssignment) -> Result<bool> {
        unlimited(|b| typecheck::total_type_check_in_b(q, s, a, self, b))
    }

    /// Partial type checking: satisfiability with only the SELECT
    /// variables pinned to `a`.
    pub fn partial_type_check(
        &self,
        q: &Query,
        s: &Schema,
        a: &TypeAssignment,
    ) -> Result<SatOutcome> {
        unlimited(|b| typecheck::partial_type_check_in_b(q, s, a, self, b))
    }

    /// The literal P-traces satisfiability check, with the product
    /// emptiness decided lazily (early exit on the first witness).
    pub fn satisfiable_ptraces(&self, q: &Query, s: &Schema) -> Result<bool> {
        unlimited(|b| self.satisfiable_ptraces_budgeted(q, s, b))
    }

    /// Effectiveness counters of the automata cache (with the per-table
    /// breakdown), plus type-graph and feas-memo cache traffic, entry
    /// counts, approximate retained bytes, and shard-lock contention.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            automata: self.automata.stats(),
            limits: self.limits,
            evicted: self.evicted.load(Ordering::Relaxed),
            type_graphs: self.type_graphs.len(),
            type_graph_bytes: self.type_graph_bytes(),
            type_graph_table: TableStats {
                hits: self.tg_hits.load(Ordering::Relaxed),
                misses: self.tg_misses.load(Ordering::Relaxed),
            },
            feas_memos: self.feas_memo.len(),
            feas_memo_table: TableStats {
                hits: self.fm_hits.load(Ordering::Relaxed),
                misses: self.fm_misses.load(Ordering::Relaxed),
            },
            contended: self.type_graphs.contended() + self.feas_memo.contended(),
            feas_memo_contention: self.feas_memo.contention_by_shard(),
            snapshot_bytes: self.snap_bytes.load(Ordering::Relaxed),
            snapshot_age_seconds: match self.snap_age_plus1.load(Ordering::Relaxed) {
                0 => None,
                n => Some(n - 1),
            },
        }
    }
}

/// Runs a budgeted decision under [`Budget::unlimited_ref`], which never
/// trips, and unwraps its verdict.
fn unlimited<T>(decide: impl FnOnce(&Budget) -> Result<Verdict<T>>) -> Result<T> {
    decide(Budget::unlimited_ref()).map(|v| v.expect_done("unlimited budget never trips"))
}

/// Point-in-time cache counters of a [`Session`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SessionStats {
    /// Automata-cache counters.
    pub automata: CacheStats,
    /// The cache ceilings in force when the snapshot was taken.
    pub limits: SessionLimits,
    /// Session-table entries (type graphs + feas memos) dropped by
    /// eviction passes, cumulative; automata-cache flush evictions are in
    /// [`CacheStats::evicted`].
    pub evicted: u64,
    /// Number of schemas with a cached `TypeGraph`.
    pub type_graphs: usize,
    /// Approximate heap bytes retained by the cached type graphs.
    pub type_graph_bytes: usize,
    /// Type-graph cache traffic.
    pub type_graph_table: TableStats,
    /// Number of memoized feas-analysis results.
    pub feas_memos: usize,
    /// Feas-analysis memo traffic.
    pub feas_memo_table: TableStats,
    /// Shard-lock acquisitions on the session maps (type graphs +
    /// feas memo) that found the lock held and had to block.
    pub contended: u64,
    /// Blocked acquisitions per shard of the feas memo (the table the
    /// concurrency bench hammers), in shard order.
    pub feas_memo_contention: [u64; ssd_automata::SHARDS],
    /// Payload bytes retained from the last snapshot load (0 when no
    /// snapshot was loaded or nothing survived validation).
    pub snapshot_bytes: u64,
    /// Age of the last loaded snapshot at load time, if one was loaded.
    pub snapshot_age_seconds: Option<u64>,
}

impl std::fmt::Display for SessionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let a = &self.automata;
        writeln!(
            f,
            "automata cache: {} hits / {} misses ({:.1}% hit ratio)",
            a.hits,
            a.misses,
            a.hit_ratio() * 100.0
        )?;
        for (name, t) in [
            ("regex->nfa", a.nfa_table),
            ("nfa->dfa", a.dfa_table),
            ("compiled", a.compiled_table),
            ("emptiness", a.emptiness_table),
            ("inclusion", a.inclusion_table),
            ("type-graph", self.type_graph_table),
            ("feas-memo", self.feas_memo_table),
        ] {
            writeln!(
                f,
                "  {name:<12} {:>8} hits {:>8} misses  ({:.1}%)",
                t.hits,
                t.misses,
                t.hit_ratio() * 100.0
            )?;
        }
        writeln!(
            f,
            "  entries: {} nfas, {} dfas, {} compiled ({} KiB), {} verdicts, \
             {} interned regexes",
            a.nfas,
            a.dfas,
            a.compiled,
            a.compiled_bytes / 1024,
            a.verdicts,
            a.interned
        )?;
        writeln!(
            f,
            "type-graph cache: {} schemas, ~{} KiB retained",
            self.type_graphs,
            self.type_graph_bytes / 1024
        )?;
        writeln!(
            f,
            "feas memo: {} entries; session shard contention: {} blocked acquisitions",
            self.feas_memos, self.contended
        )?;
        match self.snapshot_age_seconds {
            Some(age) => writeln!(
                f,
                "snapshot: {} bytes retained, loaded at age {age}s",
                self.snapshot_bytes
            )?,
            None => writeln!(f, "snapshot: none loaded")?,
        }
        let fmt_limit = |l: Option<usize>| match l {
            Some(n) => n.to_string(),
            None => "unlimited".to_string(),
        };
        write!(
            f,
            "limits: type-graph bytes {}, feas-memo bytes {}, feas-memo entries {}, \
             automata entries {}; evicted: {} session entries, {} automata entries",
            fmt_limit(self.limits.max_type_graph_bytes),
            fmt_limit(self.limits.max_feas_memo_bytes),
            fmt_limit(self.limits.max_feas_memo_entries),
            fmt_limit(self.limits.max_automata_entries),
            self.evicted,
            self.automata.evicted,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::SharedInterner;
    use ssd_query::parse_query;
    use ssd_schema::parse_schema;

    fn setup() -> (Query, Schema) {
        let pool = SharedInterner::new();
        let s = parse_schema(
            "T = [a->U.(b->V)*.c->W]; U = [x->P]; V = int; W = string; P = int",
            &pool,
        )
        .unwrap();
        let q = parse_query("SELECT X WHERE Root = [a.x -> X, c -> Y]", &pool).unwrap();
        (q, s)
    }

    #[test]
    fn type_graph_is_computed_once_per_schema() {
        let (_, s) = setup();
        let sess = Session::new();
        let a = sess.type_graph(&s);
        let b = sess.type_graph(&s);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(sess.stats().type_graphs, 1);
        // A clone shares the uid, hence the cached graph.
        let c = sess.type_graph(&s.clone());
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn warm_answers_match_cold_and_legacy() {
        let (q, s) = setup();
        let sess = Session::new();
        let cold = sess.satisfiable(&q, &s).unwrap();
        let warm = sess.satisfiable(&q, &s).unwrap();
        let fresh = Session::new().satisfiable(&q, &s).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, fresh);
        assert!(cold.satisfiable);
    }

    #[test]
    fn repeated_queries_hit_the_feas_memo() {
        let (q, s) = setup();
        let sess = Session::new();
        sess.satisfiable(&q, &s).unwrap();
        let after_first = sess.stats();
        assert_eq!(after_first.feas_memo_table.hits, 0);
        assert_eq!(after_first.feas_memo_table.misses, 1);
        assert_eq!(after_first.feas_memos, 1);
        sess.satisfiable(&q, &s).unwrap();
        let after_second = sess.stats();
        // The warm run is answered entirely from the feas memo: no new
        // automata-cache traffic at all, one memo hit, no new entries.
        assert_eq!(after_second.feas_memo_table.hits, 1);
        assert_eq!(after_second.feas_memo_table.misses, 1);
        assert_eq!(after_second.feas_memos, 1);
        assert_eq!(after_first.automata.hits, after_second.automata.hits);
        assert_eq!(after_first.automata.misses, after_second.automata.misses);
    }

    #[test]
    fn feas_memo_distinguishes_constraints_and_schemas() {
        let (q, s) = setup();
        let pool = SharedInterner::new();
        let s2 = parse_schema("T = [a->U.c->W]; U = [x->P]; W = string; P = int", &pool).unwrap();
        let q2 = parse_query("SELECT X WHERE Root = [a.x -> X, c -> Y]", &pool).unwrap();
        let sess = Session::new();
        sess.satisfiable(&q, &s).unwrap();
        // Same query structure against a different schema: separate entry.
        sess.satisfiable(&q2, &s2).unwrap();
        // Same query/schema under a pin: separate entry again.
        let x = q.var_by_name("X").unwrap();
        let pinned = Constraints::none().pin_type(x, s.by_name("P").unwrap());
        sess.satisfiable_with(&q, &s, &pinned).unwrap();
        let stats = sess.stats();
        assert_eq!(stats.feas_memos, 3);
        assert_eq!(stats.feas_memo_table.hits, 0);
    }

    #[test]
    fn infer_through_session_matches_legacy() {
        let (q, s) = setup();
        let sess = Session::new();
        let cold = sess.infer(&q, &s).unwrap();
        assert_eq!(sess.infer(&q, &s).unwrap(), cold);
        assert_eq!(Session::new().infer(&q, &s).unwrap(), cold);
    }

    #[test]
    fn unlimited_session_never_evicts() {
        let (q, s) = setup();
        let sess = Session::new();
        for _ in 0..3 {
            sess.satisfiable(&q, &s).unwrap();
        }
        let stats = sess.stats();
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.automata.evicted, 0);
    }

    #[test]
    fn byte_cap_evicts_without_changing_verdicts() {
        let (q, s) = setup();
        // A 1-byte ceiling forces eviction after every miss; repeated
        // queries then alternate miss/evict but always agree with an
        // unlimited session.
        let sess = Session::with_limits(
            SessionLimits::unlimited()
                .max_type_graph_bytes(1)
                .max_feas_memo_bytes(1),
        );
        let free = Session::new();
        for _ in 0..4 {
            let bounded = sess.satisfiable(&q, &s).unwrap();
            let unlimited = free.satisfiable(&q, &s).unwrap();
            assert_eq!(bounded, unlimited);
        }
        let stats = sess.stats();
        assert!(stats.evicted > 0, "byte ceiling must shed entries");
        // The hard cap floors at len/2 = 0 for single-entry tables, so
        // nothing over-ceiling lingers.
        assert_eq!(stats.type_graph_bytes, 0);
    }

    #[test]
    fn entry_cap_bounds_the_feas_memo() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.b->V]; U = int; V = string", &pool).unwrap();
        let sess = Session::with_limits(SessionLimits::unlimited().max_feas_memo_entries(2));
        // Distinct pins create distinct memo entries.
        let q = parse_query("SELECT X WHERE Root = [_ -> X]", &pool).unwrap();
        let x = q.var_by_name("X").unwrap();
        for t in s.types() {
            let c = Constraints::none().pin_type(x, t);
            sess.satisfiable_with(&q, &s, &c).unwrap();
        }
        let stats = sess.stats();
        assert!(stats.evicted > 0);
        assert!(stats.feas_memos <= 3, "cap plus at most one fresh insert");
    }

    #[test]
    fn snapshot_roundtrip_warms_a_fresh_session() {
        let (q, s) = setup();
        let warm = Session::new();
        let cold_verdict = warm.satisfiable(&q, &s).unwrap();
        let dir = std::env::temp_dir().join(format!("ssd-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        warm.save_snapshot(&path, &[&s]).unwrap();

        let restored = Session::new();
        let out = restored.load_snapshot(&path, &[&s]);
        assert!(out.any_loaded(), "{out}");
        assert_eq!(out.sections_rejected, 0, "{out}");
        let stats = restored.stats();
        assert!(stats.snapshot_bytes > 0);
        assert!(stats.snapshot_age_seconds.is_some());
        // The first query on the restored session is answered from the
        // hydrated feas memo, and agrees with the cold verdict.
        assert_eq!(restored.satisfiable(&q, &s).unwrap(), cold_verdict);
        let after = restored.stats();
        assert_eq!(after.feas_memo_table.hits, 1);
        assert_eq!(after.feas_memo_table.misses, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_load_of_garbage_leaves_session_usable() {
        let (q, s) = setup();
        let dir = std::env::temp_dir().join(format!("ssd-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.snap");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        let sess = Session::new();
        let out = sess.load_snapshot(&path, &[&s]);
        assert!(!out.any_loaded());
        assert!(out.sections_rejected > 0);
        assert_eq!(sess.stats().snapshot_bytes, 0);
        let verdict = sess.satisfiable(&q, &s).unwrap();
        assert_eq!(verdict, Session::new().satisfiable(&q, &s).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn automata_cap_flushes_the_shared_cache() {
        let pool = SharedInterner::new();
        let s = parse_schema("T = [a->U.b->V]; U = int; V = string", &pool).unwrap();
        let sess = Session::with_limits(SessionLimits::unlimited().max_automata_entries(1));
        let q = parse_query("SELECT X WHERE Root = [a.b?.(a|b)* -> X]", &pool).unwrap();
        sess.satisfiable(&q, &s).unwrap();
        let stats = sess.stats();
        assert!(stats.automata.evicted > 0, "cap of 1 must trigger a flush");
        // And the flushed session still answers correctly.
        let again = sess.satisfiable(&q, &s).unwrap();
        assert_eq!(again, Session::new().satisfiable(&q, &s).unwrap());
    }
}
