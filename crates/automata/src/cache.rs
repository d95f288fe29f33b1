//! A hash-consed, memoizing cache of automata constructions and language
//! verdicts.
//!
//! The traces engines rebuild the same Glushkov automata, determinized
//! DFAs, and emptiness/inclusion verdicts over and over: every
//! satisfiability call re-translates the query's path regexes, and type
//! inference drives hundreds of such calls against one schema. Regexes are
//! immutable values, so all of this is safely shareable. This module
//! provides [`AutomataCache`]:
//!
//! * **hash-consing** — [`AutomataCache::intern`] maps structurally equal
//!   [`Regex`] values to one shared [`HcRegex`] (an `Arc` plus the
//!   precomputed [`Regex::fingerprint`]), so repeated keys hash in O(1)
//!   and compare by pointer first;
//! * **memoized constructions** — [`AutomataCache::nfa`] (Glushkov) and
//!   [`AutomataCache::dfa`] (determinized + minimized) return shared
//!   `Arc`s, built at most once per distinct regex;
//! * **memoized verdicts** — [`AutomataCache::is_empty`],
//!   [`AutomataCache::included`], and [`AutomataCache::equivalent`] cache
//!   language emptiness and inclusion per (pair of) interned key(s).
//!
//! Every memo table is an N-way [`ShardedMap`] (see [`crate::shard`]):
//! reads (the hit path) take one shard's shared lock, construction takes
//! that shard's exclusive lock with a double-check so concurrent missers
//! agree on one entry — and cold misses on *different* keys no longer
//! serialize on a single map-wide lock. Entries are never invalidated —
//! regexes are immutable values and every cached artifact is a pure
//! function of its key — so the cache only grows, and verdicts stay
//! bit-identical to what the uncached constructions produce.

use ssd_base::sync::{Arc, AtomicBool, AtomicU64, Ordering};
use std::hash::{Hash, Hasher};

use ssd_base::LabelId;
use ssd_obs::{names, Recorder};

use crate::shard::ShardedMap;

use crate::compiled::{self, CompiledDfa};
use crate::dfa::{self, Dfa};
use crate::glushkov;
use crate::nfa::Nfa;
use crate::ops;
use crate::product;
use crate::syntax::{LabelAtom, Regex};

/// A hash-consed regex: one shared allocation per distinct structure, with
/// the structural fingerprint precomputed for O(1) hashing.
#[derive(Clone, Debug)]
pub struct HcRegex {
    fp: u64,
    re: Arc<Regex<LabelAtom>>,
}

impl HcRegex {
    /// The underlying regex.
    pub fn regex(&self) -> &Regex<LabelAtom> {
        &self.re
    }

    /// The precomputed structural fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Whether both handles share one interned allocation.
    pub fn same_cons(&self, other: &HcRegex) -> bool {
        Arc::ptr_eq(&self.re, &other.re)
    }
}

impl PartialEq for HcRegex {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality is the common case after interning; the
        // fingerprint pre-filters, full structure decides collisions.
        Arc::ptr_eq(&self.re, &other.re) || (self.fp == other.fp && self.re == other.re)
    }
}

impl Eq for HcRegex {}

impl Hash for HcRegex {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fp);
    }
}

/// Hit/miss counters for one memo table (monotone, point-in-time).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to construct (and insert) their result.
    pub misses: u64,
}

impl TableStats {
    /// Hits as a fraction of all lookups — `0.0` with no lookups yet.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups against the table.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Counters describing cache effectiveness (monotone, point-in-time).
///
/// `hits`/`misses` aggregate across all memo tables (the pre-breakdown
/// interface); the per-table [`TableStats`] fields say *which* table the
/// traffic went to, which is what the ROADMAP's eviction/sharding work
/// needs to see.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from any memo table (sum over tables).
    pub hits: u64,
    /// Lookups that had to construct their result (sum over tables).
    pub misses: u64,
    /// regex→NFA table traffic.
    pub nfa_table: TableStats,
    /// NFA→DFA table traffic.
    pub dfa_table: TableStats,
    /// Emptiness-verdict table traffic.
    pub emptiness_table: TableStats,
    /// Inclusion-verdict table traffic.
    pub inclusion_table: TableStats,
    /// Compiled-table traffic (`Arc<CompiledDfa>` snapshot lookups).
    pub compiled_table: TableStats,
    /// Distinct hash-consed regexes.
    pub interned: usize,
    /// Memoized Glushkov NFAs.
    pub nfas: usize,
    /// Memoized determinized+minimized DFAs.
    pub dfas: usize,
    /// Memoized compiled transition tables.
    pub compiled: usize,
    /// Estimated resident bytes of the compiled transition tables.
    pub compiled_bytes: usize,
    /// Memoized emptiness + inclusion verdicts.
    pub verdicts: usize,
    /// Shard-lock acquisitions across all memo tables that found the lock
    /// held and had to block (the contention the sharding work spreads).
    pub contended: u64,
    /// Entries dropped by epoch flushes ([`AutomataCache::flush`]),
    /// cumulative over the cache's lifetime.
    pub evicted: u64,
}

impl CacheStats {
    /// Aggregate hit ratio across every memo table.
    pub fn hit_ratio(&self) -> f64 {
        TableStats {
            hits: self.hits,
            misses: self.misses,
        }
        .hit_ratio()
    }
}

/// One exported (regex, minimized DFA) pair from
/// [`AutomataCache::export_dfas`].
pub type ExportedDfa = (Arc<Regex<LabelAtom>>, Arc<Dfa<LabelAtom>>);

/// One exported (regex, compiled table) pair from
/// [`AutomataCache::export_compiled`].
pub type ExportedCompiled = (Arc<Regex<LabelAtom>>, Arc<CompiledDfa<LabelId>>);

/// The shared automata cache. See the module docs for the design.
#[derive(Default)]
pub struct AutomataCache {
    /// Hash-consing table: fingerprint → interned regexes with that
    /// fingerprint (a bucket list disambiguates collisions structurally).
    cons: ShardedMap<u64, Vec<Arc<Regex<LabelAtom>>>>,
    nfas: ShardedMap<HcRegex, Arc<Nfa<LabelAtom>>>,
    dfas: ShardedMap<HcRegex, Arc<Dfa<LabelAtom>>>,
    /// Compiled dense-table snapshots: hot loops clone the `Arc` once per
    /// call and then step lock-free, never touching a shard lock per edge.
    compiled: ShardedMap<HcRegex, Arc<CompiledDfa<LabelId>>>,
    empties: ShardedMap<HcRegex, bool>,
    inclusions: ShardedMap<(HcRegex, HcRegex), bool>,
    tables: [Table; 5],
    /// When set, language comparisons run on the interpreted (NFA/DFA)
    /// engines instead of the compiled kernels. Default off: the compiled
    /// tier is the production path, the interpreter is retained behind the
    /// same entry points for differential testing.
    interpret_only: AtomicBool,
    /// Observability sink, fixed at construction
    /// ([`AutomataCache::with_recorder`]): when set, every hit/miss also
    /// bumps the matching `ssd_obs::names::counter` and constructions run
    /// under spans.
    rec: Option<Arc<dyn Recorder>>,
    /// Entries dropped by epoch flushes, cumulative.
    evicted: AtomicU64,
}

/// Indices into `AutomataCache::tables`, one per memo table.
#[derive(Clone, Copy)]
enum TableId {
    Nfa = 0,
    Dfa = 1,
    Emptiness = 2,
    Inclusion = 3,
    Compiled = 4,
}

impl TableId {
    /// The `(hit, miss)` counter names this table reports under.
    fn counter_names(self) -> (&'static str, &'static str) {
        match self {
            TableId::Nfa => (
                names::counter::CACHE_NFA_HIT,
                names::counter::CACHE_NFA_MISS,
            ),
            TableId::Dfa => (
                names::counter::CACHE_DFA_HIT,
                names::counter::CACHE_DFA_MISS,
            ),
            TableId::Emptiness => (
                names::counter::CACHE_EMPTINESS_HIT,
                names::counter::CACHE_EMPTINESS_MISS,
            ),
            TableId::Inclusion => (
                names::counter::CACHE_INCLUSION_HIT,
                names::counter::CACHE_INCLUSION_MISS,
            ),
            TableId::Compiled => (
                names::counter::CACHE_COMPILED_HIT,
                names::counter::CACHE_COMPILED_MISS,
            ),
        }
    }
}

/// One memo table's live hit/miss counters.
#[derive(Default)]
struct Table {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Table {
    fn snapshot(&self) -> TableStats {
        TableStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl AutomataCache {
    /// An empty cache.
    pub fn new() -> AutomataCache {
        AutomataCache::default()
    }

    /// An empty cache reporting into `rec`: every memo-table hit/miss is
    /// mirrored to the recorder's counters, and cache-miss constructions
    /// run under the `glushkov`, `determinize`, `minimize` and
    /// `compiled_build` spans and report the NFA/DFA state counts.
    pub fn with_recorder(rec: Arc<dyn Recorder>) -> AutomataCache {
        AutomataCache {
            rec: Some(rec),
            ..AutomataCache::default()
        }
    }

    /// The cache's recorder (the shared no-op recorder when none was
    /// attached at construction).
    pub fn recorder(&self) -> &dyn Recorder {
        self.rec.as_deref().unwrap_or(ssd_obs::noop())
    }

    /// Bumps the table's hit or miss counter, mirroring to the recorder
    /// when one is attached.
    fn note(&self, table: TableId, hit: bool) {
        let t = &self.tables[table as usize];
        if hit {
            t.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            t.misses.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(rec) = &self.rec {
            let (hit_name, miss_name) = table.counter_names();
            rec.add(if hit { hit_name } else { miss_name }, 1);
        }
    }

    /// Selects the execution engine for language comparisons: `true`
    /// (the default) routes inclusion/equivalence/intersection through
    /// the compiled dense-table kernels; `false` retains the interpreted
    /// NFA/DFA path behind the same entry points, for differential
    /// testing. Verdicts are identical either way.
    pub fn set_compiled(&self, on: bool) {
        // Relaxed: the flag selects between two engines that return
        // identical verdicts, so a comparison that reads the old value
        // mid-toggle is still correct — no other memory is published
        // through this store.
        self.interpret_only.store(!on, Ordering::Relaxed);
    }

    /// Whether language comparisons run on the compiled kernels.
    pub fn compiled_enabled(&self) -> bool {
        !self.interpret_only.load(Ordering::Relaxed)
    }

    /// Hash-conses `re`: structurally equal regexes map to one shared
    /// allocation for the lifetime of the cache.
    pub fn intern(&self, re: &Regex<LabelAtom>) -> HcRegex {
        let fp = re.fingerprint();
        let hit = self.cons.read_with(&fp, |bucket| {
            bucket.and_then(|b| b.iter().find(|c| ***c == *re).map(Arc::clone))
        });
        if let Some(found) = hit {
            return HcRegex { fp, re: found };
        }
        self.cons.write_with(fp, |bucket| {
            // Double-check: another writer may have interned between locks.
            if let Some(found) = bucket.iter().find(|c| ***c == *re) {
                return HcRegex {
                    fp,
                    re: Arc::clone(found),
                };
            }
            let arc = Arc::new(re.clone());
            bucket.push(Arc::clone(&arc));
            HcRegex { fp, re: arc }
        })
    }

    /// The Glushkov NFA of `re`, built at most once.
    pub fn nfa(&self, re: &Regex<LabelAtom>) -> Arc<Nfa<LabelAtom>> {
        let key = self.intern(re);
        if let Some(n) = self.nfas.get(&key) {
            self.note(TableId::Nfa, true);
            return n;
        }
        self.note(TableId::Nfa, false);
        let rec = self.recorder();
        let built = {
            let _span = ssd_obs::span(rec, names::span::GLUSHKOV);
            glushkov::build(key.regex())
        };
        if rec.enabled() {
            rec.add(names::counter::NFA_STATES, built.num_states() as u64);
            rec.observe(names::counter::NFA_STATES, built.num_states() as u64);
        }
        self.nfas.insert_if_absent(key, Arc::new(built))
    }

    /// The determinized and minimized DFA of `re`, built at most once.
    pub fn dfa(&self, re: &Regex<LabelAtom>) -> Arc<Dfa<LabelAtom>> {
        self.dfa_b(re, ssd_base::Budget::unlimited_ref())
            .expect("unlimited budget never trips")
    }

    /// [`AutomataCache::dfa`] under a [`ssd_base::Budget`]: a cache hit
    /// is free, a miss runs determinization + minimization under the
    /// budget. A trip leaves the table unchanged (nothing partial is
    /// cached), so a later call with more budget rebuilds from scratch.
    pub fn dfa_b(
        &self,
        re: &Regex<LabelAtom>,
        budget: &ssd_base::Budget,
    ) -> ssd_base::BudgetResult<Arc<Dfa<LabelAtom>>> {
        let key = self.intern(re);
        if let Some(d) = self.dfas.get(&key) {
            self.note(TableId::Dfa, true);
            return Ok(d);
        }
        self.note(TableId::Dfa, false);
        let nfa = self.nfa(re);
        let rec = self.recorder();
        let det = {
            let _span = ssd_obs::span(rec, names::span::DETERMINIZE);
            dfa::determinize_b(&nfa, budget)?
        };
        if rec.enabled() {
            rec.add(names::counter::DFA_STATES, det.num_states() as u64);
            rec.observe(names::counter::DFA_STATES, det.num_states() as u64);
        }
        let built = {
            let _span = ssd_obs::span(rec, names::span::MINIMIZE);
            dfa::minimize_b(&det, budget)?
        };
        Ok(self.dfas.insert_if_absent(key, Arc::new(built)))
    }

    /// The compiled dense transition table of `re`, built at most once
    /// (determinize + minimize + compile on the first miss). The returned
    /// `Arc` is a lock-free snapshot: callers clone it once and step
    /// through the table without ever touching a shard lock.
    pub fn compiled(&self, re: &Regex<LabelAtom>) -> Arc<CompiledDfa<LabelId>> {
        self.compiled_b(re, ssd_base::Budget::unlimited_ref())
            .expect("unlimited budget never trips")
    }

    /// [`AutomataCache::compiled`] under a [`ssd_base::Budget`]: a hit is
    /// free, a miss runs determinization + minimization under the budget
    /// and then the table build (under a `compiled_build` span). A trip
    /// caches nothing partial.
    pub fn compiled_b(
        &self,
        re: &Regex<LabelAtom>,
        budget: &ssd_base::Budget,
    ) -> ssd_base::BudgetResult<Arc<CompiledDfa<LabelId>>> {
        let key = self.intern(re);
        if let Some(c) = self.compiled.get(&key) {
            self.note(TableId::Compiled, true);
            return Ok(c);
        }
        self.note(TableId::Compiled, false);
        let dfa = self.dfa_b(re, budget)?;
        let built = {
            let _span = ssd_obs::span(self.recorder(), names::span::COMPILED_BUILD);
            compiled::compile(&dfa)
        };
        Ok(self.compiled.insert_if_absent(key, Arc::new(built)))
    }

    /// Whether `lang(left) ∩ lang(right)` is empty, decided under
    /// `budget`. Not memoized (callers memoize at their own granularity).
    /// On the compiled engine this is the fused pair-product kernel over
    /// two dense tables; on the interpreted engine it materializes the
    /// NFA product and checks reachability — same verdict, measured-order
    /// slower.
    pub fn intersection_empty_b(
        &self,
        left: &Regex<LabelAtom>,
        right: &Regex<LabelAtom>,
        budget: &ssd_base::Budget,
    ) -> ssd_base::BudgetResult<bool> {
        let r = self.recorder();
        if self.compiled_enabled() {
            let a = self.compiled_b(left, budget)?;
            let b = self.compiled_b(right, budget)?;
            compiled::is_empty_product_compiled_b(&a, &b, r, budget)
        } else {
            let p = product::product_b(
                &self.nfa(left),
                &self.nfa(right),
                LabelAtom::meet,
                r,
                budget,
            )?;
            Ok(ops::is_empty_lang(&p))
        }
    }

    /// Entries across the artifact and verdict tables (NFAs, DFAs,
    /// emptiness + inclusion verdicts, hash-cons allocations) — the
    /// number the session's `max_automata_entries` cap is checked
    /// against.
    pub fn artifact_entries(&self) -> usize {
        self.cons.fold_values(0, |n, bucket| n + bucket.len())
            + self.nfas.len()
            + self.dfas.len()
            + self.compiled.len()
            + self.empties.len()
            + self.inclusions.len()
    }

    /// Compiled transition tables currently held.
    pub fn compiled_entries(&self) -> usize {
        self.compiled.len()
    }

    /// Estimated resident bytes of the compiled transition tables.
    pub fn compiled_bytes(&self) -> usize {
        self.compiled.fold_values(0, |n, c| n + c.size_bytes())
    }

    /// Every memoized minimized DFA paired with the regex it belongs to,
    /// for the snapshot exporter. Order is shard-iteration order (not
    /// deterministic across processes); consumers must not depend on it.
    pub fn export_dfas(&self) -> Vec<ExportedDfa> {
        self.dfas.fold(Vec::new(), |mut acc, k, v| {
            acc.push((Arc::clone(&k.re), Arc::clone(v)));
            acc
        })
    }

    /// Every compiled dense table paired with its regex, for the
    /// snapshot exporter.
    pub fn export_compiled(&self) -> Vec<ExportedCompiled> {
        self.compiled.fold(Vec::new(), |mut acc, k, v| {
            acc.push((Arc::clone(&k.re), Arc::clone(v)));
            acc
        })
    }

    /// Publishes a snapshot-restored DFA under `re`. Goes through the
    /// same hash-cons + `insert_if_absent` path as a live build, so a
    /// concurrent request for the same regex either sees nothing (and
    /// computes) or the fully-constructed table — never a partial
    /// hydration. If a live build won the race, the restored value is
    /// dropped and `false` is returned.
    pub fn hydrate_dfa(&self, re: &Regex<LabelAtom>, dfa: Dfa<LabelAtom>) -> bool {
        let key = self.intern(re);
        let arc = Arc::new(dfa);
        let published = self.dfas.insert_if_absent(key, Arc::clone(&arc));
        Arc::ptr_eq(&published, &arc)
    }

    /// Publishes a snapshot-restored compiled table under `re`; same
    /// race discipline as [`AutomataCache::hydrate_dfa`].
    pub fn hydrate_compiled(&self, re: &Regex<LabelAtom>, c: CompiledDfa<LabelId>) -> bool {
        let key = self.intern(re);
        let arc = Arc::new(c);
        let published = self.compiled.insert_if_absent(key, Arc::clone(&arc));
        Arc::ptr_eq(&published, &arc)
    }

    /// Per-shard entry counts summed across the artifact and verdict
    /// tables, in shard order — the registry's per-shard automata
    /// occupancy gauge (shard `i` of each table contributes to slot `i`).
    pub fn occupancy_by_shard(&self) -> [usize; crate::shard::SHARDS] {
        let tables = [
            self.nfas.len_by_shard(),
            self.dfas.len_by_shard(),
            self.compiled.len_by_shard(),
            self.empties.len_by_shard(),
            self.inclusions.len_by_shard(),
        ];
        std::array::from_fn(|i| tables.iter().map(|t| t[i]).sum())
    }

    /// Epoch flush: drops every memoized artifact and verdict (and the
    /// hash-cons table), returning how many entries were evicted.
    /// Sound because each entry is a pure function of its immutable
    /// key — a future miss rebuilds an identical value — so flushing
    /// costs recomputation, never correctness. Hit/miss counters are
    /// *not* reset (they are monotone lifetime totals).
    pub fn flush(&self) -> u64 {
        let evicted = self
            .cons
            .fold_values(0u64, |n, bucket| n + bucket.len() as u64)
            + self.nfas.clear()
            + self.dfas.clear()
            + self.compiled.clear()
            + self.empties.clear()
            + self.inclusions.clear();
        self.cons.clear();
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        if evicted > 0 {
            self.recorder().add(names::counter::CACHE_EVICTED, evicted);
        }
        evicted
    }

    /// Entries dropped by epoch flushes over this cache's lifetime.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Whether `lang(re)` is empty, memoized (decided on the NFA, exactly
    /// as the uncached path does).
    pub fn is_empty(&self, re: &Regex<LabelAtom>) -> bool {
        let key = self.intern(re);
        if let Some(v) = self.empties.get(&key) {
            self.note(TableId::Emptiness, true);
            return v;
        }
        self.note(TableId::Emptiness, false);
        let v = ops::is_empty_lang(&self.nfa(re));
        self.empties.insert_if_absent(key, v)
    }

    /// Whether `lang(left) ⊆ lang(right)`, memoized per ordered pair.
    pub fn included(&self, left: &Regex<LabelAtom>, right: &Regex<LabelAtom>) -> bool {
        let key = (self.intern(left), self.intern(right));
        if let Some(v) = self.inclusions.get(&key) {
            self.note(TableId::Inclusion, true);
            return v;
        }
        self.note(TableId::Inclusion, false);
        let v = if self.compiled_enabled() {
            compiled::included_compiled(&self.compiled(left), &self.compiled(right))
        } else {
            dfa::included(&self.nfa(left), &self.nfa(right))
        };
        self.inclusions.insert_if_absent(key, v)
    }

    /// Language equivalence: inclusion both ways (each direction memoized).
    pub fn equivalent(&self, a: &Regex<LabelAtom>, b: &Regex<LabelAtom>) -> bool {
        self.included(a, b) && self.included(b, a)
    }

    /// Point-in-time effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let nfa_table = self.tables[TableId::Nfa as usize].snapshot();
        let dfa_table = self.tables[TableId::Dfa as usize].snapshot();
        let emptiness_table = self.tables[TableId::Emptiness as usize].snapshot();
        let inclusion_table = self.tables[TableId::Inclusion as usize].snapshot();
        let compiled_table = self.tables[TableId::Compiled as usize].snapshot();
        let tables = [
            nfa_table,
            dfa_table,
            emptiness_table,
            inclusion_table,
            compiled_table,
        ];
        CacheStats {
            hits: tables.iter().map(|t| t.hits).sum(),
            misses: tables.iter().map(|t| t.misses).sum(),
            nfa_table,
            dfa_table,
            emptiness_table,
            inclusion_table,
            compiled_table,
            interned: self.cons.fold_values(0, |n, bucket| n + bucket.len()),
            nfas: self.nfas.len(),
            dfas: self.dfas.len(),
            compiled: self.compiled.len(),
            compiled_bytes: self.compiled_bytes(),
            verdicts: self.empties.len() + self.inclusions.len(),
            contended: self.cons.contended()
                + self.nfas.contended()
                + self.dfas.contended()
                + self.compiled.contended()
                + self.empties.contended()
                + self.inclusions.contended(),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for AutomataCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("AutomataCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("interned", &s.interned)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssd_base::LabelId;

    fn l(i: u32) -> Regex<LabelAtom> {
        Regex::atom(LabelAtom::Label(LabelId(i)))
    }

    fn sample() -> Regex<LabelAtom> {
        Regex::concat(vec![l(0), Regex::star(Regex::alt(vec![l(1), l(2)])), l(3)])
    }

    #[test]
    fn interning_shares_allocations() {
        let cache = AutomataCache::new();
        let a = cache.intern(&sample());
        let b = cache.intern(&sample());
        assert!(a.same_cons(&b));
        assert_eq!(a, b);
        assert_eq!(cache.stats().interned, 1);
        let c = cache.intern(&l(9));
        assert!(!a.same_cons(&c));
        assert_eq!(cache.stats().interned, 2);
    }

    #[test]
    fn cached_nfa_is_bit_identical_to_uncached() {
        let cache = AutomataCache::new();
        let re = sample();
        let cached = cache.nfa(&re);
        let fresh = glushkov::build(&re);
        assert_eq!(cached.num_states(), fresh.num_states());
        assert_eq!(cached.start(), fresh.start());
        let ce: Vec<_> = cached.all_edges().map(|(a, s, b)| (a, *s, b)).collect();
        let fe: Vec<_> = fresh.all_edges().map(|(a, s, b)| (a, *s, b)).collect();
        assert_eq!(ce, fe);
        for q in 0..fresh.num_states() {
            assert_eq!(cached.is_accepting(q), fresh.is_accepting(q));
        }
    }

    #[test]
    fn repeated_nfa_lookups_hit() {
        let cache = AutomataCache::new();
        let first = cache.nfa(&sample());
        let second = cache.nfa(&sample());
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.nfas, 1);
    }

    #[test]
    fn dfa_accepts_like_nfa() {
        let cache = AutomataCache::new();
        let re = sample();
        let nfa = cache.nfa(&re);
        let dfa = cache.dfa(&re);
        for word in [
            vec![LabelId(0), LabelId(3)],
            vec![LabelId(0), LabelId(1), LabelId(2), LabelId(3)],
            vec![LabelId(0)],
            vec![LabelId(3)],
        ] {
            assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "word {word:?}");
        }
        assert!(Arc::ptr_eq(&cache.dfa(&re), &dfa));
    }

    #[test]
    fn emptiness_verdicts_match_syntax() {
        let cache = AutomataCache::new();
        // Built via raw variants so the smart constructors don't simplify
        // the ∅ factor away.
        let dead = Regex::Concat(vec![l(0), Regex::Empty]);
        assert!(cache.is_empty(&dead));
        assert!(!cache.is_empty(&sample()));
        assert_eq!(dead.is_empty_lang(), cache.is_empty(&dead));
        // Second lookups are hits.
        let before = cache.stats().hits;
        assert!(cache.is_empty(&dead));
        assert!(cache.stats().hits > before);
    }

    #[test]
    fn inclusion_and_equivalence_are_memoized() {
        let cache = AutomataCache::new();
        let star = Regex::star(l(0));
        let plus = Regex::plus(l(0));
        assert!(cache.included(&plus, &star));
        assert!(!cache.included(&star, &plus));
        assert!(!cache.equivalent(&star, &plus));
        assert!(cache.equivalent(&star, &Regex::star(Regex::plus(l(0)))));
        assert!(cache.stats().verdicts >= 3);
    }

    #[test]
    fn per_table_stats_break_down_the_aggregate() {
        let cache = AutomataCache::new();
        cache.nfa(&sample());
        cache.nfa(&sample());
        cache.is_empty(&sample());
        let s = cache.stats();
        // The emptiness miss re-queries the NFA table (a hit), so: 2 hits.
        assert_eq!(s.nfa_table, TableStats { hits: 2, misses: 1 });
        assert_eq!(s.emptiness_table, TableStats { hits: 0, misses: 1 });
        assert_eq!(s.dfa_table.lookups(), 0);
        assert_eq!(s.hits, s.nfa_table.hits + s.emptiness_table.hits);
        assert_eq!(
            s.misses,
            s.nfa_table.misses + s.dfa_table.misses + s.emptiness_table.misses
        );
        assert!((s.nfa_table.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(TableStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn recorder_mirrors_hits_and_misses() {
        let rec = Arc::new(ssd_obs::TraceRecorder::new());
        let cache = AutomataCache::with_recorder(rec.clone());
        cache.dfa(&sample());
        cache.dfa(&sample());
        assert_eq!(rec.counter(names::counter::CACHE_DFA_MISS), 1);
        assert_eq!(rec.counter(names::counter::CACHE_DFA_HIT), 1);
        assert_eq!(rec.counter(names::counter::CACHE_NFA_MISS), 1);
        // Constructions on the miss path ran under spans.
        let report = rec.report();
        assert!(report.span(&[ssd_obs::names::span::GLUSHKOV]).is_some());
        assert!(report.span(&[ssd_obs::names::span::DETERMINIZE]).is_some());
        assert!(report.span(&[ssd_obs::names::span::MINIMIZE]).is_some());
        assert_eq!(rec.counter(names::counter::NFA_STATES), 5);
    }

    #[test]
    fn flush_drops_entries_but_keeps_verdicts_stable() {
        let cache = AutomataCache::new();
        let star = Regex::star(l(0));
        let plus = Regex::plus(l(0));
        let before_nfa = cache.nfa(&sample());
        assert!(cache.included(&plus, &star));
        assert!(!cache.is_empty(&sample()));
        assert!(cache.artifact_entries() > 0);
        let evicted = cache.flush();
        assert!(evicted > 0);
        assert_eq!(cache.evicted(), evicted);
        assert_eq!(cache.artifact_entries(), 0);
        // Recomputed artifacts and verdicts are identical (fresh Arcs).
        let after_nfa = cache.nfa(&sample());
        assert!(!Arc::ptr_eq(&before_nfa, &after_nfa));
        assert_eq!(before_nfa.num_states(), after_nfa.num_states());
        assert!(cache.included(&plus, &star));
        assert!(!cache.is_empty(&sample()));
        assert_eq!(cache.stats().evicted, evicted);
    }

    #[test]
    fn budgeted_dfa_trips_without_caching_partial_work() {
        let cache = AutomataCache::new();
        let re = sample();
        let tiny = ssd_base::Budget::unlimited().with_fuel(0);
        assert!(cache.dfa_b(&re, &tiny).is_err());
        // Nothing partial was cached; an unlimited retry succeeds.
        let dfa = cache.dfa(&re);
        assert!(dfa.num_states() > 0);
    }

    #[test]
    fn compiled_table_memoizes_and_counts_bytes() {
        let cache = AutomataCache::new();
        assert!(cache.compiled_enabled(), "compiled is the default engine");
        let first = cache.compiled(&sample());
        let second = cache.compiled(&sample());
        assert!(Arc::ptr_eq(&first, &second));
        let s = cache.stats();
        assert_eq!(s.compiled_table, TableStats { hits: 1, misses: 1 });
        assert_eq!(s.compiled, 1);
        assert!(s.compiled_bytes > 0);
        assert_eq!(cache.compiled_entries(), 1);
        // The compiled table participates in epoch flushes.
        cache.flush();
        assert_eq!(cache.compiled_entries(), 0);
    }

    #[test]
    fn both_engines_agree_on_inclusion_and_intersection() {
        let star = Regex::star(l(0));
        let plus = Regex::plus(l(0));
        let anyp = Regex::star(Regex::atom(LabelAtom::Any));
        for on in [true, false] {
            let cache = AutomataCache::new();
            cache.set_compiled(on);
            assert_eq!(cache.compiled_enabled(), on);
            assert!(cache.included(&plus, &star));
            assert!(!cache.included(&star, &plus));
            assert!(cache.included(&plus, &anyp));
            assert!(cache.equivalent(&star, &Regex::star(Regex::plus(l(0)))));
            let b = ssd_base::Budget::unlimited();
            assert!(!cache.intersection_empty_b(&star, &anyp, &b).unwrap());
            assert!(cache.intersection_empty_b(&l(0), &l(1), &b).unwrap());
        }
    }

    #[test]
    fn concurrent_missers_agree() {
        let cache = Arc::new(AutomataCache::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.nfa(&sample()))
            })
            .collect();
        let nfas: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for n in &nfas[1..] {
            assert!(Arc::ptr_eq(n, &nfas[0]));
        }
        assert_eq!(cache.stats().nfas, 1);
    }
}
