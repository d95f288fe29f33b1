//! The canonical span, counter, and histogram taxonomy.
//!
//! Every instrumented layer reports under these names so telemetry
//! artifacts are greppable and stable: CI runs the `experiments` binary
//! with telemetry on and checks the emitted JSON for the span names below,
//! so renaming one here without updating `.github/workflows/ci.yml` (and
//! DESIGN.md §9) is a breaking change.

/// Span names — one per pipeline phase, nested in call order:
/// `parse → type_graph → glushkov → determinize → product_bfs → verdict`
/// on the automata side, and the engine phases (`dispatch`, `feas`, …)
/// above them.
pub mod span {
    /// Schema/query text parsing (emitted by drivers around parser calls).
    pub const PARSE: &str = "parse";
    /// `TypeGraph` construction on a session type-graph cache miss.
    pub const TYPE_GRAPH: &str = "type_graph";
    /// Glushkov (position) NFA construction.
    pub const GLUSHKOV: &str = "glushkov";
    /// Subset-construction determinization.
    pub const DETERMINIZE: &str = "determinize";
    /// DFA minimization.
    pub const MINIMIZE: &str = "minimize";
    /// Materializing product construction (`ssd_automata::product`).
    pub const PRODUCT: &str = "product";
    /// Lazy on-the-fly product emptiness BFS
    /// (`ssd_automata::ops::is_empty_product_b`).
    pub const PRODUCT_BFS: &str = "product_bfs";
    /// Algorithm selection + verdict (`ssd_core::dispatch`).
    pub const DISPATCH: &str = "dispatch";
    /// The trace-product feasible-set engine (`ssd_core::feas`).
    pub const FEAS: &str = "feas";
    /// Bounded-join enumeration on top of the trace product.
    pub const BOUNDED_JOINS: &str = "bounded_joins";
    /// The tagged/constant-suffix PTIME algorithm (`ssd_core::tagged`).
    pub const TAGGED: &str = "tagged";
    /// The complete exponential search (`ssd_core::solver`).
    pub const SOLVER: &str = "solver";
    /// Total/partial type checking (`ssd_core::typecheck`).
    pub const TYPECHECK: &str = "typecheck";
    /// Type-inference enumeration (`ssd_core::infer`).
    pub const INFER: &str = "infer";
    /// The literal P-traces satisfiability check (`ssd_core::ptraces`).
    pub const PTRACES: &str = "ptraces";
    /// Feas-memo lookup + (on miss) trace-product analysis
    /// (`ssd_core::Session::feas_analysis`).
    pub const FEAS_MEMO: &str = "feas_memo";
    /// Budget-governed dispatch wrapper: covers the budgeted engine run
    /// plus the meter flushes inside it (`ssd_core::dispatch`).
    pub const BUDGET_CHECK: &str = "budget_check";
    /// Building a dense compiled transition table from a minimized DFA
    /// (the compiled-table miss path of `ssd_automata::AutomataCache`).
    pub const COMPILED_BUILD: &str = "compiled_build";
    /// The whole static-analysis pass (`ssd_lint::lint_with`).
    pub const LINT: &str = "lint";
    /// Lint phase: whole-query satisfiability (unsat-query detection).
    pub const LINT_SAT: &str = "lint_sat";
    /// Lint phase: per-branch dead-code analysis.
    pub const LINT_DEAD_BRANCH: &str = "lint_dead_branch";
    /// Lint phase: unknown-label detection against the type graph.
    pub const LINT_LABELS: &str = "lint_labels";
    /// Lint phase: redundant-constraint detection.
    pub const LINT_REDUNDANT: &str = "lint_redundant";
    /// Loading a warm-start snapshot into a session
    /// (`ssd_core::Session::load_snapshot`).
    pub const SNAPSHOT_LOAD: &str = "snapshot_load";
    /// Serializing a warmed session to a snapshot file
    /// (`ssd_core::Session::save_snapshot`).
    pub const SNAPSHOT_SAVE: &str = "snapshot_save";
}

/// Counter names. Cache counters come in `_hit`/`_miss` pairs, one pair
/// per memo table.
pub mod counter {
    /// NFA states produced by Glushkov constructions.
    pub const NFA_STATES: &str = "nfa_states_built";
    /// DFA states produced by determinization.
    pub const DFA_STATES: &str = "dfa_states_built";
    /// Product states explored by the lazy emptiness BFS before the first
    /// accepting state (or exhaustion).
    pub const PRODUCT_STATES_EXPLORED: &str = "product_states_explored";
    /// Product states materialized by the eager product construction.
    pub const PRODUCT_STATES_MATERIALIZED: &str = "product_states_materialized";
    /// regex→NFA memo table hit.
    pub const CACHE_NFA_HIT: &str = "cache_nfa_hit";
    /// regex→NFA memo table miss (construction).
    pub const CACHE_NFA_MISS: &str = "cache_nfa_miss";
    /// NFA→DFA memo table hit.
    pub const CACHE_DFA_HIT: &str = "cache_dfa_hit";
    /// NFA→DFA memo table miss.
    pub const CACHE_DFA_MISS: &str = "cache_dfa_miss";
    /// Emptiness-verdict memo table hit.
    pub const CACHE_EMPTINESS_HIT: &str = "cache_emptiness_hit";
    /// Emptiness-verdict memo table miss.
    pub const CACHE_EMPTINESS_MISS: &str = "cache_emptiness_miss";
    /// Inclusion-verdict memo table hit.
    pub const CACHE_INCLUSION_HIT: &str = "cache_inclusion_hit";
    /// Inclusion-verdict memo table miss.
    pub const CACHE_INCLUSION_MISS: &str = "cache_inclusion_miss";
    /// Compiled-DFA memo table hit (`Arc` clone, lock-free stepping).
    pub const CACHE_COMPILED_HIT: &str = "cache_compiled_hit";
    /// Compiled-DFA memo table miss (table build ran).
    pub const CACHE_COMPILED_MISS: &str = "cache_compiled_miss";
    /// Transition-table loads performed by the compiled kernels (product
    /// emptiness, inclusion, membership simulation).
    pub const COMPILED_STEPS: &str = "compiled_steps";
    /// Per-schema type-graph cache hit.
    pub const CACHE_TYPE_GRAPH_HIT: &str = "cache_type_graph_hit";
    /// Per-schema type-graph cache miss.
    pub const CACHE_TYPE_GRAPH_MISS: &str = "cache_type_graph_miss";
    /// Feas-analysis memo hit (whole `Feas(X)` table + verdict reused).
    pub const CACHE_FEAS_MEMO_HIT: &str = "cache_feas_memo_hit";
    /// Feas-analysis memo miss (trace-product analysis ran).
    pub const CACHE_FEAS_MEMO_MISS: &str = "cache_feas_memo_miss";
    /// Shard-lock acquisitions that found the lock held and blocked
    /// (reported by the concurrency bench from the sharded-map counters).
    pub const SHARD_CONTENDED: &str = "shard_lock_contended";
    /// `(variable, type)` feasibility checks performed by the feas engine.
    pub const FEAS_TYPES_CHECKED: &str = "feas_types_checked";
    /// Backward trace-product passes run by the feas engine: one per
    /// `(definition, regex entry)` per analysis, shared by every candidate
    /// type of the definition.
    pub const FEAS_PRODUCT_PASSES: &str = "feas_product_passes";
    /// Requirement-routing nodes expanded by the general solver.
    pub const SOLVER_NODES: &str = "solver_nodes_expanded";
    /// Pin prefixes tested during inference enumeration.
    pub const INFER_PREFIXES: &str = "infer_prefixes_tested";
    /// Satisfiable verdicts produced by the dispatcher / ptraces.
    pub const VERDICT_SAT: &str = "verdict_sat";
    /// Unsatisfiable verdicts produced by the dispatcher / ptraces.
    pub const VERDICT_UNSAT: &str = "verdict_unsat";
    /// Spans dropped because the recorder's span table was full.
    pub const SPANS_DROPPED: &str = "obs_spans_dropped";
    /// Budgeted runs that returned `Verdict::Exhausted` (a fuel,
    /// deadline, memory, or cancellation trip).
    pub const BUDGET_EXHAUSTED: &str = "budget_exhausted";
    /// Entries evicted from session-owned caches by the
    /// `SessionLimits` epoch/second-chance policy.
    pub const CACHE_EVICTED: &str = "cache_evicted";
    /// Diagnostics produced by a lint pass (all severities).
    pub const LINT_DIAGNOSTICS: &str = "lint_diagnostics";
    /// Snapshot sections decoded, validated, and hydrated into caches.
    pub const SNAPSHOT_SECTION_LOADED: &str = "snapshot_section_loaded";
    /// Snapshot sections rejected (CRC mismatch, truncation, version or
    /// fingerprint skew, decode failure) and degraded to recompute.
    pub const SNAPSHOT_SECTION_REJECTED: &str = "snapshot_section_rejected";
    /// Artifacts recomputed because their snapshot section was absent or
    /// rejected — the cost the warm start failed to save.
    pub const SNAPSHOT_SECTION_RECOMPUTED: &str = "snapshot_section_recomputed";
}

/// Gauge names: point-in-time values published into a
/// [`crate::MetricsRegistry`] by `Session::publish_gauges` and the
/// sampler's `publish`. The `shard_occupancy_*` families are *indexed*
/// gauges (one member per cache shard); the rest are scalars.
pub mod gauge {
    /// Entries in the session's feas-analysis memo, per shard.
    pub const SHARD_OCCUPANCY_FEAS_MEMO: &str = "shard_occupancy_feas_memo";
    /// Entries in the session's type-graph cache, per shard.
    pub const SHARD_OCCUPANCY_TYPE_GRAPH: &str = "shard_occupancy_type_graph";
    /// Entries across the automata cache's memo tables, per shard.
    pub const SHARD_OCCUPANCY_AUTOMATA: &str = "shard_occupancy_automata";
    /// Total entries in the feas-analysis memo.
    pub const FEAS_MEMO_ENTRIES: &str = "feas_memo_entries";
    /// Total entries in the type-graph cache.
    pub const TYPE_GRAPH_ENTRIES: &str = "type_graph_entries";
    /// Estimated resident bytes of session-owned caches.
    pub const SESSION_CACHE_BYTES: &str = "session_cache_bytes";
    /// Total entries across the automata cache's memo tables.
    pub const AUTOMATA_ENTRIES: &str = "automata_entries";
    /// Compiled transition tables held by the automata cache.
    pub const COMPILED_ENTRIES: &str = "compiled_entries";
    /// Estimated resident bytes of the compiled transition tables.
    pub const COMPILED_BYTES: &str = "compiled_bytes";
    /// Lifetime hit ratio of the feas-analysis memo (0..=1).
    pub const HIT_RATIO_FEAS_MEMO: &str = "hit_ratio_feas_memo";
    /// Lifetime hit ratio of the type-graph cache (0..=1).
    pub const HIT_RATIO_TYPE_GRAPH: &str = "hit_ratio_type_graph";
    /// Lifetime hit ratio across the automata memo tables (0..=1).
    pub const HIT_RATIO_AUTOMATA: &str = "hit_ratio_automata";
    /// Entries evicted from session-owned caches so far.
    pub const EVICTED_SESSION: &str = "evicted_session_entries";
    /// Shard-lock acquisitions that blocked, across all sharded maps.
    pub const SHARD_CONTENTION: &str = "shard_contention_total";
    /// Top-level spans (traces) seen by the sampler.
    pub const OBS_TRACES_TOTAL: &str = "obs_traces_total";
    /// Traces whose spans were forwarded by the probabilistic decision.
    pub const OBS_TRACES_SAMPLED: &str = "obs_traces_sampled";
    /// Unsampled traces promoted by a budget exhaustion.
    pub const OBS_TRACES_PROMOTED: &str = "obs_traces_promoted";
    /// Bytes retained from the last successfully loaded snapshot (0 when
    /// no snapshot is loaded or the last load salvaged nothing).
    pub const SNAPSHOT_BYTES: &str = "snapshot_bytes";
    /// Age of the last loaded snapshot in seconds (time since its
    /// `written_at` header stamp at load time).
    pub const SNAPSHOT_AGE_SECONDS: &str = "snapshot_age_seconds";
}
