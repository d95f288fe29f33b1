//! A hand-rolled repository lint (no external tooling): walks every
//! crate's `src/` tree and ratchets the number of `.unwrap()` /
//! `.expect(` calls in non-test code, direct `std::sync` primitives, the
//! engine's entry-point shape (one entry point per decision), and where
//! Table-2 classes are derived (once per AST, behind its accessors).
//!
//! Panicking extractors in library code turn recoverable conditions into
//! aborts, so new ones need a conscious decision: the allowlist below
//! pins the audited count per file. The test fails when a file *exceeds*
//! its pinned count (new panics crept in) and when it drops *below*
//! (the pin is stale — tighten it so the ratchet keeps holding).
//!
//! Heuristics, matching this repo's conventions:
//! - everything from the first `#[cfg(test)]` line to end-of-file is
//!   test code (test modules sit at the bottom of each file);
//! - comment lines (`//`, `///`, `//!`) are skipped, so doc examples
//!   and prose mentioning `unwrap` don't count;
//! - only the exact panicking forms `.unwrap()` and `.expect(` match —
//!   `unwrap_or`, `unwrap_or_else`, `expected`, etc. do not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Audited `.unwrap()`/`.expect(` counts per file, relative to the repo
/// root. Most entries are infallible-by-construction cases (lock
/// poisoning, `expect("unlimited budget never trips")`, writes to
/// `String`); `experiments.rs` is a CLI whose top-level error handling
/// is intentionally panic-based.
const ALLOWLIST: &[(&str, usize)] = &[
    // cache.rs & compiled.rs: `expect("unlimited budget never trips")`
    // on unlimited-budget wrappers — infallible by construction.
    ("crates/automata/src/cache.rs", 2),
    ("crates/automata/src/compiled.rs", 2),
    ("crates/automata/src/dfa.rs", 3),
    ("crates/automata/src/parser.rs", 3),
    ("crates/automata/src/product.rs", 1),
    ("crates/automata/src/regexgen.rs", 1),
    ("crates/automata/src/syntax.rs", 2),
    ("crates/base/src/budget.rs", 2),
    ("crates/base/src/ids.rs", 1),
    // +3 for snapshot_run: constant-exemplar parses + first verdict in
    // the warm-start demo, infallible by construction.
    ("crates/bench/src/bin/experiments.rs", 40),
    ("crates/bench/src/harness.rs", 1),
    ("crates/bench/src/lib.rs", 1),
    ("crates/core/src/feas.rs", 2),
    ("crates/core/src/ptraces.rs", 2),
    ("crates/core/src/solver.rs", 3),
    ("crates/core/src/tagged.rs", 1),
    ("crates/gen/src/schema_gen.rs", 5),
    ("crates/model/src/parser.rs", 3),
    ("crates/obs/src/json.rs", 1),
    // canonical.rs: the memo-key encoder's `u32` length prefix (moved
    // here from `crates/core/src/memo.rs` with the encoder).
    ("crates/query/src/canonical.rs", 1),
    ("crates/query/src/eval.rs", 1),
    ("crates/query/src/parser.rs", 6),
    ("crates/schema/src/conform.rs", 3),
    ("crates/schema/src/dtd.rs", 2),
    ("crates/schema/src/parser.rs", 6),
    ("crates/schema/src/typegraph.rs", 1),
    ("crates/transform/src/outschema.rs", 5),
];

/// Audited direct uses of `std::sync` concurrency primitives per file.
/// Everything concurrent must go through `ssd_base::sync` — the shim is
/// what lets `ssd-check` model-check the engine's lock-free paths — so a
/// direct `std::sync::{Mutex, RwLock, OnceLock, atomic}` import anywhere
/// else silently removes that code from the checker's reach. The ratchet
/// is two-directional like the unwrap one: exceeding a pin means
/// unmodeled synchronization crept in, dropping below means the pin is
/// stale.
///
/// The pinned files are the two legitimate homes of raw primitives:
/// - `crates/base/src/sync.rs` *is* the shim — its whole job is wrapping
///   the std types;
/// - `crates/check/src/*` is the model checker itself — its scheduler
///   must synchronize with real primitives (they are the mechanism, not
///   the subject, of the modeling).
const SYNC_ALLOWLIST: &[(&str, usize)] = &[
    ("crates/base/src/sync.rs", 34),
    ("crates/check/src/glue.rs", 1),
    ("crates/check/src/lib.rs", 4),
    ("crates/check/src/sched.rs", 2),
];

/// Recursively collects `.rs` files under `dir`.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Counts `.unwrap()` / `.expect(` occurrences in the non-test,
/// non-comment portion of `source`.
fn count_panicking_calls(source: &str) -> usize {
    let mut count = 0;
    for line in source.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        count += line.matches(".unwrap()").count();
        count += line.matches(".expect(").count();
    }
    count
}

/// Counts non-test, non-comment lines naming a `std::sync` concurrency
/// primitive the shim wraps. `Arc`/`Weak`/`mpsc` and the poison-error
/// types are deliberately *not* counted: they need no modeling, and the
/// shim re-exports them verbatim.
fn count_std_sync_primitives(source: &str) -> usize {
    const PRIMITIVES: &[&str] = &["Mutex", "RwLock", "OnceLock", "atomic", "Once"];
    let mut count = 0;
    for line in source.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if line.contains("std::sync") && PRIMITIVES.iter().any(|p| line.contains(p)) {
            count += 1;
        }
    }
    count
}

/// Violations of the one-entry-point rule in `source`: every mention of
/// the removed process-wide session (every decision takes its caller's
/// session), and every public function named as a recorder twin,
/// `*_rec` / `*_rec_b` (a recorder belongs to the session's automata
/// cache, fixed at construction, not to a twin of each construction).
fn entry_point_violations(source: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let at = i + 1;
        if line.contains("Session::global") {
            out.push(format!(
                "line {at}: `Session::global` (use an explicit Session)"
            ));
        }
        for decl in ["pub fn ", "pub(crate) fn "] {
            for (pos, _) in line.match_indices(decl) {
                let name: String = line[pos + decl.len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if name.ends_with("_rec") || name.ends_with("_rec_b") {
                    out.push(format!("line {at}: recorder twin `{name}`"));
                }
            }
        }
    }
    out
}

/// The from-scratch derivations of facts that the ASTs cache: engines
/// read `Query::class`, `Schema::class` and `Schema::tags` instead.
const DERIVATIONS: &[&str] = &["QueryClass::of(", "SchemaClass::of(", "tag_map("];

/// Files allowed to derive from scratch, with their audited counts: the
/// query accessor runs one to fill its slot. The two `classify.rs`
/// modules define the derivations without calling them by these names,
/// and the schema accessor calls its module's one-pass classifier, so
/// neither needs a pin.
const DERIVATION_ALLOWLIST: &[(&str, usize)] = &[("crates/query/src/pattern.rs", 1)];

/// Non-comment occurrences of a from-scratch derivation in the non-test
/// part of `source`. Test code starts at the first `#[cfg(test)]` that
/// gates a module (a `#[cfg(test)]` on a lone `use` does not end the
/// library code).
fn derivation_calls(source: &str) -> usize {
    let lines: Vec<&str> = source.lines().collect();
    let mut count = 0;
    for (i, line) in lines.iter().enumerate() {
        let next = lines.get(i + 1).map_or("", |l| l.trim_start());
        if line.contains("#[cfg(test)]") && next.starts_with("mod ") {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        count += DERIVATIONS
            .iter()
            .map(|d| line.matches(d).count())
            .sum::<usize>();
    }
    count
}

/// Walks ratcheted source files, reporting over/under-pin violations.
fn ratchet(
    allow: &BTreeMap<&str, usize>,
    count: impl Fn(&str) -> usize,
    over_msg: &str,
) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    files.sort();
    assert!(
        files.len() > 20,
        "repo lint walked only {} files — wrong root?",
        files.len()
    );

    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("walked file outside repo root")
            .to_string_lossy()
            .replace('\\', "/");
        // Only library/binary sources are ratcheted; per-crate tests/
        // and benches/ directories are free to unwrap.
        if !rel.contains("/src/") && !rel.starts_with("src/") {
            continue;
        }
        let source = std::fs::read_to_string(path).expect("readable source file");
        let count = count(&source);
        let allowed = allow.get(rel.as_str()).copied().unwrap_or(0);
        if count > allowed {
            violations.push(format!(
                "{rel}: {count} hit(s) in non-test code (allowed {allowed}) — {over_msg}"
            ));
        } else if count < allowed {
            violations.push(format!(
                "{rel}: allowlist is stale ({allowed} pinned, {count} found) — \
                 tighten the entry in tests/repo_lint.rs"
            ));
        }
    }
    violations
}

#[test]
fn no_new_unwraps_in_library_code() {
    let allow: BTreeMap<&str, usize> = ALLOWLIST.iter().copied().collect();
    let violations = ratchet(
        &allow,
        count_panicking_calls,
        "return a Result or, if infallible by construction, ratchet the \
         allowlist in tests/repo_lint.rs with a justification",
    );
    assert!(
        violations.is_empty(),
        "repo lint failed:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn no_std_sync_primitives_outside_the_shim() {
    let allow: BTreeMap<&str, usize> = SYNC_ALLOWLIST.iter().copied().collect();
    let violations = ratchet(
        &allow,
        count_std_sync_primitives,
        "import the primitive from ssd_base::sync instead so ssd-check \
         can model it (or, inside the shim/checker themselves, ratchet \
         SYNC_ALLOWLIST with a justification)",
    );
    assert!(
        violations.is_empty(),
        "sync-shim lint failed:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn one_entry_point_per_decision() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("src"), &mut files);
    files.sort();
    let mut violations = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .expect("walked file outside repo root")
            .to_string_lossy()
            .replace('\\', "/");
        if !rel.contains("/src/") && !rel.starts_with("src/") {
            continue;
        }
        let source = std::fs::read_to_string(path).expect("readable source file");
        for v in entry_point_violations(&source) {
            violations.push(format!("{rel}: {v}"));
        }
    }
    assert!(
        violations.is_empty(),
        "entry-point lint failed (give each decision one Session method over \
         one module-level function taking &Session and &Budget):\n  {}",
        violations.join("\n  ")
    );
    // The detector itself must fire on each banned shape.
    assert_eq!(
        entry_point_violations(
            "let s = Session::global();\n\
             pub fn build_rec<A>(re: &Regex<A>) {}\n\
             pub(crate) fn minimize_rec_b(d: &Dfa) {}\n\
             pub fn record(x: u32) {}\n\
             fn private_rec() {}"
        )
        .len(),
        3
    );
}

#[test]
fn classes_are_derived_once_per_ast() {
    let allow: BTreeMap<&str, usize> = DERIVATION_ALLOWLIST.iter().copied().collect();
    let violations = ratchet(
        &allow,
        derivation_calls,
        "read `q.class()`, `s.class()` or `s.tags()` — the AST derives \
         them once — instead of re-deriving per call",
    );
    assert!(
        violations.is_empty(),
        "derived-facts lint failed:\n  {}",
        violations.join("\n  ")
    );
    // The detector itself must fire on each derivation in library code,
    // and on none in comments or in the test module.
    assert_eq!(
        derivation_calls(
            "let c = QueryClass::of(q);\n\
             #[cfg(test)]\n\
             use ssd_base::SharedInterner;\n\
             let (a, b) = (SchemaClass::of(s), tag_map(s));\n\
             // QueryClass::of(q) in prose\n\
             #[cfg(test)]\n\
             mod tests {\n\
             let c = QueryClass::of(q);\n\
             }"
        ),
        3
    );
}
