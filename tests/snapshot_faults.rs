//! Deterministic fault-injection harness for the warm-start snapshot
//! store: every corruption mode — bit flips at each section boundary,
//! torn writes at every byte prefix, version and format-fingerprint skew,
//! oversized declared lengths — must leave the loading session fully
//! usable, with the damage accounted section by section in the
//! [`ssd::core::LoadOutcome`] and warm verdicts bit-identical to a cold
//! session's. No input may panic.

use std::path::PathBuf;
use std::sync::Arc;

use ssd::base::SharedInterner;
use ssd::core::Session;
use ssd::obs::MetricsRegistry;
use ssd::query::{parse_query, Query};
use ssd::schema::{parse_schema, Schema};

const SCHEMA: &str = "T = [a->U.(b->V)*.c->W]; U = [x->P]; V = int; W = string; P = int";
const QUERIES: &[&str] = &[
    "SELECT X WHERE Root = [a.x -> X, c -> Y]",
    "SELECT X WHERE Root = [a.b* -> X]",
    "SELECT X, Y WHERE Root = [a -> X, (b|c) -> Y]",
];

fn corpus() -> (Schema, Vec<Query>) {
    let pool = SharedInterner::new();
    let s = parse_schema(SCHEMA, &pool).unwrap();
    let qs = QUERIES
        .iter()
        .map(|src| parse_query(src, &pool).unwrap())
        .collect();
    (s, qs)
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssd-snapshot-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A warmed snapshot image plus the cold verdicts it was derived from,
/// staged through the file `name` (one per test, so tests running in
/// parallel never share a path).
fn warmed_image(name: &str) -> (Vec<u8>, Vec<bool>) {
    let (s, qs) = corpus();
    let sess = Session::new();
    let verdicts: Vec<bool> = qs
        .iter()
        .map(|q| sess.satisfiable(q, &s).unwrap().satisfiable)
        .collect();
    let path = tmp(name);
    sess.save_snapshot(&path, &[&s]).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (bytes, verdicts)
}

/// Loads `bytes` as a snapshot into a fresh session (fresh pool/schema,
/// exercising the cross-process fingerprint matching) and checks the
/// session answers the whole corpus identically to cold, no matter what
/// the load salvaged. Returns the outcome for per-mode assertions.
fn load_and_check(bytes: &[u8], name: &str, cold: &[bool]) -> ssd::core::LoadOutcome {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let (s, qs) = corpus();
    let registry = Arc::new(MetricsRegistry::new());
    let sess = Session::with_telemetry(Arc::clone(&registry), 1.0);
    let out = sess.load_snapshot(&path, &[&s]);
    std::fs::remove_file(&path).ok();
    for (q, &want) in qs.iter().zip(cold) {
        assert_eq!(
            sess.satisfiable(q, &s).unwrap().satisfiable,
            want,
            "verdict diverged after loading {name}"
        );
    }
    // The obs counters must agree with the outcome's own accounting.
    let snap = registry.snapshot();
    let counter = |n: &str| {
        snap.counters
            .iter()
            .find(|c| c.name == n)
            .map_or(0, |c| c.total)
    };
    assert_eq!(counter("snapshot_section_loaded"), out.sections_loaded);
    assert_eq!(counter("snapshot_section_rejected"), out.sections_rejected);
    assert_eq!(
        counter("snapshot_section_recomputed"),
        out.sections_rejected
    );
    out
}

#[test]
fn pristine_snapshot_loads_fully() {
    let (bytes, cold) = warmed_image("pristine-warm.snap");
    let out = load_and_check(&bytes, "pristine.snap", &cold);
    assert!(out.any_loaded());
    assert_eq!(out.sections_rejected, 0, "{out}");
    assert!(out.entries_loaded > 0);
}

/// Section frames start at byte 36 (after the header+CRC); flipping a bit
/// inside each section's payload must reject exactly the damaged sections
/// and keep every other section loaded.
#[test]
fn bit_flips_at_each_section_boundary_degrade_per_section() {
    let (bytes, cold) = warmed_image("flip-warm.snap");
    let pristine = load_and_check(&bytes, "flip-base.snap", &cold);
    let total = pristine.sections_loaded + pristine.sections_rejected;
    // Walk the frames exactly as the parser does to find each payload.
    let mut offsets = Vec::new(); // (payload_start, payload_len)
    let mut at = 40; // first frame: tag u32 at 36, meta u64, len u32, crc u32
    while at + 16 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        offsets.push((at + 16, len));
        at += 16 + len + 4; // next frame's meta field (tag consumed below)
    }
    assert!(!offsets.is_empty());
    for (i, &(start, len)) in offsets.iter().enumerate() {
        if len == 0 {
            continue;
        }
        let mut m = bytes.clone();
        m[start + len / 2] ^= 0x01;
        let out = load_and_check(&m, &format!("flip-{i}.snap"), &cold);
        assert_eq!(
            out.sections_loaded + out.sections_rejected,
            total,
            "every section accounted: {out}"
        );
        assert!(
            out.rejects
                .iter()
                .any(|r| format!("{}", r.reason) == "bad-crc"),
            "the flipped section must reject as corruption: {out}"
        );
        if i == 0 {
            // The first section is the schema's label pool; damaging it
            // conservatively rejects every LabelId-keyed dependent too.
            assert!(!out.any_loaded(), "{out}");
            assert!(out
                .rejects
                .iter()
                .skip(1)
                .all(|r| format!("{}", r.reason) == "pool-mismatch"));
        } else {
            // Any other section costs exactly itself.
            assert_eq!(out.sections_rejected, 1, "{out}");
            assert_eq!(out.sections_loaded + 1, total, "{out}");
        }
    }
}

/// Every byte-prefix truncation (torn write) must load the intact prefix
/// sections, reject the rest, and never panic.
#[test]
fn torn_writes_at_every_prefix_never_panic() {
    let (bytes, cold) = warmed_image("torn-warm.snap");
    let (s, qs) = corpus();
    for cut in 0..bytes.len() {
        let sess = Session::new();
        let path = tmp(&format!("torn-{cut}.snap"));
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let out = sess.load_snapshot(&path, &[&s]);
        std::fs::remove_file(&path).ok();
        // Torn below the header: nothing salvaged. At or above: the
        // outcome accounts for every section the header declared.
        if cut < 36 {
            assert!(!out.any_loaded(), "cut={cut}: {out}");
        }
        assert!(out.sections_rejected > 0 || cut >= bytes.len(), "cut={cut}");
        for (q, &want) in qs.iter().zip(&cold) {
            assert_eq!(sess.satisfiable(q, &s).unwrap().satisfiable, want);
        }
    }
}

#[test]
fn version_skew_rejects_whole_file() {
    let (bytes, cold) = warmed_image("version-skew-warm.snap");
    let mut m = bytes.clone();
    // Version field at offset 8; patch it and re-stamp the header CRC so
    // the skew is seen as skew, not corruption.
    m[8..12].copy_from_slice(&99u32.to_le_bytes());
    let crc = ssd::base::crc32(&m[..32]);
    m[32..36].copy_from_slice(&crc.to_le_bytes());
    let out = load_and_check(&m, "version-skew.snap", &cold);
    assert!(!out.any_loaded());
    assert_eq!(out.sections_rejected, 1);
    assert_eq!(format!("{}", out.rejects[0].reason), "version-skew");
}

#[test]
fn format_fingerprint_skew_rejects_whole_file() {
    let (bytes, cold) = warmed_image("format-skew-warm.snap");
    let mut m = bytes.clone();
    m[12] ^= 0xFF; // format fingerprint at offset 12
    let crc = ssd::base::crc32(&m[..32]);
    m[32..36].copy_from_slice(&crc.to_le_bytes());
    let out = load_and_check(&m, "format-skew.snap", &cold);
    assert!(!out.any_loaded());
    assert_eq!(format!("{}", out.rejects[0].reason), "format-skew");
}

#[test]
fn header_corruption_without_restamp_reads_as_corruption() {
    let (bytes, cold) = warmed_image("header-crc-warm.snap");
    let mut m = bytes.clone();
    m[8] ^= 0xFF; // version byte, CRC left stale
    let out = load_and_check(&m, "header-crc.snap", &cold);
    assert!(!out.any_loaded());
    assert_eq!(format!("{}", out.rejects[0].reason), "header-crc");
}

/// An oversized declared section length (larger than the file) must
/// reject that section and everything after it — with full accounting
/// against the header's section count — and leave the session usable.
#[test]
fn oversized_declared_length_rejects_remainder() {
    let (bytes, cold) = warmed_image("oversize-warm.snap");
    let pristine = load_and_check(&bytes, "oversize-base.snap", &cold);
    let total = pristine.sections_loaded + pristine.sections_rejected;
    let mut m = bytes.clone();
    // First frame's length field sits at offset 48 (36 + tag 4 + meta 8).
    m[48..52].copy_from_slice(&u32::MAX.to_le_bytes());
    let out = load_and_check(&m, "oversize.snap", &cold);
    assert!(!out.any_loaded());
    assert_eq!(out.sections_rejected, total, "every section accounted");
    assert!(out
        .rejects
        .iter()
        .all(|r| format!("{}", r.reason) == "truncated"));
}

/// Unknown schema fingerprints (snapshot from different schemas) reject
/// every section without touching the session's caches.
#[test]
fn unknown_schema_fingerprint_rejects_sections() {
    let (bytes, _) = warmed_image("unknown-schema-warm.snap");
    let pool = SharedInterner::new();
    let other = parse_schema("T = [z->V]; V = int", &pool).unwrap();
    let q = parse_query("SELECT X WHERE Root = [z -> X]", &pool).unwrap();
    let path = tmp("unknown-schema.snap");
    std::fs::write(&path, &bytes).unwrap();
    let sess = Session::new();
    let out = sess.load_snapshot(&path, &[&other]);
    std::fs::remove_file(&path).ok();
    assert!(!out.any_loaded(), "{out}");
    assert!(out
        .rejects
        .iter()
        .all(|r| format!("{}", r.reason) == "unknown-schema"));
    assert_eq!(sess.stats().snapshot_bytes, 0);
    assert!(sess.satisfiable(&q, &other).unwrap().satisfiable);
}

/// Exhaustive single-byte corruption: flip one bit at *every* byte
/// offset. The load must never panic and the session must always answer
/// the corpus identically to cold. (This subsumes targeted modes; kept
/// separate so a failure pinpoints the offset.)
#[test]
fn single_bit_flip_sweep_never_panics_and_verdicts_hold() {
    let (bytes, cold) = warmed_image("sweep-warm.snap");
    let (s, qs) = corpus();
    for at in 0..bytes.len() {
        let mut m = bytes.clone();
        m[at] ^= 0x80;
        let sess = Session::new();
        let path = tmp(&format!("sweep-{at}.snap"));
        std::fs::write(&path, &m).unwrap();
        let _ = sess.load_snapshot(&path, &[&s]);
        std::fs::remove_file(&path).ok();
        for (q, &want) in qs.iter().zip(&cold) {
            assert_eq!(
                sess.satisfiable(q, &s).unwrap().satisfiable,
                want,
                "flip at byte {at} changed a verdict"
            );
        }
    }
}

#[test]
fn missing_file_degrades_to_cold() {
    let (s, qs) = corpus();
    let sess = Session::new();
    let out = sess.load_snapshot(&tmp("does-not-exist.snap"), &[&s]);
    assert!(!out.any_loaded());
    assert_eq!(sess.stats().snapshot_bytes, 0);
    for q in &qs {
        let _ = sess.satisfiable(q, &s).unwrap();
    }
}

/// Sessions saving to one path at once each stage through their own temp
/// sibling: every save returns `Ok`, or an error that leaves no temp file
/// behind (and never the NotFound of a staging file renamed away by
/// another writer), and whichever rename lands last leaves a file that
/// loads clean.
#[test]
fn concurrent_savers_to_one_path_never_collide() {
    const SAVERS: usize = 8;
    const ROUNDS: usize = 4;
    let (s, qs) = corpus();
    let path = tmp("concurrent.snap");
    let start = std::sync::Barrier::new(SAVERS);
    let results: Vec<std::io::Result<u64>> = std::thread::scope(|scope| {
        let savers: Vec<_> = (0..SAVERS)
            .map(|_| {
                scope.spawn(|| {
                    let sess = Session::new();
                    for q in &qs {
                        sess.satisfiable(q, &s).unwrap();
                    }
                    start.wait();
                    (0..ROUNDS)
                        .map(|_| sess.save_snapshot(&path, &[&s]))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        savers.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    assert!(results.iter().any(|r| r.is_ok()), "{results:?}");
    // A writer whose staging file another writer renamed away fails with
    // NotFound: the symptom of a shared temp path.
    assert!(
        !results
            .iter()
            .any(|r| matches!(r, Err(e) if e.kind() == std::io::ErrorKind::NotFound)),
        "a save lost its staging file to another writer: {results:?}"
    );
    let dir = path.parent().unwrap();
    let strays: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|f| f.starts_with("concurrent.snap.") && f.ends_with(".tmp"))
        .collect();
    assert!(strays.is_empty(), "stray temp files: {strays:?}");

    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let cold: Vec<bool> = {
        let sess = Session::new();
        qs.iter()
            .map(|q| sess.satisfiable(q, &s).unwrap().satisfiable)
            .collect()
    };
    let out = load_and_check(&bytes, "concurrent-load.snap", &cold);
    assert!(out.any_loaded());
    assert_eq!(out.sections_rejected, 0, "{out}");
}
