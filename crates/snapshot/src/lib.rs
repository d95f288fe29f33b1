//! The warm-start snapshot container: a versioned, hand-rolled binary
//! format for persisting compiled artifacts (type graphs, minimized DFAs,
//! compiled transition tables, feas-memo entries) across process restarts.
//!
//! A snapshot file is the first *untrusted durable input* the system
//! consumes — it may have been torn by a crash mid-write, bit-rotted on
//! disk, or written by a different build. The container is therefore
//! designed so that **loading is total**: parsing never panics, every
//! length is checked, every section carries its own CRC32, and any
//! damage degrades *per section* to "recompute this artifact" rather
//! than poisoning the whole load.
//!
//! ## File layout
//!
//! ```text
//! header (36 bytes):
//!   [magic 8B "SSDSNAP1"] [version u32] [format fingerprint u64]
//!   [written_at u64, unix seconds] [section count u32] [header crc32 u32]
//! sections (section-count times, back to back):
//!   [tag u32] [meta u64] [payload len u32] [payload crc32 u32] [payload]
//! ```
//!
//! All integers are little-endian. `meta` carries the schema-content
//! fingerprint a section belongs to (0 for sections that are not
//! schema-scoped). Unknown tags are skipped, so old readers tolerate new
//! sections. The *format fingerprint* is a compile-time hash of the
//! payload encodings; any change to how a section's payload is laid out
//! must change [`FORMAT_FINGERPRINT`], which invalidates old files
//! wholesale rather than misdecoding them.
//!
//! Writes are crash-safe: the file is assembled in memory, written to a
//! sibling temp file, fsynced, and renamed over the target
//! ([`SnapshotWriter::write_atomic`]) — a reader never observes a
//! half-written snapshot under the final name, only under the temp name
//! (which it ignores).

#![deny(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use ssd_base::sync::{AtomicU64, Ordering};
use ssd_base::{crc32, ByteReader, ByteWriter};
use ssd_obs::Recorder;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"SSDSNAP1";

/// Container version. Bumped when the header/section *framing* changes.
pub const VERSION: u32 = 1;

pub use ssd_base::fnv1a64;

/// Fingerprint of the *payload* encodings (regex tags, automaton field
/// order, feas-memo entry layout). Any payload-format change must edit
/// this string so stale snapshots are rejected at the header instead of
/// misdecoded section by section.
pub const FORMAT_FINGERPRINT: u64 = fnv1a64(
    b"ssd-snapshot payloads v1: pool=names; regex tags 0-8 LE; \
      nfa=states,start,accept,edges; dfa=classes,trans,start,accept; \
      compiled=keys,wildcard,table,accept,start,n,c; \
      typegraph=inhabited,pruned,steps; feas=keybytes,feasets,sat",
);

/// Section tags. Unknown tags are skipped on read, so appending new tags
/// is backward-compatible; *changing* an existing tag's payload is not
/// (bump [`FORMAT_FINGERPRINT`] instead).
pub mod tag {
    /// Label-pool dump of a schema's interner: label names in id order.
    /// Gates every LabelId-keyed section of the same schema.
    pub const LABEL_POOL: u32 = 1;
    /// A schema's derived [`TypeGraph`](../../ssd_schema/typegraph) —
    /// inhabitation, pruned automata, step relation.
    pub const TYPE_GRAPH: u32 = 2;
    /// One minimized DFA cache entry: regex key + DFA.
    pub const DFA: u32 = 3;
    /// One compiled-DFA cache entry: regex key + dense tables.
    pub const COMPILED_DFA: u32 = 4;
    /// All feas-memo entries for one schema: `FeasKey` bytes + analysis.
    pub const FEAS_MEMO: u32 = 5;
}

/// Why a header or section was refused. Carried in [`LoadOutcome`] so
/// operators (and the fault-injection harness) can see exactly which
/// failure mode fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RejectReason {
    /// File shorter than a full header.
    TruncatedHeader,
    /// Magic bytes did not match [`MAGIC`].
    BadMagic,
    /// Container version skew.
    VersionSkew,
    /// Payload-format fingerprint skew (different build's encodings).
    FormatSkew,
    /// Header CRC mismatch.
    HeaderCrc,
    /// Section frame extended past the end of the file (torn write or
    /// oversized declared length).
    Truncated,
    /// Section payload CRC mismatch (bit rot / bit flip).
    BadCrc,
    /// Payload decoded to something structurally invalid.
    Decode,
    /// Decode fuel exhausted (adversarially deep/large payload).
    Fuel,
    /// Section's schema fingerprint matches no registered schema.
    UnknownSchema,
    /// Label-pool dump disagrees with the live interner, so LabelId-keyed
    /// payloads from this snapshot would alias the wrong labels.
    PoolMismatch,
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RejectReason::TruncatedHeader => "truncated-header",
            RejectReason::BadMagic => "bad-magic",
            RejectReason::VersionSkew => "version-skew",
            RejectReason::FormatSkew => "format-skew",
            RejectReason::HeaderCrc => "header-crc",
            RejectReason::Truncated => "truncated",
            RejectReason::BadCrc => "bad-crc",
            RejectReason::Decode => "decode",
            RejectReason::Fuel => "fuel",
            RejectReason::UnknownSchema => "unknown-schema",
            RejectReason::PoolMismatch => "pool-mismatch",
        };
        f.write_str(s)
    }
}

/// One refused section (or the header) with the failure mode.
#[derive(Clone, Copy, Debug)]
pub struct Reject {
    /// Section tag, if the frame was intact enough to read one.
    pub tag: Option<u32>,
    /// What went wrong.
    pub reason: RejectReason,
}

/// One intact section: frame parsed, CRC verified. The payload may still
/// fail *semantic* decoding — that is the consumer's per-section call.
#[derive(Clone, Copy, Debug)]
pub struct Section<'a> {
    /// Section kind (see [`tag`]).
    pub tag: u32,
    /// Schema-content fingerprint this section belongs to (0 = global).
    pub meta: u64,
    /// CRC-verified payload bytes.
    pub payload: &'a [u8],
}

/// A parsed snapshot: the CRC-clean sections plus every container-level
/// reject. Produced by [`parse`]; total — never panics on any input.
#[derive(Debug, Default)]
pub struct ParsedSnapshot<'a> {
    /// Unix-seconds stamp from the header (0 if the writer had no clock).
    pub written_at: u64,
    /// Sections whose frame and CRC checked out, in file order.
    pub sections: Vec<Section<'a>>,
    /// Container-level rejects (bad CRC, truncation, unreached frames).
    pub rejected: Vec<Reject>,
}

/// Parses a snapshot image. Header damage (wrong magic, version or
/// format skew, header CRC mismatch, truncation) rejects the whole file
/// via `Err` — there is nothing trustworthy to salvage below a bad
/// header. Section damage degrades per section: the CRC-clean prefix and
/// any CRC-clean later sections land in `sections`, the rest in
/// `rejected` (frames past a torn point are counted as rejected using
/// the header's section count, so callers can account for every section
/// the writer claimed).
pub fn parse(bytes: &[u8]) -> Result<ParsedSnapshot<'_>, Reject> {
    let header_reject = |reason| Reject { tag: None, reason };
    let mut r = ByteReader::new(bytes);
    let magic = r
        .get_bytes(8)
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    if magic != MAGIC {
        return Err(header_reject(RejectReason::BadMagic));
    }
    let version = r
        .get_u32()
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    let format_fp = r
        .get_u64()
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    let written_at = r
        .get_u64()
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    let section_count = r
        .get_u32()
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    let header_end = r.position();
    let declared_crc = r
        .get_u32()
        .ok_or(header_reject(RejectReason::TruncatedHeader))?;
    if crc32(&bytes[..header_end]) != declared_crc {
        return Err(header_reject(RejectReason::HeaderCrc));
    }
    // Version/format skew is checked *after* the CRC so a corrupted
    // version field reports as corruption, not as a plausible "old file".
    if version != VERSION {
        return Err(header_reject(RejectReason::VersionSkew));
    }
    if format_fp != FORMAT_FINGERPRINT {
        return Err(header_reject(RejectReason::FormatSkew));
    }

    let mut out = ParsedSnapshot {
        written_at,
        ..ParsedSnapshot::default()
    };
    for i in 0..section_count {
        let Some(tag) = r.get_u32() else {
            // Torn mid-frame: this and every unreached section rejects.
            for _ in i..section_count {
                out.rejected.push(Reject {
                    tag: None,
                    reason: RejectReason::Truncated,
                });
            }
            break;
        };
        let frame = (|| {
            let meta = r.get_u64()?;
            let len = r.get_u32()? as usize;
            let declared = r.get_u32()?;
            let payload = r.get_bytes(len)?;
            Some((meta, declared, payload))
        })();
        let Some((meta, declared, payload)) = frame else {
            // Oversized declared length or torn payload: nothing after
            // this frame can be re-synchronized, so the remainder rejects.
            out.rejected.push(Reject {
                tag: Some(tag),
                reason: RejectReason::Truncated,
            });
            for _ in i + 1..section_count {
                out.rejected.push(Reject {
                    tag: None,
                    reason: RejectReason::Truncated,
                });
            }
            break;
        };
        if crc32(payload) != declared {
            out.rejected.push(Reject {
                tag: Some(tag),
                reason: RejectReason::BadCrc,
            });
            continue;
        }
        out.sections.push(Section { tag, meta, payload });
    }
    Ok(out)
}

/// Assembles a snapshot image section by section and writes it
/// atomically. All framing (header CRC, per-section CRC, lengths) is
/// handled here; callers only provide payload bytes.
pub struct SnapshotWriter {
    sections: Vec<(u32, u64, Vec<u8>)>,
    written_at: u64,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// An empty snapshot stamped with the current wall clock.
    pub fn new() -> Self {
        let written_at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        Self {
            sections: Vec::new(),
            written_at,
        }
    }

    /// Overrides the header timestamp (deterministic tests).
    pub fn with_written_at(mut self, unix_seconds: u64) -> Self {
        self.written_at = unix_seconds;
        self
    }

    /// Appends a section. `meta` is the owning schema's content
    /// fingerprint, or 0 for global sections.
    pub fn section(&mut self, tag: u32, meta: u64, payload: Vec<u8>) {
        self.sections.push((tag, meta, payload));
    }

    /// Number of sections appended so far.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Serializes the full image (header + framed sections) to bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        let body_len: usize = self.sections.iter().map(|(_, _, p)| 20 + p.len()).sum();
        let mut w = ByteWriter::with_capacity(36 + body_len);
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u64(FORMAT_FINGERPRINT);
        w.put_u64(self.written_at);
        w.put_u32(self.sections.len() as u32);
        let header_crc = crc32(w.as_slice());
        w.put_u32(header_crc);
        for (tag, meta, payload) in &self.sections {
            w.put_u32(*tag);
            w.put_u64(*meta);
            w.put_u32(payload.len() as u32);
            w.put_u32(crc32(payload));
            w.put_bytes(payload);
        }
        w.into_bytes()
    }

    /// Writes the snapshot crash-safely: serialize to a unique temp
    /// sibling in the same directory, fsync, rename over `path`, then
    /// best-effort fsync the directory. Returns the byte size written. A
    /// crash at any point leaves either the old file or the new file under
    /// `path`, never a torn mix. Concurrent writers to one `path` each
    /// stage to their own temp file, so the last rename wins whole; a
    /// failed write removes its temp file.
    pub fn write_atomic(self, path: &Path) -> std::io::Result<u64> {
        let bytes = self.into_bytes();
        let tmp = tmp_path(path);
        let staged = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = staged {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        if let Some(dir) = path.parent() {
            // Persist the rename itself; non-fatal where unsupported.
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len() as u64)
    }
}

/// The temp sibling used by [`SnapshotWriter::write_atomic`]:
/// `<name>.<pid>.<n>.tmp`, where `n` is a process-wide counter, so no two
/// writers (threads or processes) ever stage to the same file.
fn tmp_path(path: &Path) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{n}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// What a full load salvaged, section by section. Assembled by
/// `Session::load_snapshot`; [`LoadOutcome::record`] feeds the counters.
#[derive(Clone, Debug, Default)]
pub struct LoadOutcome {
    /// Sections decoded, validated, and hydrated into caches.
    pub sections_loaded: u64,
    /// Sections refused at any layer (container, identity, decode).
    pub sections_rejected: u64,
    /// Individual cache entries hydrated across all loaded sections.
    pub entries_loaded: u64,
    /// Payload bytes of the loaded sections now backing caches.
    pub bytes_retained: u64,
    /// Snapshot age at load time (now − header `written_at`), if the
    /// header was readable and the stamp sane.
    pub age_seconds: Option<u64>,
    /// Every reject with its failure mode, in encounter order.
    pub rejects: Vec<Reject>,
}

impl LoadOutcome {
    /// An outcome where nothing was salvaged because the file/header was
    /// unusable: every artifact will be recomputed.
    pub fn rejected_outright(reason: RejectReason) -> Self {
        LoadOutcome {
            sections_rejected: 1,
            rejects: vec![Reject { tag: None, reason }],
            ..LoadOutcome::default()
        }
    }

    /// Notes a loaded section of `payload_bytes` bytes hydrating
    /// `entries` cache entries.
    pub fn note_loaded(&mut self, payload_bytes: usize, entries: u64) {
        self.sections_loaded += 1;
        self.entries_loaded += entries;
        self.bytes_retained += payload_bytes as u64;
    }

    /// Notes a rejected section.
    pub fn note_rejected(&mut self, tag: Option<u32>, reason: RejectReason) {
        self.sections_rejected += 1;
        self.rejects.push(Reject { tag, reason });
    }

    /// Whether anything at all was salvaged.
    pub fn any_loaded(&self) -> bool {
        self.sections_loaded > 0
    }

    /// Bumps the `snapshot_section_loaded`/`snapshot_section_rejected`
    /// counters on `rec` to match this outcome. Every rejected section
    /// degrades to lazy recomputation, so `snapshot_section_recomputed`
    /// advances in lockstep with the rejects.
    pub fn record(&self, rec: &dyn Recorder) {
        if self.sections_loaded > 0 {
            rec.add(
                ssd_obs::names::counter::SNAPSHOT_SECTION_LOADED,
                self.sections_loaded,
            );
        }
        if self.sections_rejected > 0 {
            rec.add(
                ssd_obs::names::counter::SNAPSHOT_SECTION_REJECTED,
                self.sections_rejected,
            );
            rec.add(
                ssd_obs::names::counter::SNAPSHOT_SECTION_RECOMPUTED,
                self.sections_rejected,
            );
        }
    }
}

impl fmt::Display for LoadOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot: {} sections loaded, {} rejected, {} entries, {} bytes retained",
            self.sections_loaded, self.sections_rejected, self.entries_loaded, self.bytes_retained
        )?;
        if let Some(age) = self.age_seconds {
            write!(f, ", age {age}s")?;
        }
        for r in &self.rejects {
            match r.tag {
                Some(t) => write!(f, "\n  reject tag={t}: {}", r.reason)?,
                None => write!(f, "\n  reject: {}", r.reason)?,
            }
        }
        Ok(())
    }
}

/// Ceiling on label-pool entries a snapshot may declare.
pub const MAX_POOL_LABELS: usize = 1 << 20;
/// Ceiling on a single label name's byte length.
pub const MAX_LABEL_LEN: usize = 1 << 12;

/// Encodes `pool`'s label names in id order — the `LABEL_POOL` section
/// payload. `LabelId`s are positions in this list, so the list *is* the
/// id assignment.
pub fn encode_pool(pool: &ssd_base::SharedInterner, w: &mut ByteWriter) {
    let n = pool.len();
    w.put_u32(n as u32);
    for i in 0..n {
        w.put_str(&pool.resolve(ssd_base::LabelId::from_usize(i)));
    }
}

/// Replays a `LABEL_POOL` payload against the live `pool` and reports
/// whether the snapshot's `LabelId` assignment agrees with (or can be
/// made to agree with) the current process's.
///
/// For each snapshot id `i` with name `s`: if `i` already exists in the
/// live pool, its name must resolve to `s`; otherwise `s` is interned,
/// which — the interner being append-only — must mint exactly id `i`
/// (it can fail to if `s` was already interned under a different id).
/// Returns `None` on a malformed payload, `Some(false)` on disagreement
/// (the caller rejects every `LabelId`-keyed section for this schema),
/// `Some(true)` when all snapshot ids are valid in the live pool.
pub fn hydrate_pool(pool: &ssd_base::SharedInterner, r: &mut ByteReader<'_>) -> Option<bool> {
    let n = r.get_count(MAX_POOL_LABELS)?;
    for i in 0..n {
        let name = r.get_str(MAX_LABEL_LEN)?;
        let agreed = if i < pool.len() {
            pool.resolve(ssd_base::LabelId::from_usize(i)) == name
        } else {
            pool.intern(name) == ssd_base::LabelId::from_usize(i)
        };
        if !agreed {
            return Some(false);
        }
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new().with_written_at(1_000);
        w.section(tag::LABEL_POOL, 7, b"pool-payload".to_vec());
        w.section(tag::TYPE_GRAPH, 7, b"tg".to_vec());
        w.section(99, 0, b"from-the-future".to_vec());
        w.into_bytes()
    }

    #[test]
    fn roundtrip_parses_all_sections() {
        let bytes = sample();
        let snap = parse(&bytes).unwrap();
        assert_eq!(snap.written_at, 1_000);
        assert_eq!(snap.sections.len(), 3);
        assert!(snap.rejected.is_empty());
        assert_eq!(snap.sections[0].tag, tag::LABEL_POOL);
        assert_eq!(snap.sections[0].meta, 7);
        assert_eq!(snap.sections[0].payload, b"pool-payload");
        assert_eq!(snap.sections[2].tag, 99, "unknown tags still frame-parse");
    }

    #[test]
    fn empty_input_rejects_at_header() {
        let e = parse(&[]).unwrap_err();
        assert_eq!(e.reason, RejectReason::TruncatedHeader);
    }

    #[test]
    fn bad_magic_rejects() {
        let mut bytes = sample();
        bytes[0] ^= 0xFF;
        assert_eq!(parse(&bytes).unwrap_err().reason, RejectReason::BadMagic);
    }

    #[test]
    fn header_bitflip_rejects_as_crc() {
        // Flip a version byte: CRC catches it before version comparison.
        let mut bytes = sample();
        bytes[8] ^= 0x01;
        assert_eq!(parse(&bytes).unwrap_err().reason, RejectReason::HeaderCrc);
    }

    #[test]
    fn section_bitflip_rejects_only_that_section() {
        let bytes = sample();
        // Flip one bit inside the first section's payload (header is 36
        // bytes, frame is 20 bytes, payload starts at 56).
        let mut corrupt = bytes.clone();
        corrupt[56] ^= 0x80;
        let snap = parse(&corrupt).unwrap();
        assert_eq!(snap.sections.len(), 2, "other sections survive");
        assert_eq!(snap.rejected.len(), 1);
        assert_eq!(snap.rejected[0].reason, RejectReason::BadCrc);
        assert_eq!(snap.rejected[0].tag, Some(tag::LABEL_POOL));
    }

    #[test]
    fn every_truncation_prefix_is_total() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let torn = &bytes[..cut];
            match parse(torn) {
                Ok(snap) => {
                    // Sections accounted: loaded + rejected == declared.
                    assert_eq!(snap.sections.len() + snap.rejected.len(), 3, "cut at {cut}");
                }
                Err(r) => assert_eq!(r.reason, RejectReason::TruncatedHeader, "cut at {cut}"),
            }
        }
    }

    #[test]
    fn oversized_declared_length_rejects_remainder() {
        let bytes = sample();
        // Section 1's length field lives at offset 36 + 12 = 48.
        let mut corrupt = bytes.clone();
        corrupt[48..52].copy_from_slice(&u32::MAX.to_le_bytes());
        let snap = parse(&corrupt).unwrap();
        assert!(snap.sections.is_empty());
        assert_eq!(snap.rejected.len(), 3, "frame + unreached all rejected");
        assert_eq!(snap.rejected[0].reason, RejectReason::Truncated);
        assert_eq!(snap.rejected[0].tag, Some(tag::LABEL_POOL));
    }

    #[test]
    fn atomic_write_roundtrips_and_cleans_tmp() {
        let dir = std::env::temp_dir().join("ssd_snapshot_test_atomic");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("warm.snap");
        let mut w = SnapshotWriter::new().with_written_at(5);
        w.section(tag::DFA, 1, vec![1, 2, 3]);
        let n = w.write_atomic(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, n);
        let strays: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|f| f.starts_with("warm.snap.") && f.ends_with(".tmp"))
            .collect();
        assert!(strays.is_empty(), "temp sibling renamed away: {strays:?}");
        let snap = parse(&on_disk).unwrap();
        assert_eq!(snap.sections.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn outcome_accounting_and_display() {
        let mut o = LoadOutcome::default();
        o.note_loaded(100, 3);
        o.note_rejected(Some(tag::DFA), RejectReason::BadCrc);
        assert_eq!(o.sections_loaded, 1);
        assert_eq!(o.sections_rejected, 1);
        assert_eq!(o.bytes_retained, 100);
        assert!(o.any_loaded());
        let s = format!("{o}");
        assert!(s.contains("1 sections loaded"));
        assert!(s.contains("bad-crc"));
    }

    #[test]
    fn version_skew_reported_when_crc_consistent() {
        // Hand-build a header with a wrong version but a correct CRC.
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION + 1);
        w.put_u64(FORMAT_FINGERPRINT);
        w.put_u64(0);
        w.put_u32(0);
        let c = crc32(w.as_slice());
        w.put_u32(c);
        let e = parse(w.as_slice()).unwrap_err();
        assert_eq!(e.reason, RejectReason::VersionSkew);
    }

    #[test]
    fn format_skew_reported_when_crc_consistent() {
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u32(VERSION);
        w.put_u64(FORMAT_FINGERPRINT ^ 1);
        w.put_u64(0);
        w.put_u32(0);
        let c = crc32(w.as_slice());
        w.put_u32(c);
        let e = parse(w.as_slice()).unwrap_err();
        assert_eq!(e.reason, RejectReason::FormatSkew);
    }
}
