//! Little-endian byte cursors and CRC32 for the snapshot format.
//!
//! The snapshot store (`ssd-snapshot`) persists compiled artifacts in a
//! hand-rolled binary format. A snapshot file is the first *untrusted
//! durable input* the system consumes, so the read side here is total:
//! every read is length-checked and returns `Option`/`Result`-shaped
//! outcomes instead of panicking, and variable-length reads take explicit
//! caps so a corrupted length prefix cannot drive an allocation bomb.

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) over `data`.
///
/// Table-driven, one table built lazily on first use. This is the same
/// checksum gzip/zip/png use, which makes snapshot sections easy to
/// cross-check with external tooling.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 computation: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let table = crc_table();
    let mut c = !crc;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

fn crc_table() -> &'static [u32; 256] {
    use crate::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// An append-only little-endian byte sink.
///
/// All snapshot encoders write through this so the on-disk endianness is
/// fixed regardless of host.
#[derive(Default, Debug)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The accumulated bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the bytes.
    ///
    /// Lengths in the snapshot format are always `u32`: nothing we persist
    /// legitimately exceeds 4 GiB per field, and a 4-byte prefix keeps the
    /// adversarial-length surface small.
    pub fn put_len_bytes(&mut self, v: &[u8]) {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.put_u32(v.len() as u32);
        self.put_bytes(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_len_bytes(v.as_bytes());
    }

    /// Overwrites 4 bytes at `at` with `v` little-endian.
    ///
    /// Used to backpatch section lengths after the payload is written.
    /// Panics if `at + 4` exceeds the current length — a caller bug, not
    /// an input-dependent condition.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Overwrites 8 bytes at `at` with `v` little-endian.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }
}

/// A bounds-checked little-endian cursor over untrusted bytes.
///
/// Every read returns `None` on underrun instead of panicking; decoders
/// built on this are total by construction. Variable-length reads take an
/// explicit `cap` so corrupted length prefixes cannot trigger huge
/// allocations.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining past the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the cursor has consumed every byte.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Current offset from the start of the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Option<u32> {
        let bytes = self.get_bytes(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(bytes);
        Some(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Option<u64> {
        let bytes = self.get_bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Some(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Option<i64> {
        self.get_u64().map(|v| v as i64)
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a `u32`-length-prefixed byte string, rejecting declared
    /// lengths above `cap` *before* touching the payload, so an oversized
    /// length in a truncated file fails cleanly.
    pub fn get_len_bytes(&mut self, cap: usize) -> Option<&'a [u8]> {
        let len = self.get_u32()? as usize;
        if len > cap || len > self.remaining() {
            return None;
        }
        self.get_bytes(len)
    }

    /// Reads a length-prefixed UTF-8 string of at most `cap` bytes.
    pub fn get_str(&mut self, cap: usize) -> Option<&'a str> {
        let bytes = self.get_len_bytes(cap)?;
        std::str::from_utf8(bytes).ok()
    }

    /// Reads a `u32` and converts it to `usize`, rejecting values above
    /// `cap`. The standard guard for decoded counts and indices.
    pub fn get_count(&mut self, cap: usize) -> Option<usize> {
        let n = self.get_u32()? as usize;
        if n > cap {
            return None;
        }
        Some(n)
    }

    /// Splits off a sub-reader over the next `n` bytes and advances past
    /// them. Used to decode framed sections without letting a section's
    /// decoder read past its declared extent.
    pub fn sub_reader(&mut self, n: usize) -> Option<ByteReader<'a>> {
        self.get_bytes(n).map(ByteReader::new)
    }
}

/// Compile-time FNV-1a 64-bit hash. The shared fingerprint primitive for
/// content identity across processes (snapshot format fingerprints,
/// schema content fingerprints): deterministic, order-sensitive, and
/// `const` so format tags can be baked into constants.
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_INIT, bytes)
}

/// The FNV-1a 64-bit offset basis: the state of [`fnv1a64`] before any
/// byte is hashed.
const FNV1A64_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Continues an FNV-1a 64-bit hash from `state` over `bytes`, so
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`. Lets a caller
/// cache the state after a fixed prefix and hash only the suffix.
pub const fn fnv1a64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_update_is_incremental() {
        let whole = crc32(b"hello world");
        let split = crc32_update(crc32(b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn fnv1a64_extend_is_incremental() {
        let whole = fnv1a64(b"hello world");
        assert_eq!(fnv1a64_extend(fnv1a64(b"hello "), b"world"), whole);
        assert_eq!(fnv1a64_extend(FNV1A64_INIT, b"hello world"), whole);
    }

    #[test]
    fn roundtrip_scalars() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_str("snapshot");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.get_u64(), Some(u64::MAX - 1));
        assert_eq!(r.get_i64(), Some(-42));
        assert_eq!(r.get_str(64), Some("snapshot"));
        assert!(r.is_exhausted());
    }

    #[test]
    fn underrun_returns_none() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.get_u32(), None);
        // A failed read must not advance the cursor past the end.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u8(), Some(1));
    }

    #[test]
    fn oversized_declared_length_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX); // declared length far beyond the buffer
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len_bytes(1 << 20), None);
    }

    #[test]
    fn length_cap_enforced_even_when_bytes_present() {
        let mut w = ByteWriter::new();
        w.put_len_bytes(&[0u8; 100]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(
            r.get_len_bytes(10),
            None,
            "cap below actual length must reject"
        );
        let mut r2 = ByteReader::new(&bytes);
        assert_eq!(r2.get_len_bytes(100).map(|b| b.len()), Some(100));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = ByteWriter::new();
        w.put_len_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str(16), None);
    }

    #[test]
    fn sub_reader_is_bounded() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u32(2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut sub = r.sub_reader(4).unwrap();
        assert_eq!(sub.get_u32(), Some(1));
        assert_eq!(
            sub.get_u32(),
            None,
            "sub-reader must not see past its extent"
        );
        assert_eq!(r.get_u32(), Some(2));
        assert!(r.sub_reader(1).is_none());
    }

    #[test]
    fn patch_backfills_length() {
        let mut w = ByteWriter::new();
        w.put_u32(0); // placeholder
        let at = 0;
        w.put_bytes(b"abc");
        w.patch_u32(at, 3);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u32(), Some(3));
    }
}
