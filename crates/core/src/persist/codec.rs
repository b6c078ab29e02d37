//! Hand-rolled byte codec for snapshots and journals.
//!
//! Dependency-free, little-endian, bounds-checked. The framing is
//! deliberately simple: a 7-byte preamble (magic, format version, file
//! kind) whose every bit-flip lands on a value check, followed by
//! sections of `id · length · payload · crc32(id ‖ length ‖ payload)` —
//! so any corruption past the preamble fails the CRC rather than
//! misparsing. Decoding arbitrary bytes must *error*, never panic:
//! every read is bounds-checked and every length is validated against
//! the remaining input before allocation.

/// File magic: every persisted file starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"BLIT";

/// Snapshot/journal format version. Bump on any layout change; loaders
/// refuse other versions rather than guessing. v2: open incidents carry
/// an observation count (verdict provenance). v3: snapshots persist the
/// cumulative observability counters (degraded / chaos / shed).
pub const FORMAT_VERSION: u16 = 3;

/// File kinds (byte 7 of the preamble).
pub const KIND_SNAPSHOT: u8 = 1;
/// Journal file kind.
pub const KIND_JOURNAL: u8 = 2;

/// A decode failure. Carries enough context for `fsck` to report where
/// a file went bad; never panics on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before a read of `wanted` bytes at `at`.
    Truncated {
        /// Offset of the failed read.
        at: usize,
        /// Bytes the read needed.
        wanted: usize,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The file kind byte matches neither snapshot nor journal.
    BadKind(u8),
    /// A section's CRC32 does not match its contents.
    BadCrc {
        /// The section's id byte.
        section: u8,
    },
    /// Structurally invalid content (bad enum tag, impossible length).
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at, wanted } => {
                write!(f, "truncated: needed {wanted} byte(s) at offset {at}")
            }
            CodecError::BadMagic => write!(f, "bad magic (not a blameit state file)"),
            CodecError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (expected {FORMAT_VERSION})"
                )
            }
            CodecError::BadKind(k) => write!(f, "unknown file kind {k}"),
            CodecError::BadCrc { section } => write!(f, "CRC mismatch in section {section}"),
            CodecError::Invalid(what) => write!(f, "invalid content: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC32 (IEEE, reflected) slicing-by-8 tables, built at compile time.
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte's contribution past `k` further zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
const CRC_TABLES: [CrcTable; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        // lint:allow(as-cast-truncation): const-eval table build, i ranges over 0..256 by construction — fits u32
        let mut c = crc_of_byte(i as u32);
        let mut t = 0;
        while t < 8 {
            // lint:allow(panic-in-decode): const-eval table build, t < 8 and i < 256 by the loop bounds — cannot see runtime input
            tables[t][i] = c;
            c = (c >> 8) ^ crc_of_byte(c & 0xFF);
            t += 1;
        }
        i += 1;
    }
    tables
};

/// The reflected IEEE CRC register after shifting out the byte `x`.
const fn crc_of_byte(x: u32) -> u32 {
    let mut c = x;
    let mut k = 0;
    while k < 8 {
        c = if c & 1 != 0 {
            0xEDB8_8320 ^ (c >> 1)
        } else {
            c >> 1
        };
        k += 1;
    }
    c
}

/// One 256-entry CRC table.
type CrcTable = [u32; 256];

/// The entry of `table` for the low byte of `x`.
#[inline(always)]
fn lookup(table: &CrcTable, x: u32) -> u32 {
    // lint:allow(panic-in-decode): index is masked to 0..=255 and every CRC table has 256 entries — infallible for any input
    table[(x & 0xFF) as usize]
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC32 over more bytes:
/// `crc32_update(crc32(a), b) == crc32(a ‖ b)`, so a checksum can be
/// streamed over pieces that are never concatenated in memory.
/// Eight bytes per step via the slicing tables, then a byte-at-a-time
/// tail.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = !crc;
    let (words, tail) = bytes.as_chunks::<8>();
    for &[a0, a1, a2, a3, b0, b1, b2, b3] in words {
        let lo = u32::from_le_bytes([a0, a1, a2, a3]) ^ c;
        let hi = u32::from_le_bytes([b0, b1, b2, b3]);
        c = lookup(t7, lo)
            ^ lookup(t6, lo >> 8)
            ^ lookup(t5, lo >> 16)
            ^ lookup(t4, lo >> 24)
            ^ lookup(t3, hi)
            ^ lookup(t2, hi >> 8)
            ^ lookup(t1, hi >> 16)
            ^ lookup(t0, hi >> 24);
    }
    for &b in tail {
        c = lookup(t0, c ^ u32::from(b)) ^ (c >> 8);
    }
    !c
}

/// The reflected CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Product of two polynomials modulo the CRC polynomial, both in the
/// reflected bit order of a CRC register (bit 31 is `x^0`).
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC_POLY
        } else {
            b >> 1
        };
        m >>= 1;
    }
    product
}

/// `X2N[k]` = `x^(2^k)` modulo the CRC polynomial. The multiplicative
/// order of `x` divides `2^32 - 1`, so `x^(2^32) = x` and the table
/// repeats with period 32.
const X2N: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        // lint:allow(panic-in-decode): const-eval table build, k < 32 by the loop bound — cannot see runtime input
        table[k] = p;
        p = gf2_mul(p, p);
        k += 1;
    }
    table
};

/// The CRC32 of `a ‖ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// without touching the bytes (zlib's `crc32_combine`): `crc_a` is
/// advanced past `len_b` zero bytes by multiplying it with
/// `x^(8·len_b)`, assembled from the powers in [`X2N`] — O(log len_b).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b;
    // One byte is 2^3 bits, so bit i of `len_b` selects x^(2^(i+3)).
    for &x2n in X2N.iter().cycle().skip(3) {
        if n == 0 {
            break;
        }
        if n & 1 != 0 {
            shift = gf2_mul(x2n, shift);
        }
        n >>= 1;
    }
    gf2_mul(shift, crc_a) ^ crc_b
}

/// Little-endian byte writer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// An empty writer with room for `n` bytes, for callers that know
    /// their encoded size up front.
    pub fn with_capacity(n: usize) -> Self {
        ByteWriter {
            buf: Vec::with_capacity(n),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far (borrowed).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 as its IEEE-754 bit pattern (exact round-trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        // lint:allow(as-cast-truncation): bool is 0 or 1; no wider value exists to lose
        self.put_u8(v as u8);
    }

    /// Appends an `Option<f64>` as a presence byte plus bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.put_u8(0),
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
        }
    }

    /// Appends a collection length as u64.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a UTF-8 string as length + bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                at: self.pos,
                wanted: n,
            });
        }
        // lint:allow(panic-in-decode): range is in bounds — the remaining() guard above returned Truncated otherwise
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a column of `n` little-endian u64s with one bounds check.
    pub fn u64_column(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        let Some(bytes) = n.checked_mul(8) else {
            return Err(CodecError::Invalid("column length overflows"));
        };
        let (words, _) = self.take(bytes)?.as_chunks::<8>();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)).collect())
    }

    /// Reads a column of `n` f64s (bit patterns) with one bounds check.
    pub fn f64_column(&mut self, n: usize) -> Result<Vec<f64>, CodecError> {
        Ok(self
            .u64_column(n)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Reads a bool byte (must be 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool byte not 0/1")),
        }
    }

    /// Reads an `Option<f64>`.
    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CodecError::Invalid("option byte not 0/1")),
        }
    }

    /// Reads a string written by [`ByteWriter::put_str`]. The length is
    /// validated against the remaining input before the bytes are
    /// touched, and the content must be valid UTF-8.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => Err(CodecError::Invalid("string is not valid UTF-8")),
        }
    }

    /// Reads a collection length and validates it against the bytes
    /// remaining (each element needs at least `min_elem_bytes`), so a
    /// corrupted length can never trigger a huge allocation.
    pub fn len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        let budget = (self.remaining() / min_elem_bytes.max(1)) as u64;
        if n > budget {
            return Err(CodecError::Invalid("length exceeds remaining input"));
        }
        Ok(n as usize)
    }
}

/// Writes the 7-byte file preamble.
pub fn write_preamble(w: &mut ByteWriter, kind: u8) {
    w.put_bytes(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_u8(kind);
}

/// Validates the 7-byte preamble and returns the reader positioned
/// after it.
pub fn read_preamble<'a>(bytes: &'a [u8], want_kind: u8) -> Result<ByteReader<'a>, CodecError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != want_kind {
        if kind != KIND_SNAPSHOT && kind != KIND_JOURNAL {
            return Err(CodecError::BadKind(kind));
        }
        return Err(CodecError::Invalid("wrong file kind for this loader"));
    }
    Ok(r)
}

/// Appends one framed section: `id · len · payload · crc32(id‖len‖payload)`.
pub fn write_section(w: &mut ByteWriter, id: u8, payload: &[u8]) {
    let len = (payload.len() as u64).to_le_bytes();
    w.put_u8(id);
    w.put_bytes(&len);
    w.put_bytes(payload);
    w.put_u32(section_crc(id, &len, payload));
}

/// [`write_section`] for a payload of `len` bytes that `fill` appends
/// to `out` in place, returning the CRC32 of exactly those bytes. The
/// section CRC is combined from the header's and the payload's
/// ([`crc32_combine`]), so the payload is neither copied nor
/// checksummed a second time.
pub fn put_section(out: &mut Vec<u8>, id: u8, len: usize, fill: impl FnOnce(&mut Vec<u8>) -> u32) {
    let [l0, l1, l2, l3, l4, l5, l6, l7] = (len as u64).to_le_bytes();
    let header = [id, l0, l1, l2, l3, l4, l5, l6, l7];
    out.reserve(header.len() + len + 4);
    out.extend_from_slice(&header);
    let start = out.len();
    let payload_crc = fill(out);
    debug_assert_eq!(out.len() - start, len, "section payload length");
    let crc = crc32_combine(crc32(&header), payload_crc, len as u64);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Reads one framed section, validating its CRC. Returns `(id, payload)`.
pub fn read_section<'a>(r: &mut ByteReader<'a>) -> Result<(u8, &'a [u8]), CodecError> {
    let id = r.u8()?;
    let len = r.u64()?;
    if len > r.remaining() as u64 {
        return Err(CodecError::Truncated {
            at: r.pos(),
            wanted: len as usize,
        });
    }
    let payload = r.take(len as usize)?;
    let stored = r.u32()?;
    if section_crc(id, &len.to_le_bytes(), payload) != stored {
        return Err(CodecError::BadCrc { section: id });
    }
    Ok((id, payload))
}

/// `crc32(id ‖ len ‖ payload)`, streamed so the payload is never
/// copied next to its header.
fn section_crc(id: u8, len: &[u8; 8], payload: &[u8]) -> u32 {
    crc32_update(crc32_update(crc32(&[id]), len), payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time kernel the slicing tables replace.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_kernel_matches_reference_at_every_length_and_alignment() {
        let buf = noise(4096 + 8, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=4096 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    reference_crc32(bytes),
                    "len {len} at alignment {start}"
                );
            }
        }
    }

    #[test]
    fn streamed_crc_equals_one_shot_at_every_split() {
        let mut w = ByteWriter::new();
        write_section(&mut w, 3, &noise(300, 7));
        let frame = w.into_bytes();
        let whole = crc32(&frame);
        for cut in 0..=frame.len() {
            let (a, b) = frame.split_at(cut);
            assert_eq!(crc32_update(crc32(a), b), whole, "split at {cut}");
        }
        assert_eq!(crc32_update(0, &frame), whole);
    }

    #[test]
    fn combined_crc_equals_one_shot_at_every_split() {
        let buf = noise(4096, 0xC0FF_EE00_D15E_A5E5);
        let whole = crc32(&buf);
        for cut in 0..=buf.len() {
            let (a, b) = buf.split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                whole,
                "split at {cut}"
            );
        }
        assert_eq!(crc32_combine(0, 0, 0), 0, "both sides empty");
    }

    #[test]
    fn put_section_equals_write_section() {
        for n in [0usize, 1, 7, 8, 300] {
            let payload = noise(n, n as u64 + 1);
            let mut w = ByteWriter::new();
            write_section(&mut w, 5, &payload);
            let mut out = vec![0xAA];
            put_section(&mut out, 5, n, |out| {
                out.extend_from_slice(&payload);
                crc32(&payload)
            });
            assert_eq!(out[0], 0xAA, "existing bytes kept");
            assert_eq!(out[1..], w.into_bytes()[..], "payload of {n} bytes");
        }
    }

    #[test]
    fn columns_roundtrip_and_reject_short_input() {
        let keys = [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF];
        let rtt = [0.5f64, -0.0, f64::INFINITY, 1e300];
        let mut w = ByteWriter::new();
        keys.iter().for_each(|&k| w.put_u64(k));
        rtt.iter().for_each(|&x| w.put_f64(x));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u64_column(4).unwrap(), keys);
        let got = r.f64_column(4).unwrap();
        assert_eq!(
            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            rtt.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.remaining(), 0);
        let mut r = ByteReader::new(&bytes[..31]);
        assert!(matches!(
            r.u64_column(4),
            Err(CodecError::Truncated { at: 0, wanted: 32 })
        ));
        assert!(ByteReader::new(&bytes).u64_column(usize::MAX).is_err());
    }

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u16(513);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_f64(-0.125);
        w.put_bool(true);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(f64::NAN));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.f64().unwrap(), -0.125);
        assert!(r.bool().unwrap());
        assert_eq!(r.opt_f64().unwrap(), None);
        assert!(r.opt_f64().unwrap().unwrap().is_nan());
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn section_roundtrip_and_crc() {
        let mut w = ByteWriter::new();
        write_preamble(&mut w, KIND_SNAPSHOT);
        write_section(&mut w, 3, b"hello");
        let mut bytes = w.into_bytes();
        let mut r = read_preamble(&bytes, KIND_SNAPSHOT).unwrap();
        let (id, payload) = read_section(&mut r).unwrap();
        assert_eq!((id, payload), (3, b"hello".as_slice()));

        // Any single-byte corruption past the preamble fails the CRC
        // (or a value check) — including the id and length bytes.
        for i in 7..bytes.len() {
            bytes[i] ^= 0x10;
            let res = read_preamble(&bytes, KIND_SNAPSHOT)
                .and_then(|mut r| read_section(&mut r).map(|_| ()));
            assert!(res.is_err(), "flip at {i} went undetected");
            bytes[i] ^= 0x10;
        }
    }

    #[test]
    fn preamble_rejects_garbage() {
        assert_eq!(
            read_preamble(b"no", KIND_SNAPSHOT).unwrap_err(),
            CodecError::Truncated { at: 0, wanted: 4 }
        );
        assert_eq!(
            read_preamble(b"nope", KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadMagic
        );
        assert_eq!(
            read_preamble(b"XXXXxxxxx", KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadMagic
        );
        let mut w = ByteWriter::new();
        w.put_bytes(&MAGIC);
        w.put_u16(99);
        w.put_u8(KIND_SNAPSHOT);
        assert_eq!(
            read_preamble(&w.into_bytes(), KIND_SNAPSHOT).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
        let mut w = ByteWriter::new();
        write_preamble(&mut w, 9);
        assert_eq!(
            read_preamble(&w.into_bytes(), KIND_SNAPSHOT).unwrap_err(),
            CodecError::BadKind(9)
        );
        let mut w = ByteWriter::new();
        write_preamble(&mut w, KIND_JOURNAL);
        assert!(read_preamble(&w.into_bytes(), KIND_SNAPSHOT).is_err());
    }

    #[test]
    fn length_validation_blocks_huge_allocs() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // absurd length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(1).is_err());
    }
}
