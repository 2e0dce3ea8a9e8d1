//! `pardfs-snap v2` — the binary snapshot container.
//!
//! Every binary snapshot in the workspace (WAL checkpoints, published
//! serving epochs, component exports) is one self-describing file in this
//! framing, and its graph and tree sections have one decoder each: the
//! validating views [`crate::GraphView`] and the tree's `TreeView`, whose
//! `to_graph` / `to_index` materialize owned state. The normative byte-level
//! specification (with a worked hex dump) lives in `docs/FORMATS.md` at the
//! repository root.
//!
//! ```text
//! offset 0        8 bytes   magic  b"PDFSNAP2"   (format + version)
//! offset 8        4 bytes   section count        (u32 LE)
//! offset 12      24 bytes   per section: tag [u8;4], align u32 LE,
//!                           offset u64 LE, len u64 LE
//! ...                       section payloads, each zero-padded to start at
//!                           a multiple of its declared alignment
//! last 8 bytes              fnv1a64_words checksum of every preceding byte
//! ```
//!
//! Array sections (`GADJ`/`GDEG`/`GACT`/`TPAR`) declare 8-byte alignment,
//! which is what lets [`crate::GraphView`] and the tree's `TreeView` serve
//! `u32`/`u64` array reads *directly out of a mapped file*
//! ([`crate::MappedSnapshot`]) with no per-array materialization — validate
//! once at open time, borrow thereafter. The checksum is the word-folded
//! [`fnv1a64_words`], one multiply per 8 bytes.
//!
//! Sections are looked up by four-byte tag, so consumers can compose: a WAL
//! checkpoint embeds its own header sections next to the graph's and the
//! tree's in a single container with a single whole-file checksum. Readers
//! verify magic, checksum and table bounds **before** any section is
//! interpreted, so truncation and bit flips are rejected with a description
//! rather than misread. [`SnapReader::parse`] accepts only `PDFSNAP2`; any
//! other magic is refused with an error naming it.
//!
//! All multi-byte scalars are little-endian. Writers emit sections in a
//! deterministic order from logical state only, so state decoded from a
//! container writes the same bytes again.

use std::sync::atomic::{AtomicU64, Ordering};

/// The 8-byte magic prefix of every `pardfs-snap v2` file.
pub const SNAP_MAGIC_V2: [u8; 8] = *b"PDFSNAP2";

/// Largest per-section alignment a table entry may declare (one page).
pub const MAX_SECTION_ALIGN: u32 = 4096;

/// Process-wide count of array bytes *materialized* (copied out of a snapshot
/// buffer into owned state), charged through [`charge_copied_array_bytes`]
/// by the decoders' copy points: `GraphView::to_graph`, `TreeView::to_index`
/// and `MappedEpoch::materialize`.
///
/// The zero-copy read path is pinned on this counter: opening a container
/// through `GraphView`/`TreeView` and answering queries must not move it,
/// while materializing must. See `tests/zero_copy.rs`.
static COPIED_ARRAY_BYTES: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-wide array copy counter (bytes).
pub fn copied_array_bytes() -> u64 {
    COPIED_ARRAY_BYTES.load(Ordering::Relaxed)
}

/// Charge `bytes` of array payload copied out of a snapshot buffer to
/// [`copied_array_bytes`].
pub fn charge_copied_array_bytes(bytes: usize) {
    COPIED_ARRAY_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

/// The FNV-1a 64 offset basis: the hash of no bytes, where every
/// [`fnv1a64`] chain starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Byte-wise FNV-1a 64: fold `bytes` into the running hash `hash`, one
/// multiply per byte. Start a chain at [`FNV_OFFSET`]; folding `a` and then
/// `b` equals folding their concatenation. The tree fingerprint, the WAL
/// record checksum and the scenario runner's fingerprints are all this one
/// function (`docs/FORMATS.md`, "Checksums").
#[inline]
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// FNV-1a folded over 64-bit little-endian words — the whole-file checksum
/// of the container.
///
/// The byte length is folded in first (so buffers differing only in length
/// of trailing zeros still hash differently), then each 8-byte word of the
/// body, with the final partial word zero-padded. One multiply per 8 bytes
/// instead of per byte cuts the checksum pass — a fixed cost *every* reader
/// pays before it may interpret a single section — to ~1/8th, which matters
/// on the zero-copy open path where the checksum would otherwise rival the
/// validators.
pub fn fnv1a64_words(bytes: &[u8]) -> u64 {
    let mut hash = (FNV_OFFSET ^ bytes.len() as u64).wrapping_mul(FNV_PRIME);
    let mut words = bytes.chunks_exact(8);
    for w in words.by_ref() {
        hash ^= u64::from_le_bytes(w.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        hash ^= u64::from_le_bytes(tail);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Builder for a `pardfs-snap v2` container: append tagged sections, then
/// [`finish`](SnapWriter::finish) into the framed byte vector, honouring
/// the per-section alignment requested through
/// [`SnapWriter::section_aligned`].
///
/// # Examples
///
/// ```
/// use pardfs_graph::snap::{put_u64, SnapReader, SnapWriter, SNAP_MAGIC_V2};
///
/// let mut w = SnapWriter::new();
/// put_u64(w.section_aligned(*b"DATA", 8), 42);
/// let bytes = w.finish();
/// assert_eq!(&bytes[..8], &SNAP_MAGIC_V2);
///
/// let r = SnapReader::parse(&bytes).unwrap();
/// assert_eq!(r.section(*b"DATA").unwrap(), 42u64.to_le_bytes());
/// ```
#[derive(Debug, Default)]
pub struct SnapWriter {
    sections: Vec<([u8; 4], u32, Vec<u8>)>,
}

impl SnapWriter {
    /// An empty container.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Start a new section with `tag` and return its payload buffer.
    /// Sections are written in the order they were started.
    pub fn section(&mut self, tag: [u8; 4]) -> &mut Vec<u8> {
        self.section_aligned(tag, 1)
    }

    /// Start a new section with `tag`, requesting that its payload start at
    /// a multiple of `align` bytes (a power of two, at most
    /// [`MAX_SECTION_ALIGN`]).
    pub fn section_aligned(&mut self, tag: [u8; 4], align: u32) -> &mut Vec<u8> {
        debug_assert!(
            align.is_power_of_two() && align <= MAX_SECTION_ALIGN,
            "section alignment must be a power of two ≤ {MAX_SECTION_ALIGN}, got {align}"
        );
        debug_assert!(
            !self.sections.iter().any(|(t, _, _)| *t == tag),
            "duplicate section tag {tag:?}"
        );
        self.sections.push((tag, align, Vec::new()));
        &mut self.sections.last_mut().expect("just pushed").2
    }

    /// Frame the sections: magic, table, payloads (zero-padded to each
    /// section's alignment), whole-file checksum.
    pub fn finish(self) -> Vec<u8> {
        let table_end = 8 + 4 + 24 * self.sections.len();
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut offset = table_end as u64;
        for (_, align, body) in &self.sections {
            offset = offset.next_multiple_of(*align as u64);
            offsets.push(offset);
            offset += body.len() as u64;
        }
        let mut out = Vec::with_capacity(offset as usize + 8);
        out.extend_from_slice(&SNAP_MAGIC_V2);
        put_u32(&mut out, self.sections.len() as u32);
        for ((tag, align, body), &off) in self.sections.iter().zip(&offsets) {
            out.extend_from_slice(tag);
            put_u32(&mut out, *align);
            put_u64(&mut out, off);
            put_u64(&mut out, body.len() as u64);
        }
        for ((_, _, body), &off) in self.sections.iter().zip(&offsets) {
            out.resize(off as usize, 0); // alignment padding
            out.extend_from_slice(body);
        }
        let checksum = fnv1a64_words(&out);
        put_u64(&mut out, checksum);
        out
    }
}

/// A verified view into a `pardfs-snap v2` container: magic, checksum and
/// section-table bounds are checked up front, then sections are served as
/// borrowed byte slices.
///
/// # Examples
///
/// ```
/// use pardfs_graph::snap::{put_u32, SnapReader, SnapWriter};
///
/// let mut w = SnapWriter::new();
/// put_u32(w.section(*b"NUMS"), 7);
/// let bytes = w.finish();
///
/// let r = SnapReader::parse(&bytes).unwrap();
/// assert_eq!(r.section(*b"NUMS").unwrap(), 7u32.to_le_bytes());
/// assert!(r.section(*b"ZZZZ").unwrap_err().contains("missing"));
///
/// // Any magic but `PDFSNAP2` is refused, not guessed at.
/// let err = SnapReader::parse(b"pardfs-checkpoint v1\nepoch 0\n").unwrap_err();
/// assert!(err.contains("not a pardfs-snap v2 container"));
/// ```
#[derive(Debug)]
pub struct SnapReader<'a> {
    base: &'a [u8],
    sections: Vec<([u8; 4], &'a [u8])>,
}

impl<'a> SnapReader<'a> {
    /// Verify the container framing and index its sections. Only
    /// `PDFSNAP2` containers are accepted; any other magic is an error
    /// naming the bytes found.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapReader<'a>, String> {
        if bytes.len() < 8 + 4 + 8 {
            return Err(format!(
                "binary snapshot truncated: {} bytes is smaller than the minimal frame",
                bytes.len()
            ));
        }
        if bytes[..8] != SNAP_MAGIC_V2 {
            return Err(format!(
                "not a pardfs-snap v2 container: magic \"{}\" is not \"PDFSNAP2\"",
                bytes[..8].escape_ascii()
            ));
        }
        let body_end = bytes.len() - 8;
        let recorded = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        if fnv1a64_words(&bytes[..body_end]) != recorded {
            return Err("binary snapshot checksum mismatch (file is corrupt)".to_string());
        }
        let count = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
        let table_end = 8usize + 4 + 24 * count;
        if table_end > body_end {
            return Err(format!(
                "binary snapshot section table ({count} sections) exceeds the file"
            ));
        }
        let mut sections: Vec<([u8; 4], &'a [u8])> = Vec::with_capacity(count);
        for i in 0..count {
            let at = 12 + 24 * i;
            let tag: [u8; 4] = bytes[at..at + 4].try_into().expect("4 bytes");
            let align = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
            if !align.is_power_of_two() || align > MAX_SECTION_ALIGN {
                return Err(format!(
                    "section {tag:?} declares invalid alignment {align}"
                ));
            }
            let offset = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().expect("8 bytes"));
            let (Ok(offset), Ok(len)) = (usize::try_from(offset), usize::try_from(len)) else {
                return Err(format!("section {tag:?} offset/length overflows"));
            };
            if !offset.is_multiple_of(align as usize) {
                return Err(format!(
                    "section {tag:?} at offset {offset} violates its declared {align}-byte alignment"
                ));
            }
            let end = offset
                .checked_add(len)
                .ok_or_else(|| format!("section {tag:?} offset/length overflows"))?;
            if offset < table_end || end > body_end {
                return Err(format!(
                    "section {tag:?} [{offset}, {end}) escapes the container body"
                ));
            }
            if sections.iter().any(|(t, _)| *t == tag) {
                return Err(format!("duplicate section tag {tag:?}"));
            }
            sections.push((tag, &bytes[offset..end]));
        }
        Ok(SnapReader {
            base: bytes,
            sections,
        })
    }

    /// The payload of the section tagged `tag`.
    pub fn section(&self, tag: [u8; 4]) -> Result<&'a [u8], String> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, body)| *body)
            .ok_or_else(|| {
                format!(
                    "binary snapshot is missing its `{}` section",
                    String::from_utf8_lossy(&tag)
                )
            })
    }

    /// The `(offset, len)` of the section tagged `tag` within the parsed
    /// buffer — what a mapped reader records so it can re-bind a borrowed
    /// view of the same (already validated) bytes later without re-parsing.
    pub fn section_range(&self, tag: [u8; 4]) -> Result<(usize, usize), String> {
        let body = self.section(tag)?;
        let offset = body.as_ptr() as usize - self.base.as_ptr() as usize;
        Ok((offset, body.len()))
    }
}

/// Sequential little-endian scalar reader over a section payload.
///
/// # Examples
///
/// ```
/// use pardfs_graph::snap::Cursor;
///
/// let data = [7u8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
/// let mut c = Cursor::new(*b"DEMO", &data);
/// assert_eq!(c.u32().unwrap(), 7);
/// assert_eq!(c.u64().unwrap(), 1);
/// c.finish().unwrap(); // everything consumed, no trailing bytes
/// ```
#[derive(Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
    tag: [u8; 4],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `data` (`tag` names the section in errors).
    pub fn new(tag: [u8; 4], data: &'a [u8]) -> Self {
        Cursor { data, at: 0, tag }
    }

    fn need(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.at + n > self.data.len() {
            return Err(format!(
                "section `{}` truncated: needed {n} bytes at offset {}, have {}",
                String::from_utf8_lossy(&self.tag),
                self.at,
                self.data.len() - self.at
            ));
        }
        let out = &self.data[self.at..self.at + n];
        self.at += n;
        Ok(out)
    }

    /// Read one `u32` LE.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.need(4)?.try_into().expect("4")))
    }

    /// Read one `u64` LE.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.need(8)?.try_into().expect("8")))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.at
    }

    /// Assert the section was consumed exactly.
    pub fn finish(self) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!(
                "section `{}` has {} trailing bytes",
                String::from_utf8_lossy(&self.tag),
                self.remaining()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytewise_fnv1a64_matches_the_reference_vectors_and_chains() {
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        let chained = fnv1a64(fnv1a64(FNV_OFFSET, b"foo"), b"bar");
        assert_eq!(chained, fnv1a64(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn round_trip_two_sections() {
        let mut w = SnapWriter::new();
        put_u64(w.section(*b"AAAA"), 7);
        let b = w.section(*b"BBBB");
        put_u32(b, 1);
        put_u32(b, 2);
        let bytes = w.finish();
        assert_eq!(&bytes[..8], &SNAP_MAGIC_V2);

        let r = SnapReader::parse(&bytes).expect("own container parses");
        let mut c = Cursor::new(*b"AAAA", r.section(*b"AAAA").unwrap());
        assert_eq!(c.u64().unwrap(), 7);
        c.finish().unwrap();
        let mut c = Cursor::new(*b"BBBB", r.section(*b"BBBB").unwrap());
        assert_eq!((c.u32().unwrap(), c.u32().unwrap()), (1, 2));
        c.finish().unwrap();
        assert!(r.section(*b"ZZZZ").unwrap_err().contains("missing"));
    }

    #[test]
    fn worked_example_in_formats_md_is_byte_stable() {
        // The hex dump in docs/FORMATS.md: one 8-aligned `DATA` section
        // holding the u64 42, 56 bytes in all.
        let mut w = SnapWriter::new();
        put_u64(w.section_aligned(*b"DATA", 8), 42);
        let expect: [u8; 56] = [
            0x50, 0x44, 0x46, 0x53, 0x4e, 0x41, 0x50, 0x32, 0x01, 0x00, 0x00, 0x00, 0x44, 0x41,
            0x54, 0x41, 0x08, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x2a, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x8a, 0xdf, 0x41, 0x9e, 0x80, 0x5b, 0x1c, 0x41,
        ];
        let bytes = w.finish();
        assert_eq!(bytes, expect);
        assert_eq!(fnv1a64_words(&bytes[..48]), 0x411c_5b80_9e41_df8a);
    }

    #[test]
    fn sections_honour_their_declared_alignment() {
        let mut w = SnapWriter::new();
        w.section(*b"ODDB").push(0xAB); // 1-byte section to knock offsets askew
        let b = w.section_aligned(*b"AL8B", 8);
        put_u64(b, 0x1122_3344_5566_7788);
        put_u32(w.section_aligned(*b"AL4B", 4), 9);
        let bytes = w.finish();

        let r = SnapReader::parse(&bytes).expect("own container parses");
        let (off8, len8) = r.section_range(*b"AL8B").unwrap();
        assert_eq!(off8 % 8, 0, "AL8B starts at {off8}");
        assert_eq!(len8, 8);
        let (off4, _) = r.section_range(*b"AL4B").unwrap();
        assert_eq!(off4 % 4, 0, "AL4B starts at {off4}");
        assert_eq!(r.section(*b"ODDB").unwrap(), &[0xAB]);
        assert_eq!(
            r.section(*b"AL8B").unwrap(),
            &0x1122_3344_5566_7788u64.to_le_bytes()
        );
    }

    #[test]
    fn rejects_misaligned_table_entries_and_bad_alignments() {
        // Hand-corrupt the table so a section's offset violates its declared
        // alignment, re-stamping the checksum so only the alignment check can
        // reject it.
        let mut w = SnapWriter::new();
        put_u64(w.section_aligned(*b"AAAA", 8), 7);
        let good = w.finish();
        let mut bad = good[..good.len() - 8].to_vec();
        // Table entry at 12: tag(4) align(4) offset(8). Bump offset by 1.
        let off = u64::from_le_bytes(bad[20..28].try_into().unwrap());
        bad[20..28].copy_from_slice(&(off + 1).to_le_bytes());
        let sum = fnv1a64_words(&bad);
        put_u64(&mut bad, sum);
        assert!(SnapReader::parse(&bad).unwrap_err().contains("alignment"));

        // A non-power-of-two declared alignment is rejected outright.
        let mut bad = good[..good.len() - 8].to_vec();
        bad[16..20].copy_from_slice(&3u32.to_le_bytes());
        let sum = fnv1a64_words(&bad);
        put_u64(&mut bad, sum);
        assert!(SnapReader::parse(&bad)
            .unwrap_err()
            .contains("invalid alignment"));
    }

    #[test]
    fn corruption_truncation_and_foreign_magic_are_rejected() {
        let mut w = SnapWriter::new();
        put_u64(w.section_aligned(*b"AAAA", 8), 7);
        let good = w.finish();

        // Any single bit flip breaks the whole-file checksum (or the magic).
        for at in [0, 9, 13, good.len() / 2] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            let err = SnapReader::parse(&bad).unwrap_err();
            assert!(
                err.contains("checksum") || err.contains("magic"),
                "flip at {at}: {err}"
            );
        }
        // Truncation (including a cut inside the trailing checksum).
        for cut in [0, 8, good.len() - 1, good.len() - 9] {
            assert!(SnapReader::parse(&good[..cut]).is_err(), "cut at {cut}");
        }
        // A container stamped with another version's magic is refused by
        // name before its checksum or table is read.
        let mut relabelled = good.clone();
        relabelled[7] = b'1';
        let err = SnapReader::parse(&relabelled).unwrap_err();
        let named = format!("magic \"{}\"", relabelled[..8].escape_ascii());
        assert!(err.contains(&named), "{err}");
        // A section table pointing past the body: rebuild with a lying count.
        let empty = SnapWriter::new().finish();
        let mut lying = empty[..empty.len() - 8].to_vec();
        lying[8] = 3; // claims 3 sections, no table bytes follow
        let tail = fnv1a64_words(&lying);
        put_u64(&mut lying, tail);
        assert!(SnapReader::parse(&lying)
            .unwrap_err()
            .contains("section table"));
    }

    #[test]
    fn cursor_reports_truncation_and_trailing_bytes() {
        let data = [1u8, 0, 0, 0, 9];
        let mut c = Cursor::new(*b"TEST", &data);
        assert_eq!(c.u32().unwrap(), 1);
        assert!(c.u64().unwrap_err().contains("truncated"));
        assert!(c.finish().unwrap_err().contains("trailing"));
    }
}
