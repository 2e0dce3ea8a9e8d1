//! The `unsafe` corner of the snapshot layer: a minimal `mmap` binding and
//! the checked byte↔scalar slice casts the zero-copy views are built on.
//!
//! Everything zero-copy in the workspace bottoms out here. A published
//! `pardfs-snap v2` file is opened as a [`MappedSnapshot`] (a read-only
//! private memory mapping, or an 8-byte-aligned heap buffer when mapping is
//! unavailable), and the borrowed view types (`GraphView`, `TreeView`) turn
//! its aligned section payloads into `&[u32]` arrays with [`cast_u32s`] —
//! no per-array `Vec` materialization, which is what makes opening a
//! checkpoint or a served epoch O(validate) instead of O(copy + rebuild).
//!
//! # Safety argument
//!
//! This is the one module in the crate allowed to use `unsafe` (the crate is
//! otherwise `#![deny(unsafe_code)]`; the container framing, the views and
//! every codec are ordinary safe code). Three distinct obligations live
//! here, each discharged locally:
//!
//! * **The `mmap`/`munmap` FFI calls.** We pass a null hint address, a
//!   length we just read from the file's metadata, `PROT_READ |
//!   MAP_PRIVATE`, and a file descriptor that [`std::fs::File`] keeps open
//!   across the call — exactly the signature POSIX documents. A `MAP_FAILED`
//!   return is checked and falls back to the buffered path, so a successful
//!   return is the only one we dereference. `munmap` in `Drop` receives the
//!   exact `(addr, len)` pair `mmap` returned, and the pointer is never
//!   handed out beyond the lifetime of `self`.
//!
//! * **The mapped `&[u8]`.** `slice::from_raw_parts(ptr, len)` over the
//!   mapping is sound because the mapping is `MAP_PRIVATE` + `PROT_READ`:
//!   the kernel guarantees `len` readable bytes at `ptr` until `munmap`, no
//!   one can write through this mapping, and writes to the *file* by other
//!   processes are not observed through a private mapping's already-faulted
//!   pages. The system-level invariant that makes even not-yet-faulted pages
//!   trustworthy is the publish discipline upheld by every writer in this
//!   workspace (WAL checkpoints, `Snapshot::publish_to`): snapshot files are
//!   written to a temporary sibling, synced, atomically renamed, and **never
//!   modified in place** — shrinking a mapped file out from under a reader
//!   (the classic `SIGBUS` hazard) would require breaking that discipline.
//!   Readers additionally verify the whole-file checksum before interpreting
//!   a single section byte.
//!
//! * **The slice casts.** [`cast_u32s`] (and the buffered backend's
//!   `u64`-to-byte view) only change the *grain* of an existing allocation:
//!   the pointer's alignment for the target type is checked at runtime, the
//!   length is an exact multiple, every bit pattern is a valid `u32`/`u8`,
//!   and the returned slice borrows the input (same lifetime, no extension).
//!   Interpreting the bytes as little-endian scalars is only correct on a
//!   little-endian target, so the cast is compiled only there; big-endian
//!   targets get a described `Err` from every view (and so from recovery)
//!   rather than a misread.
//!
//! `MappedSnapshot` is `Send + Sync` by the same reasoning: it is an
//! immutable, read-only region with no interior mutability, so any number of
//! threads may read it concurrently.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// Reinterpret a little-endian byte slice as a `&[u32]` without copying.
///
/// Fails (with a description naming the problem) when the slice's length is
/// not a multiple of 4, when its base address is not 4-byte aligned — the
/// misaligned-buffer case the container's alignment rules exist to prevent
/// — or on a big-endian target, where no borrowed reinterpretation can be
/// little-endian-correct.
///
/// # Examples
///
/// ```
/// use pardfs_graph::mapped::cast_u32s;
///
/// // A Vec<u8> is not guaranteed 4-byte aligned, so go through the aligned
/// // buffer the snapshot layer actually uses:
/// let words = vec![0x0000_0002_0000_0001u64];
/// let bytes = pardfs_graph::mapped::bytes_of_u64s(&words);
/// assert_eq!(cast_u32s(bytes).unwrap(), &[1, 2]);
/// assert!(cast_u32s(&bytes[1..5]).unwrap_err().contains("align"));
/// ```
pub fn cast_u32s(bytes: &[u8]) -> Result<&[u32], String> {
    if !bytes.len().is_multiple_of(4) {
        return Err(format!(
            "cannot view {} bytes as u32s: length is not a multiple of 4",
            bytes.len()
        ));
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(std::mem::align_of::<u32>()) {
        return Err(format!(
            "cannot view buffer at {:p} as u32s: base address is not 4-byte aligned \
             (map the snapshot or copy it into an aligned buffer)",
            bytes.as_ptr()
        ));
    }
    #[cfg(target_endian = "little")]
    {
        // SAFETY: alignment and length were checked above, every bit pattern
        // is a valid u32, and the returned slice borrows `bytes` (same
        // lifetime, same allocation, len * 4 == bytes.len()).
        Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const u32, bytes.len() / 4) })
    }
    #[cfg(target_endian = "big")]
    {
        Err("zero-copy u32 views require a little-endian target".to_string())
    }
}

/// View a `&[u64]` as its underlying bytes (the buffered backend's storage).
///
/// Always succeeds: `u64` alignment over-satisfies `u8` alignment and every
/// byte of a `u64` is initialized.
pub fn bytes_of_u64s(words: &[u64]) -> &[u8] {
    // SAFETY: the pointer and length describe exactly the words' allocation;
    // u8 has alignment 1 and no invalid bit patterns; the slice borrows
    // `words` with the same lifetime.
    unsafe { std::slice::from_raw_parts(words.as_ptr() as *const u8, words.len() * 8) }
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! The raw `mmap`/`munmap` prototypes, exactly as POSIX declares them on
    //! LP64 unix (std already links libc; no new crates). Constant values
    //! are the universal ones shared by Linux and the BSDs/macOS for these
    //! two flags.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// How a [`MappedSnapshot`] holds its bytes.
enum Backing {
    /// A `PROT_READ`/`MAP_PRIVATE` mapping of the file. Dropped via `munmap`.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped {
        ptr: *mut std::os::raw::c_void,
        len: usize,
    },
    /// The file read into an 8-byte-aligned heap buffer (`Vec<u64>` backing,
    /// `len` meaningful bytes) — the fallback when mapping is unavailable or
    /// fails, and the path non-LP64/non-unix targets always take.
    Buffered { words: Vec<u64>, len: usize },
}

/// A snapshot file opened for zero-copy reading: a read-only memory mapping
/// when the platform provides one, otherwise the file read into an
/// 8-byte-aligned buffer. Either way, [`MappedSnapshot::bytes`] starts at an
/// 8-byte-aligned address (`mmap` returns page-aligned memory; the fallback
/// buffer is `u64`-backed), which together with the v2 container's aligned
/// section offsets is what makes the borrowed `&[u32]` views of
/// `GADJ`/`TPAR` payloads valid.
///
/// # Examples
///
/// ```
/// use pardfs_graph::MappedSnapshot;
///
/// let path = std::env::temp_dir().join(format!("pardfs-doc-{}.snap", std::process::id()));
/// std::fs::write(&path, b"PDFSNAP2 demo bytes").unwrap();
/// let map = MappedSnapshot::open(&path).unwrap();
/// assert_eq!(map.len(), 19);
/// assert!(map.bytes().starts_with(b"PDFSNAP2"));
/// assert_eq!(map.bytes().as_ptr() as usize % 8, 0);
/// std::fs::remove_file(&path).unwrap();
/// ```
pub struct MappedSnapshot {
    backing: Backing,
}

// SAFETY: the region is immutable for the life of the value (PROT_READ
// mapping or an owned buffer that is never written after `open` returns) and
// carries no interior mutability, so shared references may cross threads and
// the value itself may move between them.
unsafe impl Send for MappedSnapshot {}
unsafe impl Sync for MappedSnapshot {}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl MappedSnapshot {
    /// Open `path` for zero-copy reading: try a read-only private mapping
    /// first, fall back to reading into an aligned buffer (empty files and
    /// platforms without the mapping path always take the fallback).
    pub fn open(path: &Path) -> io::Result<MappedSnapshot> {
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            if let Some(backing) = Self::try_map(&file, len) {
                return Ok(MappedSnapshot { backing });
            }
        }
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec owns `words.len() * 8 >= len` initialized,
        // exclusively borrowed bytes; u8 has alignment 1.
        let buf: &mut [u8] =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        file.read_exact(buf)?;
        Ok(MappedSnapshot {
            backing: Backing::Buffered { words, len },
        })
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    fn try_map(file: &File, len: usize) -> Option<Backing> {
        use std::os::unix::io::AsRawFd;
        // SAFETY: see the module-level safety argument — null hint, a length
        // taken from the file's metadata, read-only private flags, a file
        // descriptor alive for the duration of the call, offset 0.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return None; // MAP_FAILED — caller falls back to the buffer path
        }
        Some(Backing::Mapped { ptr, len })
    }

    /// The snapshot's bytes. The base address is always 8-byte aligned.
    pub fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            // SAFETY: the kernel guarantees `len` readable bytes at `ptr`
            // until `munmap`, which only `Drop` calls; the slice's lifetime
            // is tied to `&self`.
            Backing::Mapped { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr as *const u8, *len)
            },
            Backing::Buffered { words, len } => &bytes_of_u64s(words)[..*len],
        }
    }

    /// Number of bytes in the snapshot.
    pub fn len(&self) -> usize {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { len, .. } => *len,
            Backing::Buffered { len, .. } => *len,
        }
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did `open` get a real memory mapping (as opposed to the buffered
    /// fallback)? Informational — both backends serve identical bytes.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped { .. } => true,
            Backing::Buffered { .. } => false,
        }
    }
}

impl Drop for MappedSnapshot {
    fn drop(&mut self) {
        #[cfg(all(unix, target_pointer_width = "64"))]
        if let Backing::Mapped { ptr, len } = self.backing {
            // SAFETY: `(ptr, len)` is exactly what `mmap` returned for this
            // value, unmapped exactly once (Drop runs once), and no borrow of
            // the mapping can outlive `self`.
            let rc = unsafe { sys::munmap(ptr, len) };
            debug_assert_eq!(rc, 0, "munmap failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_rejects_bad_lengths_and_misaligned_bases() {
        let words = vec![0u64; 2];
        let bytes = bytes_of_u64s(&words);
        assert!(cast_u32s(&bytes[..6])
            .unwrap_err()
            .contains("multiple of 4"));
        assert!(cast_u32s(&bytes[1..13]).unwrap_err().contains("align"));
        assert_eq!(cast_u32s(bytes).unwrap(), &[0, 0, 0, 0]);
    }

    #[test]
    fn open_maps_or_buffers_and_serves_identical_aligned_bytes() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("pardfs-mapped-test-{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        std::fs::write(&path, &payload).unwrap();

        let map = MappedSnapshot::open(&path).unwrap();
        assert_eq!(map.len(), payload.len());
        assert_eq!(map.bytes(), &payload[..]);
        assert!((map.bytes().as_ptr() as usize).is_multiple_of(8));
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(map.is_mapped(), "linux test host should take the mmap path");

        // An empty file exercises the buffered fallback on every platform.
        std::fs::write(&path, b"").unwrap();
        let empty = MappedSnapshot::open(&path).unwrap();
        assert!(empty.is_empty());
        assert!(!empty.is_mapped());
        assert_eq!(empty.bytes(), b"");

        std::fs::remove_file(&path).unwrap();
    }
}
