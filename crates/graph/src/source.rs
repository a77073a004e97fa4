//! Zero-copy snapshot backing: [`SnapshotSource`] (one `mmap` or one
//! aligned bulk read), the `SNAPSHOT_VERSION = 2` section framework, and
//! [`MmapView`] — a [`GraphView`] that serves CSR adjacency straight off
//! the mapped bytes.
//!
//! # The v2 layout
//!
//! Version 2 is the one snapshot format. It lays the artifact out as
//! **page-aligned, little-endian, section-table-indexed slabs** so a
//! process can `mmap` the file and start answering queries after a
//! linear validation pass — no allocation proportional to the artifact,
//! no sorting, no recomputation of derived state. Cold start is O(open),
//! not O(decode):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  = b"PSHS"
//! 4       2     format version (LE u16) = 2
//! 6       2     artifact kind  (LE u16, `KIND_*` in crate::io)
//! 8       8     file length (LE u64) — must equal the real file size
//! 16      8     section count S (LE u64)
//! 24      24·S  section directory: {tag u32, reserved u32 = 0,
//!                                   offset u64, len u64} per section
//! …       …     zero padding to the next 4096-byte boundary
//! …       …     section payloads, each starting 64-byte aligned
//! ```
//!
//! Alignment rules: the data region starts on a 4096-byte (page)
//! boundary; every section payload starts on a 64-byte (cache-line)
//! boundary. Because [`SnapshotSource`] guarantees the base address is
//! page-aligned (both the mmap and the heap-fallback path), any section
//! payload can be reinterpreted in place as a `&[u32]` / `&[u64]` /
//! `&[Edge]` slab ([`cast_u32s`] and friends check alignment and host
//! endianness before handing out a slice).
//!
//! Section **tags** are owned by the artifact kind: this module defines
//! the graph-adjacency tags ([`SEC_META`], [`SEC_GRAPH_OFFSETS`], …);
//! `psh_core::snapshot` defines the oracle-specific ones on top. Readers
//! ignore tags they don't know, so new sections are additive. Tags 12 and
//! 13 are retired (older builds stored delta-compressed adjacency under
//! them) and must never be reused: a reused tag would misread old files.
//!
//! # Trust model
//!
//! Mapped bytes are untrusted until validated. [`SectionTable::parse`]
//! bounds-checks the directory (no section escapes the file, none
//! overlap, all aligned); [`MmapView::from_parts`] then validates the
//! slabs at one of two [`Verify`] levels:
//!
//! * [`Verify::Bounds`] — the serving hot path. Shape agreement,
//!   monotone covering offsets, and branch-light max-scans that bound
//!   every stored index (`targets < n`, `slot_eids < m`). After `Ok`,
//!   no access through the view can read out of bounds, and a *valid*
//!   file iterates bit-identically to the owned graph (the writer is
//!   canonical). Cost: a few sequential scans over the index slabs —
//!   the weights and edge records are never touched, which is what
//!   keeps an `mmap` open lazy.
//! * [`Verify::Deep`] — additionally replays the exact
//!   edges-in-canonical-order sweep [`crate::CsrGraph`] construction
//!   uses and rejects any deviation, pinning the slab *content* (not
//!   just its shape) to the edge list. `psh-snap` and the corruption
//!   test-suites run at this level; in-bounds tampering
//!   that `Bounds` would serve (with wrong answers, never a crash) is
//!   a typed error here.
//!
//! Every rejection at either level is a typed [`SnapshotError`]; no
//! input can cause a panic or an out-of-bounds read.

use crate::csr::{Edge, VertexId, Weight};
use crate::io::{SnapshotError, SNAPSHOT_MAGIC};
use crate::view::GraphView;
use std::fmt;
use std::fs::File;
use std::io::Read as _;
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

/// The mmap-able snapshot format version this module reads and writes.
pub const SNAPSHOT_VERSION_V2: u16 = 2;
/// Bytes before the section directory.
pub const V2_HEADER_BYTES: usize = 24;
/// Bytes per section-directory entry.
pub const V2_DIR_ENTRY_BYTES: usize = 24;
/// Every section payload starts on this boundary (cache line).
pub const V2_SECTION_ALIGN: usize = 64;
/// The data region (first section) starts on this boundary (page), and
/// [`SnapshotSource`] buffers are allocated to it.
pub const V2_PAGE_ALIGN: usize = 4096;

/// Tag: artifact-level scalars (fixed little-endian layout per kind).
pub const SEC_META: u32 = 1;
/// Tag: CSR offsets, `(n + 1) × u32`.
pub const SEC_GRAPH_OFFSETS: u32 = 2;
/// Tag: CSR adjacency targets, `2m × u32`.
pub const SEC_GRAPH_TARGETS: u32 = 3;
/// Tag: CSR adjacency weights, `2m × u64`.
pub const SEC_GRAPH_WEIGHTS: u32 = 4;
/// Tag: CSR adjacency canonical-edge ids, `2m × u32`.
pub const SEC_GRAPH_EIDS: u32 = 5;
/// Tag: canonical edge list, `m × 16`-byte [`Edge`] records.
pub const SEC_GRAPH_EDGES: u32 = 6;

/// Round `x` up to a multiple of `a` (`a` must be a power of two).
#[inline]
pub const fn align_up(x: usize, a: usize) -> usize {
    (x + a - 1) & !(a - 1)
}

fn corrupt(what: &'static str, detail: impl fmt::Display) -> SnapshotError {
    SnapshotError::Corrupt {
        what,
        detail: detail.to_string(),
    }
}

/// Slab casts only make sense when the host's native layout matches the
/// on-disk little-endian layout; on a big-endian host loading reports a
/// typed error.
fn ensure_little_endian() -> Result<(), SnapshotError> {
    if cfg!(target_endian = "little") {
        Ok(())
    } else {
        Err(corrupt(
            "host endianness",
            "v2 snapshots are little-endian slabs and this host is big-endian",
        ))
    }
}

// ---------------------------------------------------------------------------
// SnapshotSource — one mmap (linux) or one aligned bulk read
// ---------------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod sys {
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

    pub fn map_failed(p: *mut c_void) -> bool {
        p as isize == -1
    }
}

/// How to bring snapshot bytes into the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadMode {
    /// `mmap(PROT_READ, MAP_PRIVATE)` on linux — the kernel pages the
    /// file in lazily and N processes share one page-cache copy. Falls
    /// back to [`LoadMode::Read`] on other platforms.
    Mmap,
    /// One bulk read into a page-aligned heap buffer — works everywhere,
    /// still a single sequential I/O pass.
    Read,
}

enum Repr {
    /// Zero-length input; no allocation and nothing to unmap.
    Empty,
    /// A page-aligned heap buffer we own.
    Heap { ptr: NonNull<u8>, len: usize },
    /// A live read-only mapping.
    #[cfg(target_os = "linux")]
    Mapped { ptr: NonNull<u8>, len: usize },
}

/// An immutable, page-aligned byte region holding one snapshot file —
/// either a real `mmap` (linux) or an owned aligned buffer (fallback).
/// Both reprs expose the same [`SnapshotSource::bytes`]; everything
/// layered on top ([`SectionTable`], [`MmapView`], the mapped oracle in
/// `psh_core`) is agnostic to which one backs it.
///
/// The region is immutable for the lifetime of the value and freed on
/// drop; views keep it alive through an [`Arc`].
pub struct SnapshotSource {
    repr: Repr,
}

// SAFETY: the region is read-only for the whole lifetime of the value
// (PROT_READ mapping or a never-mutated owned buffer), so shared access
// from any thread is sound, and ownership can move between threads.
unsafe impl Send for SnapshotSource {}
unsafe impl Sync for SnapshotSource {}

impl SnapshotSource {
    /// Open `path` with the requested [`LoadMode`].
    pub fn open(path: &Path, mode: LoadMode) -> std::io::Result<SnapshotSource> {
        match mode {
            LoadMode::Mmap => SnapshotSource::map(path),
            LoadMode::Read => SnapshotSource::read(path),
        }
    }

    /// Map `path` read-only. On non-linux platforms this is
    /// [`SnapshotSource::read`].
    #[cfg(target_os = "linux")]
    pub fn map(path: &Path) -> std::io::Result<SnapshotSource> {
        use std::os::unix::io::AsRawFd;

        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "snapshot larger than the address space",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(SnapshotSource { repr: Repr::Empty });
        }
        // SAFETY: requesting a fresh read-only private mapping of a file
        // we hold open; the kernel picks the address. The fd may be
        // closed after mmap returns — the mapping keeps the file alive.
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
        if sys::map_failed(ptr) {
            return Err(std::io::Error::last_os_error());
        }
        let ptr = NonNull::new(ptr as *mut u8).expect("mmap returned a non-null address");
        Ok(SnapshotSource {
            repr: Repr::Mapped { ptr, len },
        })
    }

    /// Map `path` read-only (bulk-read fallback on this platform).
    #[cfg(not(target_os = "linux"))]
    pub fn map(path: &Path) -> std::io::Result<SnapshotSource> {
        SnapshotSource::read(path)
    }

    /// Read `path` in one pass into a page-aligned buffer.
    pub fn read(path: &Path) -> std::io::Result<SnapshotSource> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "snapshot larger than the address space",
            ));
        }
        let len = len as usize;
        if len == 0 {
            return Ok(SnapshotSource { repr: Repr::Empty });
        }
        let mut src = SnapshotSource::alloc_aligned(len);
        let Repr::Heap { ptr, .. } = &mut src.repr else {
            unreachable!("alloc_aligned builds a heap repr");
        };
        // SAFETY: `ptr` owns `len` writable bytes, freshly allocated.
        let buf = unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), len) };
        file.read_exact(buf)?;
        // a file that grew between metadata() and here would desync the
        // header's recorded length; trailing bytes are caught by parse
        Ok(src)
    }

    /// Copy `bytes` into a page-aligned owned buffer — for in-memory
    /// round trips and tests; files should use [`SnapshotSource::open`].
    pub fn from_bytes(bytes: &[u8]) -> SnapshotSource {
        if bytes.is_empty() {
            return SnapshotSource { repr: Repr::Empty };
        }
        let mut src = SnapshotSource::alloc_aligned(bytes.len());
        let Repr::Heap { ptr, .. } = &mut src.repr else {
            unreachable!("alloc_aligned builds a heap repr");
        };
        // SAFETY: `ptr` owns `bytes.len()` writable bytes; regions are
        // distinct (one freshly allocated).
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), ptr.as_ptr(), bytes.len());
        }
        src
    }

    /// A zeroed page-aligned heap buffer of `len > 0` bytes. A plain
    /// `Vec<u8>` would only guarantee alignment 1, which would break the
    /// in-place slab casts.
    fn alloc_aligned(len: usize) -> SnapshotSource {
        let layout = std::alloc::Layout::from_size_align(len, V2_PAGE_ALIGN)
            .expect("snapshot length fits a page-aligned layout");
        // SAFETY: len > 0 so the layout is non-zero-sized.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        SnapshotSource {
            repr: Repr::Heap { ptr, len },
        }
    }

    /// The whole region. The base address is page-aligned for both
    /// reprs, so section payloads keep their on-disk alignment in
    /// memory.
    pub fn bytes(&self) -> &[u8] {
        match &self.repr {
            Repr::Empty => &[],
            // SAFETY: ptr/len describe a live region owned (or mapped)
            // by self, immutable until drop.
            Repr::Heap { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
            #[cfg(target_os = "linux")]
            Repr::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True for a zero-length region.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the region is a real `mmap` (as opposed to an owned
    /// buffer) — what the benchsuite `load` table reports as "mmap".
    pub fn is_mapped(&self) -> bool {
        match &self.repr {
            #[cfg(target_os = "linux")]
            Repr::Mapped { .. } => true,
            _ => false,
        }
    }
}

impl Drop for SnapshotSource {
    fn drop(&mut self) {
        match &self.repr {
            Repr::Empty => {}
            Repr::Heap { ptr, len } => {
                let layout = std::alloc::Layout::from_size_align(*len, V2_PAGE_ALIGN)
                    .expect("layout validated at allocation");
                // SAFETY: allocated by alloc_aligned with this layout.
                unsafe { std::alloc::dealloc(ptr.as_ptr(), layout) };
            }
            #[cfg(target_os = "linux")]
            Repr::Mapped { ptr, len } => {
                // SAFETY: a live mapping created by map() with this length.
                unsafe { sys::munmap(ptr.as_ptr() as *mut _, *len) };
            }
        }
    }
}

impl fmt::Debug for SnapshotSource {
    /// Repr + length only — never dumps the region.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SnapshotSource")
            .field("mapped", &self.is_mapped())
            .field("len", &self.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Section directory: parse (reader) and layout (writer)
// ---------------------------------------------------------------------------

/// One parsed directory entry: a named byte range inside the file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section tag (see the `SEC_*` constants and `psh_core::snapshot`).
    pub tag: u32,
    /// Payload offset from the start of the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
}

/// The validated section directory of a v2 snapshot. After
/// [`SectionTable::parse`] succeeds, every entry is in bounds, 64-byte
/// aligned, non-overlapping, and unique by tag — slicing a section out
/// of the file can no longer fail.
#[derive(Debug)]
pub struct SectionTable {
    kind: u16,
    entries: Vec<SectionEntry>,
}

impl SectionTable {
    /// Parse and validate the header + directory of `bytes` (a whole v2
    /// file). Rejects any other version (the retired version 1 included)
    /// with [`SnapshotError::UnsupportedVersion`], and every structural
    /// violation with a typed error.
    pub fn parse(bytes: &[u8]) -> Result<SectionTable, SnapshotError> {
        // Magic, then version, then the rest of the header, each as soon
        // as its bytes exist: a short file that is not a snapshot at all
        // (or one of another version) says so instead of "truncated".
        let truncated = Err(SnapshotError::Truncated { what: "v2 header" });
        let Some(magic) = bytes.get(0..4) else {
            return truncated;
        };
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: magic.try_into().expect("4 bytes"),
            });
        }
        let Some(version) = bytes.get(4..6) else {
            return truncated;
        };
        let version = u16::from_le_bytes(version.try_into().expect("2 bytes"));
        if version != SNAPSHOT_VERSION_V2 {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION_V2,
            });
        }
        if bytes.len() < V2_HEADER_BYTES {
            return truncated;
        }
        let kind = u16::from_le_bytes(bytes[6..8].try_into().expect("2 bytes"));
        let file_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if file_len != bytes.len() as u64 {
            return Err(corrupt(
                "file length",
                format_args!(
                    "header records {file_len} bytes but the file holds {}",
                    bytes.len()
                ),
            ));
        }
        let count = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        // the directory itself must fit — this bounds `count` before any
        // allocation, so an absurd count cannot OOM
        let dir_bytes = count.checked_mul(V2_DIR_ENTRY_BYTES as u64);
        let dir_end = dir_bytes.and_then(|d| d.checked_add(V2_HEADER_BYTES as u64));
        let dir_end = match dir_end {
            Some(e) if e <= bytes.len() as u64 => e as usize,
            _ => {
                return Err(corrupt(
                    "section count",
                    format_args!("{count} directory entries do not fit in the file"),
                ))
            }
        };
        let count = count as usize;
        let data_start = align_up(dir_end, V2_PAGE_ALIGN);

        let mut entries = Vec::with_capacity(count);
        let mut prev_end = data_start as u64;
        for i in 0..count {
            let at = V2_HEADER_BYTES + i * V2_DIR_ENTRY_BYTES;
            let rec = &bytes[at..at + V2_DIR_ENTRY_BYTES];
            let tag = u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes"));
            let reserved = u32::from_le_bytes(rec[4..8].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(rec[16..24].try_into().expect("8 bytes"));
            if reserved != 0 {
                return Err(corrupt(
                    "section directory",
                    format_args!("entry {i}: reserved field is {reserved:#x}, not 0"),
                ));
            }
            if offset % V2_SECTION_ALIGN as u64 != 0 {
                return Err(corrupt(
                    "section alignment",
                    format_args!(
                        "entry {i} (tag {tag:#x}): offset {offset} is not 64-byte aligned"
                    ),
                ));
            }
            // sections live in the data region, in directory order,
            // without overlap — `prev_end` enforces all three at once
            if offset < prev_end {
                return Err(corrupt(
                    "section layout",
                    format_args!(
                        "entry {i} (tag {tag:#x}): offset {offset} overlaps the previous \
                         section or the directory (expected ≥ {prev_end})"
                    ),
                ));
            }
            let end = match offset.checked_add(len) {
                Some(e) if e <= file_len => e,
                _ => {
                    return Err(corrupt(
                        "section length",
                        format_args!(
                            "entry {i} (tag {tag:#x}): {len} bytes at offset {offset} escape \
                             the {file_len}-byte file"
                        ),
                    ))
                }
            };
            prev_end = end;
            if entries.iter().any(|e: &SectionEntry| e.tag == tag) {
                return Err(corrupt(
                    "section directory",
                    format_args!("tag {tag:#x} appears twice"),
                ));
            }
            entries.push(SectionEntry {
                tag,
                offset: offset as usize,
                len: len as usize,
            });
        }
        Ok(SectionTable { kind, entries })
    }

    /// The artifact kind recorded in the header (`KIND_*` in `crate::io`).
    pub fn kind(&self) -> u16 {
        self.kind
    }

    /// All entries, in file order.
    pub fn entries(&self) -> &[SectionEntry] {
        &self.entries
    }

    /// Look up a section by tag.
    pub fn find(&self, tag: u32) -> Option<SectionEntry> {
        self.entries.iter().copied().find(|e| e.tag == tag)
    }

    /// Slice a section's payload out of the file it was parsed from.
    /// `bytes` must be the same buffer passed to [`SectionTable::parse`]
    /// (entries are in bounds for it by construction).
    pub fn slice<'a>(&self, bytes: &'a [u8], tag: u32) -> Option<&'a [u8]> {
        self.find(tag).map(|e| &bytes[e.offset..e.offset + e.len])
    }

    /// [`SectionTable::slice`], but a missing section is a typed error.
    pub fn require<'a>(
        &self,
        bytes: &'a [u8],
        tag: u32,
        what: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        self.slice(bytes, tag)
            .ok_or_else(|| corrupt(what, format_args!("section tag {tag:#x} missing")))
    }
}

/// Accumulates sections in memory and emits a complete v2 file:
/// header, directory, page padding, and 64-byte-aligned payloads in
/// insertion order.
pub struct SectionWriter {
    kind: u16,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SectionWriter {
    /// Start a v2 snapshot of the given artifact kind.
    pub fn new(kind: u16) -> SectionWriter {
        SectionWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Append a section. Tags must be unique per file.
    pub fn section(&mut self, tag: u32, payload: Vec<u8>) {
        debug_assert!(
            self.sections.iter().all(|(t, _)| *t != tag),
            "duplicate section tag {tag:#x}"
        );
        self.sections.push((tag, payload));
    }

    /// Lay out and emit the whole file.
    pub fn finish(self) -> Vec<u8> {
        let dir_end = V2_HEADER_BYTES + self.sections.len() * V2_DIR_ENTRY_BYTES;
        let data_start = align_up(dir_end, V2_PAGE_ALIGN);

        // first pass: assign aligned offsets
        let mut offsets = Vec::with_capacity(self.sections.len());
        let mut cursor = data_start;
        for (_, payload) in &self.sections {
            let at = align_up(cursor, V2_SECTION_ALIGN);
            offsets.push(at);
            cursor = at + payload.len();
        }
        let file_len = if self.sections.is_empty() {
            dir_end
        } else {
            cursor
        };

        // second pass: emit
        let mut out = vec![0u8; file_len];
        out[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        out[4..6].copy_from_slice(&SNAPSHOT_VERSION_V2.to_le_bytes());
        out[6..8].copy_from_slice(&self.kind.to_le_bytes());
        out[8..16].copy_from_slice(&(file_len as u64).to_le_bytes());
        out[16..24].copy_from_slice(&(self.sections.len() as u64).to_le_bytes());
        for (i, ((tag, payload), at)) in self.sections.iter().zip(&offsets).enumerate() {
            let rec = V2_HEADER_BYTES + i * V2_DIR_ENTRY_BYTES;
            out[rec..rec + 4].copy_from_slice(&tag.to_le_bytes());
            // rec + 4 .. rec + 8 stays zero (reserved)
            out[rec + 8..rec + 16].copy_from_slice(&(*at as u64).to_le_bytes());
            out[rec + 16..rec + 24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
            out[*at..*at + payload.len()].copy_from_slice(payload);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Slab casts: &[u8] → &[u32] / &[u64] / &[Edge], in place
// ---------------------------------------------------------------------------

/// Reinterpret a section payload as a `u32` slab (little-endian host
/// only; length and alignment checked).
pub fn cast_u32s<'a>(bytes: &'a [u8], what: &'static str) -> Result<&'a [u32], SnapshotError> {
    cast_slab(bytes, what)
}

/// Reinterpret a section payload as a `u64` slab.
pub fn cast_u64s<'a>(bytes: &'a [u8], what: &'static str) -> Result<&'a [u64], SnapshotError> {
    cast_slab(bytes, what)
}

/// Reinterpret a section payload as 16-byte canonical [`Edge`] records.
/// Structural validity (`u < v`, sortedness, weights ≥ 1) is *not*
/// checked here — that is [`MmapView::from_parts`]'s job.
pub fn cast_edges<'a>(bytes: &'a [u8], what: &'static str) -> Result<&'a [Edge], SnapshotError> {
    // SAFETY of the cast below relies on Edge being repr(C) with every
    // bit pattern inhabited (u32, u32, u64) — checked at compile time:
    const _: () = assert!(std::mem::size_of::<Edge>() == 16);
    const _: () = assert!(std::mem::align_of::<Edge>() == 8);
    cast_slab(bytes, what)
}

fn cast_slab<'a, T: Copy>(bytes: &'a [u8], what: &'static str) -> Result<&'a [T], SnapshotError> {
    ensure_little_endian()?;
    let size = std::mem::size_of::<T>();
    let align = std::mem::align_of::<T>();
    if !bytes.len().is_multiple_of(size) {
        return Err(corrupt(
            what,
            format_args!(
                "section holds {} bytes, not a multiple of the {size}-byte record",
                bytes.len()
            ),
        ));
    }
    if !(bytes.as_ptr() as usize).is_multiple_of(align) {
        return Err(corrupt(
            what,
            format_args!("section start is not {align}-byte aligned"),
        ));
    }
    // SAFETY: length and alignment checked above; T is a plain-old-data
    // type (u32 / u64 / repr(C) Edge) for which every bit pattern is a
    // valid value, and the source region outlives the borrow.
    Ok(unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) })
}

// ---------------------------------------------------------------------------
// Writer-side slab encoding
// ---------------------------------------------------------------------------

/// The five CSR slabs of one graph, already little-endian encoded —
/// ready to hand to [`SectionWriter::section`].
pub struct CsrSlabs {
    /// `(n + 1) × u32` adjacency offsets.
    pub offsets: Vec<u8>,
    /// `2m × u32` adjacency targets.
    pub targets: Vec<u8>,
    /// `2m × u64` adjacency weights.
    pub weights: Vec<u8>,
    /// `2m × u32` adjacency canonical-edge ids.
    pub slot_eids: Vec<u8>,
    /// `m × 16`-byte canonical edge records.
    pub edges: Vec<u8>,
}

/// Encode the CSR slabs of a graph given its canonical edge list,
/// using the same degree-count + edges-in-order fill sweep
/// [`crate::CsrGraph`] construction uses — so a mapped view over these
/// slabs iterates identically to the owned graph.
pub fn encode_csr_slabs(n: usize, edges: &[Edge]) -> CsrSlabs {
    let m = edges.len();
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        offsets[e.u as usize + 1] += 1;
        offsets[e.v as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut targets = vec![0u32; 2 * m];
    let mut weights = vec![0u64; 2 * m];
    let mut slot_eids = vec![0u32; 2 * m];
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (eid, e) in edges.iter().enumerate() {
        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
            let c = cursor[a as usize] as usize;
            targets[c] = b;
            weights[c] = e.w;
            slot_eids[c] = eid as u32;
            cursor[a as usize] += 1;
        }
    }
    CsrSlabs {
        offsets: le_u32s(&offsets),
        targets: le_u32s(&targets),
        weights: le_u64s(&weights),
        slot_eids: le_u32s(&slot_eids),
        edges: le_edges(edges),
    }
}

/// How much of a mapped snapshot's content to validate at open time.
///
/// `Bounds` guarantees memory safety (no access through the resulting
/// view can go out of bounds) with a few sequential index scans;
/// `Deep` additionally pins the slab content to the edge list by
/// replaying the owned structures' fill sweeps, so in-bounds tampering
/// becomes a typed error instead of a wrong answer. Serving opens with
/// `Bounds` (that is the zero-copy fast path); `psh-snap` and the
/// corruption suites use `Deep`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verify {
    /// Shape + offset monotonicity + index max-scans: safe, lazy, fast.
    Bounds,
    /// Everything `Bounds` checks, plus exact fill-sweep replays and
    /// per-record content rules: a view that passes iterates
    /// bit-identically to the owned structure.
    Deep,
}

/// `Ok` iff every value in `vals` is `< limit` (vacuously true when
/// empty). A branch-light max-fold the optimizer vectorizes — this is
/// the whole per-slab cost of [`Verify::Bounds`].
fn check_indices_below(
    vals: &[u32],
    limit: usize,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let max = vals.iter().copied().fold(0u32, u32::max);
    if !vals.is_empty() && max as usize >= limit {
        return Err(corrupt(
            what,
            format_args!("stored index {max} out of range for limit {limit}"),
        ));
    }
    Ok(())
}

/// Little-endian-encode a `u32` slice.
pub fn le_u32s(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Little-endian-encode a `u64` slice.
pub fn le_u64s(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encode canonical edges as the 16-byte on-disk records.
pub fn le_edges(edges: &[Edge]) -> Vec<u8> {
    let mut out = Vec::with_capacity(edges.len() * 16);
    for e in edges {
        out.extend_from_slice(&e.u.to_le_bytes());
        out.extend_from_slice(&e.v.to_le_bytes());
        out.extend_from_slice(&e.w.to_le_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// MmapView — GraphView over validated slabs
// ---------------------------------------------------------------------------

/// A raw pointer + length pair into a [`SnapshotSource`] region. Not a
/// slice so that the owning view can be `'static` (self-referential
/// through the `Arc`); re-borrowed as a slice per call.
struct Slab<T> {
    ptr: *const T,
    len: usize,
}

impl<T> Slab<T> {
    fn of(s: &[T]) -> Slab<T> {
        Slab {
            ptr: s.as_ptr(),
            len: s.len(),
        }
    }

    /// SAFETY-by-invariant: `ptr/len` point into the `SnapshotSource`
    /// held alive by the owning view, which is immutable until drop.
    #[inline]
    fn get(&self) -> &[T] {
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl<T> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Slab {
            ptr: self.ptr,
            len: self.len,
        }
    }
}

/// An owned [`GraphView`] whose storage is five slabs inside a shared
/// [`SnapshotSource`] — the zero-copy counterpart of [`crate::CsrGraph`].
///
/// Construction ([`MmapView::from_parts`]) validates the slabs at the
/// caller's [`Verify`] level. [`Verify::Bounds`] pins shape, monotone
/// offsets, and every stored index — after `Ok`, no access through the
/// view can go out of bounds, and a valid file iterates bit-identically
/// to the [`crate::CsrGraph`] built from the same edge list (the
/// writer is canonical). [`Verify::Deep`] additionally replays the
/// exact edges-in-canonical-order fill sweep of CSR construction, so
/// even in-bounds tampering is a typed error — that replay is what the
/// corruption suites and `psh-snap` lean on, and keeping it off the
/// serving open path is what keeps an `mmap` load lazy.
///
/// Cloning is cheap (an `Arc` bump); the underlying mapping lives until
/// the last clone drops.
#[derive(Clone)]
pub struct MmapView {
    /// Keeps the mapped region alive; all slabs point into it.
    src: Arc<SnapshotSource>,
    offsets: Slab<u32>,
    targets: Slab<VertexId>,
    weights: Slab<Weight>,
    slot_eids: Slab<u32>,
    edges: Slab<Edge>,
}

// SAFETY: the slabs point into `src`, which is immutable and kept alive
// by the Arc field; shared/moved access from any thread only ever reads.
unsafe impl Send for MmapView {}
unsafe impl Sync for MmapView {}

impl MmapView {
    /// Assemble and validate a view over slabs that live inside `src`.
    ///
    /// All five slices must point into `src.bytes()` (checked). Returns
    /// a typed [`SnapshotError::Corrupt`] for any violation of the
    /// chosen [`Verify`] level; after `Ok`, no access through the view
    /// can go out of bounds.
    pub fn from_parts(
        src: Arc<SnapshotSource>,
        offsets: &[u32],
        targets: &[VertexId],
        weights: &[Weight],
        slot_eids: &[u32],
        edges: &[Edge],
        verify: Verify,
    ) -> Result<MmapView, SnapshotError> {
        let region = src.bytes().as_ptr_range();
        let inside = |ptr: *const u8, bytes: usize| {
            bytes == 0 || (region.start <= ptr && unsafe { ptr.add(bytes) } <= region.end)
        };
        assert!(
            inside(
                offsets.as_ptr() as *const u8,
                std::mem::size_of_val(offsets)
            ) && inside(
                targets.as_ptr() as *const u8,
                std::mem::size_of_val(targets)
            ) && inside(
                weights.as_ptr() as *const u8,
                std::mem::size_of_val(weights)
            ) && inside(
                slot_eids.as_ptr() as *const u8,
                std::mem::size_of_val(slot_eids)
            ) && inside(edges.as_ptr() as *const u8, std::mem::size_of_val(edges)),
            "MmapView slabs must live inside the SnapshotSource that owns them"
        );
        validate_csr_parts(offsets, targets, weights, slot_eids, edges, verify)?;
        Ok(MmapView {
            src,
            offsets: Slab::of(offsets),
            targets: Slab::of(targets),
            weights: Slab::of(weights),
            slot_eids: Slab::of(slot_eids),
            edges: Slab::of(edges),
        })
    }

    /// The source region this view (and possibly others) is backed by.
    pub fn source(&self) -> &Arc<SnapshotSource> {
        &self.src
    }

    #[inline]
    fn slot_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let offsets = self.offsets.get();
        offsets[v as usize] as usize..offsets[v as usize + 1] as usize
    }
}

impl fmt::Debug for MmapView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MmapView")
            .field("n", &self.n())
            .field("m", &self.m())
            .field("mapped", &self.src.is_mapped())
            .finish()
    }
}

impl GraphView for MmapView {
    #[inline]
    fn n(&self) -> usize {
        self.offsets.len - 1
    }

    #[inline]
    fn m(&self) -> usize {
        self.edges.len
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        let offsets = self.offsets.get();
        (offsets[v as usize + 1] - offsets[v as usize]) as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        let range = self.slot_range(v);
        self.targets.get()[range.clone()]
            .iter()
            .copied()
            .zip(self.weights.get()[range].iter().copied())
    }

    #[inline]
    fn neighbors_with_eid(
        &self,
        v: VertexId,
    ) -> impl Iterator<Item = (VertexId, Weight, u32)> + '_ {
        let range = self.slot_range(v);
        self.targets.get()[range.clone()]
            .iter()
            .copied()
            .zip(self.weights.get()[range.clone()].iter().copied())
            .zip(self.slot_eids.get()[range].iter().copied())
            .map(|((t, w), e)| (t, w, e))
    }

    #[inline]
    fn edges(&self) -> &[Edge] {
        self.edges.get()
    }
}

/// The structural validation backing [`MmapView::from_parts`]: shape
/// and monotone offsets always; index max-scans at [`Verify::Bounds`];
/// canonical strictly-sorted edges plus an exact replay of the CSR fill
/// sweep over the adjacency slots at [`Verify::Deep`]. Linear in
/// `n + m` either way, but the `Bounds` level is a handful of
/// sequential scans over the two index slabs (weights and edge records
/// untouched), while `Deep` random-accesses every slot and allocates
/// the `n`-entry cursor array.
fn validate_csr_parts(
    offsets: &[u32],
    targets: &[VertexId],
    weights: &[Weight],
    slot_eids: &[u32],
    edges: &[Edge],
    verify: Verify,
) -> Result<(), SnapshotError> {
    if offsets.is_empty() {
        return Err(corrupt(
            "csr offsets",
            "offsets slab needs a trailing total",
        ));
    }
    let n = offsets.len() - 1;
    if n > u32::MAX as usize + 1 {
        return Err(corrupt(
            "vertex count",
            format_args!("{n} vertices exceeds the u32 vertex-id space"),
        ));
    }
    let m = edges.len();
    if m > u32::MAX as usize {
        return Err(corrupt(
            "edge count",
            format_args!("{m} edges exceeds the u32 edge-id space"),
        ));
    }
    let slots = targets.len();
    if slots != 2 * m || weights.len() != slots || slot_eids.len() != slots {
        return Err(corrupt(
            "csr shape",
            format_args!(
                "adjacency slabs disagree: {} targets / {} weights / {} eids for m = {m}",
                targets.len(),
                weights.len(),
                slot_eids.len()
            ),
        ));
    }
    if offsets[0] != 0 {
        return Err(corrupt(
            "csr offsets",
            format_args!("offsets[0] = {}, expected 0", offsets[0]),
        ));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(corrupt("csr offsets", "offsets are not monotone"));
    }
    if offsets[n] as usize != slots {
        return Err(corrupt(
            "csr offsets",
            format_args!("offsets total {} ≠ {slots} adjacency slots", offsets[n]),
        ));
    }
    if verify == Verify::Bounds {
        // safety only: targets index dist arrays of length n, slot eids
        // index the canonical edge list; the replay below subsumes both
        // checks when it runs
        check_indices_below(targets, n, "csr target")?;
        return check_indices_below(slot_eids, m, "csr edge id");
    }
    let mut prev: Option<(u32, u32)> = None;
    for (i, e) in edges.iter().enumerate() {
        if e.u as usize >= n || e.v as usize >= n {
            return Err(corrupt(
                "edge endpoint",
                format_args!("edge {i} = ({}, {}) out of range for n = {n}", e.u, e.v),
            ));
        }
        if e.u >= e.v {
            return Err(corrupt(
                "edge",
                format_args!("edge {i} = ({}, {}) is not canonical (u < v)", e.u, e.v),
            ));
        }
        if e.w == 0 {
            return Err(corrupt(
                "edge weight",
                format_args!("edge {i} = ({}, {}) has zero weight", e.u, e.v),
            ));
        }
        if let Some(p) = prev {
            if p >= (e.u, e.v) {
                return Err(corrupt(
                    "edge order",
                    format_args!(
                        "edge {i} = ({}, {}) duplicates or precedes ({}, {})",
                        e.u, e.v, p.0, p.1
                    ),
                ));
            }
        }
        prev = Some((e.u, e.v));
    }
    // Replay the CSR fill sweep. Each edge claims the next free slot of
    // both endpoints; total claims (2m) equal total capacity, so if
    // every claim stays within its vertex's range, every range is
    // exactly filled — no separate exhaustion pass needed.
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    for (eid, e) in edges.iter().enumerate() {
        for (a, b) in [(e.u, e.v), (e.v, e.u)] {
            let c = cursor[a as usize] as usize;
            if c >= offsets[a as usize + 1] as usize
                || targets[c] != b
                || weights[c] != e.w
                || slot_eids[c] != eid as u32
            {
                return Err(corrupt(
                    "csr adjacency",
                    format_args!(
                        "adjacency slots do not replay the canonical fill sweep at edge \
                         {eid} = ({}, {})",
                        e.u, e.v
                    ),
                ));
            }
            cursor[a as usize] += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::generators;
    use crate::io::KIND_GRAPH;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graph() -> CsrGraph {
        let mut rng = StdRng::seed_from_u64(7);
        let base = generators::connected_random(60, 140, &mut rng);
        generators::with_uniform_weights(&base, 1, 50, &mut rng)
    }

    /// Emit a minimal v2 graph file: the five CSR slabs plus a META
    /// section carrying n and m.
    fn v2_graph_file(g: &CsrGraph) -> Vec<u8> {
        let slabs = encode_csr_slabs(g.n(), g.edges());
        let mut w = SectionWriter::new(KIND_GRAPH);
        let mut meta = Vec::new();
        meta.extend_from_slice(&(g.n() as u64).to_le_bytes());
        meta.extend_from_slice(&(g.m() as u64).to_le_bytes());
        w.section(SEC_META, meta);
        w.section(SEC_GRAPH_OFFSETS, slabs.offsets);
        w.section(SEC_GRAPH_TARGETS, slabs.targets);
        w.section(SEC_GRAPH_WEIGHTS, slabs.weights);
        w.section(SEC_GRAPH_EIDS, slabs.slot_eids);
        w.section(SEC_GRAPH_EDGES, slabs.edges);
        w.finish()
    }

    fn view_at(src: &Arc<SnapshotSource>, verify: Verify) -> Result<MmapView, SnapshotError> {
        let bytes = src.bytes();
        let table = SectionTable::parse(bytes)?;
        let offsets = cast_u32s(
            table.require(bytes, SEC_GRAPH_OFFSETS, "offsets")?,
            "offsets",
        )?;
        let targets = cast_u32s(
            table.require(bytes, SEC_GRAPH_TARGETS, "targets")?,
            "targets",
        )?;
        let weights = cast_u64s(
            table.require(bytes, SEC_GRAPH_WEIGHTS, "weights")?,
            "weights",
        )?;
        let eids = cast_u32s(table.require(bytes, SEC_GRAPH_EIDS, "eids")?, "eids")?;
        let edges = cast_edges(table.require(bytes, SEC_GRAPH_EDGES, "edges")?, "edges")?;
        MmapView::from_parts(
            Arc::clone(src),
            offsets,
            targets,
            weights,
            eids,
            edges,
            verify,
        )
    }

    fn view_of(src: &Arc<SnapshotSource>) -> Result<MmapView, SnapshotError> {
        view_at(src, Verify::Deep)
    }

    /// `g` as a deep-validated view over its own v2 graph file.
    pub(crate) fn mapped(g: &CsrGraph) -> MmapView {
        let src = Arc::new(SnapshotSource::from_bytes(&v2_graph_file(g)));
        view_of(&src).unwrap()
    }

    #[test]
    fn mapped_view_iterates_identically_to_the_owned_graph() {
        let g = sample_graph();
        let src = Arc::new(SnapshotSource::from_bytes(&v2_graph_file(&g)));
        let view = view_of(&src).unwrap();
        assert_eq!(view.n(), g.n());
        assert_eq!(view.m(), g.m());
        assert_eq!(view.edges(), g.edges());
        assert_eq!(view.is_unit_weight(), g.is_unit_weight());
        for v in 0..g.n() as u32 {
            assert_eq!(view.degree(v), g.degree(v));
            assert_eq!(
                view.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>()
            );
            assert_eq!(
                view.neighbors_with_eid(v).collect::<Vec<_>>(),
                g.neighbors_with_eid(v).collect::<Vec<_>>()
            );
        }
        assert_eq!(
            CsrGraph::from_edges(view.n(), view.edges().iter().copied()),
            g
        );
    }

    #[test]
    fn verify_levels_split_safety_from_identity() {
        let g = sample_graph();
        let mut bytes = v2_graph_file(&g);
        let targets_at = {
            let table = SectionTable::parse(&bytes).unwrap();
            table
                .entries()
                .iter()
                .find(|e| e.tag == SEC_GRAPH_TARGETS)
                .unwrap()
                .offset
        };

        // valid bytes pass both levels and iterate identically
        let src = Arc::new(SnapshotSource::from_bytes(&bytes));
        for verify in [Verify::Bounds, Verify::Deep] {
            let view = view_at(&src, verify).unwrap();
            assert_eq!(view.edges(), g.edges(), "{verify:?}");
        }

        // swapping two in-bounds targets keeps every index valid —
        // Bounds serves it (safely, wrongly), Deep rejects it
        assert_ne!(
            &bytes[targets_at..targets_at + 4],
            &bytes[targets_at + 4..targets_at + 8],
            "fixture needs two distinct leading targets"
        );
        let mut swapped = bytes.clone();
        for i in 0..4 {
            swapped.swap(targets_at + i, targets_at + 4 + i);
        }
        let src = Arc::new(SnapshotSource::from_bytes(&swapped));
        assert!(view_at(&src, Verify::Bounds).is_ok());
        assert!(matches!(
            view_at(&src, Verify::Deep),
            Err(SnapshotError::Corrupt { .. })
        ));

        // an out-of-range target is rejected at both levels
        bytes[targets_at..targets_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let src = Arc::new(SnapshotSource::from_bytes(&bytes));
        for verify in [Verify::Bounds, Verify::Deep] {
            assert!(
                matches!(view_at(&src, verify), Err(SnapshotError::Corrupt { .. })),
                "{verify:?}"
            );
        }
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::from_edges(5, std::iter::empty());
        let src = Arc::new(SnapshotSource::from_bytes(&v2_graph_file(&g)));
        let view = view_of(&src).unwrap();
        assert_eq!(view.n(), 5);
        assert_eq!(view.m(), 0);
        assert_eq!(view.neighbors(3).count(), 0);
    }

    #[test]
    fn sections_obey_the_alignment_rules() {
        let g = sample_graph();
        let bytes = v2_graph_file(&g);
        let table = SectionTable::parse(&bytes).unwrap();
        assert_eq!(table.kind(), KIND_GRAPH);
        assert_eq!(table.entries().len(), 6);
        let first = table.entries().iter().map(|e| e.offset).min().unwrap();
        assert_eq!(first % V2_PAGE_ALIGN, 0, "data region starts on a page");
        for e in table.entries() {
            assert_eq!(e.offset % V2_SECTION_ALIGN, 0, "tag {:#x}", e.tag);
        }
    }

    #[test]
    fn source_open_modes_agree_with_the_in_memory_bytes() {
        let g = sample_graph();
        let bytes = v2_graph_file(&g);
        let path = std::env::temp_dir().join(format!(
            "psh-source-test-{}-{:?}.snap",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, &bytes).unwrap();
        for mode in [LoadMode::Mmap, LoadMode::Read] {
            let src = SnapshotSource::open(&path, mode).unwrap();
            assert_eq!(src.bytes(), &bytes[..], "{mode:?}");
            assert_eq!(src.len(), bytes.len());
            assert_eq!(
                src.is_mapped(),
                mode == LoadMode::Mmap && cfg!(target_os = "linux")
            );
            assert_eq!(src.bytes().as_ptr() as usize % V2_PAGE_ALIGN, 0);
            let view = view_of(&Arc::new(src)).unwrap();
            assert_eq!(view.edges(), g.edges());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_source_is_valid_and_rejected_as_a_snapshot() {
        let src = SnapshotSource::from_bytes(&[]);
        assert!(src.is_empty());
        assert!(matches!(
            SectionTable::parse(src.bytes()),
            Err(SnapshotError::Truncated { .. })
        ));
    }

    #[test]
    fn header_violations_are_typed_errors() {
        let g = generators::path(4);
        let good = v2_graph_file(&g);

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            SectionTable::parse(&bad_magic),
            Err(SnapshotError::BadMagic { .. })
        ));

        let mut v1 = good.clone();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            SectionTable::parse(&v1),
            Err(SnapshotError::UnsupportedVersion { found: 1, .. })
        ));

        let mut short_len = good.clone();
        short_len[8..16].copy_from_slice(&((good.len() as u64) - 1).to_le_bytes());
        assert!(matches!(
            SectionTable::parse(&short_len),
            Err(SnapshotError::Corrupt { .. })
        ));

        // absurd section count must fail fast without allocating
        let mut huge = good.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SectionTable::parse(&huge),
            Err(SnapshotError::Corrupt { .. })
        ));

        for cut in 0..V2_HEADER_BYTES {
            assert!(matches!(
                SectionTable::parse(&good[..cut]),
                Err(SnapshotError::Truncated { .. })
            ));
        }

        // a short file is judged by its magic and version before its
        // length: 14 bytes of text are not a snapshot, not a truncated one
        assert!(matches!(
            SectionTable::parse(b"not a snapshot"),
            Err(SnapshotError::BadMagic { found }) if &found == b"not "
        ));
        assert!(matches!(
            SectionTable::parse(&bad_magic[..4]),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            SectionTable::parse(&v1[..6]),
            Err(SnapshotError::UnsupportedVersion { found: 1, .. })
        ));
    }

    #[test]
    fn directory_violations_are_typed_errors() {
        let g = generators::path(4);
        let good = v2_graph_file(&g);
        let entry = |i: usize| V2_HEADER_BYTES + i * V2_DIR_ENTRY_BYTES;

        // reserved field must be zero
        let mut reserved = good.clone();
        reserved[entry(0) + 4] = 1;
        assert!(matches!(
            SectionTable::parse(&reserved),
            Err(SnapshotError::Corrupt { .. })
        ));

        // misaligned section offset
        let mut misaligned = good.clone();
        let off = u64::from_le_bytes(misaligned[entry(1) + 8..entry(1) + 16].try_into().unwrap());
        misaligned[entry(1) + 8..entry(1) + 16].copy_from_slice(&(off + 1).to_le_bytes());
        assert!(matches!(
            SectionTable::parse(&misaligned),
            Err(SnapshotError::Corrupt { .. })
        ));

        // oversized length escaping the file
        let mut oversized = good.clone();
        oversized[entry(2) + 16..entry(2) + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            SectionTable::parse(&oversized),
            Err(SnapshotError::Corrupt { .. })
        ));

        // overlapping sections: point entry 1 at entry 0's offset
        let mut overlap = good.clone();
        let off0 = good[entry(0) + 8..entry(0) + 16].to_vec();
        overlap[entry(1) + 8..entry(1) + 16].copy_from_slice(&off0);
        assert!(matches!(
            SectionTable::parse(&overlap),
            Err(SnapshotError::Corrupt { .. })
        ));

        // duplicate tag
        let mut dup = good.clone();
        let tag0 = good[entry(0)..entry(0) + 4].to_vec();
        dup[entry(1)..entry(1) + 4].copy_from_slice(&tag0);
        assert!(matches!(
            SectionTable::parse(&dup),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn tampered_slabs_fail_the_sweep_validation() {
        let g = sample_graph();
        let good = v2_graph_file(&g);
        let table = SectionTable::parse(&good).unwrap();
        // flip one byte inside every adjacency slab; each must be caught
        for tag in [
            SEC_GRAPH_OFFSETS,
            SEC_GRAPH_TARGETS,
            SEC_GRAPH_WEIGHTS,
            SEC_GRAPH_EIDS,
            SEC_GRAPH_EDGES,
        ] {
            let e = table.find(tag).unwrap();
            let mut bad = good.clone();
            bad[e.offset] ^= 0x01;
            let src = Arc::new(SnapshotSource::from_bytes(&bad));
            assert!(
                matches!(view_of(&src), Err(SnapshotError::Corrupt { .. })),
                "tag {tag:#x} tamper undetected"
            );
        }
    }

    #[test]
    fn cast_helpers_check_shape_and_alignment() {
        assert!(matches!(
            cast_u64s(&[0u8; 12], "x"),
            Err(SnapshotError::Corrupt { .. })
        ));
        assert!(matches!(
            cast_edges(&[0u8; 8], "x"),
            Err(SnapshotError::Corrupt { .. })
        ));
        let buf = [0u8; 64];
        // deliberately misaligned view into an aligned buffer
        let off = (buf.as_ptr() as usize).wrapping_neg() % 8 + 1;
        assert!(matches!(
            cast_u64s(&buf[off..off + 8], "x"),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn views_keep_the_source_alive() {
        let g = sample_graph();
        let src = Arc::new(SnapshotSource::from_bytes(&v2_graph_file(&g)));
        let view = view_of(&src).unwrap();
        drop(src); // the view's Arc clone must keep the bytes valid
        assert_eq!(view.edges().len(), g.m());
        let clone = view.clone();
        drop(view);
        assert_eq!(clone.edges().len(), g.m());
    }
}
