//! Graph I/O: the plain-text edge-list format, and the header constants
//! and error type every binary snapshot shares.
//!
//! # Text edge lists
//!
//! A minimal, dependency-free edge-list format so experiments can be
//! exported/replayed and external graphs (e.g. DIMACS-converted road
//! networks) can be loaded:
//!
//! ```text
//! p <n> <m>
//! e <u> <v> <w>
//! …
//! ```
//!
//! Lines starting with `c` (comments) or blank lines are ignored.
//! Vertices are 0-based. The writer emits canonical (deduplicated) edges.
//! The reader rejects malformed input with descriptive errors — including
//! **self-loops** and **duplicate edges**, which [`CsrGraph::from_edges`]
//! would otherwise silently canonicalize away: a file that declares them
//! is corrupt or was produced by a different tool-chain, and silently
//! "fixing" it would hide the mismatch. These two rejections carry a typed
//! [`EdgeListError`] payload (downcast via [`io::Error::get_ref`]).
//!
//! # Binary snapshots
//!
//! Every snapshot starts with [`SNAPSHOT_MAGIC`], a little-endian `u16`
//! format version and a `u16` artifact kind ([`KIND_GRAPH`],
//! [`KIND_ORACLE`]). There is one format, version 2: the page-aligned
//! section layout of [`crate::source`], which `psh_core::snapshot::v2`
//! fills with an oracle. Readers accept exactly that version and report
//! [`SnapshotError::UnsupportedVersion`] for any other, including files
//! of the retired version-1 stream format. Snapshots are cheap to
//! regenerate from their recorded seed, so no version is reinterpreted
//! or migrated. Malformed snapshots are descriptive [`SnapshotError`]
//! values, never panics.

use crate::csr::{CsrGraph, Edge};
use std::fmt;
use std::io::{self, BufRead, Write};

// ---------------------------------------------------------------------------
// Text edge lists
// ---------------------------------------------------------------------------

/// Typed rejection reasons for edge-list input that [`CsrGraph`]'s
/// constructor would silently repair. Wrapped in an
/// [`io::ErrorKind::InvalidData`] error by [`read_graph`]; recover the
/// variant with `err.get_ref().and_then(|e| e.downcast_ref())`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeListError {
    /// An `e u u w` record: self-loops carry no distance information and
    /// are dropped by CSR canonicalization — a file declaring one is
    /// corrupt, so it is rejected instead of silently repaired.
    SelfLoop { line: usize, v: u32 },
    /// The unordered pair `{u, v}` appeared on an earlier `e` line; CSR
    /// canonicalization would keep only the lightest copy, silently
    /// changing `m` — rejected for the same reason.
    DuplicateEdge { line: usize, u: u32, v: u32 },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::SelfLoop { line, v } => {
                write!(f, "line {line}: self-loop at vertex {v}")
            }
            EdgeListError::DuplicateEdge { line, u, v } => {
                write!(f, "line {line}: duplicate edge ({u}, {v})")
            }
        }
    }
}

impl std::error::Error for EdgeListError {}

/// Serialize `g` to the edge-list format.
pub fn write_graph<W: Write>(g: &CsrGraph, mut out: W) -> io::Result<()> {
    writeln!(out, "p {} {}", g.n(), g.m())?;
    for e in g.edges() {
        writeln!(out, "e {} {} {}", e.u, e.v, e.w)?;
    }
    Ok(())
}

/// Parse a graph from the edge-list format. Returns a descriptive error
/// for malformed input (missing header, bad counts, out-of-range ids,
/// self-loops, duplicate edges — see [`EdgeListError`] for the typed
/// variants).
pub fn read_graph<R: BufRead>(input: R) -> io::Result<CsrGraph> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut n: Option<usize> = None;
    let mut declared_m = 0usize;
    let mut edges: Vec<Edge> = Vec::new();
    let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                let nn: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("line {}: bad p line", lineno + 1)))?;
                if nn as u64 > u32::MAX as u64 + 1 {
                    // endpoints below n must fit the u32 vertex ids
                    return Err(bad(format!(
                        "line {}: {nn} vertices exceeds the u32 vertex-id space",
                        lineno + 1
                    )));
                }
                declared_m = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad(format!("line {}: bad p line", lineno + 1)))?;
                n = Some(nn);
                edges.reserve(declared_m.min(1 << 22));
            }
            Some("e") => {
                let n = n.ok_or_else(|| bad("e line before p line".into()))?;
                let mut next_num = |what: &str| -> io::Result<u64> {
                    parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad(format!("line {}: bad {what}", lineno + 1)))
                };
                let u = next_num("source")?;
                let v = next_num("target")?;
                let w = next_num("weight")?;
                if u as usize >= n || v as usize >= n {
                    return Err(bad(format!(
                        "line {}: endpoint out of range (n = {n})",
                        lineno + 1
                    )));
                }
                if w == 0 {
                    return Err(bad(format!("line {}: zero weight", lineno + 1)));
                }
                if u == v {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        EdgeListError::SelfLoop {
                            line: lineno + 1,
                            v: u as u32,
                        },
                    ));
                }
                let key = (u.min(v) as u32, u.max(v) as u32);
                if !seen.insert(key) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        EdgeListError::DuplicateEdge {
                            line: lineno + 1,
                            u: key.0,
                            v: key.1,
                        },
                    ));
                }
                edges.push(Edge::new(u as u32, v as u32, w));
            }
            Some(other) => {
                return Err(bad(format!(
                    "line {}: unknown record '{other}'",
                    lineno + 1
                )))
            }
            None => {}
        }
    }
    let n = n.ok_or_else(|| bad("missing p line".into()))?;
    if edges.len() != declared_m {
        return Err(bad(format!(
            "header declared {declared_m} edges, found {}",
            edges.len()
        )));
    }
    Ok(CsrGraph::from_edges(n, edges))
}

// ---------------------------------------------------------------------------
// Binary snapshot identification and errors
// ---------------------------------------------------------------------------

/// First four bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PSHS";

/// Artifact kind tag: a bare [`CsrGraph`].
pub const KIND_GRAPH: u16 = 1;
/// Artifact kind tag: a full preprocessed oracle (layout in
/// `psh_core::snapshot::v2`). Tags 2 and 3 named the hopset and spanner
/// kinds of the retired version-1 format and are not reused.
pub const KIND_ORACLE: u16 = 4;

fn kind_name(kind: u16) -> &'static str {
    match kind {
        KIND_GRAPH => "graph",
        KIND_ORACLE => "oracle",
        _ => "unknown",
    }
}

/// Why a snapshot could not be written or read. Every malformed input —
/// truncation, bad identification bytes, invalid graph data — maps to a
/// descriptive variant; readers never panic on untrusted bytes.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying I/O failure (file missing, permissions, …).
    Io(io::Error),
    /// The first four bytes were not [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic { found: [u8; 4] },
    /// Written by a different format version; regenerate the snapshot.
    UnsupportedVersion { found: u16, supported: u16 },
    /// The snapshot holds a different artifact than the caller asked for.
    WrongArtifact { found: u16, expected: u16 },
    /// The stream ended in the middle of `what`.
    Truncated { what: &'static str },
    /// A structurally invalid value, with what/why detail — covers
    /// out-of-range vertex ids, self-loops, duplicate or unsorted edges,
    /// zero weights, and impossible counts.
    Corrupt { what: &'static str, detail: String },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a psh snapshot (magic {found:?})")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} unsupported (this build reads version {supported}); \
                 regenerate the snapshot from its seed"
            ),
            SnapshotError::WrongArtifact { found, expected } => write!(
                f,
                "snapshot holds a {} artifact, expected a {}",
                kind_name(*found),
                kind_name(*expected)
            ),
            SnapshotError::Truncated { what } => {
                write!(f, "snapshot truncated while reading {what}")
            }
            SnapshotError::Corrupt { what, detail } => {
                write!(f, "corrupt snapshot ({what}): {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_the_graph() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = generators::connected_random(60, 150, &mut rng);
        let g = generators::with_uniform_weights(&base, 1, 40, &mut rng);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c a comment\n\np 3 2\nc another\ne 0 1 5\ne 1 2 7\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.edge(0).w, 5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(
            read_graph("e 0 1 5\n".as_bytes()).is_err(),
            "edge before header"
        );
        assert!(read_graph("p 2\n".as_bytes()).is_err(), "short p line");
        assert!(read_graph("p 2 1\ne 0 5 1\n".as_bytes()).is_err(), "range");
        assert!(read_graph("p 2 1\ne 0 1 0\n".as_bytes()).is_err(), "zero w");
        assert!(read_graph("p 2 2\ne 0 1 1\n".as_bytes()).is_err(), "count");
        assert!(read_graph("x nonsense\n".as_bytes()).is_err(), "record");
        assert!(read_graph("".as_bytes()).is_err(), "empty");
    }

    #[test]
    fn rejects_a_vertex_count_beyond_the_u32_id_space() {
        // 2^32 vertices still fit (ids 0..=u32::MAX); one more cannot
        // carry u32 endpoints. The edge count is off by one, so a reader
        // without the check fails on the count, before allocating n slots.
        let err = read_graph("p 4294967297 0\ne 4294967296 5 1\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("line 1: 4294967297 vertices exceeds the u32 vertex-id space"),
            "{err}"
        );
    }

    #[test]
    fn rejects_self_loops_with_typed_error() {
        let err = read_graph("p 3 1\ne 1 1 5\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<EdgeListError>())
            .expect("typed payload");
        assert_eq!(*inner, EdgeListError::SelfLoop { line: 2, v: 1 });
        assert!(err.to_string().contains("self-loop"));
    }

    #[test]
    fn rejects_duplicate_edges_with_typed_error() {
        // same pair in either orientation, any weight
        let err = read_graph("p 3 2\ne 0 1 5\ne 1 0 9\n".as_bytes()).unwrap_err();
        let inner = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<EdgeListError>())
            .expect("typed payload");
        assert_eq!(
            *inner,
            EdgeListError::DuplicateEdge {
                line: 3,
                u: 0,
                v: 1
            }
        );
        assert!(err.to_string().contains("duplicate edge"));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = CsrGraph::from_edges(4, std::iter::empty());
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(buf.as_slice()).unwrap();
        assert_eq!(back.n(), 4);
        assert_eq!(back.m(), 0);
    }
}
