//! The `psh-net` wire protocol: length-prefixed binary frames over TCP.
//!
//! The framing deliberately mirrors the `psh_graph::io` snapshot header
//! (magic + version + kind, all little-endian) so a stray snapshot fed to
//! a server — or a server stream fed to the snapshot reader — fails with
//! a descriptive [`ProtocolError::BadMagic`] instead of garbage. Every
//! frame is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic   = b"PSHN"
//! 4       2     protocol version (little-endian u16) = 1
//! 6       2     op code          (little-endian u16, see the op table)
//! 8       4     body length      (little-endian u32, ≤ MAX_FRAME_BYTES)
//! 12      …     op-specific body
//! ```
//!
//! Body encoding matches the snapshot conventions: integers little-endian,
//! `f64` as its IEEE-754 bit pattern in a little-endian `u64` (exact
//! round-trip — the wire never formats a float, which is what makes the
//! "byte-identical answers over the wire" contract checkable), booleans
//! one byte (`0`/`1`, anything else is [`ProtocolError::Corrupt`]).
//!
//! ## Op table
//!
//! | op | dir | body |
//! |---|---|---|
//! | `OP_QUERY` (1) | C→S | `s: u32, t: u32` |
//! | `OP_QUERY_BATCH` (2) | C→S | `count: u32, count × (s: u32, t: u32)` |
//! | `OP_SUBSCRIBE` (3) | C→S | `chunk: u32, count: u32, count × (s, t)` |
//! | `OP_STATS` (4) | C→S | empty |
//! | `OP_SHUTDOWN` (5) | C→S | empty |
//! | `OP_INFO` (6) | C→S | empty |
//! | `OP_RELOAD` (7) | C→S | empty |
//! | `OP_ANSWER` (16) | S→C | `count: u32, count × (dist: f64-bits u64, upper: u8)` |
//! | `OP_STREAM` (17) | S→C | `offset: u32`, then an `OP_ANSWER` body |
//! | `OP_STREAM_END` (18) | S→C | `served: u64, batches: u64, elapsed_s: f64` |
//! | `OP_STATS_REPLY` (19) | S→C | the [`WireStats`] scalars |
//! | `OP_INFO_REPLY` (20) | S→C | `n: u64, m: u64, hopset: u64` (always 0), `seed: u64` |
//! | `OP_RELOAD_REPLY` (21) | S→C | `swapped: u8, epoch: u64, records: u64, ops: u64, n: u64, m: u64` |
//! | `OP_ERROR` (31) | S→C | `code: u16, len: u32, len × utf-8 bytes` |
//!
//! `OP_SUBSCRIBE` is the streaming mode: the client ships a whole replay
//! workload once, the server serves it in `chunk`-sized batches and
//! streams one `OP_STREAM` frame per batch back (each tagged with its
//! pair offset), terminated by `OP_STREAM_END` — so a million-query
//! replay needs one request frame, not a million round trips.
//!
//! ## Robustness contract
//!
//! Decoding never panics and never trusts a length it has not bounded:
//! truncation, bad magic, a foreign version, an unknown op, an oversized
//! length prefix, non-canonical booleans, count/length mismatches, and
//! trailing bytes each map to their own [`ProtocolError`] variant
//! (`tests/net_fuzz.rs` drives arbitrary bytes through every decoder).
//! A length prefix may claim at most [`MAX_FRAME_BYTES`]; anything larger
//! is rejected *before* allocation, and the body buffer grows only as
//! bytes actually arrive, so a hostile 4 GiB claim cannot balloon memory.
//!
//! ## Versioning policy
//!
//! Same as snapshots: any layout change bumps [`PROTOCOL_VERSION`]; peers
//! accept exactly the version they were compiled against
//! ([`ProtocolError::UnsupportedVersion`] otherwise). New ops may be
//! added without a bump — old peers report [`ProtocolError::UnknownOp`].

use psh_core::oracle::QueryResult;
use psh_core::service::ServiceStats;
use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of every frame (`b"PSHN"` — "psh net", distinct from
/// the `b"PSHS"` snapshot magic so the two streams can never be confused).
pub const PROTOCOL_MAGIC: [u8; 4] = *b"PSHN";
/// The one protocol version this build speaks (see the module docs for
/// the versioning policy).
pub const PROTOCOL_VERSION: u16 = 1;
/// Fixed frame header size: magic + version + op + body length.
pub const HEADER_BYTES: usize = 12;
/// Largest body a frame may carry (64 MiB ≈ 8M query pairs). A length
/// prefix above this is [`ProtocolError::Oversized`], rejected before
/// any allocation happens.
pub const MAX_FRAME_BYTES: usize = 1 << 26;

// --- client → server ops ---------------------------------------------------
/// One `s`–`t` query.
pub const OP_QUERY: u16 = 1;
/// A batch of queries answered in input order by one reply.
pub const OP_QUERY_BATCH: u16 = 2;
/// Streaming replay: answers come back chunk-by-chunk (`OP_STREAM`).
pub const OP_SUBSCRIBE: u16 = 3;
/// Request the server's [`WireStats`].
pub const OP_STATS: u16 = 4;
/// Ask the server to shut down gracefully (reply: final `OP_STATS_REPLY`).
pub const OP_SHUTDOWN: u16 = 5;
/// Request the served graph's shape (`OP_INFO_REPLY`).
pub const OP_INFO: u16 = 6;
/// Ask the server to poll its journal and hot-swap the oracle if new
/// records arrived (reply: `OP_RELOAD_REPLY`). Servers without a reload
/// source answer [`ERR_NO_RELOAD`].
pub const OP_RELOAD: u16 = 7;

// --- server → client ops ---------------------------------------------------
/// Answers for `OP_QUERY`/`OP_QUERY_BATCH`, in request order.
pub const OP_ANSWER: u16 = 16;
/// One chunk of a subscription replay, tagged with its pair offset.
pub const OP_STREAM: u16 = 17;
/// End of a subscription replay, with the server-side summary.
pub const OP_STREAM_END: u16 = 18;
/// The server's serving statistics.
pub const OP_STATS_REPLY: u16 = 19;
/// The served graph's shape and provenance.
pub const OP_INFO_REPLY: u16 = 20;
/// Outcome of an `OP_RELOAD`: whether a swap happened, the epoch now
/// served, and the shape of the (possibly new) graph.
pub const OP_RELOAD_REPLY: u16 = 21;
/// A typed server-side failure (the connection may stay open; see codes).
pub const OP_ERROR: u16 = 31;

// --- OP_ERROR codes --------------------------------------------------------
/// The request body did not decode (the server closes the connection —
/// framing can no longer be trusted).
pub const ERR_BAD_REQUEST: u16 = 1;
/// A vertex id was ≥ the served graph's `n` (connection stays open).
pub const ERR_OUT_OF_RANGE: u16 = 2;
/// This connection exhausted its per-connection request cap (closed).
pub const ERR_CONN_CAP: u16 = 3;
/// The server exhausted its global request cap (connection closed).
pub const ERR_GLOBAL_CAP: u16 = 4;
/// The server is at its concurrent-connection cap (closed immediately).
pub const ERR_BUSY: u16 = 5;
/// The server is shutting down (connection closed).
pub const ERR_SHUTTING_DOWN: u16 = 6;
/// `OP_RELOAD` sent to a server with no reload source configured (no
/// `--watch-journal`, no programmatic hook; connection stays open).
pub const ERR_NO_RELOAD: u16 = 7;
/// The reload hook failed — e.g. a corrupt journal record or a rebuild
/// error. The previous oracle keeps serving; the connection stays open.
pub const ERR_RELOAD_FAILED: u16 = 8;

const KNOWN_OPS: [u16; 14] = [
    OP_QUERY,
    OP_QUERY_BATCH,
    OP_SUBSCRIBE,
    OP_STATS,
    OP_SHUTDOWN,
    OP_INFO,
    OP_RELOAD,
    OP_ANSWER,
    OP_STREAM,
    OP_STREAM_END,
    OP_STATS_REPLY,
    OP_INFO_REPLY,
    OP_RELOAD_REPLY,
    OP_ERROR,
];

/// Human name of an op code (error messages and stats dumps).
pub fn op_name(op: u16) -> &'static str {
    match op {
        OP_QUERY => "query",
        OP_QUERY_BATCH => "query-batch",
        OP_SUBSCRIBE => "subscribe",
        OP_STATS => "stats",
        OP_SHUTDOWN => "shutdown",
        OP_INFO => "info",
        OP_RELOAD => "reload",
        OP_ANSWER => "answer",
        OP_STREAM => "stream",
        OP_STREAM_END => "stream-end",
        OP_STATS_REPLY => "stats-reply",
        OP_INFO_REPLY => "info-reply",
        OP_RELOAD_REPLY => "reload-reply",
        OP_ERROR => "error",
        _ => "unknown",
    }
}

/// Why a frame or body could not be written, read, or decoded. Every
/// malformed input maps to a descriptive variant; decoders never panic
/// on untrusted bytes (the fuzz suite drives arbitrary input through
/// them to enforce this).
#[derive(Debug)]
pub enum ProtocolError {
    /// An underlying socket/stream failure (includes read/write timeouts;
    /// see [`ProtocolError::is_timeout`]).
    Io(io::Error),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The first four bytes were not [`PROTOCOL_MAGIC`].
    BadMagic { found: [u8; 4] },
    /// The peer speaks a different protocol version.
    UnsupportedVersion { found: u16, supported: u16 },
    /// An op code outside the table (see the module docs).
    UnknownOp { found: u16 },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`]; rejected before
    /// allocating anything.
    Oversized { len: u64, max: usize },
    /// The stream ended in the middle of `what`.
    Truncated { what: &'static str },
    /// A structurally invalid body (count/length mismatch, non-canonical
    /// boolean, trailing bytes, zero chunk, …).
    Corrupt { what: &'static str, detail: String },
    /// The server answered with a typed `OP_ERROR` frame.
    Remote { code: u16, message: String },
    /// The peer sent a validly-framed op that makes no sense in the
    /// current exchange (e.g. a stream chunk when an answer was due).
    Unexpected { expected: &'static str, found: u16 },
}

impl ProtocolError {
    /// True when this is a socket read/write timeout (the deadline set by
    /// `set_read_timeout`/`set_write_timeout` elapsed).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ProtocolError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "psh-net i/o error: {e}"),
            ProtocolError::Closed => write!(f, "connection closed by peer"),
            ProtocolError::BadMagic { found } => {
                write!(f, "not a psh-net frame (magic {found:?})")
            }
            ProtocolError::UnsupportedVersion { found, supported } => write!(
                f,
                "protocol version {found} unsupported (this build speaks version {supported})"
            ),
            ProtocolError::UnknownOp { found } => write!(f, "unknown op code {found}"),
            ProtocolError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            ProtocolError::Truncated { what } => {
                write!(f, "frame truncated while reading {what}")
            }
            ProtocolError::Corrupt { what, detail } => {
                write!(f, "corrupt frame ({what}): {detail}")
            }
            ProtocolError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            ProtocolError::Unexpected { expected, found } => write!(
                f,
                "unexpected {} frame (op {found}) while waiting for {expected}",
                op_name(*found)
            ),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// One validated frame: its op code and raw body bytes. Produced by
/// [`read_frame`], consumed by [`Request::decode`]/[`Response::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// The op code (guaranteed to be in the op table).
    pub op: u16,
    /// The raw body (guaranteed ≤ [`MAX_FRAME_BYTES`]).
    pub body: Vec<u8>,
}

/// Write one frame: header + body. Fails with
/// [`ProtocolError::Oversized`] if the body exceeds the frame cap
/// (nothing is written in that case).
pub fn write_frame<W: Write>(out: &mut W, op: u16, body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() > MAX_FRAME_BYTES {
        return Err(ProtocolError::Oversized {
            len: body.len() as u64,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut header = [0u8; HEADER_BYTES];
    header[0..4].copy_from_slice(&PROTOCOL_MAGIC);
    header[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header[6..8].copy_from_slice(&op.to_le_bytes());
    header[8..12].copy_from_slice(&(body.len() as u32).to_le_bytes());
    out.write_all(&header)?;
    out.write_all(body)?;
    out.flush()?;
    Ok(())
}

/// Read and validate one frame. Clean EOF *before any header byte* is
/// [`ProtocolError::Closed`] (the peer hung up between frames); EOF
/// anywhere later is [`ProtocolError::Truncated`]. The body buffer grows
/// only as bytes arrive, so a truncated stream allocates at most what it
/// actually delivered.
pub fn read_frame<R: Read>(inp: &mut R) -> Result<Frame, ProtocolError> {
    let mut header = [0u8; HEADER_BYTES];
    let mut filled = 0usize;
    while filled < HEADER_BYTES {
        match inp.read(&mut header[filled..]) {
            Ok(0) => {
                return Err(if filled == 0 {
                    ProtocolError::Closed
                } else {
                    ProtocolError::Truncated {
                        what: "frame header",
                    }
                })
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    if header[0..4] != PROTOCOL_MAGIC {
        return Err(ProtocolError::BadMagic {
            found: header[0..4].try_into().expect("4-byte slice"),
        });
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion {
            found: version,
            supported: PROTOCOL_VERSION,
        });
    }
    let op = u16::from_le_bytes(header[6..8].try_into().expect("2-byte slice"));
    if !KNOWN_OPS.contains(&op) {
        return Err(ProtocolError::UnknownOp { found: op });
    }
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice")) as u64;
    if len > MAX_FRAME_BYTES as u64 {
        return Err(ProtocolError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    // read_to_end grows the buffer adaptively as data arrives — a length
    // claim larger than the actual stream cannot force the full
    // allocation up front.
    let mut body = Vec::new();
    inp.take(len).read_to_end(&mut body)?;
    if (body.len() as u64) < len {
        return Err(ProtocolError::Truncated { what: "frame body" });
    }
    Ok(Frame { op, body })
}

// ---------------------------------------------------------------------------
// Body primitives
// ---------------------------------------------------------------------------

/// Builds a frame body (little-endian, matching the snapshot encoding).
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    /// An empty body.
    pub fn new() -> BodyWriter {
        BodyWriter::default()
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append a count-prefixed pair list.
    pub fn pairs(&mut self, pairs: &[(u32, u32)]) -> &mut Self {
        self.u32(pairs.len() as u32);
        for &(s, t) in pairs {
            self.u32(s).u32(t);
        }
        self
    }

    /// Append a count-prefixed answer list (distance bits + bound flag).
    pub fn answers(&mut self, answers: &[QueryResult]) -> &mut Self {
        self.u32(answers.len() as u32);
        for a in answers {
            self.f64(a.distance).u8(u8::from(a.upper_bound));
        }
        self
    }

    /// Take the finished body (the writer is left empty, so chained
    /// builder expressions can end in `.finish()`).
    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

/// Reads a frame body; every primitive reports a typed
/// [`ProtocolError::Truncated`]/[`ProtocolError::Corrupt`] instead of
/// panicking, and [`BodyReader::finish`] rejects trailing bytes.
#[derive(Debug)]
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// Wrap a frame body.
    pub fn new(buf: &'a [u8]) -> BodyReader<'a> {
        BodyReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn chunk(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < len {
            return Err(ProtocolError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.chunk(1, what)?[0])
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(
            self.chunk(2, what)?.try_into().expect("2-byte chunk"),
        ))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.chunk(4, what)?.try_into().expect("4-byte chunk"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.chunk(8, what)?.try_into().expect("8-byte chunk"),
        ))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a canonical boolean byte (`0`/`1`; anything else is corrupt —
    /// a lenient read here would break the byte-identity contract).
    pub fn bool(&mut self, what: &'static str) -> Result<bool, ProtocolError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::Corrupt {
                what,
                detail: format!("boolean byte {other} (want 0 or 1)"),
            }),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(what)? as usize;
        let bytes = self.chunk(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::Corrupt {
            what,
            detail: "string is not valid utf-8".into(),
        })
    }

    /// Read a count-prefixed pair list. The count is validated against
    /// the bytes actually present before any allocation.
    pub fn pairs(&mut self, what: &'static str) -> Result<Vec<(u32, u32)>, ProtocolError> {
        let count = self.u32(what)? as usize;
        let need = count.checked_mul(8).ok_or(ProtocolError::Corrupt {
            what,
            detail: "pair count overflows".into(),
        })?;
        if self.remaining() < need {
            return Err(ProtocolError::Corrupt {
                what,
                detail: format!(
                    "count {count} needs {need} bytes, {} present",
                    self.remaining()
                ),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let s = self.u32(what)?;
            let t = self.u32(what)?;
            out.push((s, t));
        }
        Ok(out)
    }

    /// Read a count-prefixed answer list.
    pub fn answers(&mut self, what: &'static str) -> Result<Vec<QueryResult>, ProtocolError> {
        let count = self.u32(what)? as usize;
        let need = count.checked_mul(9).ok_or(ProtocolError::Corrupt {
            what,
            detail: "answer count overflows".into(),
        })?;
        if self.remaining() < need {
            return Err(ProtocolError::Corrupt {
                what,
                detail: format!(
                    "count {count} needs {need} bytes, {} present",
                    self.remaining()
                ),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let distance = self.f64(what)?;
            let upper_bound = self.bool(what)?;
            out.push(QueryResult {
                distance,
                upper_bound,
            });
        }
        Ok(out)
    }

    /// Assert the body is fully consumed; trailing bytes mean the peer
    /// encoded a different layout and nothing it sent can be trusted.
    pub fn finish(self, what: &'static str) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::Corrupt {
                what,
                detail: format!("{} trailing bytes after the body", self.remaining()),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Typed messages
// ---------------------------------------------------------------------------

/// A client-to-server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// One `s`–`t` query.
    Query { s: u32, t: u32 },
    /// A batch answered in input order by one [`Response::Answer`].
    QueryBatch(Vec<(u32, u32)>),
    /// Streaming replay: the server serves `pairs` in `chunk`-sized
    /// batches, streaming each back as a [`Response::Stream`].
    Subscribe { chunk: u32, pairs: Vec<(u32, u32)> },
    /// Request the server's [`WireStats`].
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Request the served graph's shape.
    Info,
    /// Ask the server to poll its journal and hot-swap if it grew.
    Reload,
}

impl Request {
    /// Encode into a frame (op + body).
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut w = BodyWriter::new();
        match self {
            Request::Query { s, t } => {
                w.u32(*s).u32(*t);
                (OP_QUERY, w.finish())
            }
            Request::QueryBatch(pairs) => {
                w.pairs(pairs);
                (OP_QUERY_BATCH, w.finish())
            }
            Request::Subscribe { chunk, pairs } => {
                w.u32(*chunk).pairs(pairs);
                (OP_SUBSCRIBE, w.finish())
            }
            Request::Stats => (OP_STATS, w.finish()),
            Request::Shutdown => (OP_SHUTDOWN, w.finish()),
            Request::Info => (OP_INFO, w.finish()),
            Request::Reload => (OP_RELOAD, w.finish()),
        }
    }

    /// Decode a frame the server read. Server-to-client ops are
    /// [`ProtocolError::Unexpected`].
    pub fn decode(frame: &Frame) -> Result<Request, ProtocolError> {
        let mut r = BodyReader::new(&frame.body);
        let req = match frame.op {
            OP_QUERY => Request::Query {
                s: r.u32("query source")?,
                t: r.u32("query target")?,
            },
            OP_QUERY_BATCH => Request::QueryBatch(r.pairs("batch pairs")?),
            OP_SUBSCRIBE => {
                let chunk = r.u32("subscribe chunk")?;
                if chunk == 0 {
                    return Err(ProtocolError::Corrupt {
                        what: "subscribe chunk",
                        detail: "chunk size must be at least 1".into(),
                    });
                }
                Request::Subscribe {
                    chunk,
                    pairs: r.pairs("subscribe pairs")?,
                }
            }
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            OP_INFO => Request::Info,
            OP_RELOAD => Request::Reload,
            other => {
                return Err(ProtocolError::Unexpected {
                    expected: "a request op",
                    found: other,
                })
            }
        };
        r.finish("request body")?;
        Ok(req)
    }
}

/// The server-side summary closing a subscription replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplaySummary {
    /// Queries answered in this replay.
    pub served: u64,
    /// `query_batch` chunks the replay was served in.
    pub batches: u64,
    /// Server-side wall clock for the whole replay, seconds.
    pub elapsed_s: f64,
}

/// The scalar half of [`ServiceStats`], as carried by `OP_STATS_REPLY`
/// (the raw latency log stays server-side — it is unbounded).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireStats {
    /// Requests answered.
    pub served: u64,
    /// Coalesced `query_batch` calls issued.
    pub batches: u64,
    /// Largest coalesced batch observed.
    pub largest_batch: u64,
    /// First-admission → last-publication span, seconds.
    pub elapsed_s: f64,
    /// Requests per second over `elapsed_s`.
    pub qps: f64,
    /// Median request latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile request latency, milliseconds.
    pub p999_ms: f64,
    /// Total work spent answering (PRAM cost model).
    pub work: u64,
    /// Total depth spent answering (composed batch-after-batch).
    pub depth: u64,
}

impl From<&ServiceStats> for WireStats {
    fn from(s: &ServiceStats) -> WireStats {
        WireStats {
            served: s.served,
            batches: s.batches,
            largest_batch: s.largest_batch as u64,
            elapsed_s: s.elapsed_s,
            qps: s.qps,
            p50_ms: s.p50_ms,
            p99_ms: s.p99_ms,
            p999_ms: s.p999_ms,
            work: s.total_cost.work,
            depth: s.total_cost.depth,
        }
    }
}

/// The served graph's shape and provenance, as carried by `OP_INFO_REPLY`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Vertex count of the served graph (query ids must be `< n`).
    pub n: u64,
    /// Edge count of the served graph.
    pub m: u64,
    /// Always 0. It counted the served hopset's shortcut edges; the
    /// oracle now serves exact searches over its graph and holds no
    /// hopset, and the field keeps its wire slot so the protocol does not
    /// change.
    pub hopset: u64,
    /// The seed the oracle was built from.
    pub seed: u64,
}

/// Outcome of an `OP_RELOAD`, as carried by `OP_RELOAD_REPLY`. When the
/// journal had nothing new, `swapped` is false, `records`/`ops` are zero,
/// and the rest describes the epoch still being served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReloadSummary {
    /// True when a new oracle was swapped in by this reload.
    pub swapped: bool,
    /// The service epoch now serving answers.
    pub epoch: u64,
    /// Journal records applied by this reload (0 when nothing was new).
    pub records: u64,
    /// Total delta ops across those records.
    pub ops: u64,
    /// Vertex count of the graph now served.
    pub n: u64,
    /// Edge count of the graph now served.
    pub m: u64,
}

/// A server-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answers for a query/batch, in request order.
    Answer(Vec<QueryResult>),
    /// One chunk of a subscription replay; `offset` is the index of the
    /// first answer within the subscribed pair list.
    Stream {
        /// Index of `answers[0]` within the subscribed pairs.
        offset: u32,
        /// The chunk's answers, in pair order.
        answers: Vec<QueryResult>,
    },
    /// End of a subscription replay.
    StreamEnd(ReplaySummary),
    /// The server's serving statistics.
    Stats(WireStats),
    /// The served graph's shape.
    Info(ServerInfo),
    /// Outcome of a reload request.
    Reloaded(ReloadSummary),
    /// A typed failure (see the `ERR_*` codes).
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encode into a frame (op + body).
    pub fn encode(&self) -> (u16, Vec<u8>) {
        let mut w = BodyWriter::new();
        match self {
            Response::Answer(answers) => {
                w.answers(answers);
                (OP_ANSWER, w.finish())
            }
            Response::Stream { offset, answers } => {
                w.u32(*offset).answers(answers);
                (OP_STREAM, w.finish())
            }
            Response::StreamEnd(s) => {
                w.u64(s.served).u64(s.batches).f64(s.elapsed_s);
                (OP_STREAM_END, w.finish())
            }
            Response::Stats(s) => {
                w.u64(s.served)
                    .u64(s.batches)
                    .u64(s.largest_batch)
                    .f64(s.elapsed_s)
                    .f64(s.qps)
                    .f64(s.p50_ms)
                    .f64(s.p99_ms)
                    .f64(s.p999_ms)
                    .u64(s.work)
                    .u64(s.depth);
                (OP_STATS_REPLY, w.finish())
            }
            Response::Info(i) => {
                w.u64(i.n).u64(i.m).u64(i.hopset).u64(i.seed);
                (OP_INFO_REPLY, w.finish())
            }
            Response::Reloaded(r) => {
                w.u8(u8::from(r.swapped))
                    .u64(r.epoch)
                    .u64(r.records)
                    .u64(r.ops)
                    .u64(r.n)
                    .u64(r.m);
                (OP_RELOAD_REPLY, w.finish())
            }
            Response::Error { code, message } => {
                w.u16(*code).string(message);
                (OP_ERROR, w.finish())
            }
        }
    }

    /// Decode a frame the client read. Client-to-server ops are
    /// [`ProtocolError::Unexpected`].
    pub fn decode(frame: &Frame) -> Result<Response, ProtocolError> {
        let mut r = BodyReader::new(&frame.body);
        let resp = match frame.op {
            OP_ANSWER => Response::Answer(r.answers("answer list")?),
            OP_STREAM => Response::Stream {
                offset: r.u32("stream offset")?,
                answers: r.answers("stream answers")?,
            },
            OP_STREAM_END => Response::StreamEnd(ReplaySummary {
                served: r.u64("replay served")?,
                batches: r.u64("replay batches")?,
                elapsed_s: r.f64("replay elapsed")?,
            }),
            OP_STATS_REPLY => Response::Stats(WireStats {
                served: r.u64("stats served")?,
                batches: r.u64("stats batches")?,
                largest_batch: r.u64("stats largest batch")?,
                elapsed_s: r.f64("stats elapsed")?,
                qps: r.f64("stats qps")?,
                p50_ms: r.f64("stats p50")?,
                p99_ms: r.f64("stats p99")?,
                p999_ms: r.f64("stats p999")?,
                work: r.u64("stats work")?,
                depth: r.u64("stats depth")?,
            }),
            OP_INFO_REPLY => Response::Info(ServerInfo {
                n: r.u64("info n")?,
                m: r.u64("info m")?,
                hopset: r.u64("info hopset")?,
                seed: r.u64("info seed")?,
            }),
            OP_RELOAD_REPLY => Response::Reloaded(ReloadSummary {
                swapped: r.bool("reload swapped")?,
                epoch: r.u64("reload epoch")?,
                records: r.u64("reload records")?,
                ops: r.u64("reload ops")?,
                n: r.u64("reload n")?,
                m: r.u64("reload m")?,
            }),
            OP_ERROR => Response::Error {
                code: r.u16("error code")?,
                message: r.string("error message")?,
            },
            other => {
                return Err(ProtocolError::Unexpected {
                    expected: "a response op",
                    found: other,
                })
            }
        };
        r.finish("response body")?;
        Ok(resp)
    }
}

/// Write a [`Request`] as one frame.
pub fn write_request<W: Write>(out: &mut W, req: &Request) -> Result<(), ProtocolError> {
    let (op, body) = req.encode();
    write_frame(out, op, &body)
}

/// Write a [`Response`] as one frame.
pub fn write_response<W: Write>(out: &mut W, resp: &Response) -> Result<(), ProtocolError> {
    let (op, body) = resp.encode();
    write_frame(out, op, &body)
}

/// Read one frame and decode it as a [`Request`] (server side).
pub fn read_request<R: Read>(inp: &mut R) -> Result<Request, ProtocolError> {
    Request::decode(&read_frame(inp)?)
}

/// Read one frame and decode it as a [`Response`] (client side).
pub fn read_response<R: Read>(inp: &mut R) -> Result<Response, ProtocolError> {
    Response::decode(&read_frame(inp)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(op: u16, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, op, body).unwrap();
        buf
    }

    fn sample_answers() -> Vec<QueryResult> {
        vec![
            QueryResult {
                distance: 0.0,
                upper_bound: false,
            },
            QueryResult {
                distance: 12.75,
                upper_bound: true,
            },
            QueryResult {
                distance: f64::INFINITY,
                upper_bound: false,
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        let requests = [
            Request::Query { s: 3, t: 99 },
            Request::QueryBatch(vec![(0, 1), (2, 3), (4, 4)]),
            Request::QueryBatch(Vec::new()),
            Request::Subscribe {
                chunk: 64,
                pairs: vec![(7, 8), (9, 10)],
            },
            Request::Stats,
            Request::Shutdown,
            Request::Info,
            Request::Reload,
        ];
        for req in requests {
            let mut buf = Vec::new();
            write_request(&mut buf, &req).unwrap();
            let back = read_request(&mut buf.as_slice()).unwrap();
            assert_eq!(req, back);
        }
    }

    #[test]
    fn every_response_round_trips() {
        let responses = [
            Response::Answer(sample_answers()),
            Response::Answer(Vec::new()),
            Response::Stream {
                offset: 128,
                answers: sample_answers(),
            },
            Response::StreamEnd(ReplaySummary {
                served: 1000,
                batches: 4,
                elapsed_s: 0.125,
            }),
            Response::Stats(WireStats {
                served: 10,
                batches: 3,
                largest_batch: 5,
                elapsed_s: 1.5,
                qps: 6.67,
                p50_ms: 0.1,
                p99_ms: 0.9,
                p999_ms: 1.1,
                work: 1234,
                depth: 56,
            }),
            Response::Info(ServerInfo {
                n: 100,
                m: 180,
                hopset: 40,
                seed: 20150625,
            }),
            Response::Reloaded(ReloadSummary {
                swapped: true,
                epoch: 3,
                records: 2,
                ops: 17,
                n: 100,
                m: 181,
            }),
            Response::Reloaded(ReloadSummary {
                swapped: false,
                epoch: 3,
                records: 0,
                ops: 0,
                n: 100,
                m: 181,
            }),
            Response::Error {
                code: ERR_OUT_OF_RANGE,
                message: "vertex 107 out of range (n = 100)".into(),
            },
        ];
        for resp in responses {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).unwrap();
            let back = read_response(&mut buf.as_slice()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn infinity_survives_the_wire_bit_for_bit() {
        let answers = vec![QueryResult {
            distance: f64::INFINITY,
            upper_bound: false,
        }];
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Answer(answers.clone())).unwrap();
        match read_response(&mut buf.as_slice()).unwrap() {
            Response::Answer(back) => {
                assert_eq!(back[0].distance.to_bits(), answers[0].distance.to_bits());
            }
            other => panic!("expected answers, got {other:?}"),
        }
    }

    #[test]
    fn truncation_at_every_prefix_is_typed() {
        let buf = frame_bytes(
            OP_QUERY_BATCH,
            &BodyWriter::new().pairs(&[(0, 1), (2, 3)]).finish(),
        );
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(ProtocolError::Closed) => assert_eq!(cut, 0, "Closed only at offset 0"),
                Err(ProtocolError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: got {other:?}"),
            }
        }
        assert!(read_frame(&mut buf.as_slice()).is_ok());
    }

    #[test]
    fn header_validation_is_ordered_and_typed() {
        let good = frame_bytes(OP_STATS, &[]);
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(ProtocolError::BadMagic { .. })
        ));
        let mut bad_version = good.clone();
        bad_version[4] = 9;
        assert!(matches!(
            read_frame(&mut bad_version.as_slice()),
            Err(ProtocolError::UnsupportedVersion { found: 9, .. })
        ));
        let mut bad_op = good.clone();
        bad_op[6] = 0xEE;
        assert!(matches!(
            read_frame(&mut bad_op.as_slice()),
            Err(ProtocolError::UnknownOp { .. })
        ));
        let mut oversized = good.clone();
        oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversized.as_slice()),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_on_write_too() {
        let body = vec![0u8; MAX_FRAME_BYTES + 1];
        let mut out = Vec::new();
        assert!(matches!(
            write_frame(&mut out, OP_QUERY, &body),
            Err(ProtocolError::Oversized { .. })
        ));
        assert!(out.is_empty(), "nothing written before the rejection");
    }

    #[test]
    fn corrupt_bodies_are_descriptive_errors() {
        // trailing bytes after a valid query body
        let mut body = BodyWriter::new();
        body.u32(1).u32(2).u8(0xFF);
        let frame = Frame {
            op: OP_QUERY,
            body: body.finish(),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
        // pair count promising more than the body holds
        let mut body = BodyWriter::new();
        body.u32(1_000_000);
        let frame = Frame {
            op: OP_QUERY_BATCH,
            body: body.finish(),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
        // zero subscribe chunk
        let mut body = BodyWriter::new();
        body.u32(0).pairs(&[(0, 1)]);
        let frame = Frame {
            op: OP_SUBSCRIBE,
            body: body.finish(),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
        // non-canonical boolean in an answer
        let mut body = BodyWriter::new();
        body.u32(1).f64(1.0).u8(2);
        let frame = Frame {
            op: OP_ANSWER,
            body: body.finish(),
        };
        assert!(matches!(
            Response::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
        // non-canonical swap flag in a reload reply
        let mut body = BodyWriter::new();
        body.u8(7).u64(1).u64(1).u64(1).u64(10).u64(9);
        let frame = Frame {
            op: OP_RELOAD_REPLY,
            body: body.finish(),
        };
        assert!(matches!(
            Response::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
        // error message that is not utf-8
        let mut body = BodyWriter::new();
        body.u16(ERR_BUSY).u32(2).u8(0xFF).u8(0xFE);
        let frame = Frame {
            op: OP_ERROR,
            body: body.finish(),
        };
        assert!(matches!(
            Response::decode(&frame),
            Err(ProtocolError::Corrupt { .. })
        ));
    }

    #[test]
    fn direction_mixups_are_unexpected() {
        let frame = Frame {
            op: OP_ANSWER,
            body: BodyWriter::new().answers(&[]).finish(),
        };
        assert!(matches!(
            Request::decode(&frame),
            Err(ProtocolError::Unexpected { .. })
        ));
        let frame = Frame {
            op: OP_QUERY,
            body: BodyWriter::new().u32(0).u32(1).finish(),
        };
        assert!(matches!(
            Response::decode(&frame),
            Err(ProtocolError::Unexpected { .. })
        ));
    }

    #[test]
    fn error_display_is_descriptive() {
        let cases: Vec<(ProtocolError, &str)> = vec![
            (
                ProtocolError::BadMagic { found: *b"PSHS" },
                "not a psh-net frame",
            ),
            (
                ProtocolError::UnsupportedVersion {
                    found: 2,
                    supported: 1,
                },
                "version 2 unsupported",
            ),
            (ProtocolError::UnknownOp { found: 77 }, "unknown op code 77"),
            (
                ProtocolError::Oversized {
                    len: 1 << 30,
                    max: MAX_FRAME_BYTES,
                },
                "exceeds",
            ),
            (
                ProtocolError::Truncated {
                    what: "frame header",
                },
                "truncated",
            ),
            (
                ProtocolError::Remote {
                    code: ERR_BUSY,
                    message: "at capacity".into(),
                },
                "server error 5",
            ),
            (ProtocolError::Closed, "closed by peer"),
        ];
        for (err, needle) in cases {
            let text = err.to_string();
            assert!(text.contains(needle), "{text:?} should contain {needle:?}");
        }
    }

    #[test]
    fn timeout_detection_matches_socket_errors() {
        for kind in [io::ErrorKind::WouldBlock, io::ErrorKind::TimedOut] {
            assert!(ProtocolError::Io(io::Error::new(kind, "t")).is_timeout());
        }
        assert!(!ProtocolError::Closed.is_timeout());
        assert!(!ProtocolError::Io(io::Error::new(io::ErrorKind::BrokenPipe, "x")).is_timeout());
    }

    #[test]
    fn snapshot_magic_is_rejected_not_confused() {
        // a graph snapshot header fed to the frame reader: magic differs
        // at byte 3 ('S' vs 'N'), so the very first check catches it
        let mut buf = Vec::new();
        buf.extend_from_slice(b"PSHS");
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::BadMagic { found }) if found == *b"PSHS"
        ));
    }
}
