//! The blocking client library: connect once, query forever.
//!
//! [`NetClient`] speaks the frame protocol over one TCP connection. All
//! calls are synchronous request/response — the concurrency story lives
//! server-side, where the shared
//! [`OracleService`](psh_core::service::OracleService) admission queue
//! serves requests arriving from *different* client sockets side by
//! side, up to its policy's thread count, and coalesces the rest into
//! shared batches (open several `NetClient`s from several threads to
//! exploit it; one client is strictly serial).
//!
//! Answers are byte-identical to in-process
//! [`ApproxShortestPaths::query`] — distances travel as IEEE-754 bit
//! patterns, never as text — which the loopback equivalence suite pins
//! for every [`ExecutionPolicy`](psh_exec::ExecutionPolicy).
//!
//! ```no_run
//! use psh_net::client::NetClient;
//!
//! let mut client = NetClient::connect("127.0.0.1:7471")?;
//! let answer = client.query(0, 99)?;
//! println!("d(0, 99) ≈ {}", answer.distance);
//! # Ok::<(), psh_net::protocol::ProtocolError>(())
//! ```
//!
//! [`ApproxShortestPaths::query`]: psh_core::oracle::ApproxShortestPaths::query

use crate::protocol::{
    read_response, write_request, ProtocolError, ReloadSummary, ReplaySummary, Request, Response,
    ServerInfo, WireStats,
};
use crate::server::env_addr;
use psh_core::oracle::QueryResult;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking connection to a `psh-net` server.
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl NetClient {
    /// Connect to `addr` (e.g. `"127.0.0.1:7471"`).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<NetClient, ProtocolError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(NetClient {
            reader,
            writer: BufWriter::new(stream),
        })
    }

    /// Connect to the environment-configured endpoint (`$PSH_ADDR`, or
    /// [`DEFAULT_ADDR`](crate::server::DEFAULT_ADDR)).
    pub fn connect_env() -> Result<NetClient, ProtocolError> {
        NetClient::connect(env_addr())
    }

    /// Bound the time any single read/write may block (`None` = forever).
    /// An elapsed deadline surfaces as a [`ProtocolError`] whose
    /// [`is_timeout`](ProtocolError::is_timeout) is true; the connection
    /// should be dropped afterwards (a frame may be half-read).
    pub fn set_timeouts(
        &mut self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<(), ProtocolError> {
        self.reader.get_ref().set_read_timeout(read)?;
        self.writer.get_ref().set_write_timeout(write)?;
        Ok(())
    }

    fn exchange(&mut self, req: &Request) -> Result<Response, ProtocolError> {
        write_request(&mut self.writer, req)?;
        let resp = read_response(&mut self.reader)?;
        if let Response::Error { code, message } = resp {
            return Err(ProtocolError::Remote { code, message });
        }
        Ok(resp)
    }

    /// Answer one `s`–`t` query over the wire.
    pub fn query(&mut self, s: u32, t: u32) -> Result<QueryResult, ProtocolError> {
        match self.exchange(&Request::Query { s, t })? {
            Response::Answer(mut answers) if answers.len() == 1 => Ok(answers.remove(0)),
            Response::Answer(answers) => Err(ProtocolError::Corrupt {
                what: "answer list",
                detail: format!("one query, {} answers", answers.len()),
            }),
            other => Err(unexpected("an answer", &other)),
        }
    }

    /// Answer a batch of queries; answers come back in input order.
    pub fn query_batch(&mut self, pairs: &[(u32, u32)]) -> Result<Vec<QueryResult>, ProtocolError> {
        match self.exchange(&Request::QueryBatch(pairs.to_vec()))? {
            Response::Answer(answers) if answers.len() == pairs.len() => Ok(answers),
            Response::Answer(answers) => Err(ProtocolError::Corrupt {
                what: "answer list",
                detail: format!("{} pairs, {} answers", pairs.len(), answers.len()),
            }),
            other => Err(unexpected("an answer", &other)),
        }
    }

    /// Streaming replay: ship `pairs` once, receive answers chunk by
    /// chunk (`on_chunk(offset, answers)` per server-side batch of
    /// `chunk` pairs), and return the server-side summary. The chunks
    /// partition `pairs` in order, so collecting them reconstructs the
    /// full answer list.
    pub fn subscribe(
        &mut self,
        pairs: &[(u32, u32)],
        chunk: u32,
        mut on_chunk: impl FnMut(u32, &[QueryResult]),
    ) -> Result<ReplaySummary, ProtocolError> {
        write_request(
            &mut self.writer,
            &Request::Subscribe {
                chunk,
                pairs: pairs.to_vec(),
            },
        )?;
        let mut received = 0usize;
        loop {
            match read_response(&mut self.reader)? {
                Response::Stream { offset, answers } => {
                    if offset as usize != received {
                        return Err(ProtocolError::Corrupt {
                            what: "stream offset",
                            detail: format!("chunk at {offset}, expected {received}"),
                        });
                    }
                    received += answers.len();
                    on_chunk(offset, &answers);
                }
                Response::StreamEnd(summary) => {
                    if received != pairs.len() {
                        return Err(ProtocolError::Corrupt {
                            what: "stream end",
                            detail: format!(
                                "{received} answers streamed for {} pairs",
                                pairs.len()
                            ),
                        });
                    }
                    return Ok(summary);
                }
                Response::Error { code, message } => {
                    return Err(ProtocolError::Remote { code, message })
                }
                other => return Err(unexpected("a stream chunk", &other)),
            }
        }
    }

    /// Convenience wrapper over [`NetClient::subscribe`] that collects
    /// every streamed answer into one vector (pair order).
    pub fn replay(
        &mut self,
        pairs: &[(u32, u32)],
        chunk: u32,
    ) -> Result<(Vec<QueryResult>, ReplaySummary), ProtocolError> {
        let mut answers = Vec::with_capacity(pairs.len());
        let summary = self.subscribe(pairs, chunk, |_, part| answers.extend_from_slice(part))?;
        Ok((answers, summary))
    }

    /// The server's current serving statistics.
    pub fn server_stats(&mut self) -> Result<WireStats, ProtocolError> {
        match self.exchange(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("a stats reply", &other)),
        }
    }

    /// The served graph's shape (`n` bounds valid query ids).
    pub fn server_info(&mut self) -> Result<ServerInfo, ProtocolError> {
        match self.exchange(&Request::Info)? {
            Response::Info(info) => Ok(info),
            other => Err(unexpected("an info reply", &other)),
        }
    }

    /// Ask the server to poll its journal and hot-swap the oracle if new
    /// records arrived. Blocks until the reload completes (a swap
    /// includes a full oracle rebuild server-side — allow for it in
    /// [`set_timeouts`](NetClient::set_timeouts)). Servers without a
    /// reload source answer
    /// [`ERR_NO_RELOAD`](crate::protocol::ERR_NO_RELOAD), surfaced as
    /// [`ProtocolError::Remote`].
    pub fn reload(&mut self) -> Result<ReloadSummary, ProtocolError> {
        match self.exchange(&Request::Reload)? {
            Response::Reloaded(summary) => Ok(summary),
            other => Err(unexpected("a reload reply", &other)),
        }
    }

    /// Ask the server to shut down gracefully; returns its final
    /// statistics. The connection is unusable afterwards.
    pub fn shutdown_server(&mut self) -> Result<WireStats, ProtocolError> {
        match self.exchange(&Request::Shutdown)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("the final stats reply", &other)),
        }
    }
}

fn unexpected(expected: &'static str, resp: &Response) -> ProtocolError {
    let (op, _) = resp.encode();
    ProtocolError::Unexpected {
        expected,
        found: op,
    }
}
