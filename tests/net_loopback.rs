//! The wire tier's correctness contract, pinned over real loopback TCP:
//! every answer a [`NetClient`] receives — single query, batch, or
//! streamed subscription, from any number of concurrent sockets — must
//! be **byte-identical** to the single-threaded in-process reference on
//! the same oracle, for every [`ExecutionPolicy`] (including the
//! env-selected one, so the CI `PSH_THREADS={1,4}` matrix exercises
//! both). Plus the failure half of the contract: out-of-range ids,
//! request caps, busy servers, silent peers, and shutdown all surface
//! as typed [`ProtocolError`]s, never panics or garbled frames.

use psh::core::service::{OracleService, ServiceConfig};
use psh::net::protocol::{ERR_BUSY, ERR_CONN_CAP, ERR_GLOBAL_CAP, ERR_OUT_OF_RANGE};
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn test_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

fn build_oracle(weighted: bool, seed: u64) -> ApproxShortestPaths {
    let base = generators::grid(12, 12);
    let g = if weighted {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::with_uniform_weights(&base, 1, 20, &mut rng)
    } else {
        base
    };
    OracleBuilder::new()
        .params(test_params())
        .seed(Seed(seed))
        .build(&g)
        .expect("test oracle build")
        .artifact
}

/// Far pairs, neighbors, self-pairs, repeats — everything a real
/// workload interleaves.
fn workload(n: usize, q: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..q)
        .map(|i| {
            if i % 9 == 0 {
                let v = rng.random_range(0..n as u32);
                (v, v)
            } else {
                (rng.random_range(0..n as u32), rng.random_range(0..n as u32))
            }
        })
        .collect()
}

fn bind(oracle: ApproxShortestPaths, policy: ExecutionPolicy, config: ServerConfig) -> NetServer {
    let service = Arc::new(OracleService::new(
        oracle,
        ServiceConfig::with_policy(policy),
    ));
    NetServer::bind("127.0.0.1:0", service, config).expect("bind loopback")
}

fn assert_bitwise(wire: &[QueryResult], reference: &[QueryResult], what: &str) {
    assert_eq!(wire.len(), reference.len(), "{what}: answer count");
    for (i, (w, r)) in wire.iter().zip(reference).enumerate() {
        assert_eq!(
            w.distance.to_bits(),
            r.distance.to_bits(),
            "{what}: distance bits diverge at {i} ({} vs {})",
            w.distance,
            r.distance
        );
        assert_eq!(w.upper_bound, r.upper_bound, "{what}: flag diverges at {i}");
    }
}

// ---------------------------------------------------------------------------
// the equivalence half
// ---------------------------------------------------------------------------

#[test]
fn every_policy_serves_bitwise_identical_answers_over_the_wire() {
    // from_env() makes the CI PSH_THREADS matrix a third axis here
    let policies = [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
        ExecutionPolicy::from_env(),
    ];
    for weighted in [false, true] {
        let oracle = build_oracle(weighted, 31);
        let n = oracle.graph().n();
        let pairs = workload(n, 120, 7);
        let reference: Vec<QueryResult> =
            pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
        for policy in policies {
            let server = bind(build_oracle(weighted, 31), policy, ServerConfig::default());
            let mut client = NetClient::connect(server.local_addr()).expect("connect");

            // single queries
            let singles: Vec<QueryResult> = pairs[..20]
                .iter()
                .map(|&(s, t)| client.query(s, t).expect("query"))
                .collect();
            assert_bitwise(&singles, &reference[..20], "singles");

            // one batch round trip
            let batch = client.query_batch(&pairs).expect("batch");
            assert_bitwise(&batch, &reference, "batch");

            // streamed subscription, checking chunk offsets partition
            let mut offsets = Vec::new();
            let mut streamed = Vec::new();
            let summary = client
                .subscribe(&pairs, 17, |offset, part| {
                    offsets.push(offset as usize);
                    streamed.extend_from_slice(part);
                })
                .expect("subscribe");
            assert_bitwise(&streamed, &reference, "stream");
            assert_eq!(summary.served, pairs.len() as u64);
            assert_eq!(
                offsets,
                (0..pairs.len()).step_by(17).collect::<Vec<_>>(),
                "chunks must partition the pair list in order"
            );
        }
    }
}

#[test]
fn concurrent_sockets_with_mixed_submission_match_the_reference() {
    const SOCKETS: usize = 6;
    let oracle = build_oracle(true, 13);
    let n = oracle.graph().n();
    let pairs = workload(n, 240, 99);
    let reference: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
    // env policy again: the thread matrix covers sequential and pooled
    let server = bind(
        build_oracle(true, 13),
        ExecutionPolicy::from_env(),
        ServerConfig::default(),
    );
    let addr = server.local_addr();

    let indexed: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SOCKETS)
            .map(|k| {
                let pairs = &pairs;
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr).expect("connect");
                    let mine: Vec<(usize, (u32, u32))> = pairs
                        .iter()
                        .copied()
                        .enumerate()
                        .skip(k)
                        .step_by(SOCKETS)
                        .collect();
                    let mut got = Vec::with_capacity(mine.len());
                    if k % 2 == 0 {
                        // even sockets: one query per round trip
                        for (i, (s, t)) in mine {
                            got.push((i, client.query(s, t).expect("query")));
                        }
                    } else {
                        // odd sockets: batches of 7
                        for trip in mine.chunks(7) {
                            let ask: Vec<(u32, u32)> = trip.iter().map(|&(_, p)| p).collect();
                            let answers = client.query_batch(&ask).expect("batch");
                            got.extend(trip.iter().map(|&(i, _)| i).zip(answers));
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("socket thread"))
            .collect()
    });

    let mut wire: Vec<Option<QueryResult>> = vec![None; pairs.len()];
    for (i, a) in indexed {
        assert!(wire[i].replace(a).is_none(), "index {i} answered twice");
    }
    let wire: Vec<QueryResult> = wire.into_iter().map(|a| a.unwrap()).collect();
    assert_bitwise(&wire, &reference, "concurrent sockets");
}

// ---------------------------------------------------------------------------
// the failure half
// ---------------------------------------------------------------------------

#[test]
fn out_of_range_ids_get_a_typed_error_and_the_connection_survives() {
    let server = bind(
        build_oracle(false, 5),
        ExecutionPolicy::Sequential,
        ServerConfig::default(),
    );
    let n = server.service().oracle().graph().n() as u32;
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    match client.query(n, 0) {
        Err(ProtocolError::Remote { code, message }) => {
            assert_eq!(code, ERR_OUT_OF_RANGE);
            assert!(message.contains("out of range"), "got: {message}");
        }
        other => panic!("expected a remote out-of-range error, got {other:?}"),
    }
    // one bad id inside a batch poisons only that batch, not the socket
    assert!(matches!(
        client.query_batch(&[(0, 1), (1, n)]),
        Err(ProtocolError::Remote {
            code: ERR_OUT_OF_RANGE,
            ..
        })
    ));
    let answer = client.query(0, n - 1).expect("connection still usable");
    assert!(answer.distance.is_finite());
}

#[test]
fn exceeding_the_per_connection_cap_drops_the_connection() {
    let server = bind(
        build_oracle(false, 6),
        ExecutionPolicy::Sequential,
        ServerConfig {
            max_conn_requests: 5,
            ..ServerConfig::default()
        },
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.query_batch(&[(0, 1); 5]).expect("within cap").len(),
        5
    );
    match client.query(0, 1) {
        Err(ProtocolError::Remote { code, .. }) => assert_eq!(code, ERR_CONN_CAP),
        other => panic!("expected the cap error, got {other:?}"),
    }
    // the server hung up: the next exchange cannot complete
    assert!(client.query(0, 1).is_err());
    // ...but a fresh connection gets a fresh budget
    let mut again = NetClient::connect(server.local_addr()).expect("reconnect");
    assert_eq!(
        again.query_batch(&[(0, 1); 5]).expect("fresh budget").len(),
        5
    );
}

#[test]
fn exceeding_the_global_cap_rejects_whoever_overflows_it() {
    let server = bind(
        build_oracle(false, 7),
        ExecutionPolicy::Sequential,
        ServerConfig {
            max_total_requests: 10,
            ..ServerConfig::default()
        },
    );
    let mut first = NetClient::connect(server.local_addr()).expect("connect");
    assert_eq!(first.query_batch(&[(0, 1); 8]).expect("8 of 10").len(), 8);
    let mut second = NetClient::connect(server.local_addr()).expect("connect");
    match second.query_batch(&[(0, 1); 5]) {
        Err(ProtocolError::Remote { code, .. }) => assert_eq!(code, ERR_GLOBAL_CAP),
        other => panic!("expected the global cap error, got {other:?}"),
    }
    // the failed admission rolled back: 2 of the budget remain for first
    assert_eq!(first.query_batch(&[(0, 1); 2]).expect("the rest").len(), 2);
}

#[test]
fn a_full_server_turns_excess_connections_away_with_busy() {
    let server = bind(
        build_oracle(false, 8),
        ExecutionPolicy::Sequential,
        ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        },
    );
    let mut occupant = NetClient::connect(server.local_addr()).expect("connect");
    occupant.query(0, 1).expect("occupant is served");
    let mut excess = NetClient::connect(server.local_addr()).expect("tcp accepts");
    match excess.query(0, 1) {
        // the courtesy ERR_BUSY frame, if the write beat the close...
        Err(ProtocolError::Remote { code, .. }) => assert_eq!(code, ERR_BUSY),
        // ...or the closed socket itself
        Err(_) => {}
        Ok(_) => panic!("the second connection must not be served"),
    }
    occupant.query(1, 0).expect("occupant unaffected");
}

#[test]
fn a_silent_server_surfaces_as_a_client_timeout() {
    // a raw listener that accepts and then never speaks
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));

    let mut client = NetClient::connect(addr).expect("connect");
    client
        .set_timeouts(
            Some(Duration::from_millis(200)),
            Some(Duration::from_millis(200)),
        )
        .expect("set timeouts");
    let err = client.query(0, 1).expect_err("no reply can come");
    assert!(err.is_timeout(), "expected a timeout, got {err:?}");
    drop(hold.join().expect("accept thread").ok());
}

#[test]
fn wire_shutdown_stops_the_server_and_reports_final_stats() {
    let mut server = bind(
        build_oracle(false, 9),
        ExecutionPolicy::Sequential,
        ServerConfig::default(),
    );
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).expect("connect");
    client
        .query_batch(&[(0, 5), (3, 4), (2, 2)])
        .expect("served");

    let stats = client.shutdown_server().expect("shutdown handshake");
    assert_eq!(stats.served, 3);
    assert!(stats.batches >= 1);

    // wait() observes the wire-side stop and drains
    let final_stats = server.wait(Some(Duration::from_secs(5)));
    assert!(server.stopping());
    assert_eq!(final_stats.conns_accepted, 1);
    // the listener is gone: nobody new gets served
    if let Ok(mut late) = NetClient::connect(addr) {
        assert!(late.query(0, 1).is_err());
    }
}

// ---------------------------------------------------------------------------
// the hot-reload half
// ---------------------------------------------------------------------------

/// `OP_RELOAD` end to end: a journal record appears on disk, a wire
/// reload hot-swaps the serving oracle, and every post-swap answer is
/// byte-identical to a fresh in-process build of the mutated graph.
/// A second reload with nothing new reports `swapped: false`, and
/// `OP_INFO` tracks the current epoch's shape throughout.
#[test]
fn wire_reload_hot_swaps_and_matches_a_fresh_build_of_the_mutated_graph() {
    use psh::core::snapshot::{append_journal, journal_path, JournalReloader, OracleMeta};

    let seed = 31u64;
    let g = {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::with_uniform_weights(&generators::grid(12, 12), 1, 20, &mut rng)
    };
    let run = OracleBuilder::new()
        .params(test_params())
        .seed(Seed(seed))
        .build(&g)
        .expect("base oracle build");
    let meta = OracleMeta::of_run(&run, test_params());

    // the "snapshot" base path only names the journal sidecar here — the
    // oracle is already in memory, so no base file needs to exist
    let base = std::env::temp_dir().join(format!("psh_loopback_reload_{}", std::process::id()));
    let jpath = journal_path(&base);
    std::fs::remove_file(&jpath).ok();

    let service = Arc::new(OracleService::new(
        run.artifact,
        ServiceConfig::with_policy(ExecutionPolicy::from_env()),
    ));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind loopback");
    let mut reloader = JournalReloader::new(&base, g.clone(), meta);
    let svc = Arc::clone(&service);
    server.set_reload_hook(Box::new(move || {
        reloader.poll(&svc).map_err(|e| e.to_string())
    }));
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // a fresh in-process build of a graph is the reference its epoch's
    // wire answers must match byte-for-byte
    let fresh_reference = |g: &CsrGraph, pairs: &[(u32, u32)]| -> Vec<QueryResult> {
        let oracle = OracleBuilder::new()
            .params(test_params())
            .seed(Seed(seed))
            .build(g)
            .expect("reference oracle build")
            .artifact;
        pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect()
    };

    // epoch 0 serves the unmutated graph
    let n = g.n();
    let pairs = workload(n, 60, 13);
    let before = fresh_reference(&g, &pairs);
    assert_bitwise(
        &client.query_batch(&pairs).expect("pre-swap batch"),
        &before,
        "pre-swap",
    );

    // mutate: a unit shortcut appears in the journal, then over the wire
    let mut delta = GraphDelta::new(n);
    delta.insert(0, (n - 1) as u32, 1).expect("delta insert");
    delta.delete(0, 1).expect("delta delete");
    append_journal(&jpath, &delta).expect("journal append");

    let summary = client.reload().expect("wire reload");
    assert!(summary.swapped, "one new record must swap");
    assert_eq!(summary.epoch, 1);
    assert_eq!(summary.records, 1);
    assert_eq!(summary.ops, 2);
    let mutated = g.apply_delta(&delta).expect("apply delta");
    assert_eq!(summary.m, mutated.m() as u64);

    // post-swap answers ≡ a fresh build of the mutated graph
    let after = fresh_reference(&mutated, &pairs);
    assert_ne!(
        before
            .iter()
            .map(|a| a.distance.to_bits())
            .collect::<Vec<_>>(),
        after
            .iter()
            .map(|a| a.distance.to_bits())
            .collect::<Vec<_>>(),
        "the delta must change some answer for this test to mean anything"
    );
    assert_bitwise(
        &client.query_batch(&pairs).expect("post-swap batch"),
        &after,
        "post-swap",
    );

    // OP_INFO follows the swap; a second reload has nothing to do
    let info = client.server_info().expect("info");
    assert_eq!(info.m, mutated.m() as u64);
    let again = client.reload().expect("idempotent reload");
    assert!(!again.swapped);
    assert_eq!(again.epoch, 1);
    assert_eq!(again.records, 0);

    std::fs::remove_file(&jpath).ok();
}

/// Fault injection on the reload path: a journal record whose insert
/// breaks the 2⁵³ distance cap makes `JournalReloader::poll` a typed
/// error naming the cap, and a wire `Reload` `ERR_RELOAD_FAILED` with the
/// same message, on a server whose hook shares the reloader behind a
/// mutex with a direct poller, as `psh-server --watch-journal` wires it.
/// The old epoch keeps serving every answer as before, and once the
/// journal is gone `poll` returns `Ok(None)`.
#[test]
fn a_refused_journal_rebuild_keeps_the_old_epoch_serving() {
    use psh::core::snapshot::{append_journal, journal_path, JournalReloader, OracleMeta};
    use psh::net::protocol::ERR_RELOAD_FAILED;
    use std::sync::{Mutex, PoisonError};

    // 63·w_max stays under 2⁵³ at a weight ratio of at most 20
    let mut rng = StdRng::seed_from_u64(43);
    let g = generators::with_uniform_weights(&generators::grid(8, 8), 1 << 42, 20 << 42, &mut rng);
    let run = OracleBuilder::new()
        .params(test_params())
        .seed(Seed(43))
        .build(&g)
        .unwrap();
    let meta = OracleMeta::of_run(&run, test_params());
    let base = std::env::temp_dir().join(format!("psh_loopback_refused_{}", std::process::id()));
    let jpath = journal_path(&base);
    std::fs::remove_file(&jpath).ok();
    let service = Arc::new(OracleService::new(run.artifact, ServiceConfig::default()));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
        .expect("bind loopback");
    let reloader = Arc::new(Mutex::new(JournalReloader::new(&base, g, meta)));
    let poll = {
        let (reloader, service) = (Arc::clone(&reloader), Arc::clone(&service));
        move || {
            let mut reloader = reloader.lock().unwrap_or_else(PoisonError::into_inner);
            reloader.poll(&service)
        }
    };
    let hook = poll.clone();
    server.set_reload_hook(Box::new(move || hook().map_err(|e| e.to_string())));
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    let pairs = workload(64, 40, 17);
    let before = client.query_batch(&pairs).expect("pre-reload batch");

    // 63·2⁴⁸ > 2⁵³ at a weight ratio of at most 64: only the cap refuses it
    let mut delta = GraphDelta::new(64);
    delta.insert(0, 63, 1 << 48).expect("delta insert");
    append_journal(&jpath, &delta).expect("journal append");
    let err = poll().unwrap_err();
    assert!(err.to_string().contains("exceed 2^53"), "{err}");
    assert!(matches!(
        err,
        SnapshotError::Corrupt {
            what: "oracle rebuild",
            ..
        }
    ));
    match client.reload() {
        Err(ProtocolError::Remote { code, message }) => {
            assert_eq!((code, message), (ERR_RELOAD_FAILED, err.to_string()));
        }
        other => panic!("expected ERR_RELOAD_FAILED, got {other:?}"),
    }
    assert_eq!(service.epoch(), 0);
    let after = client.query_batch(&pairs).expect("post-refusal batch");
    assert_bitwise(&after, &before, "after the refused reload");
    std::fs::remove_file(&jpath).expect("remove journal");
    assert_eq!(poll().expect("poll without a journal"), None);
    let again = client.reload().expect("reload without a journal");
    assert_eq!((again.swapped, again.epoch), (false, 0));
}

/// Reload against a server with no reload source is a typed remote
/// error, and the connection survives it.
#[test]
fn reload_without_a_hook_is_a_typed_error_and_keeps_the_connection() {
    use psh::net::protocol::ERR_NO_RELOAD;
    let server = bind(
        build_oracle(false, 9),
        ExecutionPolicy::Sequential,
        ServerConfig::default(),
    );
    let mut client = NetClient::connect(server.local_addr()).expect("connect");
    match client.reload() {
        Err(ProtocolError::Remote { code, .. }) => assert_eq!(code, ERR_NO_RELOAD),
        other => panic!("expected ERR_NO_RELOAD, got {other:?}"),
    }
    // the connection is still usable afterwards
    client.query(0, 5).expect("connection survived the error");
}

/// A reload hook that panics is answered with a typed error, keeps the
/// connection serving, and leaves no connection slot or socket behind:
/// with `max_conns: 2`, three sequential connections all get through,
/// each one's slot is freed after it closes, and a fresh connection is
/// served at the end.
#[test]
fn a_panicking_reload_hook_is_a_typed_error_and_frees_its_connection() {
    use psh::net::protocol::ERR_RELOAD_FAILED;
    let server = bind(
        build_oracle(false, 9),
        ExecutionPolicy::Sequential,
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );
    server.set_reload_hook(Box::new(|| panic!("journal source exploded")));
    for round in 0..3 {
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        // a server that wedges on the panic must fail the test, not hang it
        client
            .set_timeouts(Some(Duration::from_secs(5)), Some(Duration::from_secs(5)))
            .expect("set timeouts");
        match client.reload() {
            Err(ProtocolError::Remote { code, message }) => {
                assert_eq!(code, ERR_RELOAD_FAILED, "round {round}");
                assert!(
                    message.contains("journal source exploded"),
                    "round {round}: the panic message is reported, got {message:?}"
                );
            }
            other => panic!("round {round}: expected ERR_RELOAD_FAILED, got {other:?}"),
        }
        client
            .query(0, 5)
            .unwrap_or_else(|e| panic!("round {round}: connection survived the panic: {e}"));
        drop(client);
        // the slot frees once the server's connection thread has seen
        // the close, shortly after the drop rather than at once
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().active_conns > 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "round {round}: closed connection still counted: {:?}",
                server.stats()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let mut fresh = NetClient::connect(server.local_addr()).expect("connect");
    fresh.query(0, 5).expect("a fresh connection is served");
}
