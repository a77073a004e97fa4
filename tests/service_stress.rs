//! The concurrent-serving contract under real OS-thread contention:
//! 32 client threads hammer one shared [`OracleService`] with
//! interleaved queries and every answer must be **byte-identical** to
//! the single-threaded `query` / `query_batch` reference — under both
//! `ExecutionPolicy` variants, on unweighted and weighted oracles, owned
//! and mapped from their v2 image, and with mixed single/batch
//! submission. This is the integration-level proof behind
//! `psh_core::service`'s determinism claim.

use psh::core::service::{CacheConfig, OracleService, ServiceConfig, MAX_BATCH};
use psh::graph::{SnapshotSource, Verify};
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 32;

fn service_policies() -> [ExecutionPolicy; 2] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ]
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

fn build_oracle(weighted: bool, seed: u64) -> ApproxShortestPaths {
    let base = generators::grid(12, 12);
    let g = if weighted {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::with_uniform_weights(&base, 1, 20, &mut rng)
    } else {
        base
    };
    OracleBuilder::new()
        .seed(Seed(seed))
        .build(&g)
        .unwrap()
        .artifact
}

/// `oracle`'s v2 image, opened in place the way a serving process maps
/// a snapshot.
fn mapped_copy(oracle: &ApproxShortestPaths, seed: u64) -> ApproxShortestPaths {
    let meta = OracleMeta {
        params: HopsetParams::default(),
        seed: Seed(seed),
        build_cost: Cost::ZERO,
    };
    let image = snapshot::write_oracle_v2_bytes(oracle, &meta).unwrap();
    let source = Arc::new(SnapshotSource::from_bytes(&image));
    let (mapped, _) = snapshot::read_oracle_v2(source, Verify::Bounds).unwrap();
    assert!(mapped.is_mapped());
    mapped
}

/// Fan `pairs` over `CLIENTS` OS threads (thread `k` takes indices
/// `k, k+CLIENTS, …`, preserving per-thread submission order) and
/// reassemble the answers in workload order.
fn hammer(service: &OracleService, pairs: &[(u32, u32)]) -> Vec<QueryResult> {
    let indexed: Vec<(usize, QueryResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|k| {
                scope.spawn(move || {
                    pairs
                        .iter()
                        .enumerate()
                        .skip(k)
                        .step_by(CLIENTS)
                        .map(|(i, &(s, t))| (i, service.query(s, t)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread survived"))
            .collect()
    });
    let mut answers = vec![None; pairs.len()];
    for (i, a) in indexed {
        answers[i] = Some(a);
    }
    answers.into_iter().map(|a| a.unwrap()).collect()
}

/// The acceptance criterion: 32 interleaved client threads, every answer
/// byte-identical to the owned oracle's single-threaded reference, both
/// policies, unweighted and weighted, served by the owned oracle and by
/// its mapped v2 image.
#[test]
fn thirty_two_clients_serve_byte_identically() {
    for weighted in [false, true] {
        let oracle = build_oracle(weighted, 42);
        let n = oracle.graph().n();
        let pairs = workload(n, 384, 7);
        // single-threaded references: one-at-a-time `query`, and one
        // `query_batch` call (they must agree with each other first)
        let reference: Vec<QueryResult> =
            pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
        let (batch_ref, _) = oracle.query_batch(&pairs, ExecutionPolicy::Sequential);
        assert_eq!(
            batch_ref, reference,
            "query_batch ≡ query (weighted={weighted})"
        );

        let mapped = mapped_copy(&oracle, 42);
        for shared in [Arc::new(oracle), Arc::new(mapped)] {
            let mapped = shared.is_mapped();
            for policy in service_policies() {
                let service = OracleService::from_arc(
                    Arc::clone(&shared),
                    ServiceConfig::with_policy(policy),
                );
                let answers = hammer(&service, &pairs);
                assert_eq!(
                    answers, reference,
                    "32-client answers diverged (weighted={weighted}, {policy}, mapped: {mapped})"
                );
                let stats = service.stats();
                assert_eq!(stats.served, pairs.len() as u64);
                assert!(stats.batches >= 1 && stats.batches <= pairs.len() as u64);
                assert!(stats.largest_batch >= 1 && stats.largest_batch <= MAX_BATCH);
                assert!(stats.qps > 0.0, "elapsed window must be positive");
                assert!(stats.p50_ms <= stats.p999_ms);
            }
        }
    }
}

/// Mixed submission shapes: some clients send single queries, others
/// whole batches — coalescing may merge them arbitrarily, answers must
/// not change, and batch answers must come back in input order.
#[test]
fn mixed_single_and_batch_clients_stay_consistent() {
    let oracle = build_oracle(false, 9);
    let n = oracle.graph().n();
    let pairs = workload(n, 320, 11);
    let reference: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();

    for policy in service_policies() {
        // same seed ⇒ byte-identical oracle, so the reference above applies
        let service =
            OracleService::new(build_oracle(false, 9), ServiceConfig::with_policy(policy));
        let chunk = pairs.len() / CLIENTS;
        let answers: Vec<(usize, Vec<QueryResult>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|k| {
                    let service = &service;
                    let slice = &pairs[k * chunk..(k + 1) * chunk];
                    scope.spawn(move || {
                        if k % 2 == 0 {
                            // batch client: one submission for its slice
                            (k, service.query_batch(slice))
                        } else {
                            // single-query client: one call per pair
                            (k, slice.iter().map(|&(s, t)| service.query(s, t)).collect())
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (k, got) in answers {
            assert_eq!(
                got,
                reference[k * chunk..(k + 1) * chunk],
                "client {k} diverged under {policy}"
            );
        }
        assert_eq!(service.stats().served, (chunk * CLIENTS) as u64);
    }
}

/// Contended batch caps: eight clients each submit one batch larger
/// than [`MAX_BATCH`] at once, so every submission is split across
/// leader rotations and coalesced with the others' remainders, without
/// changing any answer.
#[test]
fn tiny_batch_cap_under_contention_is_still_identical() {
    const SUBMITTERS: usize = 8;
    let oracle = build_oracle(false, 13);
    let n = oracle.graph().n();
    let chunk = MAX_BATCH + 44;
    let pairs = workload(n, SUBMITTERS * chunk, 17);
    let reference: Vec<QueryResult> = pairs.iter().map(|&(s, t)| oracle.query(s, t).0).collect();
    let shared = Arc::new(oracle);
    for policy in service_policies() {
        let service =
            OracleService::from_arc(Arc::clone(&shared), ServiceConfig::with_policy(policy));
        let answers: Vec<QueryResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|slice| {
                    let service = &service;
                    scope.spawn(move || service.query_batch(slice))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread survived"))
                .collect()
        });
        assert_eq!(
            answers, reference,
            "split submissions diverged under {policy}"
        );
        let stats = service.stats();
        assert_eq!(stats.served, pairs.len() as u64);
        // the first drain finds a whole submission queued, so it is full
        assert_eq!(
            stats.largest_batch, MAX_BATCH,
            "cap violated or never reached"
        );
        assert!(stats.batches >= pairs.len().div_ceil(MAX_BATCH) as u64);
    }
}

/// Hot-swap under a query storm: 32 client threads hammer the service
/// while the main thread drives a chain of epoch swaps (each epoch's
/// graph is the previous one plus a delta). Every answer must be
/// attributed to a *valid* epoch and byte-identical to that epoch's
/// reference oracle — no torn batches (an answer computed on one epoch
/// attributed to another), no stale cache hits after a flush. After the
/// storm, a settled pass must see only the final epoch.
#[test]
fn swap_storm_attributes_every_answer_to_a_valid_epoch() {
    const EPOCHS: usize = 6;
    let seed = 42u64;

    // the epoch chain: graphs[e] = graphs[e-1] + delta_e, oracles[e]
    // built fresh from graphs[e] with identical params/seed
    let base = {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::with_uniform_weights(&generators::grid(12, 12), 1, 20, &mut rng)
    };
    let n = base.n();
    let mut graphs = vec![base];
    for e in 1..=EPOCHS {
        let mut delta = GraphDelta::new(n);
        // each epoch adds a new unit-weight shortcut from vertex 0 and
        // retires the previous epoch's one, so distances keep changing
        let far = (100 + e) as u32;
        delta.insert(0, far, 1).unwrap();
        if e > 1 {
            delta.delete(0, far - 1).unwrap();
        }
        let next = graphs[e - 1].apply_delta(&delta).unwrap();
        graphs.push(next);
    }
    let oracles: Vec<Arc<ApproxShortestPaths>> = graphs
        .iter()
        .map(|g| {
            Arc::new(
                OracleBuilder::new()
                    .seed(Seed(seed))
                    .build(g)
                    .unwrap()
                    .artifact,
            )
        })
        .collect();

    let pairs = workload(n, 128, 31);
    let refs: Vec<Vec<QueryResult>> = oracles
        .iter()
        .map(|o| pairs.iter().map(|&(s, t)| o.query(s, t).0).collect())
        .collect();
    // the swaps must be observable: consecutive epochs disagree somewhere
    for e in 1..=EPOCHS {
        assert_ne!(refs[e - 1], refs[e], "epoch {e} changed no answer");
    }

    for policy in service_policies() {
        // the cache is on so the storm also exercises flush-on-swap:
        // a stale hit would surface as a byte mismatch below
        let service = OracleService::from_arc(
            Arc::clone(&oracles[0]),
            ServiceConfig {
                policy,
                cache: Some(CacheConfig {
                    capacity: 64,
                    seed: 5,
                }),
            },
        );
        assert_eq!(service.epoch(), 0);
        let done = AtomicBool::new(false);
        let seen: HashSet<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|k| {
                    let (service, done, pairs, refs) = (&service, &done, &pairs, &refs);
                    scope.spawn(move || {
                        let mut seen = HashSet::new();
                        while !done.load(Ordering::SeqCst) {
                            for (i, &(s, t)) in pairs.iter().enumerate().skip(k % 8).step_by(8) {
                                let (a, epoch) = service.query_attributed(s, t);
                                assert!(
                                    (epoch as usize) <= EPOCHS,
                                    "answer attributed to unknown epoch {epoch}"
                                );
                                let r = &refs[epoch as usize][i];
                                assert!(
                                    a.distance.to_bits() == r.distance.to_bits()
                                        && a.upper_bound == r.upper_bound,
                                    "pair {i} diverged from epoch {epoch}'s oracle under \
                                     {policy}: got {} vs {}",
                                    a.distance,
                                    r.distance
                                );
                                seen.insert(epoch);
                            }
                        }
                        // settled pass: swaps are over, so every answer
                        // must come from (and match) the final epoch
                        for (i, &(s, t)) in pairs.iter().enumerate() {
                            let (a, epoch) = service.query_attributed(s, t);
                            assert_eq!(epoch as usize, EPOCHS, "stale epoch after the storm");
                            let r = &refs[EPOCHS][i];
                            assert_eq!(a.distance.to_bits(), r.distance.to_bits());
                            assert_eq!(a.upper_bound, r.upper_bound);
                            seen.insert(epoch);
                        }
                        seen
                    })
                })
                .collect();

            // the swap storm, riding on the main thread
            for (e, oracle) in oracles.iter().enumerate().skip(1) {
                std::thread::sleep(Duration::from_millis(5));
                let entered = service.swap_oracle(Arc::clone(oracle));
                assert_eq!(entered, e as u64, "epochs must advance by one per swap");
            }
            done.store(true, Ordering::SeqCst);
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread survived"))
                .collect()
        });
        assert!(
            seen.contains(&0) && seen.contains(&(EPOCHS as u64)),
            "storm skipped the first or last epoch entirely: {seen:?}"
        );
    }
}

/// Repeated runs against the same shared oracle reuse it safely — the
/// service holds an `Arc`, so several services (different policies) can
/// serve one oracle simultaneously.
#[test]
fn two_services_one_oracle_agree() {
    let shared = Arc::new(build_oracle(true, 21));
    let pairs = workload(shared.graph().n(), 192, 23);
    let reference: Vec<QueryResult> = pairs.iter().map(|&(s, t)| shared.query(s, t).0).collect();
    let seq = OracleService::from_arc(
        Arc::clone(&shared),
        ServiceConfig::with_policy(ExecutionPolicy::Sequential),
    );
    let par = OracleService::from_arc(
        Arc::clone(&shared),
        ServiceConfig::with_policy(ExecutionPolicy::Parallel { threads: 4 }),
    );
    std::thread::scope(|scope| {
        let a = scope.spawn(|| hammer(&seq, &pairs));
        let b = scope.spawn(|| hammer(&par, &pairs));
        assert_eq!(a.join().unwrap(), reference);
        assert_eq!(b.join().unwrap(), reference);
    });
}
