//! The serving contract, end to end: a snapshotted oracle answers query
//! batches byte-identically to the fresh in-process build — same
//! `QueryResult`s, same work/depth `Cost` — under every execution
//! policy; and malformed snapshots are typed errors at the facade level.

use psh::graph::{SnapshotSource, Verify};
use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn test_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

/// Open snapshot bytes the way a serving process does: in place, at
/// the [`Verify::Bounds`] level.
fn open(bytes: &[u8]) -> Result<(ApproxShortestPaths, OracleMeta), SnapshotError> {
    snapshot::read_oracle_v2(Arc::new(SnapshotSource::from_bytes(bytes)), Verify::Bounds)
}

fn policies() -> [ExecutionPolicy; 4] {
    [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 2 },
        ExecutionPolicy::Parallel { threads: 4 },
        ExecutionPolicy::Parallel { threads: 8 },
    ]
}

fn workload(n: usize, q: usize, seed: u64) -> Vec<(u32, u32)> {
    // mix of far pairs, neighbors, self-pairs, and (on disconnected
    // instances) cross-component pairs
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    (0..q)
        .map(|i| {
            if i % 7 == 0 {
                let v = rng.random_range(0..n as u32);
                (v, v)
            } else {
                (rng.random_range(0..n as u32), rng.random_range(0..n as u32))
            }
        })
        .collect()
}

/// The acceptance criterion: save → load → `query_batch` equals a fresh
/// build's answers and Cost, for Sequential and Parallel{2,4,8}.
#[test]
fn snapshot_roundtrip_serves_byte_identically() {
    let base = generators::grid(10, 10);
    let mut rng = StdRng::seed_from_u64(5);
    let weighted = generators::with_uniform_weights(&base, 1, 25, &mut rng);
    for g in [base, weighted] {
        let run = OracleBuilder::new()
            .params(test_params())
            .seed(Seed(42))
            .build(&g)
            .unwrap();
        let meta = OracleMeta::of_run(&run, test_params());
        let buf = snapshot::write_oracle_v2_bytes(&run.artifact, &meta).unwrap();
        let (served, meta_back) = open(&buf).unwrap();
        assert!(served.is_mapped());
        assert_eq!(meta_back, meta);

        let pairs = workload(g.n(), 60, 99);
        let (reference, ref_cost) = run
            .artifact
            .query_batch(&pairs, ExecutionPolicy::Sequential);
        for policy in policies() {
            let (fresh, fresh_cost) = run.artifact.query_batch(&pairs, policy);
            let (loaded, loaded_cost) = served.query_batch(&pairs, policy);
            assert_eq!(fresh, reference, "fresh {policy}");
            assert_eq!(fresh_cost, ref_cost, "fresh cost {policy}");
            assert_eq!(loaded, reference, "loaded {policy}");
            assert_eq!(loaded_cost, ref_cost, "loaded cost {policy}");
        }
        // the loaded oracle re-saves to the identical bytes
        let buf2 = snapshot::write_oracle_v2_bytes(&served, &meta_back).unwrap();
        assert_eq!(buf, buf2);
    }
}

/// Batch answers equal one-at-a-time answers pair for pair, and the batch
/// cost is their parallel composition.
#[test]
fn query_batch_is_the_query_loop() {
    let g = generators::grid(8, 8);
    let run = OracleBuilder::new()
        .params(test_params())
        .seed(Seed(3))
        .build(&g)
        .unwrap();
    let pairs = workload(g.n(), 40, 7);
    let singles: Vec<(QueryResult, Cost)> = pairs
        .iter()
        .map(|&(s, t)| run.artifact.query(s, t))
        .collect();
    let expect: Vec<QueryResult> = singles.iter().map(|(r, _)| *r).collect();
    let expect_cost = Cost::par_all(singles.iter().map(|(_, c)| *c));
    for policy in policies() {
        let (got, cost) = run.artifact.query_batch(&pairs, policy);
        assert_eq!(got, expect, "{policy}");
        assert_eq!(cost, expect_cost, "{policy}");
    }
}

/// The serving facade rejects malformed snapshot bytes with typed,
/// descriptive errors at the workspace surface (`psh::prelude`).
#[test]
fn malformed_snapshots_are_typed_errors_at_the_facade() {
    let g = generators::path(5);
    let run = OracleBuilder::new().seed(Seed(4)).build(&g).unwrap();
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    let buf = snapshot::write_oracle_v2_bytes(&run.artifact, &meta).unwrap();

    // truncated header, then a body shorter than the header records
    for cut in [0, 3, 6, 23] {
        match open(&buf[..cut]) {
            Err(SnapshotError::Truncated { .. }) => {}
            other => panic!("cut {cut}: {other:?}"),
        }
    }
    for cut in [24, buf.len() / 2, buf.len() - 1] {
        match open(&buf[..cut]) {
            Err(SnapshotError::Corrupt {
                what: "file length",
                ..
            }) => {}
            other => panic!("cut {cut}: {other:?}"),
        }
    }
    // wrong magic
    let mut bad = buf.clone();
    bad[1] = b'?';
    assert!(matches!(open(&bad), Err(SnapshotError::BadMagic { .. })));
    // wrong version
    let mut bad = buf.clone();
    bad[4] = 200;
    assert!(matches!(
        open(&bad),
        Err(SnapshotError::UnsupportedVersion { found: 200, .. })
    ));
    // a graph-kind snapshot is not an oracle, and the error names both
    let mut bad = buf.clone();
    bad[6..8].copy_from_slice(&psh::graph::io::KIND_GRAPH.to_le_bytes());
    assert!(matches!(
        open(&bad),
        Err(SnapshotError::WrongArtifact { .. })
    ));
    let msg = open(&bad).unwrap_err().to_string();
    assert!(msg.contains("graph") && msg.contains("oracle"), "{msg}");
}
