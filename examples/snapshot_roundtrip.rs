//! Snapshot round trip: preprocess a graph into a distance oracle, save
//! it to a binary snapshot, map it back in (as a serving process would),
//! and answer a query batch — verifying the mapped oracle agrees with the
//! fresh build answer for answer and cost for cost.
//!
//! Run with: `cargo run --release --example snapshot_roundtrip`

use psh::graph::LoadMode;
use psh::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Preprocess (the expensive, once-per-graph step) ---------------
    let g = generators::grid(40, 40);
    let params = HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    };
    let run = OracleBuilder::new()
        .params(params)
        .seed(Seed(9))
        .build(&g)?;
    println!(
        "preprocessed n = {}, m = {}: hopset size {}, {}",
        g.n(),
        g.m(),
        run.artifact.hopset_size(),
        run.cost
    );

    // --- 2. Save the snapshot (header + section directory + slabs) --------
    let path = std::env::temp_dir().join("psh_snapshot_roundtrip.snap");
    let meta = OracleMeta::of_run(&run, params);
    snapshot::save_oracle_v2(&path, &run.artifact, &meta)?;
    println!(
        "snapshot saved to {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // --- 3. Map it in — a serving process starts here, no rebuild --------
    let (served, meta_back) = snapshot::load_oracle_v2(&path, LoadMode::Mmap)?;
    assert_eq!(
        meta_back.seed,
        Seed(9),
        "provenance travels with the artifact"
    );

    // --- 4. Serve a batch on the pool and cross-check ----------------------
    let pairs: Vec<(u32, u32)> = (0..200u32).map(|i| (i, 1599 - i)).collect();
    let policy = ExecutionPolicy::Parallel { threads: 4 };
    let (fresh, fresh_cost) = run.artifact.query_batch(&pairs, policy);
    let (loaded, loaded_cost) = served.query_batch(&pairs, policy);
    assert_eq!(fresh, loaded, "answers are byte-identical");
    assert_eq!(fresh_cost, loaded_cost, "and so is the work/depth cost");
    println!(
        "served {} queries: answers + cost identical to the fresh build ({})",
        pairs.len(),
        loaded_cost
    );

    // malformed snapshots are errors, not panics
    std::fs::write(&path, b"not a snapshot")?;
    let err = snapshot::load_oracle_v2(&path, LoadMode::Mmap).unwrap_err();
    println!("and corrupt input reports: {err}");

    std::fs::remove_file(&path).ok();
    Ok(())
}
