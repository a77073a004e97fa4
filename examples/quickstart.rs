//! Quickstart: build a graph, construct a spanner, a hopset and a
//! distance oracle through the pipeline builders, and answer queries.
//!
//! Run with: `cargo run --release --example quickstart`

use psh::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), PshError> {
    // --- 1. A graph -------------------------------------------------------
    // 2000-vertex connected random graph with 6000 extra edges.
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::connected_random(2_000, 6_000, &mut rng);
    println!("graph: n = {}, m = {}", g.n(), g.m());

    // --- 2. A spanner (Theorem 1.1) ---------------------------------------
    // O(k)-stretch, expected O(n^{1+1/k}) edges. Here k = 3. The returned
    // Run carries the artifact, its work/depth cost, and the seed — the
    // same seed always rebuilds the identical spanner.
    let spanner = SpannerBuilder::unweighted(3.0).seed(Seed(11)).build(&g)?;
    println!(
        "spanner: {} edges ({}% of m), built with {} [{}]",
        spanner.artifact.size(),
        100 * spanner.artifact.size() / g.m(),
        spanner.cost,
        spanner.seed,
    );

    // --- 3. A hopset (Theorem 1.2) and the served oracle ------------------
    let hopset = HopsetBuilder::unweighted().seed(Seed(12)).build(&g)?;
    println!(
        "hopset: {} shortcut edges, built with {}",
        hopset.artifact.size(),
        hopset.cost
    );
    // the oracle serves exact answers with a bidirectional Dijkstra and
    // holds no hopset; its preprocessing is a validation and a copy
    let oracle = OracleBuilder::new().seed(Seed(12)).build(&g)?;
    println!("oracle: preprocessing {}", oracle.cost);

    // --- 4. Queries ---------------------------------------------------------
    for (s, t) in [(0u32, 1999u32), (17, 1234), (42, 43)] {
        let (answer, qcost) = oracle.artifact.query(s, t);
        let exact = oracle.artifact.query_exact(s, t);
        println!(
            "dist({s:4}, {t:4}) = {:6.1}   referee {exact:4}   query {}",
            answer.distance, qcost
        );
        assert_eq!(answer.distance, exact as f64);
    }

    // --- 5. Execution policy: same artifact, real threads -------------------
    // Builders run on the psh-exec pool by default (PSH_THREADS or the
    // machine's parallelism). The policy only changes wall-clock — the
    // artifact and its cost are byte-identical for every thread count.
    let par = SpannerBuilder::unweighted(3.0)
        .seed(Seed(11))
        .execution(ExecutionPolicy::Parallel { threads: 4 })
        .build(&g)?;
    assert_eq!(par.artifact, spanner.artifact);
    assert_eq!(par.cost, spanner.cost);
    println!("parallel(4) rebuilt the byte-identical spanner");

    // --- 6. Errors are values, not panics -----------------------------------
    let err = SpannerBuilder::unweighted(0.5).build(&g).unwrap_err();
    println!("k = 0.5 is rejected up front: {err}");
    println!("all answers match the referee — done.");
    Ok(())
}
