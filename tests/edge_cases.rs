//! Edge-case coverage for the frontier engine and the oracle serving
//! path: empty graphs, single vertices, disconnected pairs (must report
//! `unreachable`, never panic), star/dumbbell extremes, and `s == t`
//! queries — under both execution policies.

use psh::graph::traversal::dial::dial_sssp_with;
use psh::graph::traversal::dijkstra::dijkstra_pair;
use psh::prelude::*;

fn test_params() -> HopsetParams {
    HopsetParams {
        epsilon: 0.5,
        delta: 1.5,
        gamma1: 0.25,
        gamma2: 0.75,
        k_conf: 1.0,
    }
}

fn build(g: &CsrGraph, mode: OracleMode) -> ApproxShortestPaths {
    OracleBuilder::new()
        .params(test_params())
        .mode(mode)
        .seed(Seed(1))
        .build(g)
        .unwrap()
        .artifact
}

fn execs() -> [Executor; 2] {
    [
        Executor::sequential(),
        Executor::new(ExecutionPolicy::Parallel { threads: 4 }),
    ]
}

#[test]
fn empty_graph_builds_and_serves_empty_batches() {
    let g = CsrGraph::from_edges(0, std::iter::empty());
    for mode in [OracleMode::Unweighted, OracleMode::Weighted] {
        let oracle = build(&g, mode);
        assert_eq!(oracle.hopset_size(), 0);
        let (answers, cost) = oracle.query_batch(&[], ExecutionPolicy::Parallel { threads: 4 });
        assert!(answers.is_empty());
        assert_eq!(cost, Cost::ZERO);
    }
    // spanner/hopset builders are equally unbothered
    assert_eq!(
        SpannerBuilder::unweighted(2.0)
            .build(&g)
            .unwrap()
            .artifact
            .size(),
        0
    );
    assert_eq!(
        HopsetBuilder::unweighted()
            .params(test_params())
            .build(&g)
            .unwrap()
            .artifact
            .size(),
        0
    );
}

#[test]
fn single_vertex_graph_answers_self_queries() {
    let g = CsrGraph::from_edges(1, std::iter::empty());
    for mode in [OracleMode::Unweighted, OracleMode::Weighted] {
        let oracle = build(&g, mode);
        let (r, cost) = oracle.query(0, 0);
        assert_eq!(r.distance, 0.0);
        assert_eq!(cost, Cost::ZERO);
        let (batch, _) = oracle.query_batch(&[(0, 0); 5], ExecutionPolicy::Sequential);
        assert!(batch.iter().all(|a| a.distance == 0.0));
    }
    // the frontier engine: a source with no edges settles only itself
    for exec in execs() {
        let (dial, _) = dial_sssp_with(&exec, &g, 0);
        assert_eq!(dial.dist, vec![0]);
    }
}

#[test]
fn disconnected_pairs_report_unreachable_not_panic() {
    // two components, one weighted asymmetrically
    let g = CsrGraph::from_edges(
        6,
        [
            Edge::new(0, 1, 2),
            Edge::new(1, 2, 3),
            Edge::new(3, 4, 1),
            Edge::new(4, 5, 7),
        ],
    );
    let cross: Vec<(u32, u32)> = vec![(0, 3), (2, 5), (1, 4), (5, 0)];
    let oracle = build(&g, OracleMode::Weighted);
    for policy in [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ] {
        let (answers, _) = oracle.query_batch(&cross, policy);
        assert!(
            answers.iter().all(|a| a.distance.is_infinite()),
            "cross-component answers must be ∞"
        );
    }
    // within-component queries still resolve (bridge weight 1 + 7)
    let (r, _) = oracle.query(3, 5);
    assert!(r.distance >= 8.0 - 1e-9);
    // the unweighted path on a unit-weight disconnected graph
    let gu = CsrGraph::from_unit_edges(4, [(0, 1), (2, 3)]);
    let oracle = build(&gu, OracleMode::Unweighted);
    let (answers, _) = oracle.query_batch(&[(0, 2), (1, 3)], ExecutionPolicy::Sequential);
    assert!(answers.iter().all(|a| a.distance.is_infinite()));
    // the frontier engine agrees: unreached vertices stay at INF
    for exec in execs() {
        let (unit, _) = dial_sssp_with(&exec, &gu, 0);
        assert_eq!(unit.dist[2], INF);
        assert_eq!(unit.dist[3], INF);
        assert_eq!(unit.parent[2], u32::MAX);
        let (weighted, _) = dial_sssp_with(&exec, &g, 0);
        assert_eq!(weighted.dist[4], INF);
    }
}

#[test]
fn star_extreme_hub_and_leaf_queries() {
    // star: every pair of leaves is exactly 2 apart through the hub
    let g = generators::star(64);
    let oracle = build(&g, OracleMode::Unweighted);
    let pairs: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (17, 63), (5, 5)];
    let (answers, _) = oracle.query_batch(&pairs, ExecutionPolicy::Parallel { threads: 4 });
    for (&(s, t), a) in pairs.iter().zip(&answers) {
        let exact = dijkstra_pair(&g, s, t) as f64;
        assert!(a.distance >= exact && a.distance <= 2.0 * exact + 1e-9);
    }
    assert_eq!(answers[3].distance, 0.0, "s == t on the star");
    // the frontier engine settles the whole star in one expansion wave
    for exec in execs() {
        let (dial, _) = dial_sssp_with(&exec, &g, 0);
        assert!(dial.dist.iter().skip(1).all(|&d| d == 1));
    }
}

#[test]
fn dumbbell_extreme_bridge_traversal() {
    // two dense lobes joined by a long bridge — the hop-count adversary
    let g = generators::dumbbell(12, 20);
    let oracle = build(&g, OracleMode::Unweighted);
    let n = g.n() as u32;
    // lobe-to-lobe must cross the whole bridge; within-lobe is ≤ 1 hop
    let pairs: Vec<(u32, u32)> = vec![(0, n - 1), (0, 1), (n - 1, n - 2), (0, 0)];
    for policy in [
        ExecutionPolicy::Sequential,
        ExecutionPolicy::Parallel { threads: 4 },
    ] {
        let (answers, _) = oracle.query_batch(&pairs, policy);
        for (&(s, t), a) in pairs.iter().zip(&answers) {
            let exact = dijkstra_pair(&g, s, t) as f64;
            assert!(
                a.distance >= exact && a.distance <= 2.0 * exact + 1e-9,
                "({s},{t}): {} vs exact {exact}",
                a.distance
            );
        }
    }
}

#[test]
fn self_queries_are_zero_cost_everywhere() {
    let g = generators::grid(6, 6);
    for mode in [OracleMode::Unweighted, OracleMode::Weighted] {
        let oracle = build(&g, mode);
        for v in [0u32, 17, 35] {
            let (r, cost) = oracle.query(v, v);
            assert_eq!(r.distance, 0.0);
            assert_eq!(cost, Cost::ZERO);
        }
        let pairs: Vec<(u32, u32)> = (0..36).map(|v| (v, v)).collect();
        let (answers, cost) = oracle.query_batch(&pairs, ExecutionPolicy::Parallel { threads: 2 });
        assert!(answers.iter().all(|a| a.distance == 0.0));
        assert_eq!(cost, Cost::ZERO);
    }
}
