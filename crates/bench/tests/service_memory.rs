//! `OracleService` keeps a fixed-size latency record: a million requests
//! leave its memory where one left it, and `stats()` allocates no more
//! after them than after the first. This file is its own test binary
//! with one test, so the process-wide allocation counters see only it.

use psh_bench::alloc::{live_bytes, peak_above, reset_peak, CountingAlloc};
use psh_core::api::{OracleBuilder, Seed};
use psh_core::service::{CacheConfig, OracleService, ServiceConfig, ServiceStats};
use psh_exec::ExecutionPolicy;
use psh_graph::generators;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes `stats()` allocates at its peak, with its result.
fn stats_peak(service: &OracleService) -> (usize, ServiceStats) {
    reset_peak();
    let base = live_bytes();
    let stats = service.stats();
    (peak_above(base), stats)
}

#[test]
fn a_million_requests_grow_neither_the_service_nor_its_stats_call() {
    let g = generators::grid(6, 6);
    let oracle = OracleBuilder::new()
        .seed(Seed(1))
        .build(&g)
        .unwrap()
        .artifact;
    let service = OracleService::new(
        oracle,
        ServiceConfig {
            policy: ExecutionPolicy::Sequential,
            cache: Some(CacheConfig::default()),
        },
    );
    let first = service.query(0, 35);
    let (after_one, _) = stats_peak(&service);
    let live = live_bytes();
    // every later request is a cache hit: one latency sample each
    for _ in 1..1_000_000 {
        assert_eq!(service.query(0, 35), first);
    }
    let grown = live_bytes().saturating_sub(live);
    let (after_million, stats) = stats_peak(&service);
    assert_eq!((stats.served, stats.cache_hits), (1_000_000, 999_999));
    assert!(
        grown < 1 << 16,
        "1e6 requests grew the service by {grown} B"
    );
    assert_eq!(after_million, after_one, "stats() after 1e6 requests");
    assert!(after_one < 1 << 10, "stats() allocated {after_one} B");
}
