//! A journal reload leaves one copy of the served graph between the
//! `JournalReloader` and the oracle it swapped into the service: the
//! reloader reads the swapped-in oracle's graph instead of keeping its
//! own. This file is its own test binary with one test, so the
//! process-wide allocation counters see only it.

use psh_bench::alloc::{live_bytes, CountingAlloc};
use psh_core::api::{OracleBuilder, Seed};
use psh_core::hopset::HopsetParams;
use psh_core::service::{OracleService, ServiceConfig};
use psh_core::snapshot::{append_journal, journal_path, JournalReloader, OracleMeta};
use psh_exec::ExecutionPolicy;
use psh_graph::{generators, GraphDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes that dropping `value` frees.
fn freed_by<T>(value: T) -> usize {
    let before = live_bytes();
    drop(value);
    before.saturating_sub(live_bytes())
}

#[test]
fn after_a_reload_the_reloader_and_the_served_oracle_hold_one_graph_copy() {
    // perfbench's `serve_uniform` shape: a 50² king grid, weight ratio 64
    let mut rng = StdRng::seed_from_u64(7);
    let g = generators::with_log_uniform_weights(&generators::grid2d(50, 50), 64.0, &mut rng);
    let copy = freed_by(g.clone());
    let run = OracleBuilder::new()
        .execution(ExecutionPolicy::Sequential)
        .seed(Seed(7))
        .build(&g)
        .unwrap();
    let meta = OracleMeta::of_run(&run, HopsetParams::default());
    let service = OracleService::new(
        run.artifact,
        ServiceConfig::with_policy(ExecutionPolicy::Sequential),
    );
    let base = std::env::temp_dir().join(format!("psh_journal_memory_{}", std::process::id()));
    let jpath = journal_path(&base);
    std::fs::remove_file(&jpath).ok();

    // before its first rebuild a reloader holds the graph it was given
    let idle = JournalReloader::new(&base, g.clone(), meta);
    assert!(freed_by(idle) >= copy, "one graph copy is {copy} B");

    let mut reloader = JournalReloader::new(&base, g.clone(), meta);
    let mut delta = GraphDelta::new(g.n());
    delta.insert(0, (g.n() - 1) as u32, 3).unwrap();
    append_journal(&jpath, &delta).unwrap();
    let report = reloader.poll(&service).unwrap().expect("one new record");
    assert_eq!((report.epoch, report.records), (1, 1));
    std::fs::remove_file(&jpath).unwrap();

    // after it, the reloader holds no graph of its own, and the served
    // oracle holds the one copy (plus its hopsets, under a copy's size)
    let reloader_bytes = freed_by(reloader);
    assert!(
        reloader_bytes < copy / 100,
        "the reloader still frees {reloader_bytes} B; one graph copy is {copy} B"
    );
    let service_bytes = freed_by(service);
    assert!(
        (copy..2 * copy).contains(&service_bytes),
        "the service frees {service_bytes} B; one graph copy is {copy} B"
    );
}
