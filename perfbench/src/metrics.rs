//! The metric names this benchmark emits, with their units, and the
//! helpers that reduce samples to them. `BENCHMARK.json` lists the same
//! names; the smoke test holds the two together.

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("build_peak_mb", "MiB"),
    ("snapshot_mb", "MiB"),
    ("spanner_size_ratio", "ratio"),
    ("qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("update_visible_ms", "ms"),
    ("answered_share", "ratio"),
    ("stretch_max", "ratio"),
    ("stretch_mean", "ratio"),
];

/// Per-layer metrics, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("graph.read_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.work", "count"),
    ("hopset.build_s", "s"),
    ("hopset.edges", "count"),
    ("hopset.work", "count"),
    ("hopset.depth", "count"),
    ("oracle.build_s", "s"),
    ("oracle.build_work", "count"),
    ("spanner.edges", "count"),
    ("spanner.work", "count"),
    ("spanner.stretch_sampled", "ratio"),
    ("snapshot.save_s", "s"),
    ("snapshot.open_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("oracle.query_ms.p50", "ms"),
    ("oracle.query_ms.p99", "ms"),
    ("oracle.query_work", "count"),
    ("oracle.query_depth", "count"),
    ("service.query_ms.p50", "ms"),
    ("service.query_ms.p99", "ms"),
    ("service.self_ms.p50", "ms"),
    ("service.batch_mean", "count"),
    ("service.hit_share", "ratio"),
    ("service.stats_ms", "ms"),
    ("service.swap_ms", "ms"),
    ("net.query_ms.p50", "ms"),
    ("net.query_ms.p99", "ms"),
    ("net.self_ms.p50", "ms"),
    ("net.stats_ms", "ms"),
    ("net.rejected", "count"),
    ("net.reload_ms", "ms"),
    ("journal.append_ms", "ms"),
    ("journal.fold_ms", "ms"),
    ("journal.rebuild_ms", "ms"),
    ("exec.build_speedup", "ratio"),
    ("exec.batch_speedup", "ratio"),
    ("trace.overhead_share", "ratio"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 50.0)
}

/// Nearest-rank percentile, the serving layer's own definition.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    psh_core::service::percentile(xs, p)
}

/// Name/value pairs collected for one output table.
#[derive(Default)]
pub struct Table(pub Vec<(&'static str, f64)>);

impl Table {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The table in `names` order with units; errors on a missing,
    /// duplicated or non-finite value, so a run never prints a partial
    /// or malformed result.
    pub fn finish(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let mut out = Vec::with_capacity(names.len());
        for &(name, unit) in names {
            let found: Vec<f64> = self
                .0
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            match found[..] {
                [v] if v.is_finite() => out.push((name, unit, v)),
                [v] => return Err(format!("metric {name} is not finite ({v})")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was measured twice")),
            }
        }
        if let Some((extra, _)) = self
            .0
            .iter()
            .find(|(n, _)| !names.iter().any(|(m, _)| m == n))
        {
            return Err(format!("metric {extra} is not declared"));
        }
        Ok(out)
    }
}
