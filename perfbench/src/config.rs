//! Workload names and the sizes each one runs at.
//!
//! Every number that shapes a run lives here, so `README.md` and
//! `BENCHMARK.json` can point at one place. `--toy` swaps in tiny sizes
//! for the smoke test; the measured configuration is [`Sizes::full`].

use psh_exec::ExecutionPolicy;

/// The policy passed wherever an API takes one: the serving host has two
/// cores, and `psh-server` runs `Parallel { threads: 2 }` there when
/// `PSH_THREADS` is unset.
pub const POLICY: ExecutionPolicy = ExecutionPolicy::Parallel { threads: 2 };

/// Stretch parameter of the weighted spanner (`SpannerBuilder::weighted`).
pub const SPANNER_K: f64 = 4.0;

/// Sampled-stretch bound for a weighted spanner: the `16k + 4` the
/// repository's spanner integration tests assert.
pub const SPANNER_STRETCH_BOUND: f64 = 16.0 * SPANNER_K + 4.0;

/// Upper stretch factor for weighted-oracle answers: the `3×` bound of
/// the repository's weighted query-property tests.
pub const ORACLE_STRETCH_BOUND: f64 = 3.0;

/// Log-uniform edge weights span this ratio on every graph.
pub const WEIGHT_RATIO: f64 = 64.0;

/// Graph updates at the end of every round: inserts alternating with
/// the deletes that undo them, so each round leaves the served graph
/// where it began.
pub const UPDATES_PER_ROUND: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dense weighted R-MATs: the offline pipeline plus the spanner, then
    /// one thread querying the opened snapshot. Nothing is served.
    Build,
    /// Road-like grid served over loopback; uniform pairs, cache off.
    ServeUniform,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Build, Workload::ServeUniform];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "build",
            Workload::ServeUniform => "serve_uniform",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn served(self) -> bool {
        self != Workload::Build
    }
}

/// Input sizes and repetition counts for one run.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Side of the `grid2d` serving graph (n = side²).
    pub grid_side: usize,
    /// R-MAT vertex count and edge draws per vertex (`build`).
    pub rmat_n: usize,
    pub rmat_draws: usize,
    /// Graphs per run, each with its own derived seed and oracle seed; the
    /// rounds cycle through them. Query, set-up and update times differ by
    /// up to a fifth between inputs of these sizes, so one graph per run
    /// would make the seed, not the program, set the spread between runs.
    pub graphs: usize,
    /// Rounds per run. Each round sets up afresh, warms up, measures
    /// `--seconds / rounds` of traffic and makes its updates, so one run
    /// samples the host's state many times over its whole length.
    pub rounds: usize,
    /// Spanner constructions averaged into `spanner_size_ratio`, one
    /// derived seed each.
    pub spanner_seeds: usize,
    /// Timed repetitions of the first construction; `spanner_s` is the
    /// 10th percentile of their times.
    pub spanner_reps: usize,
    /// Uniform pairs per caller, cycled (every received answer is checked,
    /// and a short cycle keeps the reference answers cheap to compute),
    /// and warm-up pairs per caller and round.
    pub uniform_len: usize,
    pub uniform_warmup: usize,
    /// Pairs checked against Dijkstra after the phase.
    pub stretch_pairs: usize,
    /// Edges sampled for the spanner's stretch check.
    pub spanner_sample: usize,
    /// Requests per caller replayed at each layer in a traced run.
    pub replay_len: usize,
    /// Pairs per `query_batch` timed for `exec.batch_speedup`.
    pub batch_len: usize,
    /// Repetitions of each timed layer call in a traced run.
    pub layer_reps: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            grid_side: 50,
            rmat_n: 1 << 9,
            rmat_draws: 16,
            graphs: 8,
            rounds: 48,
            spanner_seeds: 7,
            spanner_reps: 61,
            uniform_len: 128,
            uniform_warmup: 4,
            stretch_pairs: 100,
            spanner_sample: 400,
            replay_len: 256,
            batch_len: 64,
            layer_reps: 7,
        }
    }

    /// Tiny inputs for the smoke test: every code path, little time.
    pub fn toy() -> Sizes {
        Sizes {
            grid_side: 8,
            rmat_n: 256,
            rmat_draws: 8,
            graphs: 2,
            rounds: 2,
            spanner_seeds: 2,
            spanner_reps: 2,
            uniform_len: 2_000,
            uniform_warmup: 4,
            stretch_pairs: 16,
            spanner_sample: 50,
            replay_len: 20,
            batch_len: 8,
            layer_reps: 2,
        }
    }
}

/// A seed derived from the run seed for one purpose (`tag`), so inputs,
/// traffic and builds draw from unrelated streams.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    psh_core::Seed(seed).child(tag).0
}
