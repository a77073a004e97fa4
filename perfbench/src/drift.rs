//! Host-drift diagnostic. Each run times a fixed calibration loop at its
//! start and end and reads the host's steal counter, so a set of runs
//! taken while the host ran slower can be recognised for what it is. The
//! numbers are reported beside the metrics and never used to rescale them.

use std::time::Instant;

/// Milliseconds of a fixed integer loop (xorshift, 2²⁴ steps): the same
/// instructions on every run, so its time tracks the host's speed.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The aggregate `steal` ticks from the kernel's `/proc/stat` (0 where
/// the counter is unavailable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub calib_ms: f64,
    pub steal: u64,
}

pub fn probe() -> Probe {
    Probe {
        calib_ms: calibrate(),
        steal: steal_ticks(),
    }
}
