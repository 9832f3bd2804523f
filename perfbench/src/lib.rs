//! # greenps-perfbench
//!
//! One benchmark for the greenps workspace: three workloads that stress
//! different layers, end-to-end metrics measured with tracing off, and a
//! separate traced run that breaks the time down by layer. See
//! `README.md` in this directory for the metric table and the baseline.
//!
//! Tracing here means bench-side spans around calls into the layers'
//! public functions, plus the counters and spans the program already
//! records into an enabled [`greenps_telemetry::Registry`].

pub mod metrics;
pub mod plan;
pub mod publish;
pub mod reconfig;
pub mod sys;

use std::time::{Duration, Instant};

/// What the command line asks for.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Runs `op(0)`, `op(1)`, … at least once, then again while one more
/// run (at the median length so far) still fits in `budget` seconds.
/// Returns the outputs in order.
pub fn repeat_for<T>(budget: f64, mut op: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut lengths = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(op(out.len()));
        lengths.push(t0.elapsed().as_secs_f64());
        let next = metrics::median(&lengths);
        if start.elapsed().as_secs_f64() + next > budget {
            return out;
        }
    }
}

/// Seed of input instance `j` of a run seeded with `seed`. A run
/// measures several instances so that its figure averages over inputs,
/// not just over repeats of one input.
pub fn instance_seed(seed: u64, j: usize) -> u64 {
    SplitMix::new(seed ^ ((j as u64) << 40)).next_u64() >> 16
}

/// Accumulated time of one bench-side span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanAcc {
    /// Total time inside the span.
    pub time: Duration,
}

impl SpanAcc {
    /// Times `f` into this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.time += t0.elapsed();
        out
    }

    /// Seconds inside the span.
    pub fn secs(&self) -> f64 {
        self.time.as_secs_f64()
    }
}

/// Fills the traced run's breakdown: each span's share of `wall`, plus
/// the uncovered remainder as `unexplained`, and sets the
/// `unexplained_pct` metric.
pub fn breakdown(report: &mut metrics::Report, wall: f64, spans: &[(&str, f64)]) {
    let wall = wall.max(1e-12);
    let covered: f64 = spans.iter().map(|(_, s)| s).sum();
    for (name, secs) in spans {
        report
            .breakdown
            .push((name.to_string(), 100.0 * secs / wall));
    }
    let unexplained = 100.0 * (wall - covered) / wall;
    report
        .breakdown
        .push(("unexplained".to_string(), unexplained));
    report.set("unexplained_pct", unexplained);
}

/// 64-bit SplitMix: the benchmark's own seeded generator for choices
/// the scenario generator does not make (instance seeds, placement of
/// subscribers on the loopback brokers, publication order).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
