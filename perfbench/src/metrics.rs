//! The benchmark's metric vocabulary and its one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; the
//! test `vocabulary_matches_benchmark_json` keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CROC allocate + finish_plan on 8,000 ideal-profiled subscriptions.
    Plan,
    /// The whole simulated three-phase reconfiguration on 4,000.
    Reconfig,
    /// Publications over a 4-broker loopback-TCP overlay.
    Publish,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Plan, Workload::Reconfig, Workload::Publish];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plan => "plan-8k",
            Workload::Reconfig => "reconfig-sim-4k",
            Workload::Publish => "publish-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// End-to-end metrics, measured with tracing off. Every workload
/// reports every one of them; an "item" is a subscription planned
/// (`plan-8k`, `reconfig-sim-4k`) or a delivery (`publish-tcp`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_us_per_item", "us"),
    ("cpu_us_per_item", "us"),
    ("peak_rss_mib", "MiB"),
    ("allocated_brokers", "count"),
    ("msg_rate", "msgs/s"),
];

use Workload::{Plan, Publish, Reconfig};

/// Per-layer metrics of the traced run, with the workloads whose layers
/// produce them. A traced run reports every name; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &[Workload])] = &[
    ("failed_frac", "ratio", &[Plan, Reconfig, Publish]),
    ("telemetry.overhead_pct", "%", &[Plan, Reconfig, Publish]),
    ("unexplained_pct", "%", &[Plan, Reconfig, Publish]),
    ("effective_threads", "count", &[Plan, Reconfig]),
    // profile + core, plan-8k
    ("core.croc.allocate_s", "s", &[Plan]),
    ("core.croc.finish_plan_s", "s", &[Plan]),
    ("cram.closeness_computations", "count", &[Plan, Reconfig]),
    ("cram.iterations", "count", &[Plan, Reconfig]),
    ("cram.merges", "count", &[Plan, Reconfig]),
    ("cram.tile.pruned_pct", "%", &[Plan, Reconfig]),
    ("core.pair_cache.hit_ratio", "ratio", &[Plan, Reconfig]),
    ("cram.scan_us_p50", "us", &[Plan, Reconfig]),
    ("cram.scan_us_p99", "us", &[Plan, Reconfig]),
    // workload + simnet, reconfig-sim-4k
    ("workload.gather_s", "s", &[Reconfig]),
    ("core.allocate_s", "s", &[Reconfig]),
    ("core.build_overlay_s", "s", &[Reconfig]),
    ("workload.from_plan_s", "s", &[Reconfig]),
    ("workload.measure_s", "s", &[Reconfig]),
    ("pipeline.overhead_s", "s", &[Reconfig]),
    ("simnet.delivered", "count", &[Reconfig]),
    ("simnet.events_per_s", "1/s", &[Reconfig]),
    ("simnet.max_queue_wait_us", "us", &[Reconfig]),
    ("phase1.bir_rounds", "count", &[Reconfig]),
    // broker + net + pubsub, publish-tcp
    ("broker.on_message_us_per_msg", "us", &[Publish]),
    ("net.send_us_per_frame", "us", &[Publish]),
    ("net.poll_wait_s", "s", &[Publish]),
    ("broker.b0.busy_frac", "ratio", &[Publish]),
    ("broker.b1.busy_frac", "ratio", &[Publish]),
    ("broker.b2.busy_frac", "ratio", &[Publish]),
    ("broker.b3.busy_frac", "ratio", &[Publish]),
    ("net.background_cpu_s", "s", &[Publish]),
    ("open_loop.cpu_us_per_delivery", "us", &[Publish]),
    ("transport.frames_sent", "count", &[Publish]),
    ("transport.bytes_per_delivery", "B", &[Publish]),
    ("transport.decode_errors", "count", &[Publish]),
    ("transport.stale_events_fenced", "count", &[Publish]),
    ("generator.late_ms_p99", "ms", &[Publish]),
    ("backlog_end", "count", &[Publish]),
    ("latency_p50_ms", "ms", &[Publish]),
    ("latency_p99_ms", "ms", &[Publish]),
];

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `None` when it held, else why not.
    pub error: Option<String>,
}

impl Check {
    /// A check from a list of violations (empty = pass). Only the first
    /// few are kept.
    pub fn from_errors(name: &str, errors: Vec<String>) -> Self {
        let error = match errors.len() {
            0 => None,
            n => Some(format!(
                "{} violation(s): {}",
                n,
                errors.into_iter().take(3).collect::<Vec<_>>().join("; ")
            )),
        };
        Check {
            name: name.to_string(),
            error,
        }
    }
}

/// What one benchmark invocation produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted, by name.
    pub attempted: BTreeMap<&'static str, u64>,
    /// Operations failed, by name.
    pub failed: BTreeMap<&'static str, u64>,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Metric values by name (end-to-end or per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context and the workload's own figures, printed before the result.
    pub detail: BTreeMap<String, String>,
    /// Traced runs: each span's share of the end-to-end wall, in %.
    pub breakdown: Vec<(String, f64)>,
}

impl Report {
    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a detail value.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    /// Records a check.
    pub fn check(&mut self, name: &str, errors: Vec<String>) {
        self.checks.push(Check::from_errors(name, errors));
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.error.is_none())
    }

    /// Total attempted operations.
    pub fn total_attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    /// Total failed operations.
    pub fn total_failed(&self) -> u64 {
        self.failed.values().sum()
    }

    /// The metrics the contract asks for: every end-to-end metric with
    /// tracing off, every per-layer metric with tracing on.
    ///
    /// # Errors
    /// Fails when a metric the workload owns is missing or not finite.
    pub fn contract_metrics(
        &self,
        workload: Workload,
        trace: bool,
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let wanted: Vec<(&'static str, &'static str, bool)> = if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u, owners)| (n, u, owners.contains(&workload)))
                .collect()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n, u, true)).collect()
        };
        let mut out = Vec::with_capacity(wanted.len());
        for (name, unit, owned) in wanted {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if !owned => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            out.push((name, unit, value));
        }
        Ok(out)
    }

    /// The context line printed before the result.
    pub fn detail_json(&self) -> String {
        let mut rows: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), scalar(v)))
            .collect();
        for (key, map) in [("attempted", &self.attempted), ("failed", &self.failed)] {
            let counts = map.iter().map(|(k, v)| format!("{}: {v}", quote(k)));
            rows.push(format!("{}: {}", quote(key), object(counts)));
        }
        let checks = self.checks.iter().map(|c| {
            let verdict = c.error.as_deref().map_or("\"ok\"".to_string(), quote);
            format!("{}: {verdict}", quote(&c.name))
        });
        rows.push(format!("\"checks\": {}", object(checks)));
        if !self.breakdown.is_empty() {
            let shares = self
                .breakdown
                .iter()
                .map(|(k, pct)| format!("{}: {pct}", quote(k)));
            rows.push(format!("\"breakdown_pct\": {}", object(shares)));
        }
        object(rows.into_iter())
    }

    /// The contract's result line.
    ///
    /// # Errors
    /// See [`Report::contract_metrics`].
    pub fn result_json(&self, workload: Workload, trace: bool) -> Result<String, String> {
        let metrics = self
            .contract_metrics(workload, trace)?
            .into_iter()
            .map(|(n, u, v)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u)));
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.total_attempted().max(1),
            self.total_failed(),
            object(metrics)
        ))
    }
}

/// A JSON object from already rendered `"key": value` members.
fn object(members: impl Iterator<Item = String>) -> String {
    format!("{{{}}}", members.collect::<Vec<_>>().join(", "))
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Detail values that parse as numbers or booleans print bare.
fn scalar(v: &str) -> String {
    if v == "true" || v == "false" || v.parse::<f64>().is_ok_and(f64::is_finite) {
        v.to_string()
    } else {
        quote(v)
    }
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
