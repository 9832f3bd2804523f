//! `plan-8k`: CROC Phase 2 + 3 (`croc::allocate` then
//! `croc::finish_plan`) over ideal profiles of the homogeneous paper
//! scenario. The `profile` and `core` layers do all the work.

use crate::metrics::{mean, median, Report};
use crate::{breakdown, instance_seed, repeat_for, sys, RunOpts, SpanAcc};
use greenps_core::croc::{allocate, finish_plan, PlanConfig, PlanError, ReconfigurationPlan};
use greenps_core::model::AllocationInput;
use greenps_core::pipeline::{Artifact, ReconfigContext};
use greenps_profile::ClosenessMetric;
use greenps_pubsub::ids::SubId;
use greenps_telemetry::{Registry, Snapshot};
use greenps_workload::{ScenarioBuilder, Topology};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct PlanSize {
    /// Subscriptions.
    pub subs: usize,
    /// Broker pool.
    pub brokers: usize,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

impl PlanSize {
    /// The paper's largest E7 size.
    pub const FULL: PlanSize = PlanSize {
        subs: 8000,
        brokers: 80,
        setups: 3,
    };
}

/// Set-up: scenario generation plus ideal Phase-1 profiling.
pub fn build_input(size: &PlanSize, seed: u64) -> AllocationInput {
    let scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(size.subs)
        .brokers(size.brokers)
        .seed(seed)
        .build();
    greenps_bench::ideal_input(&scenario)
}

/// The planner configuration under test.
pub fn config() -> PlanConfig {
    PlanConfig::cram(ClosenessMetric::Intersect)
}

/// One plan: allocate, then finish_plan.
///
/// # Errors
/// Propagates planning errors.
pub fn plan_once(
    input: &AllocationInput,
    ctx: &ReconfigContext,
) -> Result<ReconfigurationPlan, PlanError> {
    let config = config();
    let planned = allocate(input, &config, ctx)?;
    finish_plan(input, planned, &config, ctx)
}

/// Correctness of a plan: every subscription placed exactly once in the
/// allocation and in the overlay, no broker over its output bandwidth
/// or matching rate, and the overlay a tree.
pub fn check_plan(input: &AllocationInput, plan: &ReconfigurationPlan) -> Vec<String> {
    let mut errors = Vec::new();
    let expected: BTreeMap<SubId, usize> = input.subscriptions.iter().map(|s| (s.id, 0)).collect();
    let mut placed_once = |what: &str, ids: &mut dyn Iterator<Item = SubId>| {
        let mut seen = expected.clone();
        for id in ids {
            match seen.get_mut(&id) {
                Some(n) => *n += 1,
                None => errors.push(format!("{what} places unknown subscription {id}")),
            }
        }
        for (id, n) in seen {
            if n != 1 {
                errors.push(format!("{what} places subscription {id} {n} times"));
            }
        }
    };
    placed_once(
        "allocation",
        &mut plan.allocation.loads.iter().flat_map(|l| l.sub_ids()),
    );
    placed_once(
        "overlay",
        &mut plan
            .overlay
            .nodes()
            .flat_map(|n| n.units.iter().flat_map(|u| u.subs.iter().copied())),
    );
    let specs: BTreeMap<_, _> = input.brokers.iter().map(|b| (b.id, b)).collect();
    for load in &plan.allocation.loads {
        let Some(spec) = specs.get(&load.broker) else {
            errors.push(format!("allocation uses unknown broker {}", load.broker));
            continue;
        };
        if load.out_bw_used > spec.out_bandwidth {
            errors.push(format!(
                "broker {} allocated {} B/s of {} B/s output",
                load.broker, load.out_bw_used, spec.out_bandwidth
            ));
        }
        let max_rate = spec.matching_delay.max_rate(load.sub_count());
        if load.in_rate > max_rate + 1e-9 {
            errors.push(format!(
                "broker {} allocated {} msg/s over its matching rate {max_rate}",
                load.broker, load.in_rate
            ));
        }
    }
    for node in plan.overlay.nodes() {
        let Some(spec) = specs.get(&node.broker) else {
            errors.push(format!("overlay uses unknown broker {}", node.broker));
            continue;
        };
        if node.out_bw_used > spec.out_bandwidth {
            errors.push(format!(
                "overlay broker {} uses {} B/s of {} B/s output",
                node.broker, node.out_bw_used, spec.out_bandwidth
            ));
        }
        let max_rate = spec.matching_delay.max_rate(node.route_entries);
        if node.in_rate > max_rate + 1e-9 {
            errors.push(format!(
                "overlay broker {} receives {} msg/s over its matching rate {max_rate}",
                node.broker, node.in_rate
            ));
        }
    }
    let tree = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        plan.overlay.check_tree();
    }));
    if tree.is_err() {
        errors.push("overlay.check_tree() failed".to_string());
    }
    errors
}

/// The plan's predicted average broker message rate over the pool: the
/// input publication rate of every overlay broker, summed, over the
/// pool size — the planning-time counterpart of the measured rate.
pub fn predicted_msg_rate(plan: &ReconfigurationPlan, pool: usize) -> f64 {
    plan.overlay.nodes().map(|n| n.in_rate).sum::<f64>() / pool.max(1) as f64
}

/// A plan rendered as its checkpoint JSON, for identity checks.
pub fn fingerprint(plan: &ReconfigurationPlan) -> String {
    let mut out = String::new();
    plan.to_json().write(&mut out);
    out
}

/// Runs the workload: as many input instances as fit in the budget,
/// each set up `size.setups` times and planned once; or, traced, one
/// instance planned untraced and then traced.
pub fn run(size: &PlanSize, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let threads = sys::available_parallelism();
    let effective = threads.min(greenps_core::engine::available_threads());
    report.note("subscriptions", size.subs);
    report.note("broker_pool", size.brokers);
    report.note("threads", threads);
    report.note("effective_threads", effective);
    report.failed.insert("plan_errors", 0);
    let ctx = ReconfigContext::new().with_threads(threads);
    let mut setups = Vec::new();
    let mut set_up = |j: usize| {
        let mut input = None;
        for _ in 0..size.setups.max(1) {
            let t0 = Instant::now();
            input = Some(black_box(build_input(size, instance_seed(opts.seed, j))));
            setups.push(t0.elapsed().as_secs_f64());
        }
        input.expect("at least one set-up")
    };
    let untraced = |report: &mut Report, input: &AllocationInput| {
        let c0 = sys::process_cpu();
        let t0 = Instant::now();
        let result = plan_once(input, &ctx);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = (sys::process_cpu() - c0).as_secs_f64();
        *report.attempted.entry("plans").or_default() += 1;
        match result {
            Ok(plan) => Some((wall, cpu, plan)),
            Err(e) => {
                *report.failed.entry("plan_errors").or_default() += 1;
                report.note("plan_error", e);
                None
            }
        }
    };

    if !opts.trace {
        let mut errors = Vec::new();
        let runs = repeat_for(opts.seconds, |j| {
            let input = set_up(j);
            let (wall, cpu, plan) = untraced(&mut report, &input)?;
            errors.extend(check_plan(&input, &plan));
            let brokers = plan.broker_count() as f64;
            Some([wall, cpu, brokers, predicted_msg_rate(&plan, size.brokers)])
        });
        let ok: Vec<_> = runs.iter().flatten().collect();
        if ok.is_empty() {
            errors.push("no plan succeeded".into());
        }
        report.check("plan_valid", errors);
        let col = |i: usize| ok.iter().map(|r| r[i]).collect::<Vec<_>>();
        let per_item = 1e6 / size.subs as f64;
        report.set("setup_s", median(&setups));
        report.set("wall_us_per_item", mean(&col(0)) * per_item);
        report.set("cpu_us_per_item", mean(&col(1)) * per_item);
        report.set("allocated_brokers", mean(&col(2)));
        report.set("msg_rate", mean(&col(3)));
        report.set("peak_rss_mib", sys::peak_rss_mib());
        report.note("plan_s", mean(&col(0)));
        report.note("instances", runs.len());
        report.note("setup_runs", setups.len());
        return report;
    }

    // Traced run: one instance, planned untraced for the overhead
    // baseline, then with the registry on and bench-side spans around
    // each call.
    let input = set_up(0);
    let base = untraced(&mut report, &input);
    let registry = Registry::new();
    let tctx = ReconfigContext::new()
        .with_threads(threads)
        .with_registry(&registry);
    let config = config();
    let mut alloc_span = SpanAcc::default();
    let mut finish_span = SpanAcc::default();
    let t0 = Instant::now();
    let traced = alloc_span
        .time(|| allocate(&input, &config, &tctx))
        .and_then(|planned| finish_span.time(|| finish_plan(&input, planned, &config, &tctx)));
    let wall = t0.elapsed().as_secs_f64();
    *report.attempted.entry("plans").or_default() += 1;
    let traced = match traced {
        Ok(plan) => plan,
        Err(e) => {
            *report.failed.entry("plan_errors").or_default() += 1;
            report.check("plan_valid", vec![format!("traced plan failed: {e}")]);
            return report;
        }
    };
    report.check("plan_valid", check_plan(&input, &traced));
    let identical = match &base {
        Some((_, _, plan)) if fingerprint(plan) == fingerprint(&traced) => vec![],
        Some(_) => vec!["traced plan differs from the untraced plan".to_string()],
        None => vec!["untraced plan failed".to_string()],
    };
    report.check("traced_equals_untraced", identical);
    let base_wall = base.as_ref().map_or(wall, |b| b.0);
    report.set(
        "telemetry.overhead_pct",
        100.0 * (wall - base_wall) / base_wall,
    );
    report.set("core.croc.allocate_s", alloc_span.secs());
    report.set("core.croc.finish_plan_s", finish_span.secs());
    breakdown(
        &mut report,
        wall,
        &[
            ("core.croc.allocate", alloc_span.secs()),
            ("core.croc.finish_plan", finish_span.secs()),
        ],
    );
    cram_layer_metrics(&mut report, &registry.snapshot());
    report.set("effective_threads", effective as f64);
    let failed = report.total_failed() as f64 / report.total_attempted().max(1) as f64;
    report.set("failed_frac", failed);
    report.note("plan_s", wall);
    report
}

/// The CRAM and pair-cache counters the program records.
pub fn cram_layer_metrics(report: &mut Report, snap: &Snapshot) {
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let computations = counter("cram.closeness_computations");
    report.set("cram.closeness_computations", computations);
    report.set("cram.iterations", counter("cram.iterations"));
    report.set("cram.merges", counter("cram.merges"));
    let pruned = counter("cram.tile.pruned");
    report.set(
        "cram.tile.pruned_pct",
        100.0 * pruned / (pruned + computations).max(1.0),
    );
    let hits = counter("core.pair_cache.hits");
    let misses = counter("core.pair_cache.misses");
    report.set("core.pair_cache.hit_ratio", hits / (hits + misses).max(1.0));
    let scan = snap.histograms.get("cram.scan_us");
    let q = |q: f64| scan.map_or(0.0, |h| histogram_quantile(&h.buckets, h.count, q));
    report.set("cram.scan_us_p50", q(0.5));
    report.set("cram.scan_us_p99", q(0.99));
}

/// Upper bound of the power-of-two bucket holding quantile `q`.
pub fn histogram_quantile(buckets: &[(u64, u64)], count: u64, q: f64) -> f64 {
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for &(bound, n) in buckets {
        seen += n;
        if seen >= rank {
            return bound as f64;
        }
    }
    0.0
}
