//! `reconfig-sim-4k`: the whole three-phase CROC reconfiguration
//! (`ReconfigPipeline` with CRAM-INTERSECT) on the simulated homogeneous
//! scenario, with the paper's windows.

use crate::metrics::{mean, median, Report};
use crate::{breakdown, instance_seed, plan, repeat_for, sys, RunOpts, SpanAcc};
use greenps_broker::RunMetrics;
use greenps_core::croc::{AllocatePhase, BuildOverlayPhase, ReconfigurationPlan};
use greenps_core::pipeline::{Phase, PhaseKind, PipelineError, ReconfigContext};
use greenps_profile::ClosenessMetric;
use greenps_simnet::SimDuration;
use greenps_telemetry::Registry;
use greenps_workload::pipeline::{GatherPhase, MeasureOut, MeasurePhase, PlacementOut};
use greenps_workload::{
    from_plan, Approach, Placement, ReconfigPipeline, RunConfig, Scenario, ScenarioBuilder,
    Topology,
};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Input size of the workload.
#[derive(Debug, Clone, Copy)]
pub struct ReconfigSize {
    /// Subscriptions.
    pub subs: usize,
    /// Broker pool.
    pub brokers: usize,
    /// Simulated warm-up, profile and measure windows, in seconds.
    pub windows_s: (u64, u64, u64),
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

impl ReconfigSize {
    /// The paper's homogeneous scenario at 4,000 subscriptions.
    pub const FULL: ReconfigSize = ReconfigSize {
        subs: 4000,
        brokers: 80,
        windows_s: (5, 90, 90),
        setups: 5,
    };
}

/// Set-up: scenario generation.
pub fn build_scenario(size: &ReconfigSize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(size.subs)
        .brokers(size.brokers)
        .seed(seed)
        .build()
}

fn run_config(size: &ReconfigSize, seed: u64) -> RunConfig {
    let (warmup, profile, measure) = size.windows_s;
    RunConfig {
        warmup: SimDuration::from_secs(warmup),
        profile: SimDuration::from_secs(profile),
        measure: SimDuration::from_secs(measure),
        seed,
    }
}

/// What one reconfiguration produced.
#[derive(Debug, Clone)]
pub struct Reconfigured {
    /// The CROC plan.
    pub plan: ReconfigurationPlan,
    /// The placement deployed from it.
    pub placement: Placement,
    /// The measured deployment (rates renormalized to the pool).
    pub metrics: RunMetrics,
}

/// One untimed-overhead-free reconfiguration through the public
/// pipeline: `run_until(Measure)` runs exactly the phases of `run()`
/// and hands back the checkpoints, from which the plan and the
/// measurement are read after the clock stops.
///
/// # Errors
/// Propagates pipeline failures and checkpoint decode failures.
pub fn reconfigure(
    scenario: &Scenario,
    cfg: RunConfig,
    ctx: &ReconfigContext,
) -> Result<(f64, Reconfigured), String> {
    let pipeline =
        ReconfigPipeline::approach(scenario, Approach::Cram(ClosenessMetric::Intersect), cfg);
    let t0 = Instant::now();
    let store = pipeline
        .run_until(ctx, PhaseKind::Measure)
        .map_err(|e| e.to_string())?;
    let wall = t0.elapsed().as_secs_f64();
    let load = |kind| format!("checkpoint of {kind:?} missing");
    let plan = store
        .load::<ReconfigurationPlan>(PhaseKind::BuildOverlay)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| load(PhaseKind::BuildOverlay))?;
    let placement = store
        .load::<PlacementOut>(PhaseKind::Deploy)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| load(PhaseKind::Deploy))?
        .0;
    let metrics = store
        .load::<MeasureOut>(PhaseKind::Measure)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| load(PhaseKind::Measure))?
        .0;
    Ok((
        wall,
        Reconfigured {
            plan,
            placement,
            metrics,
        },
    ))
}

/// Correctness of a reconfiguration: every subscription has a home in
/// the plan and in the deployed placement, every home is a deployed
/// broker, and the measured deployment delivered publications.
pub fn check_reconfig(scenario: &Scenario, r: &Reconfigured) -> Vec<String> {
    let mut errors = Vec::new();
    for sub in &scenario.subs {
        if !r.plan.subscription_homes.contains_key(&sub.id) {
            errors.push(format!("subscription {} has no home in the plan", sub.id));
        }
    }
    let deployed: BTreeSet<_> = r.placement.spec.brokers.iter().map(|b| b.id).collect();
    if r.placement.subscriber_homes.len() != scenario.subs.len() {
        errors.push(format!(
            "placement homes {} of {} subscriptions",
            r.placement.subscriber_homes.len(),
            scenario.subs.len()
        ));
    }
    for home in &r.placement.subscriber_homes {
        if !deployed.contains(home) {
            errors.push(format!("subscriber home {home} is not deployed"));
        }
    }
    if r.metrics.deliveries == 0 {
        errors.push("the reconfigured deployment delivered nothing".to_string());
    }
    errors
}

/// Runs the workload: as many scenario instances as fit in the budget,
/// each set up `size.setups` times and reconfigured once; or, traced,
/// one instance reconfigured three ways (see below).
pub fn run(size: &ReconfigSize, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let threads = sys::available_parallelism();
    let effective = threads.min(greenps_core::engine::available_threads());
    report.note("subscriptions", size.subs);
    report.note("broker_pool", size.brokers);
    report.note("threads", threads);
    report.note("effective_threads", effective);
    report.failed.insert("pipeline_errors", 0);
    let ctx = ReconfigContext::new().with_threads(threads);
    let mut setups = Vec::new();
    let mut set_up = |j: usize| {
        let seed = instance_seed(opts.seed, j);
        let mut scenario = None;
        for _ in 0..size.setups.max(1) {
            let t0 = Instant::now();
            scenario = Some(black_box(build_scenario(size, seed)));
            setups.push(t0.elapsed().as_secs_f64());
        }
        (
            scenario.expect("at least one set-up"),
            run_config(size, seed),
        )
    };
    let untraced = |report: &mut Report, scenario: &Scenario, cfg: RunConfig| {
        let c0 = sys::process_cpu();
        let result = reconfigure(scenario, cfg, &ctx);
        let cpu = (sys::process_cpu() - c0).as_secs_f64();
        *report.attempted.entry("reconfigurations").or_default() += 1;
        match result {
            Ok((wall, r)) => Some((wall, cpu, r)),
            Err(e) => {
                *report.failed.entry("pipeline_errors").or_default() += 1;
                report.note("pipeline_error", e);
                None
            }
        }
    };

    if !opts.trace {
        let mut errors = Vec::new();
        let mut deliveries = 0;
        let runs = repeat_for(opts.seconds, |j| {
            let (scenario, cfg) = set_up(j);
            let (wall, cpu, r) = untraced(&mut report, &scenario, cfg)?;
            errors.extend(check_reconfig(&scenario, &r));
            deliveries += r.metrics.deliveries;
            let brokers = r.placement.spec.brokers.len() as f64;
            Some([wall, cpu, brokers, r.metrics.avg_broker_msg_rate])
        });
        let ok: Vec<_> = runs.iter().flatten().collect();
        if ok.is_empty() {
            errors.push("no reconfiguration succeeded".into());
        }
        report.check("reconfig_valid", errors);
        let col = |i: usize| ok.iter().map(|r| r[i]).collect::<Vec<_>>();
        let per_item = 1e6 / size.subs as f64;
        report.set("setup_s", median(&setups));
        report.set("wall_us_per_item", mean(&col(0)) * per_item);
        report.set("cpu_us_per_item", mean(&col(1)) * per_item);
        report.set("allocated_brokers", mean(&col(2)));
        report.set("msg_rate", mean(&col(3)));
        report.set("peak_rss_mib", sys::peak_rss_mib());
        report.note("reconfig_s", mean(&col(0)));
        report.note("instances", runs.len());
        report.note("setup_runs", setups.len());
        report.note("deliveries", deliveries);
        return report;
    }

    // Traced run, one instance three times: through the pipeline
    // untraced (the end-to-end figure), phase by phase untraced (the
    // difference is the pipeline's own overhead: checkpoint artifacts),
    // and phase by phase traced (the difference is tracing's cost).
    let (scenario, cfg) = set_up(0);
    let base = untraced(&mut report, &scenario, cfg);
    let mut direct = [SpanAcc::default(); 5];
    let t0 = Instant::now();
    let direct_ok = traced_phases(&scenario, cfg, &ctx, &mut direct).is_ok();
    let direct_wall = t0.elapsed().as_secs_f64();
    let registry = Registry::new();
    let tctx = ReconfigContext::new()
        .with_threads(threads)
        .with_registry(&registry);
    let mut spans = [SpanAcc::default(); 5];
    let t0 = Instant::now();
    let traced = traced_phases(&scenario, cfg, &tctx, &mut spans);
    let wall = t0.elapsed().as_secs_f64();
    *report.attempted.entry("reconfigurations").or_default() += 2;
    let traced = match traced {
        Ok(r) if direct_ok => r,
        Ok(_) | Err(_) => {
            *report.failed.entry("pipeline_errors").or_default() += 1;
            report.check("reconfig_valid", vec!["a phase-by-phase run failed".into()]);
            return report;
        }
    };
    report.check("reconfig_valid", check_reconfig(&scenario, &traced));
    let same = match &base {
        Some((_, _, b))
            if b.metrics.avg_broker_msg_rate == traced.metrics.avg_broker_msg_rate
                && b.placement.spec.brokers.len() == traced.placement.spec.brokers.len()
                && b.metrics.deliveries == traced.metrics.deliveries =>
        {
            vec![]
        }
        Some(_) => vec!["traced reconfiguration differs from the untraced one".to_string()],
        None => vec!["untraced reconfiguration failed".to_string()],
    };
    report.check("traced_equals_untraced", same);
    let names = [
        ("workload.gather", "workload.gather_s"),
        ("core.allocate", "core.allocate_s"),
        ("core.build_overlay", "core.build_overlay_s"),
        ("workload.from_plan", "workload.from_plan_s"),
        ("workload.measure", "workload.measure_s"),
    ];
    for ((_, metric), span) in names.iter().zip(&spans) {
        report.set(metric, span.secs());
    }
    let rows: Vec<(&str, f64)> = names
        .iter()
        .zip(&spans)
        .map(|((span, _), acc)| (*span, acc.secs()))
        .collect();
    breakdown(&mut report, wall, &rows);
    let direct_sum: f64 = direct.iter().map(SpanAcc::secs).sum();
    let base_wall = base.as_ref().map_or(direct_sum, |b| b.0);
    report.set("pipeline.overhead_s", base_wall - direct_sum);
    report.set(
        "telemetry.overhead_pct",
        100.0 * (wall - direct_wall) / direct_wall,
    );
    let snap = registry.snapshot();
    plan::cram_layer_metrics(&mut report, &snap);
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    let delivered = counter("simnet.delivered");
    let dropped = counter("simnet.dropped");
    report.set("simnet.delivered", delivered);
    report.set(
        "simnet.events_per_s",
        delivered / (spans[0].secs() + spans[4].secs()).max(1e-9),
    );
    report.set(
        "simnet.max_queue_wait_us",
        snap.gauges
            .get("simnet.max_queue_wait_us")
            .copied()
            .unwrap_or(0) as f64,
    );
    report.set("phase1.bir_rounds", counter("phase1.bir_rounds"));
    report.set("effective_threads", effective as f64);
    report.set("failed_frac", dropped / (delivered + dropped).max(1.0));
    *report.attempted.entry("simnet_messages").or_default() += (delivered + dropped) as u64;
    *report.failed.entry("simnet_dropped").or_default() += dropped as u64;
    report.note("reconfig_s", wall);
    report
}

/// The pipeline's phases called one by one, without checkpoints, each
/// inside a bench-side span: gather, allocate, build overlay,
/// `from_plan`, measure.
fn traced_phases(
    scenario: &Scenario,
    cfg: RunConfig,
    ctx: &ReconfigContext,
    spans: &mut [SpanAcc; 5],
) -> Result<Reconfigured, PipelineError> {
    let config = plan::config();
    let gathered = spans[0].time(|| GatherPhase { scenario, cfg }.run((), ctx))?;
    let input = &gathered.input;
    let planned = spans[1].time(|| AllocatePhase { input, config }.run((), ctx))?;
    let plan = spans[2].time(|| BuildOverlayPhase { input, config }.run(planned, ctx))?;
    let placement = spans[3].time(|| from_plan(scenario, &plan));
    let deploy = PlacementOut(placement.clone());
    let measured = spans[4].time(|| MeasurePhase { scenario, cfg }.run(deploy, ctx))?;
    Ok(Reconfigured {
        plan,
        placement,
        metrics: measured.0,
    })
}
