//! The benchmark's own tests, at tiny sizes: the vocabulary matches
//! `BENCHMARK.json`, every workload emits every metric with its unit,
//! and a seeded defect makes the matching correctness check fail.

use greenps_core::pipeline::ReconfigContext;
use greenps_perfbench::metrics::{Report, Workload, END_TO_END, PER_LAYER};
use greenps_perfbench::plan::{self, PlanSize};
use greenps_perfbench::publish::{self, Inputs, PublishSize};
use greenps_perfbench::reconfig::{self, ReconfigSize};
use greenps_perfbench::RunOpts;
use greenps_telemetry::Registry;
use std::sync::Arc;

const PLAN: PlanSize = PlanSize {
    subs: 240,
    brokers: 12,
    setups: 1,
};

const RECONFIG: ReconfigSize = ReconfigSize {
    subs: 240,
    brokers: 12,
    windows_s: (2, 20, 20),
    setups: 1,
};

const PUBLISH: PublishSize = PublishSize {
    subs: 200,
    window: 16,
    rate: 400.0,
    setups: 1,
};

fn opts(trace: bool) -> RunOpts {
    RunOpts {
        seed: 3,
        seconds: 0.5,
        trace,
    }
}

fn run(workload: Workload, trace: bool) -> Report {
    match workload {
        Workload::Plan => plan::run(&PLAN, &opts(trace)),
        Workload::Reconfig => reconfig::run(&RECONFIG, &opts(trace)),
        Workload::Publish => publish::run(&PUBLISH, &opts(trace)),
    }
}

/// `"name": "<x>"` and `"unit": "<y>"` values, in order, inside the
/// array that follows `key` in `json`.
fn field_values(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    let section = &json[open..close];
    let marker = format!("\"{field}\": \"");
    section
        .match_indices(&marker)
        .map(|(i, _)| {
            let rest = &section[i + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

#[test]
fn vocabulary_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |key| field_values(&json, key, "name");
    let units = |key| field_values(&json, key, "unit");
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(names("workloads"), workloads);
    assert_eq!(
        names("end_to_end"),
        END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert_eq!(
        units("end_to_end"),
        END_TO_END.iter().map(|m| m.1).collect::<Vec<_>>()
    );
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
    );
    assert_eq!(
        units("per_layer"),
        PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
    );
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(workload, trace);
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                workload.name(),
                report.checks
            );
            let line = report
                .result_json(workload, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let wanted: Vec<(&str, &str)> = if trace {
                PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
            } else {
                END_TO_END.to_vec()
            };
            for (name, unit) in wanted {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
                let tail = &line[at..];
                let unit_at = tail.find("\"unit\": ").expect("unit");
                assert!(
                    tail[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")),
                    "{}: {name} has the wrong unit",
                    workload.name()
                );
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            if !trace {
                for (name, _) in END_TO_END {
                    let v = report.metrics[name];
                    assert!(v > 0.0, "{}: end-to-end {name} reads {v}", workload.name());
                }
            }
        }
    }
}

#[test]
fn plan_check_catches_a_subscription_allocated_twice() {
    let input = plan::build_input(&PLAN, 5);
    let ctx = ReconfigContext::new();
    let good = plan::plan_once(&input, &ctx).expect("tiny plan");
    assert!(plan::check_plan(&input, &good).is_empty());

    let mut twice = good.clone();
    let unit = twice.allocation.loads[0].units[0].clone();
    let last = twice.allocation.loads.len() - 1;
    twice.allocation.loads[last].units.push(unit);
    assert!(!plan::check_plan(&input, &twice).is_empty());

    let mut missing = good.clone();
    missing.allocation.loads[0].units[0].subs.pop();
    assert!(!plan::check_plan(&input, &missing).is_empty());

    let mut overloaded = good;
    overloaded.allocation.loads[0].out_bw_used = f64::MAX;
    assert!(!plan::check_plan(&input, &overloaded).is_empty());
}

#[test]
fn reconfig_check_catches_an_unplaced_subscription() {
    let scenario = reconfig::build_scenario(&RECONFIG, 5);
    let ctx = ReconfigContext::new();
    let cfg = greenps_workload::RunConfig {
        warmup: greenps_simnet::SimDuration::from_secs(2),
        profile: greenps_simnet::SimDuration::from_secs(20),
        measure: greenps_simnet::SimDuration::from_secs(20),
        seed: 5,
    };
    let (_, good) = reconfig::reconfigure(&scenario, cfg, &ctx).expect("tiny reconfiguration");
    assert!(reconfig::check_reconfig(&scenario, &good).is_empty());

    let mut unplaced = good.clone();
    let first = scenario.subs[0].id;
    unplaced.plan.subscription_homes.remove(&first);
    assert!(!reconfig::check_reconfig(&scenario, &unplaced).is_empty());

    let mut silent = good;
    silent.metrics.deliveries = 0;
    assert!(!reconfig::check_reconfig(&scenario, &silent).is_empty());
}

#[test]
fn delivery_check_catches_a_dropped_or_duplicated_delivery() {
    let inputs = Arc::new(Inputs::generate(&PUBLISH, 5));
    let m = publish::measure(&PUBLISH, &inputs, 0.5, &Registry::disabled(), false)
        .expect("tiny overlay runs");
    assert!(m.published > 0);
    assert!(publish::check_deliveries(&inputs, &m.record, m.published).is_empty());

    let k = (0..m.published)
        .find(|&k| inputs.expected(k) != 0)
        .expect("a publication with deliveries") as usize;
    let bit = m.record.got[k] & m.record.got[k].wrapping_neg();

    let mut dropped = m.record.clone();
    dropped.got[k] &= !bit;
    assert!(!publish::check_deliveries(&inputs, &dropped, m.published).is_empty());

    let mut duplicated = m.record.clone();
    duplicated.duplicates += 1;
    assert!(!publish::check_deliveries(&inputs, &duplicated, m.published).is_empty());

    let mut stray = m.record;
    let missing = !inputs.expected(k as u64) & 0x0f;
    if missing != 0 {
        stray.got[k] |= missing;
        assert!(!publish::check_deliveries(&inputs, &stray, m.published).is_empty());
    }
}
