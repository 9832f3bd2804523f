//! # greenps-bench
//!
//! Shared input builders for the criterion micro-benchmarks and the
//! `experiments` binary that regenerates every figure/table of the
//! paper (see DESIGN.md §4 for the experiment index E1–E10).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use greenps_core::cram::CramBuilder;
use greenps_core::model::{AllocationInput, SubscriptionEntry};
use greenps_profile::{ClosenessMetric, PublisherProfile, PublisherTable, SubscriptionProfile};
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_workload::scenario::Scenario;
use greenps_workload::{ScenarioBuilder, Topology};
use std::time::Instant;

/// Number of publications per publisher used to fill synthetic
/// profiles.
pub const PROFILE_WINDOW: u64 = 400;

/// Peak resident set size of this process in KiB, read from the
/// `VmHWM` line of `/proc/self/status`. `None` on non-Linux targets
/// (reports render it as JSON `null`) so `BENCH_cram.json` and
/// `BENCH_scale.json` share one memory column everywhere.
pub fn peak_rss_kib() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status.lines().find_map(|line| {
            line.strip_prefix("VmHWM:")?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()
        })
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Renders [`peak_rss_kib`] as a JSON scalar (`null` off-Linux).
fn peak_rss_json() -> String {
    match peak_rss_kib() {
        Some(kib) => kib.to_string(),
        None => "null".to_string(),
    }
}

/// Builds an [`AllocationInput`] directly from a scenario by evaluating
/// every subscription filter against the stocks' publication streams —
/// "ideal" Phase-1 profiles without running the simulator. Used by the
/// algorithm-only experiments (E7–E9) and the criterion benches.
pub fn ideal_input(scenario: &Scenario) -> AllocationInput {
    let mut input = AllocationInput::new();
    for cfg in &scenario.brokers {
        input.brokers.push(greenps_core::model::BrokerSpec::new(
            cfg.id,
            cfg.url.clone(),
            cfg.matching_delay,
            cfg.out_bandwidth,
        ));
    }
    let rate = 1e6 / scenario.publish_period.as_micros() as f64;
    let mut publishers = PublisherTable::new();
    let mut streams: Vec<Vec<greenps_pubsub::Publication>> = Vec::new();
    for (i, stock) in scenario.stocks.iter().enumerate() {
        let adv = AdvId::new(i as u64 + 1);
        let pubs: Vec<greenps_pubsub::Publication> = (0..PROFILE_WINDOW)
            .map(|m| stock.publication(adv, MsgId::new(m)))
            .collect();
        let mean_size =
            pubs.iter().map(|p| p.wire_size()).sum::<usize>() as f64 / pubs.len() as f64;
        publishers.insert(PublisherProfile::new(
            adv,
            rate,
            rate * mean_size,
            MsgId::new(PROFILE_WINDOW - 1),
        ));
        streams.push(pubs);
    }
    input.publishers = publishers;

    for sub in &scenario.subs {
        let mut profile = SubscriptionProfile::new();
        let stream = &streams[sub.publisher_index];
        for p in stream {
            if sub.filter.matches(p) {
                profile.record(p.adv_id, p.msg_id);
            }
        }
        input
            .subscriptions
            .push(SubscriptionEntry::new(sub.id, sub.filter.clone(), profile));
    }
    input
}

/// A small sanity check used by benches: every subscription id is
/// unique and profiles are non-trivially filled.
pub fn check_input(input: &AllocationInput) {
    let mut seen = std::collections::BTreeSet::new();
    for s in &input.subscriptions {
        assert!(seen.insert(s.id), "duplicate sub id {:?}", s.id);
    }
    let filled = input
        .subscriptions
        .iter()
        .filter(|s| s.profile.count_ones() > 0)
        .count();
    assert!(
        filled * 2 >= input.subscriptions.len(),
        "most profiles should record publications ({filled}/{})",
        input.subscriptions.len()
    );
    let _ = SubId::new(0);
}

/// Runs the CRAM oracle ([`CramBuilder::run_reference`]: per-profile
/// pair walks, no tiling, one thread) against the production engine
/// (contiguous arena, tiled pair evaluation, `threads` workers)
/// for CRAM-INTERSECT at each subscription count and renders the
/// `BENCH_cram.json` report body. The key vocabulary of the emitted
/// JSON is declared as `benchkey` entries in
/// `analysis/telemetry-schema.txt` and checked by
/// `tests/experiments_smoke.rs` — keep the three in sync.
///
/// `sequential_ms` times the oracle; `parallel_ms` times production.
/// `effective_threads` reports how many workers the tuned run could
/// actually use on this machine (`available_parallelism` caps the
/// request — a single-core box runs the tuned engine's layout and
/// tiling wins, but no thread-level ones).
///
/// # Panics
/// Panics when CRAM fails on a generated scenario or the tuned run is
/// not bit-identical to the reference (allocation and every stat except
/// `closeness_computations`, which tiling may only lower).
pub fn bench_report_json(sizes: &[usize], threads: usize, quick: bool) -> String {
    use greenps_core::cram::DEFAULT_TILE;
    let available = greenps_core::engine::available_threads();
    let effective_threads = threads.max(1).min(available);
    let mut runs = Vec::new();
    for &n in sizes {
        // Larger clusters keep the bin-packing feasibility baseline
        // satisfiable at 16k subscriptions.
        let scenario = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(n)
            .brokers((n / 50).max(80))
            .seed(9)
            .build();
        let input = ideal_input(&scenario);
        let t0 = Instant::now();
        let (ref_alloc, ref_stats) = CramBuilder::new(ClosenessMetric::Intersect)
            .run_reference(&input)
            .expect("reference CRAM");
        let sequential_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let (tuned_alloc, tuned_stats) = CramBuilder::new(ClosenessMetric::Intersect)
            .threads(threads)
            .run(&input)
            .expect("tuned CRAM");
        let parallel_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            ref_alloc, tuned_alloc,
            "tuned CRAM must produce a bit-identical allocation"
        );
        assert!(
            tuned_stats.closeness_computations <= ref_stats.closeness_computations,
            "tiling may only lower closeness computations: {} vs {}",
            tuned_stats.closeness_computations,
            ref_stats.closeness_computations
        );
        let mut normalized = tuned_stats;
        normalized.closeness_computations = ref_stats.closeness_computations;
        assert_eq!(
            normalized, ref_stats,
            "tuned CRAM stats must match outside tile pruning"
        );
        let speedup = sequential_ms / parallel_ms.max(1e-9);
        let reduction = 100.0
            * (ref_stats.closeness_computations - tuned_stats.closeness_computations) as f64
            / (ref_stats.closeness_computations as f64).max(1.0);
        println!(
            "bench-report: {n} subs / {} brokers -> reference {sequential_ms:.1} ms, \
             tuned(arena, tile {DEFAULT_TILE}, x{effective_threads}) {parallel_ms:.1} ms \
             ({speedup:.2}x, {reduction:.1}% fewer closeness computations), identical allocation",
            scenario.brokers.len()
        );
        runs.push(format!(
            "    {{\"subscriptions\": {n}, \"brokers\": {}, \"threads\": {threads}, \
             \"effective_threads\": {effective_threads}, \"layout\": \"arena\", \
             \"tile\": {DEFAULT_TILE}, \"sequential_ms\": {sequential_ms:.3}, \
             \"parallel_ms\": {parallel_ms:.3}, \"speedup\": {speedup:.3}, \
             \"allocated_brokers\": {}, \"merges\": {}, \
             \"closeness_computations\": {}, \"reference_computations\": {}, \
             \"reduction\": {reduction:.3}, \"peak_rss_kib\": {}, \"identical\": true}}",
            scenario.brokers.len(),
            ref_alloc.broker_count(),
            ref_stats.merges,
            tuned_stats.closeness_computations,
            ref_stats.closeness_computations,
            peak_rss_json(),
        ));
    }
    format!(
        "{{\n  \"metric\": \"INTERSECT\",\n  \"quick\": {},\n  \
         \"available_parallelism\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        quick,
        available,
        runs.join(",\n")
    )
}

/// Publishers per zone used by the scale report's zoned workloads.
pub const SCALE_PUBS_PER_ZONE: usize = 8;

/// Seed of the scale-report workloads.
pub const SCALE_SEED: u64 = 11;

/// Runs the hierarchical zoned allocator ([`greenps_core::zones`]) over
/// streaming zoned workloads — one `(subscriptions, zones)` row each —
/// and renders the `BENCH_scale.json` report body. Zones are generated
/// and profiled on demand by [`greenps_workload::zones::ZonedStreamFeed`],
/// so peak RSS tracks the largest zone rather than the whole workload;
/// every row records it via [`peak_rss_kib`] (note `VmHWM` is a
/// high-water mark, so rows share the process-lifetime peak so far).
///
/// The key vocabulary of the emitted JSON is declared as `benchkey`
/// entries in `analysis/telemetry-schema.txt` and checked by
/// `tests/experiments_smoke.rs` — keep the three in sync.
///
/// # Panics
/// Panics when the zoned allocator fails on a generated workload or a
/// row drops subscriptions.
pub fn scale_report_json(rows: &[(usize, usize)], zone_threads: usize, quick: bool) -> String {
    use greenps_core::zones::{zoned_allocate, ZonedConfig};
    use greenps_telemetry::Registry;
    use greenps_workload::zones::{ZonedSpec, ZonedStreamFeed};

    let available = greenps_core::engine::available_threads();
    let effective_threads = zone_threads.max(1).min(available);
    let mut rendered = Vec::new();
    for &(subs, zones) in rows {
        let spec = ZonedSpec {
            zones: zones.max(1),
            skew: 1,
            total_subs: subs,
            pubs_per_zone: SCALE_PUBS_PER_ZONE,
            seed: SCALE_SEED,
        };
        let largest_zone = spec.zone_sub_counts().into_iter().max().unwrap_or(0);
        let mut feed = ZonedStreamFeed::new(spec, PROFILE_WINDOW);
        let brokers = feed.broker_pool((subs / 50).max(80));
        let publishers = feed.publishers().clone();
        let registry = Registry::new();
        let config =
            ZonedConfig::with_metric(ClosenessMetric::Intersect).zone_threads(zone_threads);
        let t0 = Instant::now();
        let zoned = zoned_allocate(&mut feed, &brokers, &publishers, &config, &registry)
            .expect("zoned CRAM");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            zoned.sub_count(),
            subs,
            "every subscription must be allocated"
        );
        let rss = peak_rss_json();
        println!(
            "scale-report: {subs} subs / {zones} zones (largest {largest_zone}) -> \
             {} brokers in {wall_ms:.0} ms, {} cross-zone links, peak RSS {rss} KiB",
            zoned.allocation.broker_count(),
            zoned.cross_links,
        );
        rendered.push(format!(
            "    {{\"subscriptions\": {subs}, \"zones\": {}, \"brokers\": {}, \
             \"threads\": {zone_threads}, \"effective_threads\": {effective_threads}, \
             \"largest_zone\": {largest_zone}, \"gifs\": {}, \
             \"allocated_brokers\": {}, \"cross_links\": {}, \
             \"wall_ms\": {wall_ms:.3}, \"peak_rss_kib\": {rss}}}",
            zoned.zone_count(),
            brokers.len(),
            zoned.zones.iter().map(|z| z.gifs).sum::<usize>(),
            zoned.allocation.broker_count(),
            zoned.cross_links,
        ));
    }
    format!(
        "{{\n  \"metric\": \"INTERSECT\",\n  \"quick\": {},\n  \
         \"available_parallelism\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        quick,
        available,
        rendered.join(",\n")
    )
}

/// Deploys a stock-chain overlay as real loopback TCP processes — one
/// `(brokers, publications-per-publisher)` row each — over
/// [`greenps_net::TcpTransport`], measures throughput and per-broker
/// delivery latency, and renders the `BENCH_transport.json` report
/// body. Transport counters (`transport.*`) come straight out of the
/// telemetry registry the transport records into; per-broker latency
/// samples are additionally folded into the declared
/// `broker.b<id>.delivery_delay_us` histograms so a `--telemetry`
/// export sees the same numbers as the report.
///
/// The key vocabulary of the emitted JSON is declared as `benchkey`
/// entries in `analysis/telemetry-schema.txt` and checked by
/// `tests/experiments_smoke.rs` — keep the three in sync.
///
/// # Panics
/// Panics when the loopback deployment cannot bind, connect, or
/// complete a run.
pub fn transport_report_json(rows: &[(usize, u64)], quick: bool) -> String {
    use greenps_broker::{NetDeployment, NetScenario};
    use greenps_core::pipeline::CancelToken;
    use greenps_net::TcpTransport;
    use greenps_telemetry::Registry;

    let mut rendered = Vec::new();
    for &(brokers, publications) in rows {
        let registry = Registry::new();
        let scenario = NetScenario::stock_chain(brokers, publications);
        let mut transport = TcpTransport::with_telemetry(&registry);
        let deployment =
            NetDeployment::build(&mut transport, &scenario).expect("build tcp overlay");
        let report = deployment
            .run(&CancelToken::never())
            .expect("run tcp overlay");
        for (b, lat) in &report.latency_us_by_broker {
            let hist = registry.histogram(&format!("broker.b{}.delivery_delay_us", b.raw()));
            for &us in lat {
                hist.record(us);
            }
        }
        let snap = registry.snapshot();
        let wire = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let delivered = report.total_delivered();
        let elapsed_ms = report.elapsed.as_secs_f64() * 1e3;
        let msgs_per_sec = report.delivered_per_sec();
        let mean_hops = match report.mean_hops {
            Some(h) => format!("{h:.3}"),
            None => "null".to_string(),
        };
        let mut latency_rows = Vec::new();
        for (b, lat) in &report.latency_us_by_broker {
            let mut sorted = lat.clone();
            sorted.sort_unstable();
            let samples = sorted.len();
            let mean_us = sorted.iter().sum::<u64>() as f64 / samples.max(1) as f64;
            let p99_us = sorted
                .get(((samples.saturating_sub(1)) * 99) / 100)
                .copied()
                .unwrap_or(0);
            latency_rows.push(format!(
                "{{\"broker\": {}, \"samples\": {samples}, \
                 \"mean_us\": {mean_us:.1}, \"p99_us\": {p99_us}}}",
                b.raw()
            ));
        }
        println!(
            "transport-report: {brokers} brokers x {publications} pubs over tcp-loopback -> \
             {delivered} delivered in {elapsed_ms:.0} ms ({msgs_per_sec:.0} msgs/s, \
             {} frames on the wire)",
            wire("transport.frames_sent"),
        );
        rendered.push(format!(
            "    {{\"brokers\": {brokers}, \"publications\": {publications}, \
             \"published\": {}, \"delivered\": {delivered}, \
             \"msgs_per_sec\": {msgs_per_sec:.3}, \"elapsed_ms\": {elapsed_ms:.3}, \
             \"send_errors\": {}, \"mean_hops\": {mean_hops}, \
             \"frames_sent\": {}, \"frames_received\": {}, \
             \"bytes_sent\": {}, \"bytes_received\": {}, \
             \"latency\": [{}]}}",
            report.published,
            report.send_errors,
            wire("transport.frames_sent"),
            wire("transport.frames_received"),
            wire("transport.bytes_sent"),
            wire("transport.bytes_received"),
            latency_rows.join(", "),
        ));
    }
    format!(
        "{{\n  \"backend\": \"tcp-loopback\",\n  \"quick\": {},\n  \"runs\": [\n{}\n  ]\n}}\n",
        quick,
        rendered.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_input_profiles_match_selectivity() {
        let mut s = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(200)
            .seed(3)
            .build();
        s.brokers.truncate(10);
        let input = ideal_input(&s);
        check_input(&input);
        assert_eq!(input.subscriptions.len(), 200);
        assert_eq!(input.brokers.len(), 10);
        assert_eq!(input.publishers.len(), 40);
        // Template subscriptions (2 predicates) sink the whole window.
        for e in &input.subscriptions {
            if e.filter.len() == 2 {
                assert_eq!(e.profile.count_ones() as u64, PROFILE_WINDOW);
            } else {
                assert!(e.profile.count_ones() as u64 <= PROFILE_WINDOW);
            }
        }
        // ~70 msg/min
        let p = input.publishers.iter().next().unwrap();
        assert!((p.rate - 70.0 / 60.0).abs() < 0.01);
    }
}
