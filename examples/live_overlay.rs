//! Execute a CROC plan on real loopback TCP: plan against ideal
//! profiles, open one endpoint per allocated broker and client, wire
//! the overlay edges, and stream real publications through it.
//!
//! ```sh
//! cargo run --release --example live_overlay
//! ```

use greenps::broker::{NetDeployment, NetPublisher, NetScenario, NetSubscriber};
use greenps::core::croc::{plan, PlanConfig};
use greenps::core::pipeline::{CancelToken, ReconfigContext};
use greenps::profile::ClosenessMetric;
use greenps::pubsub::filter::stock_advertisement;
use greenps::pubsub::ids::{AdvId, ClientId, MsgId};
use greenps::pubsub::message::{Advertisement, Subscription};
use greenps_bench::ideal_input;
use greenps_net::TcpTransport;
use greenps_workload::{ScenarioBuilder, Topology};

fn main() {
    // Plan offline from ideal profiles.
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(300)
        .seed(3)
        .build();
    scenario.brokers.truncate(24);
    let input = ideal_input(&scenario);
    let plan = plan(
        &input,
        &PlanConfig::cram(ClosenessMetric::Ios),
        &ReconfigContext::new(),
    )
    .expect("plan");
    println!(
        "plan: {} brokers (of {}), root {}",
        plan.broker_count(),
        scenario.broker_count(),
        plan.overlay.root()
    );

    // The planned overlay; publishers at their GRAPE homes with a
    // pre-generated burst of 20 quotes each; the first 50 subscriptions
    // at their allocated brokers.
    let net = NetScenario {
        brokers: scenario
            .brokers
            .iter()
            .filter(|b| plan.overlay.node(b.id).is_some())
            .cloned()
            .collect(),
        edges: plan.overlay.edges().collect(),
        publishers: scenario
            .stocks
            .iter()
            .enumerate()
            .map(|(i, stock)| {
                let adv = AdvId::new(i as u64 + 1);
                NetPublisher {
                    client: ClientId::new(i as u64 + 1),
                    broker: plan
                        .publisher_homes
                        .get(&adv)
                        .copied()
                        .unwrap_or(plan.overlay.root()),
                    advertisement: Advertisement::new(adv, stock_advertisement(&stock.symbol)),
                    publications: (0..20)
                        .map(|m| stock.publication(adv, MsgId::new(m)))
                        .collect(),
                }
            })
            .collect(),
        subscribers: scenario
            .subs
            .iter()
            .take(50)
            .map(|sub| NetSubscriber {
                client: ClientId::new(1_000 + sub.id.raw()),
                broker: plan.subscription_homes[&sub.id],
                subscription: Subscription::new(sub.id, sub.filter.clone()),
            })
            .collect(),
    };
    let report = NetDeployment::build(&mut TcpTransport::new(), &net)
        .expect("build overlay")
        .run(&CancelToken::new())
        .expect("run overlay");

    let matched: u64 = report.broker_stats.values().map(|s| s.matched).sum();
    println!(
        "published {} quotes; delivered {} to {} subscribers over loopback TCP \
         ({matched} broker matches across {} brokers, {:.0} ms)",
        report.published,
        report.total_delivered(),
        net.subscribers.len(),
        report.broker_stats.len(),
        report.elapsed.as_secs_f64() * 1e3
    );
    assert!(report.total_delivered() > 0, "the overlay must deliver");
}
