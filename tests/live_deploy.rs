//! A CROC plan executed on real loopback TCP: the overlay the planner
//! designed must deliver real publications across OS threads and
//! sockets, subscriber by subscriber exactly as the filter oracle says.

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
use std::collections::BTreeMap;

#[test]
fn plan_runs_on_live_threads() {
    // Scaled-down broker capacities force a multi-broker overlay, so
    // publications cross planned broker-to-broker edges.
    let mut scenario = ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(120)
        .capacity_scale(0.05)
        .seed(51)
        .build();
    scenario.brokers.truncate(12);
    let input = ideal_input(&scenario);
    let plan = plan(
        &input,
        &PlanConfig::cram(ClosenessMetric::Ios),
        &ReconfigContext::new(),
    )
    .expect("plan");
    assert!(plan.overlay.edges().next().is_some(), "multi-broker plan");

    // The planned overlay with every subscriber at its planned home,
    // but only the first stock publishes (from its GRAPE home):
    // subscribers of the other stocks must stay silent.
    let stock = &scenario.stocks[0];
    let adv = AdvId::new(1);
    let net = NetScenario {
        brokers: scenario
            .brokers
            .iter()
            .filter(|b| plan.overlay.node(b.id).is_some())
            .cloned()
            .collect(),
        edges: plan.overlay.edges().collect(),
        publishers: vec![NetPublisher {
            client: ClientId::new(1),
            broker: plan
                .publisher_homes
                .get(&adv)
                .copied()
                .unwrap_or(plan.overlay.root()),
            advertisement: Advertisement::new(adv, stock_advertisement(&stock.symbol)),
            publications: (0..30)
                .map(|m| stock.publication(adv, MsgId::new(m)))
                .collect(),
        }],
        subscribers: scenario
            .subs
            .iter()
            .map(|sub| NetSubscriber {
                client: ClientId::new(100 + sub.id.raw()),
                broker: plan.subscription_homes[&sub.id],
                subscription: Subscription::new(sub.id, sub.filter.clone()),
            })
            .collect(),
    };
    let published = &net.publishers[0].publications;
    let expected: BTreeMap<ClientId, Vec<(u64, u64)>> = net
        .subscribers
        .iter()
        .map(|s| {
            let mut want: Vec<(u64, u64)> = published
                .iter()
                .filter(|p| s.subscription.filter.matches(p))
                .map(|p| (p.adv_id.raw(), p.msg_id.raw()))
                .collect();
            want.sort_unstable();
            (s.client, want)
        })
        .collect();
    assert!(expected.values().any(|want| !want.is_empty()));
    assert!(expected.values().any(Vec::is_empty));

    let report = NetDeployment::build(&mut TcpTransport::new(), &net)
        .expect("build overlay")
        .run(&CancelToken::new())
        .expect("run overlay");
    assert_eq!(report.published, 30);
    assert_eq!(report.send_errors, 0);
    assert_eq!(report.deliveries, expected);
}
