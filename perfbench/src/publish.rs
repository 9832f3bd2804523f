//! `publish-tcp`: the data plane over loopback TCP.
//!
//! Four brokers form a tree (B0 root, B1 and B2 under it, B3 under B1).
//! Each is a `BrokerCore` on its own thread, blocking in
//! `TcpEndpoint::poll`. One collector endpoint attaches to every broker
//! and issues all subscriptions; one publisher endpoint attaches to B0
//! and advertises every stock. The benchmark hosts the brokers itself
//! because the program has no entry point that accepts external clients
//! on a schedule.
//!
//! Phase A is closed-loop (at most `window` publications in flight) and
//! gives throughput. Phase B is open-loop at a fixed rate and gives CPU
//! per delivery and latency, timed from each publication's scheduled
//! send time to its receipt at the collector. The publisher and the
//! collector are the only load-side threads.

use crate::metrics::{median, quantile, Report};
use crate::{sys, RunOpts, SplitMix};
use greenps_broker::logic::{BrokerCore, BrokerSink};
use greenps_broker::{BrokerConfig, BrokerMsg, PubEnvelope};
use greenps_core::model::LinearFn;
use greenps_net::{
    Endpoint, EndpointAddr, NetEvent, NodeName, TcpEndpoint, TcpTransport, Transport,
};
use greenps_pubsub::filter::stock_advertisement;
use greenps_pubsub::ids::{AdvId, BrokerId, ClientId, MsgId};
use greenps_pubsub::message::{Advertisement, Publication, Subscription};
use greenps_pubsub::Filter;
use greenps_simnet::{SimDuration, SimTime};
use greenps_telemetry::Registry;
use greenps_workload::{ScenarioBuilder, Topology};
use std::sync::atomic::{
    AtomicBool, AtomicU64, AtomicUsize,
    Ordering::{Relaxed, SeqCst},
};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Brokers in the overlay.
pub const BROKERS: usize = 4;
/// Overlay edges (parent, child).
pub const EDGES: [(u64, u64); 3] = [(0, 1), (0, 2), (1, 3)];
/// Client endpoint names sit far above the broker ids.
const COLLECTOR: NodeName = 1 << 32;
const PUBLISHER: NodeName = (1 << 32) + 1;
/// Phase A samples its delivery rate over sub-windows of this length.
/// Co-tenant load on a shared host (CPU steal) only ever slows a
/// window, so the 90th percentile of the window rates tracks the
/// overlay's own capacity far more steadily than the mean does.
const A_WINDOW: Duration = Duration::from_millis(250);
/// Phase B samples CPU per delivery over sub-windows of this length.
const B_WINDOW: Duration = Duration::from_millis(500);
/// How long blocked loops wait before re-checking their stop flag.
const POLL_WAIT: Duration = Duration::from_millis(20);
/// Trading days per stock in the publication pool.
const DAYS: u64 = 252;

/// Input size and load of the workload.
#[derive(Debug, Clone, Copy)]
pub struct PublishSize {
    /// Subscriptions spread over the brokers.
    pub subs: usize,
    /// Phase A: publications in flight at most.
    pub window: usize,
    /// Phase B: offered publications per second.
    pub rate: f64,
    /// Set-ups timed for `setup_s`.
    pub setups: usize,
}

impl PublishSize {
    /// The benchmark's size.
    pub const FULL: PublishSize = PublishSize {
        subs: 2000,
        window: 256,
        rate: 2000.0,
        setups: 15,
    };
}

/// The generated inputs: where each subscription lives, the publication
/// pool and order, and the delivery oracle.
pub struct Inputs {
    /// Subscriptions with their home broker.
    pub subs: Vec<(Subscription, usize)>,
    /// One advertisement per stock.
    pub ads: Vec<Advertisement>,
    /// Distinct publication contents (stock × trading day).
    pub pool: Vec<Publication>,
    /// Publication `k` carries `pool[order[k % pool.len()]]`.
    pub order: Vec<usize>,
    /// Per pool entry: bit `b` is set when broker `b` must deliver it.
    pub oracle: Vec<u8>,
    /// Per broker: routing-table size once the control plane settled.
    pub settled_tables: [usize; BROKERS],
}

impl Inputs {
    /// Generates the inputs for `seed`.
    pub fn generate(size: &PublishSize, seed: u64) -> Self {
        let scenario = ScenarioBuilder::new(Topology::Homogeneous)
            .total_subs(size.subs)
            .seed(seed)
            .build();
        let mut rng = SplitMix::new(seed ^ 0x7c9_7c9);
        let ads: Vec<Advertisement> = scenario
            .stocks
            .iter()
            .enumerate()
            .map(|(i, s)| Advertisement::new(adv_id(i), stock_advertisement(&s.symbol)))
            .collect();
        let subs: Vec<(Subscription, usize)> = scenario
            .subs
            .iter()
            .map(|g| {
                (
                    Subscription::new(g.id, g.filter.clone()),
                    rng.below(BROKERS),
                )
            })
            .collect();
        let mut settled_tables = [0; BROKERS];
        for (sub, home) in &subs {
            let routed = ads
                .iter()
                .any(|a| sub.filter.intersects_advertisement(&a.filter));
            let path: &[usize] = match (routed, *home) {
                (false, h) => &[h][..],
                (true, 0) => &[0],
                (true, 1) => &[1, 0],
                (true, 2) => &[2, 0],
                (true, _) => &[3, 1, 0],
            };
            for &b in path {
                settled_tables[b] += 1;
            }
        }
        // Oracle: a subscription follows one stock, and every filter
        // pins its stock's symbol, so only that stock's subscriptions
        // are evaluated against its publications. A filter that matched
        // another stock would surface as an unexpected delivery.
        let mut by_stock: Vec<Vec<(&Filter, usize)>> = vec![Vec::new(); scenario.stocks.len()];
        for (g, (_, home)) in scenario.subs.iter().zip(&subs) {
            by_stock[g.publisher_index].push((&g.filter, *home));
        }
        let mut pool = Vec::new();
        let mut oracle = Vec::new();
        for day in 0..DAYS {
            for (i, stock) in scenario.stocks.iter().enumerate() {
                let p = stock.publication(adv_id(i), MsgId::new(day));
                let mask = by_stock[i]
                    .iter()
                    .filter(|(f, _)| f.matches(&p))
                    .fold(0u8, |m, (_, home)| m | 1 << home);
                pool.push(p);
                oracle.push(mask);
            }
        }
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        Inputs {
            subs,
            ads,
            pool,
            order,
            oracle,
            settled_tables,
        }
    }

    /// The brokers that must deliver publication `k`.
    pub fn expected(&self, k: u64) -> u8 {
        self.oracle[self.order[(k % self.order.len() as u64) as usize]]
    }

    /// Publication `k`, its message id being `k`.
    pub fn publication(&self, k: u64) -> Publication {
        let mut p = self.pool[self.order[(k % self.order.len() as u64) as usize]].clone();
        p.msg_id = MsgId::new(k);
        p
    }
}

fn adv_id(stock: usize) -> AdvId {
    AdvId::new(stock as u64 + 1)
}

/// Counters a broker thread shares with the benchmark.
#[derive(Default)]
struct BrokerShared {
    tables: AtomicUsize,
    matched: AtomicU64,
    msgs: AtomicU64,
    busy_ns: AtomicU64,
    send_ns: AtomicU64,
    frames: AtomicU64,
    wait_ns: AtomicU64,
    send_errors: AtomicU64,
    tid: AtomicU64,
}

/// `BrokerCore` output over a TCP endpoint; sends go out immediately.
struct Sink<'a> {
    ep: &'a mut TcpEndpoint<BrokerMsg>,
    now: SimTime,
    shared: &'a BrokerShared,
    trace: bool,
}

impl BrokerSink<NodeName> for Sink<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, to: NodeName, msg: BrokerMsg) {
        let t0 = self.trace.then(Instant::now);
        if self.ep.send(to, &msg).is_err() {
            self.shared.send_errors.fetch_add(1, Relaxed);
        }
        if let Some(t0) = t0 {
            self.shared.send_ns.fetch_add(nanos(t0.elapsed()), Relaxed);
            self.shared.frames.fetch_add(1, Relaxed);
        }
    }

    fn send_after(&mut self, _delay: SimDuration, to: NodeName, msg: BrokerMsg) {
        self.send(to, msg);
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn micros_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn broker_loop(
    mut ep: TcpEndpoint<BrokerMsg>,
    mut core: BrokerCore<NodeName>,
    shared: Arc<BrokerShared>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
    trace: bool,
) {
    shared.tid.store(sys::own_tid(), Relaxed);
    while !stop.load(Relaxed) {
        let w0 = trace.then(Instant::now);
        let ev = ep.poll(POLL_WAIT);
        if let Some(w0) = w0 {
            shared.wait_ns.fetch_add(nanos(w0.elapsed()), Relaxed);
        }
        let Some(NetEvent::Msg { from, msg }) = ev else {
            continue;
        };
        let b0 = trace.then(Instant::now);
        let is_sub = matches!(msg, BrokerMsg::Subscribe(_));
        let mut sink = Sink {
            ep: &mut ep,
            now: SimTime::from_micros(micros_since(epoch)),
            shared: &shared,
            trace,
        };
        core.on_message(&mut sink, from, msg);
        if let Some(b0) = b0 {
            shared.busy_ns.fetch_add(nanos(b0.elapsed()), Relaxed);
            shared.msgs.fetch_add(1, Relaxed);
        }
        shared.matched.store(core.matched_count, Relaxed);
        if is_sub {
            shared.tables.store(core.subscription_count(), Relaxed);
        }
    }
    ep.shutdown();
}

/// State the collector shares with the publisher and the benchmark.
#[derive(Default)]
struct CollectorShared {
    delivered: AtomicU64,
    completed: AtomicU64,
    completed_b: AtomicU64,
    /// First publication of phase B (`u64::MAX` before it starts).
    phase_b_first: AtomicU64,
    tid: AtomicU64,
}

/// What the collector recorded.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Per publication: bit `b` set when broker `b` delivered it.
    pub got: Vec<u8>,
    /// Deliveries that arrived twice from the same broker.
    pub duplicates: u64,
    /// Phase-B latencies, scheduled send to receipt, in microseconds.
    pub latency_us: Vec<u64>,
}

fn collector_loop(
    mut ep: TcpEndpoint<BrokerMsg>,
    inputs: Arc<Inputs>,
    shared: Arc<CollectorShared>,
    credits: mpsc::Sender<()>,
    stop: Arc<AtomicBool>,
    epoch: Instant,
) -> Record {
    shared.tid.store(sys::own_tid(), Relaxed);
    let mut rec = Record::default();
    while !stop.load(Relaxed) {
        let Some(NetEvent::Msg {
            from,
            msg: BrokerMsg::Publication(env),
        }) = ep.poll(POLL_WAIT)
        else {
            continue;
        };
        let now = micros_since(epoch);
        let k = env.publication.msg_id.raw();
        let Ok(slot) = usize::try_from(k) else {
            continue;
        };
        let bit = 1u8 << (from.min(7) as u8);
        if rec.got.len() <= slot {
            rec.got.resize(slot + 1 + slot / 2, 0);
        }
        if rec.got[slot] & bit != 0 {
            rec.duplicates += 1;
            continue;
        }
        rec.got[slot] |= bit;
        shared.delivered.fetch_add(1, Relaxed);
        let phase_b = k >= shared.phase_b_first.load(SeqCst);
        if phase_b {
            rec.latency_us
                .push(now.saturating_sub(env.published_at.as_micros()));
        }
        let expected = inputs.expected(k);
        if rec.got[slot] & expected == expected && bit & expected != 0 {
            shared.completed.fetch_add(1, Relaxed);
            if phase_b {
                shared.completed_b.fetch_add(1, Relaxed);
            } else {
                let _ = credits.send(());
            }
        }
    }
    ep.shutdown();
    rec
}

/// One running overlay.
struct Overlay {
    stop: Arc<AtomicBool>,
    brokers: BrokerThreads,
    publisher: TcpEndpoint<BrokerMsg>,
    collector: TcpEndpoint<BrokerMsg>,
}

impl Overlay {
    /// Opens and wires every endpoint, issues the control plane, and
    /// waits until every routing table holds its settled size. On
    /// failure every thread it started is stopped before it returns.
    fn build(
        inputs: &Inputs,
        registry: &Registry,
        epoch: Instant,
        trace: bool,
    ) -> Result<Overlay, String> {
        let mut transport = TcpTransport::with_telemetry(registry);
        let net = |e: greenps_net::NetError| e.to_string();
        let mut eps: Vec<TcpEndpoint<BrokerMsg>> = (0..BROKERS as u64)
            .map(|b| transport.open(b))
            .collect::<Result<_, _>>()
            .map_err(net)?;
        let publisher = transport.open(PUBLISHER).map_err(net)?;
        let collector = transport.open(COLLECTOR).map_err(net)?;
        let mut cores: Vec<BrokerCore<NodeName>> = (0..BROKERS as u64)
            .map(|b| {
                BrokerCore::new(BrokerConfig::new(
                    BrokerId::new(b),
                    LinearFn::new(0.0, 0.0),
                    1e9,
                ))
            })
            .collect();
        for (a, b) in EDGES {
            let (ia, ib) = (a as usize, b as usize);
            let addr_b = eps[ib].addr();
            let addr_a = eps[ia].addr();
            let peer = eps[ia].connect(&addr_b).map_err(net)?;
            cores[ia].add_broker_neighbor(peer);
            let peer = eps[ib].connect(&addr_a).map_err(net)?;
            cores[ib].add_broker_neighbor(peer);
        }
        let addrs: Vec<_> = eps.iter().map(Endpoint::addr).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let brokers = eps
            .into_iter()
            .zip(cores)
            .map(|(ep, core)| {
                let shared = Arc::new(BrokerShared::default());
                let (s, st) = (Arc::clone(&shared), Arc::clone(&stop));
                let handle = std::thread::spawn(move || broker_loop(ep, core, s, st, epoch, trace));
                (shared, handle)
            })
            .collect();
        let mut overlay = Overlay {
            stop,
            brokers,
            publisher,
            collector,
        };
        match overlay.control_plane(inputs, &addrs) {
            Ok(()) => Ok(overlay),
            Err(e) => {
                overlay.shutdown();
                Err(e)
            }
        }
    }

    /// Attaches the clients, advertises, subscribes, and waits for the
    /// routing tables to settle.
    fn control_plane(&mut self, inputs: &Inputs, addrs: &[EndpointAddr]) -> Result<(), String> {
        let net = |e: greenps_net::NetError| e.to_string();
        let b0 = self.publisher.connect(&addrs[0]).map_err(net)?;
        let hello = BrokerMsg::ClientHello {
            client: ClientId::new(1),
        };
        self.publisher.send(b0, &hello).map_err(net)?;
        for ad in &inputs.ads {
            self.publisher
                .send(b0, &BrokerMsg::Advertise(ad.clone()))
                .map_err(net)?;
        }
        let mut names = Vec::new();
        for addr in addrs {
            let b = self.collector.connect(addr).map_err(net)?;
            let hello = BrokerMsg::ClientHello {
                client: ClientId::new(2),
            };
            self.collector.send(b, &hello).map_err(net)?;
            names.push(b);
        }
        for (sub, home) in &inputs.subs {
            self.collector
                .send(names[*home], &BrokerMsg::Subscribe(sub.clone()))
                .map_err(net)?;
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let settled = self
                .brokers
                .iter()
                .zip(&inputs.settled_tables)
                .all(|((s, _), &want)| s.tables.load(Relaxed) == want);
            if settled {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("control plane did not settle within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn shutdown(mut self) {
        stop_brokers(&self.stop, self.brokers);
        self.publisher.shutdown();
        self.collector.shutdown();
    }
}

fn stop_brokers(stop: &AtomicBool, brokers: BrokerThreads) {
    stop.store(true, Relaxed);
    for (_, h) in brokers {
        let _ = h.join();
    }
}

/// One phase's readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Window length in seconds.
    pub secs: f64,
    /// Deliveries that arrived in the window.
    pub delivered: u64,
    /// Median over sub-windows of deliveries per second.
    pub rate_p50: f64,
    /// 90th percentile of the same.
    pub rate_p90: f64,
    /// Median over sub-windows of CPU seconds per delivery, the two
    /// load threads' own CPU excluded.
    pub cpu_per_delivery_p50: f64,
    /// Sub-windows the quantiles are taken over.
    pub windows: usize,
    /// Process CPU in the window, seconds.
    pub process_cpu_s: f64,
    /// CPU of the two load threads in the window, seconds.
    pub load_cpu_s: f64,
    /// CPU of the broker threads in the window, seconds.
    pub broker_cpu_s: f64,
    /// Per broker: time inside `on_message`, seconds.
    pub busy_s: [f64; BROKERS],
    /// Time inside `Endpoint::send` on broker threads, seconds.
    pub send_s: f64,
    /// Broker frames sent.
    pub frames: u64,
    /// Messages the brokers handled.
    pub msgs: u64,
    /// Time broker threads spent blocked in `poll`, seconds.
    pub wait_s: f64,
    /// Publications matched, summed over brokers.
    pub matched: u64,
    /// Transport bytes sent.
    pub bytes: u64,
}

/// Everything one measured run produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Set-ups timed.
    pub setups: usize,
    /// Closed-loop phase.
    pub a: PhaseStats,
    /// Open-loop phase.
    pub b: PhaseStats,
    /// Publications sent in total.
    pub published: u64,
    /// Phase-B publications not yet delivered when its window closed.
    pub backlog_end: u64,
    /// Open-loop lateness of each send, microseconds.
    pub late_us: Vec<u64>,
    /// Failed sends (publisher and brokers).
    pub send_errors: u64,
    /// What the collector saw.
    pub record: Record,
    /// The transport's counters at the end.
    pub transport: std::collections::BTreeMap<String, u64>,
}

struct Snap {
    at: Instant,
    delivered: u64,
    process: Duration,
    load: Duration,
    broker_cpu: Duration,
    busy: [u64; BROKERS],
    send: u64,
    frames: u64,
    msgs: u64,
    wait: u64,
    matched: u64,
    bytes: u64,
}

type BrokerThreads = Vec<(Arc<BrokerShared>, JoinHandle<()>)>;

/// Readings at one instant; `publisher` is the publishing thread's id.
fn snap(
    brokers: &BrokerThreads,
    coll: &CollectorShared,
    publisher: u64,
    registry: &Registry,
) -> Snap {
    let mut busy = [0; BROKERS];
    let (mut send, mut frames, mut msgs, mut wait, mut matched) = (0, 0, 0, 0, 0);
    let mut broker_cpu = Duration::ZERO;
    for (i, (s, _)) in brokers.iter().enumerate() {
        busy[i] = s.busy_ns.load(Relaxed);
        send += s.send_ns.load(Relaxed);
        frames += s.frames.load(Relaxed);
        msgs += s.msgs.load(Relaxed);
        wait += s.wait_ns.load(Relaxed);
        matched += s.matched.load(Relaxed);
        broker_cpu += sys::thread_cpu(s.tid.load(Relaxed));
    }
    Snap {
        at: Instant::now(),
        delivered: coll.delivered.load(Relaxed),
        process: sys::live_threads_cpu(),
        load: sys::thread_cpu(publisher) + sys::thread_cpu(coll.tid.load(Relaxed)),
        broker_cpu,
        busy,
        send,
        frames,
        msgs,
        wait,
        matched,
        bytes: registry
            .snapshot()
            .counters
            .get("transport.bytes_sent")
            .copied()
            .unwrap_or(0),
    }
}

/// Totals between the first and last mark, plus quantiles over the
/// sub-windows between consecutive marks.
fn phase(marks: &[Snap]) -> PhaseStats {
    let (a, b) = (&marks[0], &marks[marks.len() - 1]);
    let s = |x: u64, y: u64| y.saturating_sub(x) as f64 * 1e-9;
    let mut busy_s = [0.0; BROKERS];
    for (i, v) in busy_s.iter_mut().enumerate() {
        *v = s(a.busy[i], b.busy[i]);
    }
    let mut rates = Vec::new();
    let mut cpu_per = Vec::new();
    for w in marks.windows(2) {
        let delivered = w[1].delivered - w[0].delivered;
        rates.push(delivered as f64 / (w[1].at - w[0].at).as_secs_f64());
        let cpu = (w[1].process.saturating_sub(w[0].process))
            .saturating_sub(w[1].load.saturating_sub(w[0].load));
        cpu_per.push(cpu.as_secs_f64() / delivered.max(1) as f64);
    }
    PhaseStats {
        secs: (b.at - a.at).as_secs_f64(),
        delivered: b.delivered - a.delivered,
        rate_p50: median(&rates),
        rate_p90: quantile(&rates, 0.9),
        cpu_per_delivery_p50: median(&cpu_per),
        windows: rates.len(),
        process_cpu_s: b.process.saturating_sub(a.process).as_secs_f64(),
        load_cpu_s: b.load.saturating_sub(a.load).as_secs_f64(),
        broker_cpu_s: b.broker_cpu.saturating_sub(a.broker_cpu).as_secs_f64(),
        busy_s,
        send_s: s(a.send, b.send),
        frames: b.frames - a.frames,
        msgs: b.msgs - a.msgs,
        wait_s: s(a.wait, b.wait),
        matched: b.matched - a.matched,
        bytes: b.bytes - a.bytes,
    }
}

/// Sets up the overlay `size.setups` times (keeping the last), then runs
/// phase A for 60% of `seconds` (after a warm-up of 10%, at most 1 s)
/// and phase B for 30%, drains, and tears down.
///
/// # Errors
/// Fails when the overlay cannot be built or does not settle.
pub fn measure(
    size: &PublishSize,
    inputs: &Arc<Inputs>,
    seconds: f64,
    registry: &Registry,
    trace: bool,
) -> Result<Measured, String> {
    let epoch = Instant::now();
    let mut setups = Vec::new();
    let mut overlay = None;
    for _ in 0..size.setups.max(1) {
        if let Some(old) = overlay.take() {
            Overlay::shutdown(old);
        }
        let t0 = Instant::now();
        overlay = Some(Overlay::build(inputs, registry, epoch, trace)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let Overlay {
        stop,
        brokers,
        mut publisher,
        collector,
    } = overlay.expect("at least one set-up");
    let coll = Arc::new(CollectorShared {
        phase_b_first: AtomicU64::new(u64::MAX),
        ..CollectorShared::default()
    });
    let (credit_tx, credit_rx) = mpsc::channel();
    let coll_stop = Arc::new(AtomicBool::new(false));
    let collector = {
        let (i, c, s) = (
            Arc::clone(inputs),
            Arc::clone(&coll),
            Arc::clone(&coll_stop),
        );
        std::thread::spawn(move || collector_loop(collector, i, c, credit_tx, s, epoch))
    };
    while coll.tid.load(Relaxed) == 0 {
        std::thread::yield_now();
    }
    let publisher_tid = sys::own_tid();
    let b0: NodeName = 0;
    let mut send_errors = 0;
    let mut k: u64 = 0;
    let mut pending: u64 = 0; // publications expecting deliveries
    let send = |publisher: &mut TcpEndpoint<BrokerMsg>, k: u64, at: u64| {
        let env = PubEnvelope::new(inputs.publication(k), SimTime::from_micros(at));
        publisher.send(b0, &BrokerMsg::Publication(env)).is_ok()
    };

    // Phase A: closed loop, after a warm-up.
    let warm = Instant::now() + Duration::from_secs_f64((0.1 * seconds).min(1.0));
    let a_end = warm + Duration::from_secs_f64(0.6 * seconds);
    let mut credits = size.window;
    let mut a_marks: Vec<Snap> = Vec::new();
    let mut next_mark = warm;
    loop {
        let now = Instant::now();
        if now >= next_mark {
            a_marks.push(snap(&brokers, &coll, publisher_tid, registry));
            next_mark += A_WINDOW;
        }
        if now >= a_end {
            break;
        }
        if inputs.expected(k) != 0 {
            while let Ok(()) = credit_rx.try_recv() {
                credits += 1;
            }
            if credits == 0 {
                let until = next_mark.min(a_end);
                match credit_rx.recv_timeout(until.saturating_duration_since(now)) {
                    Ok(()) => credits += 1,
                    Err(_) => continue,
                }
            }
            credits -= 1;
            pending += 1;
        }
        if !send(&mut publisher, k, micros_since(epoch)) {
            send_errors += 1;
        }
        k += 1;
    }
    a_marks.push(snap(&brokers, &coll, publisher_tid, registry));
    let a = phase(&a_marks);

    // Phase B: open loop at a fixed rate, timed from the schedule.
    coll.phase_b_first.store(k, SeqCst);
    let b_first = k;
    let period = 1.0 / size.rate;
    let b_secs = 0.3 * seconds;
    let mut b_marks = vec![snap(&brokers, &coll, publisher_tid, registry)];
    let start = b_marks[0].at;
    let mut next_mark = start + B_WINDOW;
    let mut pending_b = 0;
    let mut late_us = Vec::new();
    loop {
        let due_s = (k - b_first) as f64 * period;
        if due_s >= b_secs {
            break;
        }
        let due = start + Duration::from_secs_f64(due_s);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let due_us = u64::try_from((due - epoch).as_micros()).unwrap_or(u64::MAX);
        late_us.push(micros_since(epoch).saturating_sub(due_us));
        if inputs.expected(k) != 0 {
            pending += 1;
            pending_b += 1;
        }
        if !send(&mut publisher, k, due_us) {
            send_errors += 1;
        }
        k += 1;
        if Instant::now() >= next_mark {
            b_marks.push(snap(&brokers, &coll, publisher_tid, registry));
            next_mark += B_WINDOW;
        }
    }
    let end = start + Duration::from_secs_f64(b_secs);
    if let Some(left) = end.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
    b_marks.push(snap(&brokers, &coll, publisher_tid, registry));
    let backlog_end = pending_b - coll.completed_b.load(Relaxed).min(pending_b);
    let b = phase(&b_marks);

    // Drain, then stop everything.
    let deadline = Instant::now() + Duration::from_secs(10);
    while coll.completed.load(Relaxed) < pending && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // One more poll interval, so a late duplicate still gets counted.
    std::thread::sleep(POLL_WAIT);
    coll_stop.store(true, Relaxed);
    let record = collector.join().map_err(|_| "collector panicked")?;
    for (s, _) in &brokers {
        send_errors += s.send_errors.load(Relaxed);
    }
    stop_brokers(&stop, brokers);
    publisher.shutdown();
    Ok(Measured {
        setup_s: median(&setups),
        setups: setups.len(),
        a,
        b,
        published: k,
        backlog_end,
        late_us,
        send_errors,
        record,
        transport: registry.snapshot().counters,
    })
}

/// Failures of one run: `(lost, unexpected)` deliveries, against the
/// oracle, over publications `0..published`.
pub fn delivery_errors(inputs: &Inputs, record: &Record, published: u64) -> (u64, u64) {
    let (mut lost, mut unexpected) = (0, 0);
    for k in 0..published {
        let want = inputs.expected(k);
        let got = usize::try_from(k)
            .ok()
            .and_then(|i| record.got.get(i))
            .copied()
            .unwrap_or(0);
        lost += u64::from((want & !got).count_ones());
        unexpected += u64::from((got & !want).count_ones());
    }
    for &got in record
        .got
        .iter()
        .skip(usize::try_from(published).unwrap_or(usize::MAX))
    {
        unexpected += u64::from(got.count_ones());
    }
    (lost, unexpected)
}

/// The correctness check: each broker delivered exactly the oracle's
/// set of publications, each once.
pub fn check_deliveries(inputs: &Inputs, record: &Record, published: u64) -> Vec<String> {
    let (lost, unexpected) = delivery_errors(inputs, record, published);
    let mut errors = Vec::new();
    if lost > 0 {
        errors.push(format!("{lost} expected deliveries never arrived"));
    }
    if unexpected > 0 {
        errors.push(format!(
            "{unexpected} deliveries the oracle does not expect"
        ));
    }
    if record.duplicates > 0 {
        errors.push(format!("{} duplicate deliveries", record.duplicates));
    }
    errors
}

fn expected_total(inputs: &Inputs, published: u64) -> u64 {
    (0..published)
        .map(|k| u64::from(inputs.expected(k).count_ones()))
        .sum()
}

/// Records the checks and failure counts of one run; `label` prefixes
/// the check names.
fn fill(report: &mut Report, label: &str, inputs: &Inputs, m: &Measured) {
    let (lost, unexpected) = delivery_errors(inputs, &m.record, m.published);
    report.check(
        &format!("{label}deliveries_match_oracle"),
        check_deliveries(inputs, &m.record, m.published),
    );
    let sends = if m.send_errors > 0 {
        vec![format!("{} sends failed", m.send_errors)]
    } else {
        vec![]
    };
    report.check(&format!("{label}sends_succeed"), sends);
    *report.attempted.entry("deliveries").or_default() += expected_total(inputs, m.published);
    *report.attempted.entry("sends").or_default() += m.published;
    *report.failed.entry("lost").or_default() += lost;
    *report.failed.entry("unexpected").or_default() += unexpected;
    *report.failed.entry("duplicate").or_default() += m.record.duplicates;
    *report.failed.entry("send_errors").or_default() += m.send_errors;
}

/// Runs the workload.
pub fn run(size: &PublishSize, opts: &RunOpts) -> Report {
    let mut report = Report::default();
    let inputs = Arc::new(Inputs::generate(size, opts.seed));
    report.note("link", "loopback");
    report.note("subscriptions", size.subs);
    report.note("brokers", BROKERS);
    report.note("window", size.window);
    report.note("offered_rate", size.rate);
    report.note("load_threads", 2);
    report.note(
        "effective_threads",
        sys::available_parallelism().min(BROKERS + 2),
    );
    if !opts.trace {
        let m = match measure(size, &inputs, opts.seconds, &Registry::disabled(), false) {
            Ok(m) => m,
            Err(e) => {
                report.check("overlay_settles", vec![e]);
                return report;
            }
        };
        fill(&mut report, "", &inputs, &m);
        report.set("setup_s", m.setup_s);
        report.note("setup_runs", m.setups);
        report.set("wall_us_per_item", 1e6 / m.a.rate_p90);
        report.set("cpu_us_per_item", 1e6 * m.a.cpu_per_delivery_p50);
        report.set("peak_rss_mib", sys::peak_rss_mib());
        report.set("allocated_brokers", BROKERS as f64);
        report.set("msg_rate", m.b.matched as f64 / m.b.secs / BROKERS as f64);
        report.note("deliveries_per_s", m.a.rate_p90);
        report.note("deliveries_per_s_p50", m.a.rate_p50);
        report.note("deliveries_per_s_mean", m.a.delivered as f64 / m.a.secs);
        report.note("phase_a_windows", m.a.windows);
        report.note("phase_b_windows", m.b.windows);
        report.note(
            "open_loop_cpu_us_per_delivery",
            1e6 * m.b.cpu_per_delivery_p50,
        );
        report.note("phase_a_s", m.a.secs);
        report.note("phase_b_s", m.b.secs);
        report.note("phase_b_deliveries", m.b.delivered);
        let lat: Vec<f64> = m
            .record
            .latency_us
            .iter()
            .map(|&u| u as f64 / 1e3)
            .collect();
        report.note("latency_p50_ms", quantile(&lat, 0.5));
        report.note("latency_p99_ms", quantile(&lat, 0.99));
        report.note("latency_samples", lat.len());
        return report;
    }

    // Traced run: half the budget untraced for the overhead baseline,
    // half traced.
    let half = opts.seconds / 2.0;
    let base = measure(size, &inputs, half, &Registry::disabled(), false);
    let registry = Registry::new();
    let traced = measure(size, &inputs, half, &registry, true);
    let (base, m) = match (base, traced) {
        (Ok(b), Ok(m)) => (b, m),
        (Err(e), _) | (_, Err(e)) => {
            report.check("overlay_settles", vec![e]);
            return report;
        }
    };
    fill(&mut report, "untraced_", &inputs, &base);
    fill(&mut report, "", &inputs, &m);
    report.set(
        "telemetry.overhead_pct",
        100.0 * (base.a.rate_p90 / m.a.rate_p90 - 1.0),
    );
    let both = |f: fn(&PhaseStats) -> f64| f(&m.a) + f(&m.b);
    let busy_total: f64 = both(|p| p.busy_s.iter().sum());
    let send_s = both(|p| p.send_s);
    let msgs = both(|p| p.msgs as f64);
    let frames = both(|p| p.frames as f64);
    let wait_s = both(|p| p.wait_s);
    report.set(
        "broker.on_message_us_per_msg",
        1e6 * (busy_total - send_s) / msgs.max(1.0),
    );
    report.set("net.send_us_per_frame", 1e6 * send_s / frames.max(1.0));
    report.set("net.poll_wait_s", wait_s);
    let names = [
        "broker.b0.busy_frac",
        "broker.b1.busy_frac",
        "broker.b2.busy_frac",
        "broker.b3.busy_frac",
    ];
    for (name, busy) in names.iter().zip(m.a.busy_s) {
        report.set(name, busy / m.a.secs);
    }
    report.set(
        "net.background_cpu_s",
        m.b.process_cpu_s - m.b.load_cpu_s - m.b.broker_cpu_s,
    );
    report.set(
        "open_loop.cpu_us_per_delivery",
        1e6 * m.b.cpu_per_delivery_p50,
    );
    let counter = |n: &str| m.transport.get(n).copied().unwrap_or(0) as f64;
    report.set("transport.frames_sent", counter("transport.frames_sent"));
    report.set(
        "transport.bytes_per_delivery",
        both(|p| p.bytes as f64) / both(|p| p.delivered as f64).max(1.0),
    );
    report.set(
        "transport.decode_errors",
        counter("transport.decode_errors"),
    );
    report.set(
        "transport.stale_events_fenced",
        counter("transport.stale_events_fenced"),
    );
    let late: Vec<f64> = m.late_us.iter().map(|&u| u as f64 / 1e3).collect();
    report.set("generator.late_ms_p99", quantile(&late, 0.99));
    report.set("backlog_end", m.backlog_end as f64);
    let lat: Vec<f64> = m
        .record
        .latency_us
        .iter()
        .map(|&u| u as f64 / 1e3)
        .collect();
    report.set("latency_p50_ms", quantile(&lat, 0.5));
    report.set("latency_p99_ms", quantile(&lat, 0.99));
    report.note("latency_samples", lat.len());
    // Broker threads' time over both phases: handling (self), sending,
    // blocked in poll; the rest is loop overhead and scheduling.
    let thread_time = both(|p| p.secs) * BROKERS as f64;
    crate::breakdown(
        &mut report,
        thread_time,
        &[
            ("broker.on_message_self", busy_total - send_s),
            ("net.send", send_s),
            ("net.poll_wait", wait_s),
        ],
    );
    let failed = report.total_failed() as f64 / report.total_attempted().max(1) as f64;
    report.set("failed_frac", failed);
    report
}
