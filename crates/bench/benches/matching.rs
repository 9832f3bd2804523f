//! Matching-engine benchmarks: publication match cost vs subscription
//! table size — the empirical basis of the linear matching-delay model.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use greenps_pubsub::ids::{AdvId, MsgId, SubId};
use greenps_pubsub::matching::{BucketMatcher, Matcher, NaiveMatcher};
use greenps_workload::{Scenario, ScenarioBuilder, StockSeries, Topology};

fn homogeneous_scenario(total_subs: usize, seed: u64) -> Scenario {
    ScenarioBuilder::new(Topology::Homogeneous)
        .total_subs(total_subs)
        .seed(seed)
        .build()
}

fn bench_matchers(c: &mut Criterion) {
    let scenario = homogeneous_scenario(4000, 16);
    let stock: &StockSeries = &scenario.stocks[0];
    let publication = stock.publication(AdvId::new(1), MsgId::new(17));

    let mut group = c.benchmark_group("matching/per_publication");
    for &n in &[500usize, 2000, 4000] {
        let mut bucket = BucketMatcher::new();
        let mut naive = NaiveMatcher::new();
        for sub in scenario.subs.iter().take(n) {
            bucket.insert(sub.id, sub.filter.clone());
            naive.insert(sub.id, sub.filter.clone());
        }
        bucket.ensure_built();
        group.bench_with_input(BenchmarkId::new("bucket", n), &bucket, |b, m| {
            b.iter(|| black_box(m.matches(&publication).len()))
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &naive, |b, m| {
            b.iter(|| black_box(m.matches(&publication).len()))
        });
    }
    group.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let scenario = homogeneous_scenario(2000, 17);
    c.bench_function("matching/insert_remove", |b| {
        let mut m = BucketMatcher::new();
        for sub in &scenario.subs {
            m.insert(sub.id, sub.filter.clone());
        }
        let mut i = 0u64;
        b.iter(|| {
            let id = SubId::new(i % 2000);
            let f = scenario.subs[(i % 2000) as usize].filter.clone();
            m.remove(id);
            m.insert(id, f);
            i += 1;
        });
    });
}

criterion_group!(benches, bench_matchers, bench_insert_remove);
criterion_main!(benches);
