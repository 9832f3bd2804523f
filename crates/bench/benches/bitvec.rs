//! Micro-benchmarks for the shifting bit vector — the innermost data
//! structure of the resource-allocation framework.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use greenps_profile::ShiftingBitVector;

fn filled(cap: usize, stride: u64) -> ShiftingBitVector {
    let mut v = ShiftingBitVector::new(cap);
    let mut id = 0;
    while id < cap as u64 {
        v.record(id);
        id += stride;
    }
    v
}

fn bench_record(c: &mut Criterion) {
    c.bench_function("bitvec/record_in_window", |b| {
        let mut v = ShiftingBitVector::new(1280);
        let mut id = 0u64;
        b.iter(|| {
            v.record(black_box(id % 1280));
            id += 7;
        });
    });
    c.bench_function("bitvec/record_with_shift", |b| {
        let mut v = ShiftingBitVector::new(1280);
        let mut id = 0u64;
        b.iter(|| {
            // Every record lands past the window end → shift each time.
            id += 1281;
            v.record(black_box(id));
        });
    });
}

fn bench_set_ops(c: &mut Criterion) {
    let a = filled(1280, 2);
    let b_aligned = filled(1280, 3);
    let mut b_shifted = ShiftingBitVector::starting_at(1280, 640);
    for id in (640..1920).step_by(3) {
        b_shifted.record(id);
    }
    c.bench_function("bitvec/pair_cardinalities_aligned", |bench| {
        bench.iter(|| black_box(a.pair_cardinalities(&b_aligned)));
    });
    c.bench_function("bitvec/pair_cardinalities_misaligned", |bench| {
        bench.iter(|| black_box(a.pair_cardinalities(&b_shifted)));
    });
    c.bench_function("bitvec/or_assign", |bench| {
        bench.iter(|| {
            let mut x = a.clone();
            x.or_assign(&b_aligned);
            black_box(x.count_ones())
        });
    });
}

criterion_group!(benches, bench_record, bench_set_ops);
criterion_main!(benches);
