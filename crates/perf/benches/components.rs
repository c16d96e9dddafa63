//! Criterion wrappers around the shared perf kernels: one bench per hot
//! component, plus the end-to-end small run. `cargo bench -p memnet-perf`
//! prints interactive numbers; the `perf` binary runs the same kernels to
//! produce the gated `BENCH_<sha>.json` report.

use criterion::{criterion_group, criterion_main, Criterion};
use memnet_perf::kernels;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("components/event_queue_churn_50k", |b| {
        b.iter(|| black_box(kernels::event_queue_churn(50_000, 11)));
    });
}

fn bench_link_pricing(c: &mut Criterion) {
    c.bench_function("components/link_pricing_20k", |b| {
        b.iter(|| black_box(kernels::link_pricing(20_000)));
    });
}

fn bench_fault_draws(c: &mut Criterion) {
    c.bench_function("components/fault_draws_100k", |b| {
        b.iter(|| black_box(kernels::fault_draws(100_000, 42)));
    });
}

fn bench_policy_epochs(c: &mut Criterion) {
    c.bench_function("components/policy_epochs_200", |b| {
        b.iter(|| black_box(kernels::policy_epochs(200)));
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    c.bench_function("components/end_to_end_50us", |b| {
        b.iter(|| black_box(kernels::end_to_end(50, 7).events_processed));
    });
}

fn bench_multi_seed(c: &mut Criterion) {
    let seeds = kernels::multi_seed_seeds();
    c.bench_function("components/multi_seed_solo_50us", |b| {
        b.iter(|| {
            black_box(
                kernels::end_to_end_multi_seed_solo(50, &seeds)
                    .iter()
                    .map(|r| r.events_processed)
                    .sum::<u64>(),
            )
        });
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_link_pricing,
    bench_fault_draws,
    bench_policy_epochs,
    bench_end_to_end,
    bench_multi_seed
);
criterion_main!(benches);
