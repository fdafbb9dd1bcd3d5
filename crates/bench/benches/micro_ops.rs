//! Criterion micro-benchmarks of the physical operators behind Thm. 4.5's
//! cost model: the row-accumulator join (sparse and dense operands) and
//! its `JOIN-ID` probe, pair intersection, class-id intersection, and
//! index lookup — the primitives every table cell is made of.

use cpqx_core::exec::intersect_ids;
use cpqx_core::CpqxIndex;
use cpqx_graph::generate::{random_graph, RandomGraphConfig};
use cpqx_graph::{LabelSeq, Pair};
use cpqx_query::ops;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};

fn random_pairs(n: usize, universe: u32, seed: u64) -> Vec<Pair> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut v: Vec<Pair> =
        (0..n).map(|_| Pair::new(rng.gen_range(0..universe), rng.gen_range(0..universe))).collect();
    v.sort_unstable();
    v.dedup();
    v
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_pairs");
    for &n in &[1_000usize, 10_000, 100_000] {
        let left = random_pairs(n, 2_000, 1);
        let right = random_pairs(n, 2_000, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ops::join_pairs(&left, &right));
        });
    }
    group.finish();

    // The StringHS C4 shape: 300 vertices, ~70k pairs per side, so every
    // right row is a bitset and each answer row is a row-OR.
    let left = random_pairs(135_000, 300, 5);
    let right = random_pairs(135_000, 300, 6);
    let mut ctx = ops::EvalContext::new();
    let mut group = c.benchmark_group("join_dense");
    group.bench_function(BenchmarkId::new("join_pairs", left.len()), |b| {
        b.iter(|| ctx.join_pairs(&left, &right));
    });
    group.bench_function(BenchmarkId::new("join_pairs_id", left.len()), |b| {
        b.iter(|| ctx.join_pairs_id(&left, &right));
    });
    group.finish();

    let mut group = c.benchmark_group("join_pairs_id");
    for &n in &[1_000usize, 10_000, 100_000] {
        let left = random_pairs(n, 2_000, 7);
        let right = random_pairs(n, 2_000, 8);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| ops::join_pairs_id(&left, &right));
        });
    }
    group.finish();
}

fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersect");
    for &n in &[1_000usize, 10_000, 100_000] {
        let a = random_pairs(n, 100_000, 3);
        let b_pairs = random_pairs(n, 100_000, 4);
        group.bench_with_input(BenchmarkId::new("pairs", n), &n, |b, _| {
            b.iter(|| ops::intersect_pairs(&a, &b_pairs));
        });
        let ids_a: Vec<u32> = (0..n as u32).step_by(2).collect();
        let ids_b: Vec<u32> = (0..n as u32).step_by(3).collect();
        group.bench_with_input(BenchmarkId::new("class_ids", n), &n, |b, _| {
            b.iter(|| intersect_ids(&ids_a, &ids_b));
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let g = random_graph(&RandomGraphConfig::social(2_000, 10_000, 4, 7));
    let idx = CpqxIndex::build(&g, 2);
    // Gather the densest 2-sequence for a stable lookup target.
    let mut best = LabelSeq::single(cpqx_graph::ExtLabel(0));
    let mut best_len = 0;
    for a in g.ext_labels() {
        for b in g.ext_labels() {
            let s = LabelSeq::from_slice(&[a, b]);
            if idx.lookup(&s).len() > best_len {
                best_len = idx.lookup(&s).len();
                best = s;
            }
        }
    }
    c.bench_function("il2c_lookup", |b| b.iter(|| idx.lookup(std::hint::black_box(&best))));
}

criterion_group!(benches, bench_join, bench_intersection, bench_lookup);
criterion_main!(benches);
