//! Microbenchmarks for the regression kernels behind every arm refit.

use banditware_linalg::lstsq::fit_ols;
use banditware_linalg::online::{NormalEquations, RankOneInverse, SolveScratch};
use banditware_linalg::{Cholesky, Matrix, QrDecomposition, UpdatableCholesky};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn design(n: usize, m: usize, rng: &mut StdRng) -> (Matrix, Vec<f64>) {
    let xs = Matrix::from_fn(n, m, |_, _| rng.gen_range(-10.0..10.0));
    let y: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..100.0)).collect();
    (xs, y)
}

fn bench_fit_ols(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_ols");
    for &(n, m) in &[(25usize, 4usize), (100, 7), (1000, 7), (1316, 7)] {
        let mut rng = StdRng::seed_from_u64(1);
        let (xs, y) = design(n, m, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(format!("{n}x{m}")), &(), |b, _| {
            b.iter(|| fit_ols(black_box(&xs), black_box(&y)).unwrap())
        });
    }
    group.finish();
}

fn bench_decompositions(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose");
    for &d in &[4usize, 8, 16, 32] {
        let mut rng = StdRng::seed_from_u64(2);
        let b_mat = Matrix::from_fn(d + 4, d, |_, _| rng.gen_range(-1.0..1.0));
        let mut spd = b_mat.gram();
        for i in 0..d {
            spd[(i, i)] += 1.0;
        }
        group.bench_with_input(BenchmarkId::new("cholesky", d), &(), |bch, _| {
            bch.iter(|| Cholesky::decompose(black_box(&spd)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("qr", d), &(), |bch, _| {
            bch.iter(|| QrDecomposition::decompose(black_box(&b_mat)).unwrap())
        });
    }
    group.finish();
}

fn bench_online(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_accumulators");
    let m = 7;
    let mut rng = StdRng::seed_from_u64(3);
    let x: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
    let z: Vec<f64> = (0..m + 1).map(|_| rng.gen_range(-5.0..5.0)).collect();

    group.bench_function("normal_equations_push", |b| {
        let (mut acc, mut aug) = (NormalEquations::new(m), Vec::new());
        b.iter(|| acc.push_with(black_box(&x), 7.0, &mut aug).unwrap())
    });
    group.bench_function("normal_equations_push_solve", |b| {
        let mut acc = NormalEquations::new(m);
        for _ in 0..50 {
            let xi: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            acc.push(&xi, rng.gen_range(1.0..100.0)).unwrap();
        }
        let mut aug = Vec::new();
        b.iter(|| {
            acc.push_with(black_box(&x), 7.0, &mut aug).unwrap();
            acc.solve(0.0).unwrap()
        })
    });
    group.bench_function("sherman_morrison_push", |b| {
        let (mut r1, mut az) = (RankOneInverse::new(m + 1, 1.0), Vec::new());
        b.iter(|| r1.push(black_box(&z), 7.0, &mut az).unwrap())
    });
    group.finish();
}

/// The O(m³)→O(m²) record-path claim, measured: steady-state
/// `push + refit` after a 10k-observation stream at realistic dimensions.
/// `solve` (never cached → from-scratch factorization per refit, the
/// pre-PR-3 path) vs `solve_with` (live incremental factor + reused
/// scratch, the current record path).
fn bench_record_path_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_path_10k_stream");
    for &m in &[4usize, 16, 64] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut warm = NormalEquations::new(m);
        for _ in 0..10_000 {
            let x: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            warm.push(&x, rng.gen_range(1.0..100.0)).unwrap();
        }
        let x: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();

        let mut full = warm.clone();
        group.bench_with_input(BenchmarkId::new("full_refactor_solve", m), &(), |b, _| {
            let mut aug = Vec::new();
            b.iter(|| {
                full.push_with(black_box(&x), 7.0, &mut aug).unwrap();
                full.solve(0.0).unwrap()
            })
        });

        let mut inc = warm.clone();
        let mut scratch = SolveScratch::for_features(m);
        inc.solve_with(0.0, &mut scratch).unwrap(); // prime the factor
        group.bench_with_input(BenchmarkId::new("incremental_solve_with", m), &(), |b, _| {
            let mut aug = Vec::new();
            b.iter(|| {
                inc.push_with(black_box(&x), 7.0, &mut aug).unwrap();
                inc.solve_with(0.0, &mut scratch).unwrap()
            })
        });
    }
    group.finish();
}

/// Rank-1 factor maintenance vs full re-factorization at matching dims.
fn bench_cholupdate(c: &mut Criterion) {
    let mut group = c.benchmark_group("cholupdate_vs_decompose");
    for &d in &[4usize, 8, 16, 32, 64] {
        let mut rng = StdRng::seed_from_u64(11);
        let b_mat = Matrix::from_fn(d + 4, d, |_, _| rng.gen_range(-1.0..1.0));
        let mut spd = b_mat.gram();
        for i in 0..d {
            spd[(i, i)] += 1.0;
        }
        let w: Vec<f64> = (0..d).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let mut up = UpdatableCholesky::decompose(&spd).unwrap();
        group.bench_with_input(BenchmarkId::new("cholupdate", d), &(), |bch, _| {
            bch.iter(|| up.update(black_box(&w)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("decompose", d), &(), |bch, _| {
            bch.iter(|| Cholesky::decompose(black_box(&spd)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fit_ols,
    bench_decompositions,
    bench_online,
    bench_record_path_steady_state,
    bench_cholupdate
);
criterion_main!(benches);
