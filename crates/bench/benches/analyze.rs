//! Static-analysis throughput: cold fixpoint runs on the two guests the
//! trend gate tracks (Experiment 1 and ghttpd). Each run is the full
//! interprocedural summary fixpoint (`ptaint::analyze`).
//!
//! Besides the criterion group, a machine-readable summary is written to
//! `BENCH_analyze.json` at the repository root (`*_cold_analyses_per_sec`
//! is tolerance-banded by the trend gate). Set `BENCH_QUICK=1` to shrink
//! iteration counts for CI smoke runs.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use ptaint::Image;
use ptaint_guest::apps::{ghttpd, synthetic};

fn quick() -> bool {
    std::env::var_os("BENCH_QUICK").is_some()
}

/// Timed repetitions per measurement (after one warmup), best-of.
fn reps() -> u32 {
    if quick() {
        2
    } else {
        5
    }
}

/// Best-of-`reps` executions per second of `f`.
fn per_sec<T>(mut f: impl FnMut() -> T) -> f64 {
    let _warmup = f();
    let mut best = f64::MIN;
    for _ in 0..reps() {
        let start = Instant::now();
        let _out = f();
        best = best.max(1.0 / start.elapsed().as_secs_f64());
    }
    best
}

fn guests() -> Vec<(&'static str, Image)> {
    vec![
        (
            "exp1",
            ptaint_guest::build(synthetic::EXP1_SOURCE).expect("exp1 builds"),
        ),
        (
            "ghttpd",
            ptaint_guest::build(ghttpd::SOURCE).expect("ghttpd builds"),
        ),
    ]
}

fn bench_analyze(c: &mut Criterion) {
    let mut group = c.benchmark_group("analyze");
    group.sample_size(10);
    let mut json = String::from("{\"bench\":\"analyze\"");
    let mut summary = String::new();
    for (name, image) in guests() {
        let proven = ptaint::analyze(&image).proven.len();
        group.bench_function(format!("{name}_cold"), |b| {
            b.iter(|| ptaint::analyze(&image))
        });
        let cold = per_sec(|| ptaint::analyze(&image));
        let _ = write!(
            json,
            ",\"{name}_proven_sites\":{proven},\"{name}_cold_analyses_per_sec\":{cold:.2}",
        );
        let _ = write!(summary, "{name}: {proven} proven; cold {cold:.2}/s  ");
    }
    group.finish();

    let _ = write!(json, ",\"quick\":{}}}", quick());
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analyze.json");
    std::fs::write(path, &json).expect("writes BENCH_analyze.json");
    println!("analyze: {summary}-> {path}");
}

criterion_group!(benches, bench_analyze);
criterion_main!(benches);
