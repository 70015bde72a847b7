//! Serving-path benchmark: mixed batch replay through the compile cache.
//!
//! Builds a mixed workload — every benchmark program at a small problem
//! size, on every engine preset (`interp`, `vm`, `vm-par`) — and replays
//! it round-robin as a large request batch through
//! [`fusion_core::serve::serve`] with one shared [`CompileCache`]. Only
//! the first request for each (program, binding, spec, artifact)
//! coordinate compiles — `vm` and `vm-par` share one verified artifact —
//! and every repeat is a cache hit that skips the pass pipeline, the
//! bytecode compiler, and the verifier.
//!
//! Asserts the acceptance bars and writes `BENCH_serve.json`:
//!
//! * cache hit rate >= 90% over the batch;
//! * the cache-hit compile path is >= 10x faster than cold compilation
//!   (medians over the distinct workload entries);
//! * every served result is `f64::to_bits`-identical to a one-shot
//!   reference run on [`Engine::Interp`].
//!
//! ```text
//! serve [--quick] [--workers N]
//! ```

use fusion_core::serve::{serve, ServeRequest};
use fusion_core::{CompileCache, RunRequest};
use loopir::{Engine, Executor as _, Interp, NoopObserver};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

// With D distinct keys and R round-robin repeats the steady-state hit
// rate is exactly 1 - 1/R (each key misses once), so both modes clear
// the 90% bar with margin.
const DEFAULT_REPEATS: usize = 25;
const QUICK_REPEATS: usize = 12;

fn usage() -> ! {
    eprintln!("usage: serve [--quick] [--workers N]");
    std::process::exit(2);
}

/// A small problem size per rank: large enough to exercise fused nests,
/// small enough that compile time dominates a cold request.
fn small_n(rank: usize) -> i64 {
    match rank {
        1 => 64,
        2 => 16,
        _ => 6,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut workers = 4usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }
    let repeats = if quick {
        QUICK_REPEATS
    } else {
        DEFAULT_REPEATS
    };

    // The distinct workload: every benchmark on every engine preset (the
    // aliases add nothing), at a small per-rank size (and minimal outer
    // iterations where applicable).
    let benches = benchmarks::all();
    let mut distinct: Vec<ServeRequest> = Vec::new();
    for b in &benches {
        for engine in Engine::all().into_iter().filter(|e| e.canonical() == *e) {
            let mut req = RunRequest::new()
                .with_engine(engine)
                .with_set(b.size_config, small_n(b.rank));
            if let Some(iters) = b.iters_config {
                req = req.with_set(iters, 2);
            }
            distinct.push(ServeRequest::new(b.name, b.source, req));
        }
    }

    // Reference results: one-shot Engine::Interp per benchmark, no cache.
    let mut reference: HashMap<&str, Vec<u64>> = HashMap::new();
    for b in &benches {
        let req = distinct
            .iter()
            .find(|r| r.name == b.name)
            .expect("benchmark in workload")
            .request
            .clone()
            .with_engine(Engine::Interp);
        let program = b.program();
        let opt = req.pipeline().optimize(&program);
        let binding = req
            .binding_for(&opt.scalarized.program)
            .expect("valid sets");
        let out = Interp::new(&opt.scalarized, binding)
            .execute(&mut NoopObserver)
            .expect("reference run succeeds");
        reference.insert(b.name, out.scalars.iter().map(|s| s.to_bits()).collect());
    }

    // The batch: the distinct workload, round-robin, `repeats` times.
    let batch: Vec<ServeRequest> = (0..distinct.len() * repeats)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();
    let cache = Arc::new(CompileCache::new());
    println!(
        "serving {} requests ({} distinct, x{repeats}) on {workers} workers",
        batch.len(),
        distinct.len()
    );
    let report = serve(&batch, workers, &cache);
    print!("{}", report.render());

    // Bar 1: the batch is dominated by cache hits.
    let hit_rate = report.cache.hit_rate();
    assert_eq!(report.failed(), 0, "no request may fail");
    assert_eq!(report.degraded(), 0, "no request may degrade");
    assert!(
        hit_rate >= 0.90,
        "cache hit rate {:.1}% is below the 90% bar",
        hit_rate * 100.0
    );

    // Bar 2: every served result matches the Interp reference bit for bit.
    for r in &report.records {
        let want = &reference[r.name.as_str()];
        assert_eq!(
            &r.scalars_bits, want,
            "request {} ({} on {}) diverged from the interp reference",
            r.index, r.name, r.engine
        );
    }
    println!(
        "all {} results bit-identical to interp reference",
        report.records.len()
    );

    // Bar 3: hit path vs cold compile, medians over the distinct
    // workload. Cold times come from fresh caches; hit times re-probe the
    // warm batch cache.
    let mut cold_us = Vec::new();
    let mut hit_us = Vec::new();
    for sr in &distinct {
        let program = zlang::compile(&sr.source).expect("workload compiles");
        let fresh = CompileCache::new();
        let started = Instant::now();
        fresh
            .get_or_compile(&program, &sr.request)
            .expect("cold compile succeeds");
        cold_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let (_, hit) = cache
            .get_or_compile(&program, &sr.request)
            .expect("warm lookup succeeds");
        hit_us.push(started.elapsed().as_secs_f64() * 1e6);
        assert!(hit, "{}: batch cache should already hold this key", sr.name);
    }
    let cold = median(cold_us);
    let hit = median(hit_us);
    let amortization = cold / hit.max(1e-3);
    println!("compile path: cold {cold:.0} us vs hit {hit:.1} us ({amortization:.0}x)");
    assert!(
        amortization >= 10.0,
        "hit path is only {amortization:.1}x faster than cold compile, expected >= 10x"
    );

    let mut engines = String::new();
    for (i, (engine, s)) in report.per_engine().iter().enumerate() {
        let _ = write!(
            engines,
            "{}    {{\"engine\": \"{engine}\", \"completed\": {}, \"failed\": {}, \
             \"throughput_rps\": {:.1}}}",
            if i == 0 { "" } else { ",\n" },
            s.completed,
            s.failed,
            s.throughput()
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"requests\": {},\n  \"distinct\": {},\n  \
         \"workers\": {workers},\n  \"wall_ms\": {:.3},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \
         \"cache\": {{\"hits\": {}, \"misses\": {}, \"insertions\": {}, \"evictions\": {}, \
         \"hit_rate\": {hit_rate:.4}}},\n  \
         \"compile_cold_us\": {cold:.1},\n  \"compile_hit_us\": {hit:.2},\n  \
         \"amortization\": {amortization:.1},\n  \"per_engine\": [\n{engines}\n  ]\n}}\n",
        report.records.len(),
        distinct.len(),
        report.wall.as_secs_f64() * 1e3,
        report.percentile_us(50.0),
        report.percentile_us(99.0),
        report.cache.hits,
        report.cache.misses,
        report.cache.insertions,
        report.cache.evictions,
    );
    if let Err(e) = std::fs::write("BENCH_serve.json", &json) {
        eprintln!("serve: cannot write BENCH_serve.json: {e}");
        std::process::exit(1);
    }
    println!("wrote BENCH_serve.json");
}
