//! Overload benchmark: the serving fault model under pressure.
//!
//! Replays the mixed benchmark workload through
//! [`fusion_core::serve::serve_with`] in three scenarios and asserts the
//! acceptance bars for each, then writes `BENCH_overload.json`:
//!
//! * **clean** — unbounded queue, no faults: nothing sheds, nothing
//!   fails, every result is `f64::to_bits`-identical to a one-shot
//!   [`Engine::Interp`] reference; reports service and end-to-end
//!   p50/p99 so the overload-control machinery's clean-path cost is
//!   visible.
//! * **overload** — a 4-deep admission queue under `reject-newest` with
//!   injected worker stalls: requests shed (with the `queue-full`
//!   cause), and the requests that *are* served stay bit-identical to
//!   the reference — load shedding never contaminates a result.
//! * **breaker** — every cache hit of one warm key corrupted: the key
//!   trips its circuit breaker open within the failure threshold, the
//!   cached artifact is quarantined, and the cooldown-window request is
//!   routed to the reference rung (cache bypassed) and still served.
//!
//! ```text
//! overload [--quick] [--workers N]
//! ```

use fusion_core::serve::{serve, serve_with, Disposition, ServeOptions, ServeRequest, ShedPolicy};
use fusion_core::{BreakerConfig, CompileCache, RunRequest};
use loopir::{Engine, Executor as _, Interp, NoopObserver};
use std::collections::HashMap;
use std::sync::Arc;
use testkit::faults::{FaultPlan, FaultSite};

const DEFAULT_REPEATS: usize = 12;
const QUICK_REPEATS: usize = 5;

/// Seed for the injected-fault schedules; fixed so runs are comparable.
const SEED: u64 = 0x0B5E55ED;

fn usage() -> ! {
    eprintln!("usage: overload [--quick] [--workers N]");
    std::process::exit(2);
}

/// A small problem size per rank, matching the serve benchmark.
fn small_n(rank: usize) -> i64 {
    match rank {
        1 => 64,
        2 => 16,
        _ => 6,
    }
}

/// The distinct workload: every benchmark on every engine preset.
fn distinct_workload() -> Vec<ServeRequest> {
    let mut distinct = Vec::new();
    for b in &benchmarks::all() {
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
    distinct
}

/// One-shot `Engine::Interp` reference bits per benchmark name.
fn references(distinct: &[ServeRequest]) -> HashMap<String, Vec<u64>> {
    let mut reference = HashMap::new();
    for b in &benchmarks::all() {
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
        reference.insert(
            b.name.to_string(),
            out.scalars.iter().map(|s| s.to_bits()).collect(),
        );
    }
    reference
}

/// Bar shared by every scenario: no served result may diverge from the
/// one-shot interp reference — under load shedding, faults, or breaker
/// routing alike.
fn assert_uncontaminated(
    scenario: &str,
    report: &fusion_core::ServeReport,
    reference: &HashMap<String, Vec<u64>>,
) {
    for r in report.records.iter().filter(|r| r.completed()) {
        let want = &reference[&r.name];
        assert_eq!(
            &r.scalars_bits, want,
            "{scenario}: request {} ({} on {}) diverged from the interp reference",
            r.index, r.name, r.engine
        );
    }
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

    let distinct = distinct_workload();
    let reference = references(&distinct);
    let batch: Vec<ServeRequest> = (0..distinct.len() * repeats)
        .map(|i| distinct[i % distinct.len()].clone())
        .collect();

    // Scenario 1: clean path. The full overload-control stack is in the
    // loop (admission queue, deadline checks, breaker registry) but
    // nothing exercises it; the bars say it stays out of the way.
    println!(
        "clean: {} requests ({} distinct, x{repeats}) on {workers} workers",
        batch.len(),
        distinct.len()
    );
    let clean_cache = Arc::new(CompileCache::new());
    let clean = serve_with(
        &batch,
        &ServeOptions::new().with_workers(workers),
        &clean_cache,
    );
    print!("{}", clean.render());
    assert_eq!(clean.failed(), 0, "clean: no request may fail");
    assert_eq!(clean.shed(), 0, "clean: shed only under injected overload");
    assert_eq!(clean.breaker.trips, 0, "clean: no breaker trips");
    assert_uncontaminated("clean", &clean, &reference);

    // Scenario 2: overload. Two workers wedged by injected stalls behind
    // a 4-deep queue under reject-newest: admission sheds, service does
    // not contaminate.
    println!("\noverload: queue cap 4, reject-newest, serve-stall p=0.35, 2 workers");
    let over_cache = Arc::new(CompileCache::new());
    let over_opts = ServeOptions::new()
        .with_workers(2)
        .with_queue_cap(4)
        .with_shed(ShedPolicy::RejectNewest)
        .with_faults(FaultPlan::new(SEED).with(FaultSite::ServeStall, 0.35));
    let overload = serve_with(&batch, &over_opts, &over_cache);
    print!("{}", overload.render());
    assert_eq!(
        overload.completed() + overload.shed(),
        batch.len(),
        "overload: every request is accounted"
    );
    assert!(
        overload.shed() > 0,
        "overload: stalled workers behind a bounded queue must shed"
    );
    for r in &overload.records {
        if let Disposition::Shed(cause) = r.disposition {
            assert_eq!(cause.name(), "queue-full", "overload: typed shed cause");
        }
    }
    assert_uncontaminated("overload", &overload, &reference);

    // Scenario 3: breaker. One warm key, every cache hit corrupted; the
    // batch is failure_threshold + 1 requests so the last one lands in
    // the cooldown window and is routed to the reference rung.
    let config = BreakerConfig::default();
    println!(
        "\nbreaker: cache-corrupt p=1.0 on one warm key, {} requests, 1 worker",
        config.failure_threshold + 1
    );
    let brk_cache = Arc::new(CompileCache::new());
    let one = benchmarks::all()[0];
    let key_req = distinct
        .iter()
        .find(|r| r.name == one.name && r.request.engine == Engine::Vm)
        .expect("vm request in workload")
        .clone();
    serve(std::slice::from_ref(&key_req), 1, &brk_cache); // warm the requested rung
    let brk_reqs: Vec<ServeRequest> = (0..config.failure_threshold as usize + 1)
        .map(|_| key_req.clone())
        .collect();
    let brk_opts = ServeOptions::new()
        .with_workers(1)
        .with_faults(FaultPlan::new(SEED).with(FaultSite::CacheCorrupt, 1.0));
    let breaker = serve_with(&brk_reqs, &brk_opts, &brk_cache);
    print!("{}", breaker.render());
    assert_eq!(
        breaker.breaker.trips, 1,
        "breaker: the poisoned key trips within the failure threshold"
    );
    assert!(
        breaker.cache.quarantines >= 1,
        "breaker: tripping quarantines the cached artifact"
    );
    let routed = breaker.records.last().expect("non-empty batch");
    assert!(
        routed.breaker_routed && routed.completed(),
        "breaker: the cooldown-window request is served via the reference rung"
    );
    assert_uncontaminated("breaker", &breaker, &reference);

    let json = format!(
        "{{\n  \"bench\": \"overload\",\n  \"workers\": {workers},\n  \
         \"clean\": {{\"requests\": {}, \"wall_ms\": {:.3}, \
         \"service_p50_us\": {}, \"service_p99_us\": {}, \
         \"e2e_p50_us\": {}, \"e2e_p99_us\": {}, \
         \"hit_rate\": {:.4}, \"shed\": 0, \"failed\": 0}},\n  \
         \"overload\": {{\"requests\": {}, \"completed\": {}, \"shed\": {}, \
         \"failed\": {}, \"wall_ms\": {:.3}}},\n  \
         \"breaker\": {{\"requests\": {}, \"trips\": {}, \"reopens\": {}, \
         \"closes\": {}, \"probes\": {}, \"routed_to_reference\": {}, \
         \"quarantines\": {}}}\n}}\n",
        clean.records.len(),
        clean.wall.as_secs_f64() * 1e3,
        clean.percentile_us(50.0),
        clean.percentile_us(99.0),
        clean.e2e_percentile_us(50.0),
        clean.e2e_percentile_us(99.0),
        clean.cache.hit_rate(),
        overload.records.len(),
        overload.completed(),
        overload.shed(),
        overload.failed(),
        overload.wall.as_secs_f64() * 1e3,
        breaker.records.len(),
        breaker.breaker.trips,
        breaker.breaker.reopens,
        breaker.breaker.closes,
        breaker.breaker.probes,
        breaker.breaker.rejected,
        breaker.cache.quarantines,
    );
    if let Err(e) = std::fs::write("BENCH_overload.json", &json) {
        eprintln!("overload: cannot write BENCH_overload.json: {e}");
        std::process::exit(1);
    }
    println!("\nwrote BENCH_overload.json");
}
