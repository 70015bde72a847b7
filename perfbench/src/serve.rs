//! `serve`: the batch-replay serving path that `zlc serve` offers.
//!
//! Each batch is a seeded Zipf draw over 192 keys — six benchmarks × eight
//! small sizes × {`c2`, `c2+f3`} × {`vm`, `vm-simd`} — served by
//! `serve_with` on one worker per core through a fresh compile cache. The
//! key count is close to the cache's 8×32 entries, so most requests hit
//! and a cold tail misses. Every request parses its source before the
//! cache lookup, so the frontend and small-n execution dominate; the array
//! passes run on misses only. `vm-par` is left out so that workers ×
//! threads stays within the core count. The popularity order of the keys
//! is fixed; the seed draws the request sequence.
//!
//! The traced run also replays each batch one request at a time through
//! the calls the serving path makes (parse, cache claim, compile on a
//! miss, execute), which splits a request's time between the layers.
//! Every other chunk of the replay records spans; the chunks in between
//! give the untraced baseline for the tracing overhead.

use crate::common::{self, Counters, Report};
use crate::trace::Tracer;
use crate::Args;
use fusion_core::serve::{serve_with, ServeOptions, ServeRequest};
use fusion_core::{CacheKey, CachedProgram, CompileCache, Lookup, RunRequest};
use loopir::{NoopObserver, RunStats, SharedProgram};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use testkit::Rng;

/// Requests per batch: enough that the ~190 cold misses of a fresh cache
/// are a small tail.
const BATCH: usize = 6000;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Fixes which keys are popular; the run's seed never changes it.
const POPULARITY_SEED: u64 = 0x21F;

struct Key {
    serve: ServeRequest,
    /// `exec.<bench>.<spec>_ms`.
    metric: String,
    reference: Vec<u64>,
    counters: Counters,
    stats: RunStats,
    compile_ms: f64,
    exec_ms: f64,
}

fn sizes(rank: usize) -> [i64; 8] {
    match rank {
        1 => [64, 96, 128, 160, 192, 224, 256, 320],
        2 => [8, 10, 12, 14, 16, 18, 20, 22],
        _ => [4, 5, 6, 7, 8, 9, 10, 11],
    }
}

/// Builds every key, compiles each one cold and runs it once against the
/// reference, so every key is checked even if the draw never picks it.
fn setup(tr: &mut Tracer) -> Result<Vec<Key>, String> {
    let mut keys: Vec<Key> = Vec::new();
    let mut references: BTreeMap<(&str, i64), Vec<u64>> = BTreeMap::new();
    for b in benchmarks::all() {
        for n in sizes(b.rank) {
            for spec in ["c2", "c2+f3"] {
                for engine in ["vm", "vm-simd"] {
                    let mut req = RunRequest::new()
                        .with_level_spec(spec)?
                        .with_engine_name(engine)?
                        .with_set(b.size_config, n);
                    if let Some(iters) = b.iters_config {
                        req = req.with_set(iters, 2);
                    }
                    let reference = match references.get(&(b.name, n)) {
                        Some(r) => r.clone(),
                        None => {
                            let r = common::reference(b.source, &req)?;
                            references.insert((b.name, n), r.clone());
                            r
                        }
                    };
                    let unit = keys.len() as u64;
                    let started = Instant::now();
                    let compiled = common::compile_unit(b.source, &req, tr, unit)?;
                    let compile_ms = common::ms_since(started);
                    let started = Instant::now();
                    let out = common::execute(&compiled.shared, &req, &mut NoopObserver)
                        .map_err(|e| format!("{} n={n} {spec} {engine}: {}", b.name, e.message))?;
                    let exec_ms = common::ms_since(started);
                    if common::bits(&out) != reference {
                        return Err(format!(
                            "{} n={n} {spec} {engine}: differs from the reference",
                            b.name
                        ));
                    }
                    keys.push(Key {
                        serve: ServeRequest::new(b.name, b.source, req),
                        metric: format!("exec.{}.{}_ms", b.name, common::spec_tag(spec)),
                        reference,
                        counters: compiled.counters,
                        stats: out.stats,
                        compile_ms,
                        exec_ms,
                    });
                }
            }
        }
    }
    Ok(keys)
}

/// Zipf(1) over a fixed popularity order of the keys.
struct Zipf {
    by_rank: Vec<usize>,
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(keys: usize) -> Self {
        let mut by_rank: Vec<usize> = (0..keys).collect();
        let mut rng = Rng::new(POPULARITY_SEED);
        for i in (1..keys).rev() {
            by_rank.swap(i, rng.below(i + 1));
        }
        let mut total = 0.0;
        let cumulative = (0..keys)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        Zipf {
            by_rank,
            cumulative,
        }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        let x = rng.f64(0.0, *self.cumulative.last().expect("at least one key"));
        let rank = self.cumulative.partition_point(|&c| c <= x);
        self.by_rank[rank.min(self.by_rank.len() - 1)]
    }
}

/// Requests per chunk of the traced replay; chunks alternate between
/// traced and untraced, so both see the same mix of hits and misses.
const CHUNK: usize = 50;

/// What a traced replay measured.
#[derive(Default)]
struct Replay {
    ok: u64,
    traced_requests: u64,
    /// Per-request time of each traced and each untraced chunk, in ms.
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    /// `PassTrace` of every traced miss.
    passes: Vec<Vec<(&'static str, f64)>>,
}

/// One request at a time through the calls the serving path makes, with
/// a span around each in every other chunk of requests.
fn replay(
    keys: &[Key],
    batch: &[usize],
    tr: &mut Tracer,
    unit0: u64,
    out: &mut Replay,
) -> Result<(), String> {
    let cache = CompileCache::new();
    for (c, chunk) in batch.chunks(CHUNK).enumerate() {
        let tracing = c % 2 == 1;
        tr.set_enabled(tracing);
        let started = Instant::now();
        for (i, &k) in chunk.iter().enumerate() {
            let key = &keys[k];
            let req = &key.serve.request;
            let unit = unit0 + (c * CHUNK + i) as u64;
            let program = common::parse(&key.serve.source, tr, unit)?;
            let binding = req.binding_for(&program)?;
            let open = tr.open("cache", unit);
            let lookup = cache.claim(CacheKey::for_request(&program, &binding, req));
            tr.close(open);
            let shared: SharedProgram = match lookup {
                Lookup::Hit(hit) => hit
                    .shared
                    .clone()
                    .ok_or("cached artifact has no bytecode")?,
                Lookup::Miss(guard) => {
                    let c = common::compile_program(&program, binding.clone(), req, tr, unit)?;
                    if tracing {
                        out.passes.push(c.passes);
                    }
                    guard.publish(Arc::new(CachedProgram {
                        scalarized: c.scalarized,
                        shared: Some(c.shared.clone()),
                        binding,
                        engine: req.engine,
                    }));
                    c.shared
                }
            };
            let open = tr.open("exec", unit);
            let result = common::execute(&shared, req, &mut NoopObserver);
            tr.close(open);
            if result.is_ok_and(|o| common::bits(&o) == key.reference) {
                out.ok += 1;
            }
        }
        let per_request = common::ms_since(started) / chunk.len() as f64;
        if tracing {
            out.traced_ms.push(per_request);
            out.traced_requests += chunk.len() as u64;
        } else {
            out.plain_ms.push(per_request);
        }
    }
    tr.set_enabled(true);
    Ok(())
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut keys: Vec<Key> = Vec::new();
    let mut compile_ms: Vec<Vec<f64>> = Vec::new();
    let mut exec_ms: Vec<Vec<f64>> = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let again = setup(tr)?;
        setup_s.push(started.elapsed().as_secs_f64());
        exec_ms.resize(again.len(), Vec::new());
        compile_ms.resize(again.len(), Vec::new());
        for (i, k) in again.iter().enumerate() {
            compile_ms[i].push(k.compile_ms);
            exec_ms[i].push(k.exec_ms);
        }
        for (first, now) in keys.iter().zip(&again) {
            rep.expect_same(&first.metric, &first.counters, &now.counters);
            rep.expect_same(&first.metric, &first.stats, &now.stats);
        }
        keys = again;
    }

    let traced = tr.enabled();
    let mark = tr.mark();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = ServeOptions::new().with_workers(workers);
    let zipf = Zipf::new(keys.len());
    let mut rng = Rng::new(args.seed);
    let mut service_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let (mut completed, mut wall_s) = (0usize, 0.0);
    let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
    let (mut failed, mut shed, mut retried, mut degraded) = (0, 0, 0, 0);
    let mut served = 0u64;
    let mut replayed = Replay::default();
    let mut replay_keys: Vec<usize> = Vec::new();
    let mut calib = common::Calib::new();
    let mut calib_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        calib_ms.push(calib.sample_ms());
        let batch: Vec<usize> = (0..BATCH).map(|_| zipf.draw(&mut rng)).collect();
        let requests: Vec<ServeRequest> = batch.iter().map(|&k| keys[k].serve.clone()).collect();
        let cache = Arc::new(CompileCache::new());
        let open = tr.open("serve", served);
        let report = serve_with(&requests, &opts, &cache);
        tr.close(open);
        served += BATCH as u64;
        for (r, &k) in report.records.iter().zip(&batch) {
            let ok = r.completed() && !r.degraded && r.scalars_bits == keys[k].reference;
            rep.count(ok);
            service_ms.push(r.latency.as_secs_f64() * 1e3);
            queue_ms.push(r.queue_wait.as_secs_f64() * 1e3);
        }
        completed += report.completed();
        wall_s += report.wall.as_secs_f64();
        hits += report.cache.hits;
        misses += report.cache.misses;
        evictions += report.cache.evictions;
        failed += report.failed();
        shed += report.shed();
        retried += report.retried();
        degraded += report.degraded();

        if traced {
            let before = replayed.ok;
            replay(&keys, &batch, tr, replay_keys.len() as u64, &mut replayed)?;
            rep.count_many(BATCH as u64, replayed.ok - before);
            replay_keys.extend_from_slice(&batch);
        }
    }

    let medians = common::medians(&exec_ms);
    let mut total = RunStats::default();
    for k in &keys {
        common::add_stats(&mut total, &k.stats);
    }
    rep.put("setup_s", common::median(&setup_s));
    rep.put("ok_frac", rep.ok_frac());
    rep.put("exec_ms", common::geomean(&medians));
    rep.put("peak_mb", total.peak_bytes as f64 / 1e6);
    common::put_compile_percentiles(rep, &compile_ms);
    rep.put("serve_rps", completed as f64 / wall_s);
    rep.put("service_p50_ms", common::percentile(&service_ms, 50.0));
    rep.put("service_p99_ms", common::percentile(&service_ms, 99.0));
    if !traced {
        return Ok(());
    }

    // Per (bench, spec): the median execution span of the traced replay.
    let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (unit, ms) in tr.durations_since(mark, "exec") {
        let key = &keys[replay_keys[unit as usize]];
        by_metric.entry(key.metric.as_str()).or_default().push(ms);
    }
    for (metric, samples) in by_metric {
        rep.put(metric, common::median(&samples));
    }
    common::put_exec_counters(rep, &total);
    common::put_compile_counters(rep, keys.iter().map(|k| &k.counters));
    common::put_call_means(rep, tr, mark);
    common::put_pass_times(rep, &replayed.passes);
    let lookups: Vec<f64> = tr
        .durations_since(mark, "cache")
        .into_iter()
        .map(|(_, ms)| ms * 1e3)
        .collect();
    rep.put("cache.lookup_us", common::mean(&lookups));
    rep.put(
        "cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    rep.put("cache.misses", misses as f64);
    rep.put("cache.evictions", evictions as f64);
    rep.put(
        "serve.queue_wait_p50_ms",
        common::percentile(&queue_ms, 50.0),
    );
    rep.put(
        "serve.queue_wait_p99_ms",
        common::percentile(&queue_ms, 99.0),
    );
    rep.put("serve.failed", failed as f64);
    rep.put("serve.shed", shed as f64);
    rep.put("serve.retried", retried as f64);
    rep.put("supervisor.degraded", degraded as f64);
    // Replay layers per replayed request; `serve_with` per served request.
    common::put_self_times(rep, tr, mark, replayed.traced_requests);
    let serve_ms: f64 = tr
        .durations_since(mark, "serve")
        .into_iter()
        .map(|(_, ms)| ms)
        .sum();
    rep.put("self.serve_ms", serve_ms / served.max(1) as f64);
    common::put_overhead(rep, &replayed.traced_ms, &replayed.plain_ms);
    rep.put("host.calib_ms", common::median(&calib_ms));
    Ok(())
}
