//! `compile`: what a cold compile costs.
//!
//! Every unit is a cold compile — frontend, array passes, bytecode
//! lowering with the superinstruction/lane annotation pass, bytecode
//! verifier — and nothing executes inside the timed span. Units are the
//! six paper benchmarks at four level specs plus seeded `testkit::genprog`
//! programs (10–120 statements, and stencil shapes), because program size
//! is what compile cost scales with. Each compiled artifact then runs,
//! outside the compile span, so every one is checked against the
//! reference. The seed draws the generated programs and the order of each
//! round. The compile cache and the serving path are not used.

use crate::common::{self, Counters, Report};
use crate::trace::Tracer;
use crate::Args;
use fusion_core::RunRequest;
use loopir::{NoopObserver, RunStats};
use std::time::Instant;
use testkit::genprog::{self, GenOptions};
use testkit::Rng;

const SPECS: [&str; 4] = ["baseline", "c2", "c2+f3", "c2+f3+rce2"];

/// Seeded generated programs per run, on top of the 24 benchmark units.
const GENERATED: usize = 40;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

struct Unit {
    /// `exec.<bench>.<spec>_ms` for a benchmark unit.
    metric: Option<String>,
    source: String,
    req: RunRequest,
    reference: Vec<u64>,
    /// Pinned by the first compile and execution.
    counters: Option<(Counters, RunStats)>,
}

fn units(seed: u64) -> Result<Vec<(Option<String>, String, RunRequest)>, String> {
    let mut out = Vec::new();
    for b in benchmarks::all() {
        // Small sizes keep the untimed check execution from crowding
        // compiles out of the run; compile cost does not depend on them.
        let n = match b.rank {
            1 => 256,
            2 => 16,
            _ => 6,
        };
        for spec in SPECS {
            let mut req = RunRequest::new()
                .with_level_spec(spec)?
                .with_engine_name("vm-simd")?
                .with_set(b.size_config, n);
            if let Some(iters) = b.iters_config {
                req = req.with_set(iters, 2);
            }
            let metric = format!("exec.{}.{}_ms", b.name, common::spec_tag(spec));
            out.push((Some(metric), b.source.to_string(), req));
        }
    }
    // Program size and level spec are stratified, not drawn, so that the
    // mix of compile costs is the same on every seed; the seed draws the
    // statements themselves.
    let mut rng = Rng::new(seed);
    for i in 0..GENERATED {
        let source = if i % 4 == 3 {
            genprog::generate_stencil(&mut rng)
        } else {
            let stmts = 10 + 110 * (i - i / 4) / (GENERATED - GENERATED / 4 - 1);
            let opts = GenOptions {
                n: (10, 10),
                stmts: (stmts, stmts),
                ..GenOptions::default()
            };
            genprog::generate_with(&mut rng, opts)
        };
        let req = RunRequest::new()
            .with_level_spec(SPECS[(i / 4) % SPECS.len()])?
            .with_engine_name("vm-simd")?;
        out.push((None, source, req));
    }
    Ok(out)
}

fn setup(seed: u64) -> Result<Vec<Unit>, String> {
    let mut out: Vec<Unit> = Vec::new();
    for (metric, source, req) in units(seed)? {
        // Benchmark units share a program (and binding) across specs.
        let reference = match out.iter().find(|u| u.source == source) {
            Some(u) => u.reference.clone(),
            None => common::reference(&source, &req)?,
        };
        out.push(Unit {
            metric,
            source,
            req,
            reference,
            counters: None,
        });
    }
    Ok(out)
}

struct Sample {
    compile_ms: f64,
    exec_ms: f64,
    counters: Counters,
    stats: RunStats,
    passes: Vec<(&'static str, f64)>,
    matches: bool,
}

/// One unit: a timed cold compile, then the check execution, timed apart.
fn compile_and_run(u: &Unit, tr: &mut Tracer, unit_id: u64) -> Result<Sample, String> {
    let started = Instant::now();
    let c = common::compile_unit(&u.source, &u.req, tr, unit_id)?;
    let compile_ms = common::ms_since(started);
    let started = Instant::now();
    let open = tr.open("exec", unit_id);
    let out = common::execute(&c.shared, &u.req, &mut NoopObserver);
    tr.close(open);
    let exec_ms = common::ms_since(started);
    let out = out.map_err(|e| e.message)?;
    Ok(Sample {
        compile_ms,
        exec_ms,
        counters: c.counters,
        stats: out.stats,
        passes: c.passes,
        matches: common::bits(&out) == u.reference,
    })
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut units = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        units = setup(args.seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }

    let traced = tr.enabled();
    let mark = tr.mark();
    let mut rng = Rng::new(args.seed ^ 0x5EED);
    let mut order: Vec<usize> = (0..units.len()).collect();
    let mut compile_ms: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut unit_ms = Vec::new();
    let mut exec_ms: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut passes = Vec::new();
    let mut unit_id = 0u64;
    let mut traced_units = 0u64;
    let rounds = common::rounds(args.seconds, tr, |tr, tracing| {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let u = &mut units[i];
            let ok = match compile_and_run(u, tr, unit_id) {
                Ok(s) => {
                    let now = (s.counters, s.stats);
                    match &u.counters {
                        Some(first) => rep.expect_same(&format!("compile unit {i}"), first, &now),
                        None => u.counters = Some(now),
                    }
                    if !tracing {
                        compile_ms[i].push(s.compile_ms);
                        exec_ms[i].push(s.exec_ms);
                        unit_ms.push(s.compile_ms + s.exec_ms);
                    }
                    passes.push(s.passes);
                    s.matches
                }
                Err(_) => false,
            };
            rep.count(ok);
            if tracing {
                traced_units += 1;
            }
            unit_id += 1;
        }
        order.len()
    });

    let medians = common::medians(&exec_ms);
    let mut total = RunStats::default();
    for (_, stats) in units.iter().filter_map(|u| u.counters.as_ref()) {
        common::add_stats(&mut total, stats);
    }
    rep.put("setup_s", common::median(&setup_s));
    rep.put("ok_frac", rep.ok_frac());
    rep.put("exec_ms", common::geomean(&medians));
    rep.put("peak_mb", total.peak_bytes as f64 / 1e6);
    common::put_compile_percentiles(rep, &compile_ms);
    rep.put(
        "serve_rps",
        unit_ms.len() as f64 / (unit_ms.iter().sum::<f64>() / 1e3),
    );
    rep.put("service_p50_ms", common::percentile(&unit_ms, 50.0));
    rep.put("service_p99_ms", common::percentile(&unit_ms, 99.0));
    if !traced {
        return Ok(());
    }

    for (u, samples) in units.iter().zip(&exec_ms) {
        if let Some(metric) = &u.metric {
            rep.put(metric.clone(), common::median(samples));
        }
    }
    common::put_exec_counters(rep, &total);
    common::put_compile_counters(
        rep,
        units
            .iter()
            .filter_map(|u| u.counters.as_ref().map(|(c, _)| c)),
    );
    common::put_call_means(rep, tr, mark);
    common::put_pass_times(rep, &passes);
    common::put_self_times(rep, tr, mark, traced_units);
    common::put_overhead(rep, &rounds.traced_ms, &rounds.plain_ms);
    rep.put("host.calib_ms", common::median(&rounds.calib_ms));
    Ok(())
}
