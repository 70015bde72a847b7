//! `solve`: what a user who wants a result pays for.
//!
//! Nine execution-dominated entries (the six paper benchmarks at `c2+f3`,
//! plus SP, Tomcatv and Simple at `c2+f3+rce2`) are compiled once during
//! set-up, then executed closed-loop, one at a time, round-robin on
//! `vm-par` with one thread per core and the default lanes. Their working
//! sets run from under 1 MB to several MB, across a typical per-core L2,
//! which is where contraction should matter. The seed only shuffles the
//! order of each round.

use crate::common::{self, Compiled, Report};
use crate::trace::Tracer;
use crate::Args;
use fusion_core::RunRequest;
use loopir::{NoopObserver, RunStats};
use machine::MemSim;
use std::time::Instant;
use testkit::Rng;

/// `(benchmark, level spec, size)`.
const ENTRIES: [(&str, &str, i64); 9] = [
    ("ep", "c2+f3", 65536),
    ("frac", "c2+f3", 128),
    ("tomcatv", "c2+f3", 256),
    ("sp", "c2+f3", 24),
    ("simple", "c2+f3", 256),
    ("fibro", "c2+f3", 128),
    ("sp", "c2+f3+rce2", 24),
    ("tomcatv", "c2+f3+rce2", 256),
    ("simple", "c2+f3+rce2", 256),
];

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

struct Entry {
    name: String,
    source: &'static str,
    req: RunRequest,
    compiled: Compiled,
    reference: Vec<u64>,
    stats: RunStats,
}

fn setup(
    tr: &mut Tracer,
    threads: usize,
    compile_ms: &mut [Vec<f64>],
) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (unit, &(bench, spec, n)) in ENTRIES.iter().enumerate() {
        let b = benchmarks::by_name(bench).ok_or("unknown benchmark")?;
        let req = RunRequest::new()
            .with_level_spec(spec)?
            .with_engine_name("vm-par")?
            .with_threads(threads)
            .with_set(b.size_config, n);
        let started = Instant::now();
        let compiled = common::compile_unit(b.source, &req, tr, unit as u64)?;
        compile_ms[unit].push(common::ms_since(started));
        // Entries of one benchmark share a program and binding, so they
        // share the reference.
        let reference = match entries.iter().find(|e: &&Entry| e.source == b.source) {
            Some(e) => e.reference.clone(),
            None => common::reference(b.source, &req)?,
        };
        // A first execution finishes lazy set-up and pins the counters.
        let out = common::execute(&compiled.shared, &req, &mut NoopObserver)
            .map_err(|e| format!("{bench} {spec}: {}", e.message))?;
        if common::bits(&out) != reference {
            return Err(format!("{bench} {spec}: differs from the reference"));
        }
        entries.push(Entry {
            name: format!("exec.{bench}.{}_ms", common::spec_tag(spec)),
            source: b.source,
            req,
            compiled,
            reference,
            stats: out.stats,
        });
    }
    Ok(entries)
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setup_s = Vec::new();
    let mut compile_ms = vec![Vec::new(); ENTRIES.len()];
    let mut entries: Vec<Entry> = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let again = setup(tr, threads, &mut compile_ms)?;
        setup_s.push(started.elapsed().as_secs_f64());
        for (first, now) in entries.iter().zip(&again) {
            rep.expect_same(
                &first.name,
                &first.compiled.counters,
                &now.compiled.counters,
            );
            rep.expect_same(&first.name, &first.stats, &now.stats);
        }
        entries = again;
    }

    let mark = tr.mark();
    let traced = tr.enabled();
    let mut rng = Rng::new(args.seed);
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let mut order: Vec<usize> = (0..entries.len()).collect();
    let mut unit = ENTRIES.len() as u64;
    let mut traced_units = 0u64;
    let rounds = common::rounds(args.seconds, tr, |tr, tracing| {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let e = &entries[i];
            let started = Instant::now();
            let open = tr.open("exec", unit);
            let out = common::execute(&e.compiled.shared, &e.req, &mut NoopObserver);
            tr.close(open);
            let ms = common::ms_since(started);
            let ok = match &out {
                Ok(o) => {
                    rep.expect_same(&e.name, &e.stats, &o.stats);
                    common::bits(o) == e.reference
                }
                Err(_) => false,
            };
            rep.count(ok);
            if tracing {
                traced_units += 1;
            } else {
                samples[i].push(ms);
            }
            unit += 1;
        }
        order.len()
    });

    let all: Vec<f64> = samples.iter().flatten().copied().collect();
    let medians = common::medians(&samples);
    let mut total = RunStats::default();
    for e in &entries {
        common::add_stats(&mut total, &e.stats);
    }
    rep.put("setup_s", common::median(&setup_s));
    rep.put("ok_frac", rep.ok_frac());
    rep.put("exec_ms", common::geomean(&medians));
    rep.put("peak_mb", total.peak_bytes as f64 / 1e6);
    common::put_compile_percentiles(rep, &compile_ms);
    rep.put(
        "serve_rps",
        all.len() as f64 / (all.iter().sum::<f64>() / 1e3),
    );
    rep.put("service_p50_ms", common::percentile(&all, 50.0));
    rep.put("service_p99_ms", common::percentile(&all, 99.0));
    if !traced {
        return Ok(());
    }

    for (e, m) in entries.iter().zip(&medians) {
        rep.put(e.name.clone(), *m);
    }
    common::put_exec_counters(rep, &total);
    common::put_compile_counters(rep, entries.iter().map(|e| &e.compiled.counters));
    common::put_call_means(rep, tr, 0);
    let passes: Vec<_> = entries.iter().map(|e| e.compiled.passes.clone()).collect();
    common::put_pass_times(rep, &passes);
    common::put_overhead(rep, &rounds.traced_ms, &rounds.plain_ms);

    // Simulated locality: each entry once more under the T3E cache model,
    // which consumes the scalar address stream (no lanes, no tiles). It
    // runs twice, and the two miss counts must agree.
    let t3e = machine::presets::t3e();
    let (mut l1, mut l2) = (0u64, 0u64);
    for e in &entries {
        let mut misses = Vec::new();
        for _ in 0..2 {
            let mut sim = MemSim::new(t3e.l1, t3e.l2);
            let open = tr.open("machine", unit);
            let out = common::execute(&e.compiled.shared, &e.req, &mut sim);
            tr.close(open);
            rep.count(out.is_ok_and(|o| common::bits(&o) == e.reference));
            misses.push((sim.stats().l1_misses, sim.stats().l2_misses));
            unit += 1;
            traced_units += 1;
        }
        rep.expect_same(
            &format!("{} machine misses", e.name),
            &misses[0],
            &misses[1],
        );
        l1 += misses[0].0;
        l2 += misses[0].1;
    }
    common::put_self_times(rep, tr, mark, traced_units);
    rep.put("machine.l1_misses", l1 as f64);
    rep.put("machine.l2_misses", l2 as f64);
    rep.put("host.calib_ms", common::median(&rounds.calib_ms));
    Ok(())
}
