//! Per-pass compile-time profile of the optimization pipeline.
//!
//! Runs every paper benchmark through `fusion_core`'s pass manager at one
//! level spec (default `c2+f3`; the `zlc --level` grammar, so
//! `--level c2+f3+rce2` schedules the cleanup passes too) and reports,
//! per pass, the median wall-clock
//! time plus the statement and cluster counters the manager records. The
//! verdict is printed as a table and written to `BENCH_passes.json` for
//! CI trend tracking.
//!
//! ```text
//! passes [--level L] [--dse] [--rce] [--rounds N]
//! ```

use fusion_core::pass::PassId;
use fusion_core::pipeline::{Level, PassSpec, Pipeline};
use std::fmt::Write as _;

const DEFAULT_ROUNDS: usize = 9;

fn usage() -> ! {
    eprintln!("usage: passes [--level L] [--dse] [--rce] [--rounds N]");
    std::process::exit(2);
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut spec = PassSpec::from(Level::C2F3);
    let mut rounds = DEFAULT_ROUNDS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--level" => {
                let v = it.next().unwrap_or_else(|| usage());
                spec = v.parse().unwrap_or_else(|_| usage());
            }
            "--dse" => spec.dse = true,
            "--rce" => spec.rce = true,
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }

    let mut bench_objects = Vec::new();
    println!("per-pass compile profile at {spec} ({rounds} rounds, median)");
    for b in benchmarks::all() {
        let program = b.program();
        let pipeline = Pipeline::new(spec);
        // Warm-up run; its traces also fix the pass schedule and counters.
        let shape = pipeline.optimize(&program);
        let mut per_pass: Vec<Vec<f64>> = vec![Vec::new(); shape.passes.len()];
        let mut totals = Vec::new();
        for _ in 0..rounds {
            let opt = pipeline.optimize(&program);
            assert_eq!(opt.passes.len(), per_pass.len(), "schedule drifted");
            for (slot, t) in per_pass.iter_mut().zip(&opt.passes) {
                slot.push(t.duration.as_secs_f64() * 1e6);
            }
            totals.push(
                opt.passes
                    .iter()
                    .map(|t| t.duration.as_secs_f64())
                    .sum::<f64>()
                    * 1e6,
            );
        }
        let total_us = median(totals);
        println!(
            "\n{:10} {} blocks, {} asdg builds, total {total_us:9.1} us",
            b.name,
            shape.norm.blocks.len(),
            shape.asdg_builds
        );
        let mut pass_objects = Vec::new();
        for (times, t) in per_pass.into_iter().zip(&shape.passes) {
            let us = median(times);
            println!(
                "  {:22} {us:9.1} us  {:3} stmts  {:3} clusters{}",
                t.id.name(),
                t.stmts,
                t.clusters,
                if t.changed { "  *" } else { "" }
            );
            pass_objects.push(format!(
                "{{\"pass\": \"{}\", \"median_us\": {us:.3}, \"changed\": {}, \
                 \"stmts\": {}, \"clusters\": {}}}",
                t.id.name(),
                t.changed,
                t.stmts,
                t.clusters
            ));
        }
        let mut obj = String::new();
        let _ = write!(
            obj,
            "    {{\n      \"name\": \"{}\",\n      \"blocks\": {},\n      \
             \"asdg_builds\": {},\n      \"total_us\": {total_us:.3},\n      \"passes\": [\n",
            b.name,
            shape.norm.blocks.len(),
            shape.asdg_builds
        );
        let _ = write!(obj, "        {}", pass_objects.join(",\n        "));
        let _ = write!(obj, "\n      ]\n    }}");
        bench_objects.push(obj);
    }

    // Sanity guard mirroring the pass-manager tests: at paper levels every
    // block's ASDG is built exactly once.
    let scheduled: Vec<&str> = {
        let b = benchmarks::by_name("simple").unwrap();
        Pipeline::new(spec)
            .optimize(&b.program())
            .passes
            .iter()
            .map(|t| t.id.name())
            .collect()
    };
    assert!(scheduled.contains(&PassId::Scalarize.name()));

    let json = format!(
        "{{\n  \"bench\": \"passes\",\n  \"level\": \"{spec}\",\n  \"rounds\": {rounds},\n  \
         \"benchmarks\": [\n{}\n  ]\n}}\n",
        bench_objects.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_passes.json", &json) {
        eprintln!("passes: cannot write BENCH_passes.json: {e}");
        std::process::exit(1);
    }
    println!("\nwrote BENCH_passes.json");
}
