//! The zpl-fusion benchmark: three seeded workloads, each putting most of
//! its time into a different set of layers, with every output checked bit
//! for bit against the unoptimized reference interpreter.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload solve|compile|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones, with `--trace 1` the per-layer ones, from a
//! separate run that records a span around every call into a layer and
//! writes them as Chrome trace-event JSON under `perfbench/out/`.
//! `perfbench/README.md` defines every metric on every workload.

mod common;
mod compile;
mod serve;
mod solve;
mod trace;

use common::Report;
use std::fmt::Write as _;
use trace::Tracer;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("exec_ms", "ms"),
    ("peak_mb", "MB"),
    ("compile_p50_ms", "ms"),
    ("compile_p99_ms", "ms"),
    ("serve_rps", "1/s"),
    ("service_p50_ms", "ms"),
    ("service_p99_ms", "ms"),
];

/// The benchmarks and level specs that `exec.<bench>.<spec>_ms` covers.
const BENCHES: [&str; 6] = ["ep", "frac", "tomcatv", "sp", "simple", "fibro"];
const SPECS: [&str; 4] = ["baseline", "c2", "c2f3", "c2f3rce2"];

/// Layers whose self time the traced run reports.
const LAYERS: [&str; 8] = [
    "zlang",
    "passes",
    "loopir.lower",
    "loopir.verify",
    "exec",
    "machine",
    "cache",
    "serve",
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`. A
/// layer a workload bypasses reports 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("zlang.parse_ms".into(), "ms"),
        ("passes.optimize_ms".into(), "ms"),
    ];
    for pass in common::PASSES {
        m.push((format!("passes.{pass}_ms"), "ms"));
    }
    for (name, unit) in [
        ("passes.nests", "count"),
        ("passes.contracted", "count"),
        ("passes.asdg_builds", "count"),
        ("loopir.lower_ms", "ms"),
        ("loopir.verify_ms", "ms"),
        ("loopir.code_len", "count"),
    ] {
        m.push((name.into(), unit));
    }
    for bench in BENCHES {
        for spec in SPECS {
            m.push((format!("exec.{bench}.{spec}_ms"), "ms"));
        }
    }
    for (name, unit) in [
        ("exec.points", "count"),
        ("exec.flops", "count"),
        ("exec.loads", "count"),
        ("exec.stores", "count"),
        ("exec.bytes_computed", "bytes"),
        ("exec.flops_per_byte", "flop/byte"),
        ("machine.l1_misses", "count"),
        ("machine.l2_misses", "count"),
        ("cache.hit_rate", "ratio"),
        ("cache.misses", "count"),
        ("cache.evictions", "count"),
        ("cache.lookup_us", "us"),
        ("serve.queue_wait_p50_ms", "ms"),
        ("serve.queue_wait_p99_ms", "ms"),
        ("serve.failed", "count"),
        ("serve.shed", "count"),
        ("serve.retried", "count"),
        ("supervisor.degraded", "count"),
        ("host.calib_ms", "ms"),
    ] {
        m.push((name.into(), unit));
    }
    for layer in LAYERS {
        m.push((format!("self.{layer}_ms"), "ms"));
    }
    m.push(("trace.overhead_pct".into(), "%"));
    m
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<(Report, Tracer), String> {
    let mut tr = Tracer::new(args.trace);
    let mut rep = Report::default();
    match args.workload.as_str() {
        "solve" => solve::run(args, &mut tr, &mut rep)?,
        "compile" => compile::run(args, &mut tr, &mut rep)?,
        "serve" => serve::run(args, &mut tr, &mut rep)?,
        w => {
            return Err(format!(
                "unknown workload `{w}` (expected solve, compile or serve)"
            ))
        }
    }
    Ok((rep, tr))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload solve|compile|serve --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let (rep, tr) = run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });

    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut json = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match rep.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {}: no value for {name}", args.workload);
                std::process::exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {}: {name} is {value}", args.workload);
            std::process::exit(1);
        }
        let _ = write!(
            json,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    let layer_names = per_layer();
    for name in rep.metrics.keys() {
        let listed =
            END_TO_END.iter().any(|(m, _)| m == name) || layer_names.iter().any(|(m, _)| m == name);
        if !listed {
            eprintln!("perfbench: {}: unlisted metric {name}", args.workload);
            std::process::exit(1);
        }
    }

    if args.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.chrome_json()))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!("perfbench: wrote {}", path.display());
    }
    for n in &rep.nondeterministic {
        eprintln!("perfbench: counter did not repeat: {n}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        rep.failed == 0 && rep.nondeterministic.is_empty(),
        rep.attempted,
        rep.failed,
    );
}
