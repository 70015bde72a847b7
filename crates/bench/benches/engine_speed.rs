//! Bench comparing the execution configurations on the same scalarized
//! program — the reference tree-walking interpreter, the supervisor's
//! checked rung (unverified bytecode, bounds-checked, sequential, no
//! lanes), `vm` at one lane, `vm` at its default lanes, and `vm-par` — on
//! SIMPLE at n = 256 optimized at c2+f3, the configuration `vm` is
//! required to run at least 4x faster than the interpreter.
//!
//! Samples are interleaved (interp, checked, vm, ..., interp, ...) so
//! background load perturbs every row equally instead of skewing the
//! ratios.
//!
//! With `--check` the bench exits nonzero if `vm` is under the 4x bar
//! (the CI `simd` job runs this in release mode).

use fusion_core::pipeline::{Level, Pipeline};
use loopir::{Artifact, Engine, ExecOpts, Executor, NoopObserver, ScalarProgram};
use testkit::{bench, Timing};
use zlang::ir::ConfigBinding;

const ROUNDS: usize = 8;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let b = benchmarks::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&b.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, b.size_config, 256);

    // The rows, as constructors; construction (compile + verify) stays
    // outside the timed region: this bench compares execution speed, not
    // compilation cost.
    type Make = fn(&ScalarProgram, ConfigBinding) -> Box<dyn Executor + '_>;
    let rows: [(&str, Make); 5] = [
        ("interp", |sp, b| Engine::Interp.executor(sp, b).unwrap()),
        ("checked", |sp, b| {
            Artifact::Checked
                .executor(sp, b, ExecOpts::default())
                .unwrap()
        }),
        ("vm-lanes1", |sp, b| {
            Engine::Vm
                .executor_with(sp, b, ExecOpts::with_lanes(1))
                .unwrap()
        }),
        ("vm", |sp, b| Engine::Vm.executor(sp, b).unwrap()),
        ("vm-par", |sp, b| Engine::VmPar.executor(sp, b).unwrap()),
    ];
    let one = |make: Make| -> Timing {
        let mut exec = make(&opt.scalarized, binding.clone());
        bench(0, 1, || exec.execute(&mut NoopObserver).unwrap().checksum())
    };
    // Warm every path once, then interleave the timed rounds.
    for (_, make) in rows {
        one(make);
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    for _ in 0..ROUNDS {
        for ((_, make), xs) in rows.iter().zip(&mut samples) {
            xs.push(one(*make).min_ns);
        }
    }
    let medians: Vec<f64> = samples.into_iter().map(median).collect();
    for ((name, _), m) in rows.iter().zip(&medians) {
        println!(
            "bench engine_speed/simple_n256_c2f3/{name:<9} median {:.3} ms",
            m / 1e6
        );
    }
    let [interp, checked, lanes1, vm, par] = medians[..] else {
        unreachable!("one median per row")
    };
    println!(
        "engine_speed: checked rung is {:.2}x the interpreter",
        interp / checked
    );
    println!(
        "engine_speed: vm at one lane (unchecked accesses) is {:.2}x the checked rung",
        checked / lanes1
    );
    println!(
        "engine_speed: vm (superinstructions + lanes) is {:.2}x the interpreter",
        interp / vm
    );
    println!("engine_speed: vm-par is {:.2}x vm", vm / par);
    if std::env::args().any(|a| a == "--check") {
        let ratio = interp / vm;
        assert!(
            ratio >= 4.0,
            "vm is only {ratio:.2}x the interpreter (the bar is 4x)"
        );
        println!("engine_speed: check ok (vm >= 4x interp)");
    }
}
