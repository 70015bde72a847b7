//! Bench comparing the execution configurations on the same scalarized
//! program — the reference tree-walking interpreter, the supervisor's
//! checked rung (unverified bytecode, bounds-checked, sequential, no
//! lanes), `vm` at one lane, `vm` at its default lanes, and `vm-par` — on
//! SIMPLE at n = 256 optimized at c2+f3, the configuration `vm` is
//! required to run at least 4x faster than the interpreter. Tomcatv at
//! n = 256, c2+f3 adds `vm` at one lane, `vm`, and `vm-par` rows: its
//! fused relaxation nest ends in two `max<<` folds, so it shows what
//! lanes and tiles buy a reduction-carrying nest.
//!
//! Samples are interleaved (interp, checked, vm, ..., interp, ...) across
//! both programs so background load perturbs every row equally instead of
//! skewing the ratios.
//!
//! With `--check` the bench exits nonzero if `vm` is under the 4x bar on
//! SIMPLE (the CI `simd` job runs this in release mode). The Tomcatv rows
//! are reported, not gated.

use fusion_core::pipeline::{Level, Optimized, Pipeline};
use loopir::{Artifact, Engine, ExecOpts, Executor, NoopObserver, ScalarProgram};
use testkit::{bench, Timing};
use zlang::ir::ConfigBinding;

const ROUNDS: usize = 8;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// A row's executor constructor. Construction (compile + verify) stays
/// outside the timed region: this bench compares execution speed, not
/// compilation cost.
type Make = fn(&ScalarProgram, ConfigBinding) -> Box<dyn Executor + '_>;

const ROWS: [(&str, Make); 5] = [
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

/// One benchmark at n = 256, c2+f3, with the rows (indices into [`ROWS`])
/// it is timed under.
struct Case {
    name: &'static str,
    opt: Optimized,
    binding: ConfigBinding,
    rows: &'static [usize],
}

impl Case {
    fn new(name: &'static str, rows: &'static [usize]) -> Case {
        let b = benchmarks::by_name(name).unwrap();
        let opt = Pipeline::new(Level::C2F3).optimize(&b.program());
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, b.size_config, 256);
        Case {
            name,
            opt,
            binding,
            rows,
        }
    }

    fn time(&self, row: usize) -> Timing {
        let mut exec = ROWS[row].1(&self.opt.scalarized, self.binding.clone());
        bench(0, 1, || exec.execute(&mut NoopObserver).unwrap().checksum())
    }
}

fn main() {
    let cases = [
        Case::new("simple", &[0, 1, 2, 3, 4]),
        Case::new("tomcatv", &[2, 3, 4]),
    ];
    // Warm every path once, then interleave the timed rounds.
    for case in &cases {
        for &row in case.rows {
            case.time(row);
        }
    }
    let mut samples: Vec<Vec<Vec<f64>>> = cases
        .iter()
        .map(|c| vec![Vec::new(); c.rows.len()])
        .collect();
    for _ in 0..ROUNDS {
        for (case, xs) in cases.iter().zip(&mut samples) {
            for (&row, x) in case.rows.iter().zip(xs.iter_mut()) {
                x.push(case.time(row).min_ns);
            }
        }
    }
    let medians: Vec<Vec<f64>> = samples
        .into_iter()
        .map(|xs| xs.into_iter().map(median).collect())
        .collect();
    for (case, ms) in cases.iter().zip(&medians) {
        for (&row, m) in case.rows.iter().zip(ms) {
            println!(
                "bench engine_speed/{}_n256_c2f3/{:<9} median {:.3} ms",
                case.name,
                ROWS[row].0,
                m / 1e6
            );
        }
    }
    let [interp, checked, lanes1, vm, par] = medians[0][..] else {
        unreachable!("one median per SIMPLE row")
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
    let [t_lanes1, t_vm, t_par] = medians[1][..] else {
        unreachable!("one median per Tomcatv row")
    };
    println!(
        "engine_speed: tomcatv vm (lanes) is {:.2}x vm at one lane",
        t_lanes1 / t_vm
    );
    println!("engine_speed: tomcatv vm-par is {:.2}x vm", t_vm / t_par);
    if std::env::args().any(|a| a == "--check") {
        let ratio = interp / vm;
        assert!(
            ratio >= 4.0,
            "vm is only {ratio:.2}x the interpreter (the bar is 4x)"
        );
        println!("engine_speed: check ok (vm >= 4x interp)");
    }
}
