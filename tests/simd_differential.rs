//! Differential suite for the two-tier ISA: superinstruction bytecode
//! with lane-based innermost-loop dispatch.
//!
//! Every VM engine runs the superfused instruction stream — the
//! post-compile peephole collapses fused element-wise chains into
//! superinstructions and annotates provably vectorizable innermost loops,
//! which the dispatch loop then executes over unrolled f64 lanes with a
//! scalar epilogue. None of that may be observable: this harness sweeps
//! generated random and stencil-shaped programs (the `testkit::genprog`
//! generators) across every distinct (threads, lanes) configuration and
//! the supervisor's checked rung, and insists every scalar stays
//! *bit-identical* to the interpreter, with identical execution counters.
//! A second pass drives the same sweep through the paper benchmarks at
//! every level.

mod common;

use testkit::{genprog, Rng};
use zlang::ir::{Program, ScalarId};
use zpl_fusion::prelude::*;

/// Generated programs per generator per sweep.
const PROGRAMS: u64 = 15;

/// The two checksum scalars every generated program declares first.
fn checksums(out: &RunOutcome) -> (u64, u64) {
    (
        out.scalar(ScalarId(0)).to_bits(),
        out.scalar(ScalarId(1)).to_bits(),
    )
}

/// Every configuration plus the checked rung on one optimized program,
/// labelled, in sweep order; the interpreter comes first.
fn outcomes(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: &ConfigBinding,
) -> Vec<(String, RunOutcome)> {
    let run = |mut exec: Box<dyn Executor + '_>, label: String| {
        let out = exec
            .execute(&mut NoopObserver)
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        (label, out)
    };
    let mut out: Vec<(String, RunOutcome)> = common::configs()
        .into_iter()
        .map(|c| {
            run(
                c.executor(&opt.scalarized, binding.clone()),
                format!("{c:?}"),
            )
        })
        .collect();
    out.push(run(
        common::checked(&opt.scalarized, binding.clone()),
        "checked".to_string(),
    ));
    out
}

fn sweep(source: &str, ctx: &str) {
    let program: Program =
        zlang::compile(source).unwrap_or_else(|e| panic!("{ctx}: invalid program: {e}\n{source}"));
    let opt = Pipeline::new(Level::C2F3).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let runs = outcomes(&opt, &binding);
    let (_, reference) = &runs[0];
    let expect = checksums(reference);
    for (label, out) in &runs[1..] {
        assert_eq!(
            checksums(out),
            expect,
            "{ctx}: {label} diverged from interp\n{source}"
        );
        assert_eq!(
            out.stats, reference.stats,
            "{ctx}: {label} counters differ\n{source}"
        );
    }
}

#[test]
fn random_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate(&mut Rng::new(seed));
        sweep(&source, &format!("random seed {seed}"));
    }
}

#[test]
fn stencil_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate_stencil(&mut Rng::new(seed));
        sweep(&source, &format!("stencil seed {seed}"));
    }
}

#[test]
fn benchmarks_are_bit_identical_at_every_lane_width_and_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 256,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let runs = outcomes(&opt, &binding);
            let (_, reference) = &runs[0];
            for (label, out) in &runs[1..] {
                let ctx = format!("{} at {level}: {label}", bench.name);
                for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
            }
        }
    }
}

#[test]
fn cache_simulation_sees_the_scalar_access_stream() {
    // Under an observer that consumes per-element addresses the lane path
    // must stand down entirely, so the cache simulator sees exactly the
    // access stream the scalar engines produce.
    use zpl_fusion::sim::presets::t3e;
    use zpl_fusion::sim::MemSim;
    let source = genprog::generate_stencil(&mut Rng::new(7));
    let program = zlang::compile(&source).unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let m = t3e();
    let mut stats = Vec::new();
    for engine in [Engine::Interp, Engine::Vm] {
        let mut sim = MemSim::new(m.l1, m.l2);
        let mut exec = engine
            .executor_with(&opt.scalarized, binding.clone(), ExecOpts::with_lanes(8))
            .unwrap();
        exec.execute(&mut sim).unwrap();
        stats.push(sim.stats());
    }
    assert_eq!(
        stats[0], stats[1],
        "vm at 8 lanes changed the observed access stream under the cache simulator"
    );
}
