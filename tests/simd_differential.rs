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
//! every level, and a third through hand-written programs whose
//! reductions fuse into element-wise nests and fold IEEE-754 corner
//! values in lanes and across tiles.

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

/// Every scalar of every run equals the first run's bit for bit, with
/// identical counters.
fn assert_all_scalars_match(runs: &[(String, RunOutcome)], ctx: &str) {
    let (_, reference) = &runs[0];
    for (label, out) in &runs[1..] {
        for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: {label}: scalar {i} differs ({a} vs {b})"
            );
        }
        assert_eq!(
            reference.stats, out.stats,
            "{ctx}: {label}: RunStats differ"
        );
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
            assert_all_scalars_match(&runs, &format!("{} at {level}", bench.name));
        }
    }
}

/// Reductions that fuse into element-wise nests and fold signed zeros
/// (`min(A, 0) * 0`, `sqrt(-0)`), NaN (square roots of negatives) and
/// infinities (`1 / ±0`, overflow), each with the bytecode markers it must
/// reach at `c2+f3`: `(par ladders with folds, simd loops with folds)`.
const FOLD_PROGRAMS: [(&str, usize, usize); 3] = [
    // max/min only, 2-D: one fused ladder that splits across tiles and
    // runs its rows in lanes.
    (
        "program fold2d; config n : int = 13; region R = [1..n, 1..n]; \
         var A, Z, Q, V, OUT : [R] float; \
         var zmax, zmin, vmax, vmin, qmax, qmin, amax : float; \
         begin \
           [R] A := (index1 - 4.0) * (index2 - 7.0); \
           [R] Z := min(A, 0.0) * 0.0; \
           [R] Q := sqrt(A); \
           [R] V := 1.0 / Z; \
           [R] OUT := Q + V + A; \
           zmax := max<< [R] Z;  zmin := min<< [R] Z; \
           vmax := max<< [R] V;  vmin := min<< [R] V; \
           qmax := max<< [R] Q;  qmin := min<< [R] Q; \
           amax := max<< [R] A * 1e300 * 1e300; \
         end",
        1,
        1,
    ),
    // max/min only, 1-D: the tiled dimension is the lane dimension.
    (
        "program fold1d; config n : int = 203; region L = [1..n]; \
         var A, B, OUT : [L] float; \
         var bmax, bmin, rmax, rmin, zmax, zmin : float; \
         begin \
           [L] A := (index1 - 101.0) * -0.25; \
           [L] B := 1.0 / (min(A, 0.0) * 0.0) + A; \
           [L] OUT := B - A; \
           bmax := max<< [L] B;  bmin := min<< [L] B; \
           rmax := max<< [L] sqrt(A);  rmin := min<< [L] sqrt(A); \
           zmax := max<< [L] sqrt(A) * 0.0;  zmin := min<< [L] sqrt(A) * 0.0; \
         end",
        1,
        1,
    ),
    // sums and products beside a max: the nest stays sequential (no
    // ladder) but still runs in lanes, folding in iteration order.
    (
        "program sums1d; config n : int = 203; region L = [1..n]; \
         var A, P, OUT : [L] float; \
         var big, zsum, pprod, pmax, nanmax, nansum : float; \
         begin \
           [L] A := (index1 - 101.0) * 0.5; \
           [L] P := A * 1e17 + index1; \
           [L] OUT := P * 2.0; \
           big := +<< [L] P; \
           zsum := +<< [L] min(A, 0.0) * 0.0; \
           pprod := *<< [L] 1.0 + A * 0.01; \
           pmax := max<< [L] P; \
           nanmax := max<< [L] sqrt(0.0 - 1.0 - A * A); \
           nansum := +<< [L] sqrt(A); \
         end",
        0,
        1,
    ),
];

#[test]
fn fused_reductions_are_bit_identical_in_lanes_and_tiles() {
    for (source, ladders, lane_loops) in FOLD_PROGRAMS {
        let program = zlang::compile(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&program);
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            let runs = outcomes(&opt, &binding);
            assert_all_scalars_match(&runs, &format!("{} at {level}", program.name));
            if level != Level::C2F3 {
                continue;
            }
            let listing = loopir::Vm::new(&opt.scalarized, binding).unwrap().disasm();
            let count = |marker: &str| listing.lines().filter(|l| l.contains(marker)).count();
            assert_eq!(
                count(" folds ["),
                ladders,
                "{}: ladders folding max/min\n{listing}",
                program.name
            );
            assert_eq!(
                listing
                    .split(";; simd s")
                    .skip(1)
                    .filter(|lane_body| lane_body.contains(") over lanes"))
                    .count(),
                lane_loops,
                "{}: simd loops folding in lanes\n{listing}",
                program.name
            );
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
