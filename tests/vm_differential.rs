//! Differential testing of the execution engines.
//!
//! The bytecode VM is only useful if it is indistinguishable from the
//! reference tree-walking interpreter. For every benchmark at every
//! transformation level this harness asserts that every compiled form
//! (interpreter, checked bytecode, verified bytecode) produces
//!
//! * bitwise-identical scalar results (every scalar, compared by bits so
//!   `-0.0` vs `0.0` or NaN-payload drift cannot hide),
//! * identical [`RunStats`] (points, loads, stores, flops, allocations,
//!   peak bytes), and
//! * an identical memory-access stream as seen by the `machine` crate's
//!   cache simulator (equal hit/miss counters on a real cache geometry),
//!
//! and that every (threads, lanes) configuration of the verified form
//! matches the interpreter's scalars and counters.

mod common;

use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::t3e;
use zpl_fusion::sim::MemSim;

/// Every compiled form under the cache simulator. The simulator consumes
/// the address stream, so threads and lanes stand down and only the
/// compiled form is under test here.
fn outcomes(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: &ConfigBinding,
) -> Vec<(Artifact, RunOutcome, zpl_fusion::sim::MemStats)> {
    let m = t3e();
    [Artifact::Interp, Artifact::Checked, Artifact::Verified]
        .into_iter()
        .map(|artifact| {
            let mut sim = MemSim::new(m.l1, m.l2);
            let mut exec = artifact
                .executor(&opt.scalarized, binding.clone(), ExecOpts::default())
                .unwrap();
            let out = exec.execute(&mut sim).unwrap();
            (artifact, out, sim.stats())
        })
        .collect()
}

#[test]
fn engines_agree_on_every_benchmark_at_every_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let rs = outcomes(&opt, &binding);
            let (e0, out0, mem0) = &rs[0];
            for (e, out, mem) in &rs[1..] {
                let ctx = format!("{} at {level}: {e0:?} vs {e:?}", bench.name);
                for (i, (a, b)) in out0.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(out0.checksum().to_bits(), out.checksum().to_bits(), "{ctx}");
                assert_eq!(out0.stats, out.stats, "{ctx}: RunStats differ");
                assert_eq!(
                    mem0, mem,
                    "{ctx}: cache simulator saw a different access stream"
                );
            }
        }
    }
}

#[test]
fn vm_par_is_bit_identical_to_interp_at_every_thread_count() {
    // The presets promise results independent of the thread count and
    // lane width: tile decomposition is static, lanes fold reductions in
    // iteration order, only max/min reductions split across tiles, and
    // per-tile stats merge in tile order. Sweep every
    // distinct configuration against the reference interpreter on every
    // benchmark at every level.
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let mut interp = Engine::Interp
                .executor(&opt.scalarized, binding.clone())
                .unwrap();
            let reference = interp.execute(&mut NoopObserver).unwrap();
            for config in common::configs() {
                let mut exec = config.executor(&opt.scalarized, binding.clone());
                let out = exec.execute(&mut NoopObserver).unwrap();
                let ctx = format!("{} at {level}, {config:?}", bench.name);
                for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(
                    reference.checksum().to_bits(),
                    out.checksum().to_bits(),
                    "{ctx}"
                );
                assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
            }
        }
    }
}

#[test]
fn engines_agree_under_dimension_contraction() {
    // The Outer construct takes a different compilation path in the VM;
    // make sure the extension stays bit-identical too.
    for bench in zpl_fusion::workloads::all() {
        let opt = Pipeline::new(Level::C2)
            .with_dimension_contraction()
            .optimize(&bench.program());
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        let n = if bench.rank == 1 { 256 } else { 8 };
        binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
        let rs = outcomes(&opt, &binding);
        let (_, out0, mem0) = &rs[0];
        for (e, out, mem) in &rs[1..] {
            assert_eq!(out0, out, "{} +dim ({e:?})", bench.name);
            assert_eq!(mem0, mem, "{} +dim ({e:?}): cache stream", bench.name);
        }
    }
}
