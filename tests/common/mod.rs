//! Shared by the differential suites: the distinct execution
//! configurations the engine presets span.
#![allow(dead_code)]

use fusion_core::RunRequest;
use loopir::{Artifact, Engine, ExecOpts, Executor, ScalarProgram};
use zlang::ir::ConfigBinding;

/// One requested configuration: an engine preset plus its thread and
/// lane counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub engine: Engine,
    pub threads: usize,
    pub lanes: usize,
}

/// Every distinct configuration: the interpreter, `vm` at lanes 1/2/8,
/// and `vm-par` at threads 1/2/4 × lanes 1/8. The engine aliases
/// (`vm-verified`, `vm-simd`) are `vm` and add nothing.
pub fn configs() -> Vec<Config> {
    let at = |engine, threads, lanes| Config {
        engine,
        threads,
        lanes,
    };
    let mut out = vec![at(Engine::Interp, 1, 1)];
    out.extend([1, 2, 8].map(|lanes| at(Engine::Vm, 1, lanes)));
    for threads in [1, 2, 4] {
        out.extend([1, 8].map(|lanes| at(Engine::VmPar, threads, lanes)));
    }
    out
}

impl Config {
    /// The run request asking for this configuration (default spec).
    pub fn request(self) -> RunRequest {
        RunRequest::new()
            .with_engine(self.engine)
            .with_threads(self.threads)
            .with_lanes(self.lanes)
    }

    /// An executor for `sp` under this configuration.
    pub fn executor<'p>(
        self,
        sp: &'p ScalarProgram,
        binding: ConfigBinding,
    ) -> Box<dyn Executor + 'p> {
        let opts = ExecOpts {
            threads: self.threads,
            lanes: self.lanes,
        };
        self.engine
            .executor_with(sp, binding, opts)
            .unwrap_or_else(|e| panic!("{self:?} refused to construct: {e}"))
    }
}

/// The supervisor's checked rung: the same bytecode unverified,
/// sequential, lanes off.
pub fn checked<'p>(sp: &'p ScalarProgram, binding: ConfigBinding) -> Box<dyn Executor + 'p> {
    Artifact::Checked
        .executor(sp, binding, ExecOpts::default())
        .expect("checked bytecode compiles")
}
