//! The unified execution API: [`Executor`], [`RunOutcome`], [`Engine`].
//!
//! Historically every caller drove the interpreter differently — benches
//! constructed an [`Interp`], ran it, then poked `scalar(ScalarId(0))` for
//! the checksum; the parallel runtime reached for `stats()`; tests mixed
//! both. This module gives all of them one surface:
//!
//! * [`Executor`] — anything that can run a [`ScalarProgram`] to
//!   completion while streaming accesses to an [`Observer`];
//! * [`RunOutcome`] — the complete result of a run (final scalar values
//!   plus [`RunStats`] counters), replacing post-run field poking;
//! * [`Engine`] — selects between the tree-walking [`Interp`] and the
//!   bytecode [`Vm`] presets, for benches and CLI flags;
//! * [`Artifact`] — the compiled form an executor runs (interpreter,
//!   checked bytecode, verified bytecode).
//!
//! ```
//! # fn main() -> Result<(), loopir::ExecError> {
//! use loopir::{Engine, NoopObserver, ScalarProgram};
//! use zlang::ir::ConfigBinding;
//! let p = zlang::compile(
//!     "program t; region R = [1..4]; var A : [R] float; begin end").unwrap();
//! let sp = ScalarProgram { program: p, stmts: vec![] };
//! for engine in Engine::all() {
//!     let mut exec = engine.executor(&sp, ConfigBinding::defaults(&sp.program))?;
//!     let outcome = exec.execute(&mut NoopObserver)?;
//!     assert_eq!(outcome.stats.points, 0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::interp::{ExecError, Interp, NoopObserver, Observer, RunStats};
use crate::ir::ScalarProgram;
use crate::vm::{SharedProgram, Vm};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};
use zlang::ir::{ConfigBinding, ScalarId};

/// Resource budgets for one execution: an abstract-step fuel counter and a
/// wall-clock deadline. The default is unlimited.
///
/// One unit of fuel is one abstract step: an instruction of the one
/// superfused bytecode form on the [`Vm`] (a superinstruction counts
/// once; lane runs draw one unit per body instruction per covered
/// iteration), a loop-nest iteration point on the [`Interp`]. The two engines therefore exhaust a given
/// budget at different program sizes; fuel bounds *work*, it is not a
/// portable measure of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Abstract steps the run may take, or `None` for unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock instant after which the run must stop, or `None`.
    pub deadline: Option<Instant>,
}

impl ExecLimits {
    /// No limits (the default).
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// True if neither budget is set.
    pub fn is_unlimited(&self) -> bool {
        self.fuel.is_none() && self.deadline.is_none()
    }

    /// Adds a fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Adds a deadline `d` from now.
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }
}

/// Execution counters from one tile of a parallel ladder.
///
/// The parallel VM preset ([`Engine::VmPar`]) fans each tile-partitionable loop
/// ladder out as per-tile tasks; every task counts its own work and
/// returns one `TileStats`. The `(batch, tile)` key is assigned
/// deterministically from the static tile decomposition, so the stream can
/// always be aggregated in the same order regardless of which worker ran
/// which tile — see [`RunOutcome::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Which fan-out (dynamic ladder execution) of the run this tile
    /// belongs to, in coordinator execution order.
    pub batch: u32,
    /// The tile's index within its batch, in iteration order along the
    /// partitioned dimension.
    pub tile: u32,
    /// Array element loads performed by the tile.
    pub loads: u64,
    /// Array element stores performed by the tile.
    pub stores: u64,
    /// Floating-point operations performed by the tile.
    pub flops: u64,
    /// Iteration points executed by the tile.
    pub points: u64,
    /// Bytecode instructions executed by the tile (the tile's fuel cost).
    pub ops: u64,
}

/// The complete result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Final values of every program scalar, indexed by [`ScalarId`].
    pub scalars: Vec<f64>,
    /// Execution counters (loads, stores, flops, points, peak bytes).
    pub stats: RunStats,
}

impl RunOutcome {
    pub(crate) fn new(scalars: Vec<f64>, stats: RunStats) -> Self {
        RunOutcome { scalars, stats }
    }

    /// Builds an outcome from the sequential portion of a run plus a
    /// stream of per-tile counters.
    ///
    /// The merge is deterministic: tiles are folded in `(batch, tile)`
    /// order, which the parallel VM assigns from the static tile
    /// decomposition — so the aggregate is independent of worker
    /// scheduling and thread count, and `u64` addition makes it equal to
    /// the sequential run's counters exactly.
    pub fn merge(
        scalars: Vec<f64>,
        base: RunStats,
        tiles: impl IntoIterator<Item = TileStats>,
    ) -> RunOutcome {
        let mut ordered: Vec<TileStats> = tiles.into_iter().collect();
        ordered.sort_by_key(|t| (t.batch, t.tile));
        let mut stats = base;
        for t in &ordered {
            stats.loads += t.loads;
            stats.stores += t.stores;
            stats.flops += t.flops;
            stats.points += t.points;
        }
        RunOutcome::new(scalars, stats)
    }

    /// The conventional checksum: the first declared scalar. Every
    /// benchmark and generated test program declares its checksum scalar
    /// first, so this replaces the old `interp.scalar(ScalarId(0))` idiom.
    /// Returns `0.0` for programs with no scalars.
    pub fn checksum(&self) -> f64 {
        self.scalars.first().copied().unwrap_or(0.0)
    }

    /// The final value of a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn scalar(&self, id: ScalarId) -> f64 {
        self.scalars[id.0 as usize]
    }
}

/// Runs a [`ScalarProgram`] to completion.
///
/// Implemented by the tree-walking [`Interp`] and the bytecode
/// [`Vm`]; both stream every array element access through the
/// provided [`Observer`], so the cache simulator sees an identical access
/// stream regardless of engine.
pub trait Executor {
    /// Executes the program, reporting accesses to `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on an out-of-region array access (declare
    /// arrays with halos large enough for their `@` offsets).
    fn execute(&mut self, obs: &mut dyn Observer) -> Result<RunOutcome, ExecError>;

    /// Executes without observation (pure functional execution).
    ///
    /// # Errors
    ///
    /// Same as [`Executor::execute`].
    fn execute_pure(&mut self) -> Result<RunOutcome, ExecError> {
        self.execute(&mut NoopObserver)
    }

    /// Installs resource budgets for subsequent [`Executor::execute`]
    /// calls. Both engines implement this (there is deliberately no
    /// silently-ignoring default): when fuel or the deadline runs out the
    /// run stops with an [`ExecError`] of kind
    /// [`Fuel`](crate::ErrorKind::Fuel) or
    /// [`Deadline`](crate::ErrorKind::Deadline).
    fn set_limits(&mut self, limits: ExecLimits);
}

/// The compiled form an executor runs: what the `fusion_core` compile
/// cache stores, and the unit the supervisor's ladder degrades along.
///
/// Every VM form is the one superfused bytecode stream ([`Vm::new`]);
/// the forms differ only in whether the bytecode verifier's proof holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Artifact {
    /// No bytecode: the tree-walking [`Interp`] runs the scalarized
    /// program.
    Interp,
    /// Bytecode the verifier has not proven: every element access is
    /// bounds-checked, and it runs sequentially with lanes off whatever
    /// [`ExecOpts`] asks (see [`SharedProgram::executor`]). The supervisor
    /// falls back to it when the proof fails.
    Checked,
    /// Bytecode the verifier proved: unchecked element access, lane
    /// dispatch, tile fan-out. Every VM engine name compiles to this.
    Verified,
}

impl Artifact {
    /// `interp`, `checked`, or `verified`.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Interp => "interp",
            Artifact::Checked => "checked",
            Artifact::Verified => "verified",
        }
    }

    /// Compiles a program once into this form's thread-shareable
    /// [`SharedProgram`], or `None` for [`Artifact::Interp`] (callers
    /// re-instantiate the interpreter from the [`ScalarProgram`]).
    ///
    /// # Errors
    ///
    /// Lowering failures; for [`Artifact::Verified`] also a
    /// [`Verify`](crate::ErrorKind::Verify) error carrying every
    /// diagnostic when the verifier rejects the bytecode.
    pub fn compile(
        self,
        prog: &ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Option<SharedProgram>, ExecError> {
        if self == Artifact::Interp {
            return Ok(None);
        }
        let mut vm = Vm::new(prog, binding)?;
        if self == Artifact::Verified {
            vm.verify().map_err(|diags| {
                let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                ExecError::verify(format!(
                    "bytecode verification failed:\n{}",
                    msgs.join("\n")
                ))
            })?;
        }
        Ok(Some(vm.share()))
    }

    /// Compiles the program into this form and builds an executor over
    /// it under `opts`.
    ///
    /// # Errors
    ///
    /// As [`Artifact::compile`].
    pub fn executor<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
        opts: ExecOpts,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        Ok(match self.compile(prog, binding.clone())? {
            Some(shared) => shared.executor(opts),
            None => Box::new(Interp::new(prog, binding)),
        })
    }
}

/// Selects an execution engine by name. Every VM name is a preset over
/// [`ExecOpts`] on the one verified bytecode form ([`Artifact::Verified`]):
/// `vm` (and its aliases `vm-verified` and `vm-simd`) runs sequentially,
/// `vm-par` fans out over a thread pool. See [`Engine::preset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter ([`Interp`]).
    Interp,
    /// The bytecode VM ([`Vm`]), sequential: superinstruction bytecode
    /// the verifier proved, so element accesses skip the slice bounds
    /// check and provably vectorizable innermost loops run over unrolled
    /// f64 lanes (`ExecOpts::lanes`). Reductions fold each chunk's lane
    /// values in iteration order, so results are `f64::to_bits`-identical
    /// to [`Engine::Interp`]. Refuses
    /// to construct (with the verifier's diagnostics) if the proof fails.
    /// Lanes only engage under observers that do not consume the
    /// per-element address stream ([`Observer::wants_addresses`]). The
    /// default.
    #[default]
    Vm,
    /// Alias of [`Engine::Vm`], kept for callers that name it.
    VmVerified,
    /// Alias of [`Engine::Vm`], kept for callers that name it.
    VmSimd,
    /// [`Engine::Vm`] with parallel tiled execution: loop ladders the
    /// compiler proved independent along one dimension fan out as per-tile
    /// tasks on a work-stealing `std::thread` pool of `ExecOpts::threads`
    /// workers, each tile running lanes in its innermost loop.
    /// Bit-identical to [`Engine::Interp`] regardless of thread count:
    /// only `max<<`/`min<<` reductions split across tiles, whose partials
    /// combine exactly under [`fold`](crate::fold); nests carrying
    /// `+<<`/`*<<` stay sequential; tile counters merge in deterministic
    /// tile order. Under observers that consume the address stream the
    /// run stays sequential, preserving the exact address order.
    VmPar,
}

/// Per-execution options: the only knobs the VM presets differ in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// Worker threads (including the coordinator): `1` runs sequentially
    /// (the preset of every engine name except `vm-par`), `0` means one
    /// per available core, capped at 8. The interpreter and checked
    /// bytecode ignore this.
    pub threads: usize,
    /// Unrolled f64 lanes for the innermost-loop dispatch of verified
    /// bytecode; `0` means the default width (4), and widths are capped
    /// at 8. `1` disables lane dispatch (the same bytecode runs scalar).
    /// The interpreter and checked bytecode ignore this.
    pub lanes: usize,
}

impl ExecOpts {
    /// Options requesting a specific thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOpts {
            threads,
            ..ExecOpts::default()
        }
    }

    /// Options requesting a specific lane width.
    pub fn with_lanes(lanes: usize) -> Self {
        ExecOpts {
            lanes,
            ..ExecOpts::default()
        }
    }
}

impl Engine {
    /// Every engine name, reference interpreter first (aliases included).
    pub fn all() -> [Engine; 5] {
        [
            Engine::Interp,
            Engine::Vm,
            Engine::VmVerified,
            Engine::VmSimd,
            Engine::VmPar,
        ]
    }

    /// The engine's flag/display name (`interp`, `vm`, `vm-verified`,
    /// `vm-simd`, or `vm-par`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Vm => "vm",
            Engine::VmVerified => "vm-verified",
            Engine::VmSimd => "vm-simd",
            Engine::VmPar => "vm-par",
        }
    }

    /// The engine an alias stands for (`vm-verified`, `vm-simd` → `vm`);
    /// every other engine is its own canonical name.
    pub fn canonical(self) -> Engine {
        match self {
            Engine::VmVerified | Engine::VmSimd => Engine::Vm,
            e => e,
        }
    }

    /// The compiled form the engine runs.
    pub fn artifact(self) -> Artifact {
        match self {
            Engine::Interp => Artifact::Interp,
            _ => Artifact::Verified,
        }
    }

    /// The engine as a preset over `opts`: `vm-par` keeps the requested
    /// thread count, every other engine runs sequentially (`threads: 1`).
    pub fn preset(self, opts: ExecOpts) -> ExecOpts {
        match self {
            Engine::VmPar => opts,
            _ => ExecOpts { threads: 1, ..opts },
        }
    }

    /// Creates a boxed executor for a program under a config binding,
    /// with default [`ExecOpts`] (automatic thread count for
    /// [`Engine::VmPar`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::executor_with`].
    pub fn executor<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        self.executor_with(prog, binding, ExecOpts::default())
    }

    /// Creates a boxed executor with explicit [`ExecOpts`], resolved
    /// through [`Engine::preset`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program cannot be lowered (e.g. a
    /// region of rank greater than the VM supports); the VM engines also
    /// return a [`Verify`](crate::ErrorKind::Verify) error carrying every
    /// diagnostic when the bytecode verifier rejects the program.
    pub fn executor_with<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
        opts: ExecOpts,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        self.artifact().executor(prog, binding, self.preset(opts))
    }

    /// Compiles a program once into the engine's thread-shareable
    /// [`SharedProgram`], or `None` for [`Engine::Interp`]: the compile
    /// half of the compile-once/execute-many serving path. Verification
    /// runs here, once, so every executor later built from the handle
    /// with [`Engine::shared_executor`] starts on the unchecked fast path.
    ///
    /// # Errors
    ///
    /// As [`Artifact::compile`] for [`Engine::artifact`].
    pub fn compile_shared(
        self,
        prog: &ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Option<SharedProgram>, ExecError> {
        self.artifact().compile(prog, binding)
    }

    /// Builds a fresh executor around an already-compiled
    /// [`SharedProgram`] under the engine's preset of `opts` — one `Arc`
    /// bump plus run-state allocation, no recompilation and no
    /// re-verification. This is the hit half of the
    /// compile-once/execute-many serving path. An unverified handle runs
    /// sequentially with bounds checks on and lanes off (correct, just
    /// slower).
    pub fn shared_executor(self, shared: &SharedProgram, opts: ExecOpts) -> Box<dyn Executor> {
        shared.executor(self.preset(opts))
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(Engine::Interp),
            "vm" | "bytecode" => Ok(Engine::Vm),
            "vm-verified" | "verified" => Ok(Engine::VmVerified),
            "vm-simd" | "simd" => Ok(Engine::VmSimd),
            "vm-par" | "parallel" => Ok(Engine::VmPar),
            other => Err(format!(
                "unknown engine `{other}` (expected `interp`, `vm`, or `vm-par`; \
                 `vm-verified` and `vm-simd` are aliases of `vm`)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("vm".parse::<Engine>().unwrap(), Engine::Vm);
        assert_eq!("interp".parse::<Engine>().unwrap(), Engine::Interp);
        assert_eq!("vm-verified".parse::<Engine>().unwrap(), Engine::VmVerified);
        assert_eq!("verified".parse::<Engine>().unwrap(), Engine::VmVerified);
        assert_eq!("vm-simd".parse::<Engine>().unwrap(), Engine::VmSimd);
        assert_eq!("simd".parse::<Engine>().unwrap(), Engine::VmSimd);
        assert_eq!("vm-par".parse::<Engine>().unwrap(), Engine::VmPar);
        assert_eq!("parallel".parse::<Engine>().unwrap(), Engine::VmPar);
        assert!("jit".parse::<Engine>().is_err());
        assert_eq!(Engine::Vm.to_string(), "vm");
        assert_eq!(Engine::VmVerified.to_string(), "vm-verified");
        assert_eq!(Engine::VmSimd.to_string(), "vm-simd");
        assert_eq!(Engine::VmPar.to_string(), "vm-par");
        assert_eq!(Engine::default(), Engine::Vm);
        assert_eq!(Engine::all().len(), 5);
    }

    #[test]
    fn merge_is_order_independent_and_exact() {
        let a = TileStats {
            batch: 0,
            tile: 1,
            loads: 10,
            stores: 5,
            flops: 7,
            points: 5,
            ops: 40,
        };
        let b = TileStats {
            batch: 0,
            tile: 0,
            loads: 2,
            stores: 1,
            flops: 3,
            points: 1,
            ops: 9,
        };
        let base = RunStats {
            loads: 100,
            ..RunStats::default()
        };
        let fwd = RunOutcome::merge(vec![1.0], base, [a, b]);
        let rev = RunOutcome::merge(vec![1.0], base, [b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.stats.loads, 112);
        assert_eq!(fwd.stats.stores, 6);
        assert_eq!(fwd.stats.flops, 10);
        assert_eq!(fwd.stats.points, 6);
    }

    #[test]
    fn outcome_checksum_is_first_scalar() {
        let o = RunOutcome::new(vec![3.5, 7.0], RunStats::default());
        assert_eq!(o.checksum(), 3.5);
        assert_eq!(o.scalar(ScalarId(1)), 7.0);
        assert_eq!(RunOutcome::new(vec![], RunStats::default()).checksum(), 0.0);
    }
}
