//! A register virtual machine executing `bytecode`
//! compiled from a [`ScalarProgram`].
//!
//! The VM is observationally identical to the tree-walking
//! [`Interp`](crate::Interp) — bit-equal scalar results, equal
//! [`RunStats`], and the same ordered address stream through the
//! [`Observer`] — but resolves bounds, strides, and control flow once at
//! compile time instead of at every iteration point. The differential
//! suite in `tests/vm_differential.rs` holds the two engines equal over
//! every benchmark at every optimization level.
//!
//! ```
//! # fn main() -> Result<(), loopir::ExecError> {
//! use loopir::{Executor, NoopObserver, Vm};
//! use zlang::ir::ConfigBinding;
//! let p = zlang::compile(
//!     "program t; region R = [1..4]; var A : [R] float; begin end").unwrap();
//! let nest = loopir::LoopNest {
//!     region: zlang::ir::RegionId(0),
//!     structure: vec![1],
//!     body: vec![loopir::ElemStmt {
//!         target: loopir::ElemRef::Array(zlang::ir::ArrayId(0), zlang::ir::Offset(vec![0])),
//!         rhs: loopir::EExpr::Const(2.0),
//!     }],
//!     cluster: 0,
//!     temps: 0,
//! };
//! let sp = loopir::ScalarProgram { program: p, stmts: vec![loopir::LStmt::Nest(nest)] };
//! let mut vm = Vm::new(&sp, ConfigBinding::defaults(&sp.program))?;
//! let outcome = vm.execute(&mut NoopObserver)?;
//! assert_eq!(outcome.stats.stores, 4);
//! assert_eq!(vm.array(zlang::ir::ArrayId(0)).unwrap(), &[2.0; 4]);
//! # Ok(())
//! # }
//! ```

use crate::bytecode::{self, Check, Code, Op, MAX_LANES, MAX_RANK};
use crate::exec::{ExecLimits, ExecOpts, Executor, RunOutcome, TileStats};
use crate::interp::{binop, fold, ExecError, Observer, RunStats};
use crate::ir::ScalarProgram;
use crate::par::Pool;
use crate::simd;
use crate::verifier::{self, VerifyDiagnostic};
use std::sync::Arc;
use testkit::faults::{self, FaultSite};
use zlang::ir::{ArrayId, ConfigBinding};

#[derive(Debug, Clone, Copy, Default)]
struct Ctr {
    cur: i64,
    end: i64,
    step: i64,
}

pub(crate) struct VmArray {
    pub(crate) base: u64,
    pub(crate) data: Vec<f64>,
}

/// An immutable, thread-shareable handle to a compiled bytecode program.
///
/// A [`Vm`] holds its compiled tables behind an `Arc`; [`Vm::share`]
/// exposes that handle and [`Vm::from_shared`] builds a fresh executor
/// around it without recompiling. Cloning the handle is one `Arc` bump, so
/// compilation can happen once on one thread while each executor keeps its
/// run state (registers, index vector, array buffers) private. The handle
/// remembers whether [`Vm::verify`] succeeded: executors built from a
/// verified handle start on the unchecked fast path without re-running the
/// verifier, because the proof is about the immutable bytecode, not the VM
/// instance.
#[derive(Clone)]
pub struct SharedProgram {
    code: Arc<Code>,
    binding: ConfigBinding,
    verified: bool,
}

impl std::fmt::Debug for SharedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedProgram")
            .field("verified", &self.verified)
            .finish_non_exhaustive()
    }
}

impl SharedProgram {
    /// A fresh executor over this program under `opts` (lane width and
    /// thread count). Unverified bytecode — the
    /// [`Artifact::Checked`](crate::Artifact::Checked) form — always runs
    /// sequentially with lanes off, whatever `opts` asks.
    pub fn executor(&self, opts: ExecOpts) -> Box<dyn Executor> {
        let mut vm = Vm::from_shared(self);
        if self.verified {
            vm.set_lanes(opts.lanes);
            vm.set_threads(opts.threads);
        } else {
            vm.set_lanes(1);
        }
        Box::new(vm)
    }

    /// The config binding the program was compiled under.
    pub fn binding(&self) -> &ConfigBinding {
        &self.binding
    }

    /// Whether the bytecode verifier accepted the program before it was
    /// shared.
    pub fn is_verified(&self) -> bool {
        self.verified
    }
}

/// The bytecode virtual machine.
///
/// Construction compiles the program once under the given binding; each
/// [`Vm::run`] (or [`Executor::execute`]) then executes the flat bytecode.
/// The compiled tables are immutable and `Arc`-shared ([`Vm::share`]);
/// [`Vm::set_threads`] additionally enables the parallel tiled fast path
/// (the [`Engine::VmPar`](crate::Engine::VmPar) preset).
pub struct Vm {
    code: Arc<Code>,
    binding: ConfigBinding,
    regs: Vec<f64>,
    idx: [i64; MAX_RANK],
    ctrs: Vec<Ctr>,
    arrays: Vec<Option<VmArray>>,
    stats: RunStats,
    next_base: u64,
    verified: bool,
    limits: ExecLimits,
    par: Option<Pool>,
    tile_log: Vec<TileStats>,
    /// Lane width for `Op::SimdBegin` loops (effective only once verified;
    /// per-loop alias analysis may clamp it further).
    lanes: usize,
    /// Reusable per-lane register file, sized on first vectorized loop.
    simd_scratch: Vec<[f64; MAX_LANES]>,
}

impl Vm {
    /// Compiles a program to bytecode under a config binding, then runs
    /// the superinstruction + SIMD rewrite (`crate::simd`) over it: fused
    /// element-wise chains collapse into superinstructions and
    /// vectorizable innermost loops gain `Op::SimdBegin` annotations. This
    /// is the one bytecode form; the scalar dispatcher treats the
    /// annotations as no-ops, and the lane fast path additionally requires
    /// [`Vm::verify`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program cannot be lowered (e.g. a
    /// region of rank above the VM's limit).
    pub fn new(prog: &ScalarProgram, binding: ConfigBinding) -> Result<Self, ExecError> {
        let mut code = bytecode::compile(prog, &binding)?;
        simd::superfuse(&mut code);
        Ok(Vm::from_parts(Arc::new(code), binding, false))
    }

    #[doc(hidden)]
    pub fn new_superfused(prog: &ScalarProgram, binding: ConfigBinding) -> Result<Self, ExecError> {
        Vm::new(prog, binding)
    }

    /// Sets the lane width for vectorized innermost loops (`0` restores
    /// the default, other values clamp to `1..=8`; `1` disables the lane
    /// path). Effective only on verified superfused programs — the lane
    /// dispatch reuses the verifier's unchecked-access proof.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes = match lanes {
            0 => simd::DEFAULT_LANES,
            n => n.min(MAX_LANES),
        };
    }

    /// The configured lane width.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Renders the compiled bytecode as human-readable assembly, one op
    /// per line with full operand detail (`zlc --print bytecode`).
    pub fn disasm(&self) -> String {
        bytecode::disasm(&self.code)
    }

    /// Builds a fresh VM around an existing [`SharedProgram`] handle — no
    /// recompilation, no re-verification; run state starts pristine.
    pub fn from_shared(shared: &SharedProgram) -> Self {
        Vm::from_parts(
            Arc::clone(&shared.code),
            shared.binding.clone(),
            shared.verified,
        )
    }

    /// Shares this VM's compiled (and possibly verified) program.
    pub fn share(&self) -> SharedProgram {
        SharedProgram {
            code: Arc::clone(&self.code),
            binding: self.binding.clone(),
            verified: self.verified,
        }
    }

    fn from_parts(code: Arc<Code>, binding: ConfigBinding, verified: bool) -> Self {
        let mut regs = vec![0.0; code.frame as usize];
        for (i, &v) in code.consts.iter().enumerate() {
            regs[code.const_base as usize + i] = v;
        }
        let n_arrays = code.arrays.len();
        let n_ctrs = code.n_ctrs as usize;
        Vm {
            code,
            binding,
            regs,
            idx: [0; MAX_RANK],
            ctrs: vec![Ctr::default(); n_ctrs],
            arrays: (0..n_arrays).map(|_| None).collect(),
            stats: RunStats::default(),
            next_base: 4096,
            verified,
            limits: ExecLimits::none(),
            par: None,
            tile_log: Vec::new(),
            lanes: simd::DEFAULT_LANES,
            simd_scratch: Vec::new(),
        }
    }

    /// Enables parallel tiled execution for subsequent runs: ladders the
    /// compiler marked partitionable (`Op::ParBegin`) fan out as
    /// per-tile tasks on a persistent work-stealing pool of `threads`
    /// threads (including the calling thread; `0` means one per available
    /// core, capped at 8). One thread means no pool: the run is
    /// sequential. Fan-out only happens under observers with
    /// [`Observer::wants_addresses`]`() == false`; otherwise the run stays
    /// sequential so the address stream keeps its contracted order.
    /// Results are bit-identical to the sequential run for every thread
    /// count: tiles partition the writes, only order-free `max`/`min`
    /// reductions tile (their partials combine exactly), and the
    /// per-tile counters merge in deterministic tile order.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            threads
        };
        self.par = (threads > 1).then(|| Pool::new(threads));
    }

    /// The configured parallel width: 1 when [`Vm::set_threads`] was never
    /// called.
    pub fn threads(&self) -> usize {
        self.par.as_ref().map_or(1, Pool::threads)
    }

    /// The per-tile counter stream of the most recent run, in
    /// deterministic `(batch, tile)` order. Empty when no ladder fanned
    /// out (sequential runs, active observers, or no partitionable nest).
    pub fn tile_stats(&self) -> &[TileStats] {
        &self.tile_log
    }

    /// Sets the resource budgets for subsequent runs; see [`ExecLimits`].
    /// One unit of fuel is one instruction of the superfused bytecode.
    /// The budget checks run in a separate monomorphization of the
    /// dispatch loop, so unlimited runs pay nothing for the feature.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// Runs the [bytecode verifier](crate::verifier) over the compiled
    /// program. On success the VM switches to the unchecked fast path:
    /// element loads and stores skip the slice bounds check that the
    /// verifier has statically discharged. Runtime halo checks (the
    /// compiler's `check` entries) still execute — the verifier proves
    /// they dominate the flat index, not that they always pass.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic when verification fails; the VM then stays
    /// on the checked path and remains safe to run.
    pub fn verify(&mut self) -> Result<(), Vec<VerifyDiagnostic>> {
        if faults::fire(FaultSite::VerifyReject) {
            return Err(vec![VerifyDiagnostic {
                pc: None,
                message: faults::message(FaultSite::VerifyReject),
            }]);
        }
        let diags = verifier::verify(&self.code);
        if diags.is_empty() {
            self.verified = true;
            Ok(())
        } else {
            Err(diags)
        }
    }

    /// Whether [`Vm::verify`] has succeeded and the unchecked fast path is
    /// active.
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// Executes the bytecode, reporting accesses to `obs`.
    ///
    /// Generic over the observer so that unobserved runs
    /// ([`NoopObserver`](crate::NoopObserver)) monomorphize to no-ops.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on an out-of-region array access.
    pub fn run<O: Observer + ?Sized>(&mut self, obs: &mut O) -> Result<RunOutcome, ExecError> {
        // Clone the `Arc` into a local so op fetch and access resolution
        // do not re-read through `self` (which the stat and register
        // writes below mutate) on every dispatch.
        let code = Arc::clone(&self.code);
        let fueled = !self.limits.is_unlimited();
        match (self.verified, fueled) {
            (true, true) => self.dispatch::<O, true, true>(&code, obs),
            (true, false) => self.dispatch::<O, true, false>(&code, obs),
            (false, true) => self.dispatch::<O, false, true>(&code, obs),
            (false, false) => self.dispatch::<O, false, false>(&code, obs),
        }
    }

    /// The dispatch loop, monomorphized over the observer, over whether
    /// the program passed the bytecode verifier, and over whether resource
    /// budgets are active. `UNCHECKED` may only be true after
    /// [`Vm::verify`] succeeded: it elides the slice bounds check on the
    /// element access itself, which the verifier proved in bounds for
    /// every reachable index vector. `FUELED` charges one fuel unit per
    /// instruction and polls the wall-clock deadline every 8192
    /// instructions; unbudgeted runs take the `FUELED = false`
    /// monomorphization and pay nothing.
    fn dispatch<O: Observer + ?Sized, const UNCHECKED: bool, const FUELED: bool>(
        &mut self,
        code: &Arc<Code>,
        obs: &mut O,
    ) -> Result<RunOutcome, ExecError> {
        // Split `self` into disjoint field borrows and keep the hottest
        // state — the index vector and the access counters — in locals,
        // so the dispatch loop works on registers instead of round-tripping
        // every increment through `&mut self`. The counters are merged back
        // into the cumulative stats at the single exit point below.
        let Vm {
            regs,
            ctrs,
            arrays,
            stats,
            next_base,
            par,
            simd_scratch,
            ..
        } = self;
        let fan_out = par.as_ref().filter(|_| !obs.wants_addresses());
        // Like tile fan-out, the lane path skips per-element observer
        // callbacks, so observers that need the ordered address stream
        // keep the loop scalar.
        let lane_want = if obs.wants_addresses() { 1 } else { self.lanes };
        let limits = self.limits;
        let mut idx = self.idx;
        let mut batch_tiles: Vec<TileStats> = Vec::new();
        let mut next_batch = 0u32;
        let (mut loads, mut stores, mut flops, mut points) = (0u64, 0u64, 0u64, 0u64);
        let mut fuel_left = limits.fuel.unwrap_or(u64::MAX);
        let mut ticks = 0u64;
        let ops = &code.ops[..];
        let mut pc = 0usize;
        // Constituent element load/store of a superinstruction — the exact
        // semantics (and unchecked-path proof) of `Op::Load`/`Op::Store`,
        // shared across the bundle arms below.
        macro_rules! load_elem {
            ($acc:expr, $dst:expr) => {{
                let (ai, flat) = match resolve(code, &idx, $acc) {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                };
                let Some(arr) = arrays[ai].as_ref() else {
                    break Err(unallocated(code, ai));
                };
                obs.load(arr.base + (flat as u64) * 8);
                loads += 1;
                regs[$dst as usize] = if UNCHECKED {
                    debug_assert!(flat < arr.data.len());
                    // SAFETY: as for `Op::Load` — the verifier's bounds
                    // proof covers every constituent access of a bundle.
                    unsafe { *arr.data.get_unchecked(flat) }
                } else {
                    arr.data[flat]
                };
            }};
        }
        macro_rules! store_elem {
            ($acc:expr, $src:expr) => {{
                let v = regs[$src as usize];
                let (ai, flat) = match resolve(code, &idx, $acc) {
                    Ok(v) => v,
                    Err(e) => break Err(e),
                };
                let Some(arr) = arrays[ai].as_mut() else {
                    break Err(unallocated(code, ai));
                };
                if UNCHECKED {
                    debug_assert!(flat < arr.data.len());
                    // SAFETY: as for `Op::Store`.
                    unsafe { *arr.data.get_unchecked_mut(flat) = v };
                } else {
                    arr.data[flat] = v;
                }
                obs.store(arr.base + (flat as u64) * 8);
                stores += 1;
            }};
        }
        let res: Result<(), ExecError> = loop {
            if FUELED {
                if fuel_left == 0 {
                    break Err(ExecError::fuel());
                }
                fuel_left -= 1;
                ticks += 1;
                if ticks & 0x1FFF == 0 {
                    if let Some(d) = limits.deadline {
                        if std::time::Instant::now() >= d {
                            break Err(ExecError::deadline());
                        }
                    }
                }
            }
            let op = ops[pc];
            pc += 1;
            match op {
                Op::Add { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] + regs[b as usize];
                }
                Op::Sub { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] - regs[b as usize];
                }
                Op::Mul { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] * regs[b as usize];
                }
                Op::Div { dst, a, b } => {
                    regs[dst as usize] = regs[a as usize] / regs[b as usize];
                }
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] = binop(op, regs[a as usize], regs[b as usize]);
                }
                Op::Neg { dst, src } => {
                    regs[dst as usize] = -regs[src as usize];
                }
                Op::Mov { dst, src } => {
                    regs[dst as usize] = regs[src as usize];
                }
                Op::Call { intr, dst, base, n } => {
                    let base = base as usize;
                    let v = intr.eval(&regs[base..base + n as usize]);
                    regs[dst as usize] = v;
                }
                Op::IdxF { dst, d } => {
                    regs[dst as usize] = idx[d as usize] as f64;
                }
                Op::Load { dst, acc } => {
                    let (ai, flat) = match resolve(code, &idx, acc) {
                        Ok(v) => v,
                        Err(e) => break Err(e),
                    };
                    let Some(arr) = arrays[ai].as_ref() else {
                        break Err(unallocated(code, ai));
                    };
                    obs.load(arr.base + (flat as u64) * 8);
                    loads += 1;
                    regs[dst as usize] = if UNCHECKED {
                        debug_assert!(flat < arr.data.len());
                        // SAFETY: the bytecode verifier proved every
                        // reachable flat index of this access within the
                        // array's allocation (`Vm::verify` gates UNCHECKED).
                        unsafe { *arr.data.get_unchecked(flat) }
                    } else {
                        arr.data[flat]
                    };
                }
                Op::Store { acc, src } => {
                    let v = regs[src as usize];
                    let (ai, flat) = match resolve(code, &idx, acc) {
                        Ok(v) => v,
                        Err(e) => break Err(e),
                    };
                    let Some(arr) = arrays[ai].as_mut() else {
                        break Err(unallocated(code, ai));
                    };
                    if UNCHECKED {
                        debug_assert!(flat < arr.data.len());
                        // SAFETY: as for Load — the verifier's bounds proof
                        // covers every access reachable in verified code.
                        unsafe { *arr.data.get_unchecked_mut(flat) = v };
                    } else {
                        arr.data[flat] = v;
                    }
                    obs.store(arr.base + (flat as u64) * 8);
                    stores += 1;
                }
                Op::Reduce { op, dst, src } => {
                    regs[dst as usize] = fold(op, regs[dst as usize], regs[src as usize]);
                }
                Op::Tick { flops: n } => {
                    points += 1;
                    flops += n as u64;
                    obs.flops(n as u64);
                }
                Op::NestBegin { nest } => {
                    if faults::fire(FaultSite::VmTrap) {
                        break Err(ExecError::trap(faults::message(FaultSite::VmTrap)));
                    }
                    obs.nest_begin(&code.nests[nest as usize]);
                }
                Op::ReduceBegin => {
                    obs.reduce_begin();
                }
                Op::ParBegin { par: pi } => {
                    // Sequential runs (no pool, or an observer that needs
                    // the ordered address stream) fall through into the
                    // ladder; this op is then a no-op.
                    if let Some(pool) = fan_out {
                        let mark = batch_tiles.len();
                        let r = crate::par::run_ladder(
                            pool,
                            code,
                            pi as usize,
                            regs,
                            &idx,
                            arrays,
                            limits.deadline,
                            next_batch,
                            if UNCHECKED { lane_want } else { 1 },
                            &mut batch_tiles,
                        );
                        next_batch += 1;
                        match r {
                            Ok(final_idx) => idx = final_idx,
                            Err(e) => break Err(e),
                        }
                        if FUELED {
                            // Worker instructions draw from the same fuel
                            // budget as the coordinator's; each tile
                            // reports its op count and the batch total is
                            // deducted here, deterministically.
                            let used: u64 = batch_tiles[mark..].iter().map(|t| t.ops).sum();
                            if used > fuel_left {
                                break Err(ExecError::fuel());
                            }
                            fuel_left -= used;
                        }
                        pc = code.pars[pi as usize].exit as usize;
                    }
                }
                Op::Alloc { arr } => alloc(code, arrays, stats, next_base, arr as usize),
                Op::SetIdx { d, v } => {
                    idx[d as usize] = v;
                }
                Op::IdxStep {
                    d,
                    step,
                    stop,
                    head,
                } => {
                    let v = idx[d as usize] + step;
                    idx[d as usize] = v;
                    if v != stop {
                        pc = head as usize;
                    }
                }
                Op::CtrInit {
                    ctr,
                    cur,
                    end,
                    step,
                } => {
                    ctrs[ctr as usize] = Ctr { cur, end, step };
                }
                Op::CtrToIdx { d, ctr } => {
                    idx[d as usize] = ctrs[ctr as usize].cur;
                }
                Op::CtrToScalar { dst, ctr } => {
                    regs[dst as usize] = ctrs[ctr as usize].cur as f64;
                }
                Op::ForInit {
                    ctr,
                    lo,
                    hi,
                    down,
                    exit,
                } => {
                    let lo_v = regs[lo as usize].round() as i64;
                    let hi_v = regs[hi as usize].round() as i64;
                    let empty = if down { hi_v > lo_v } else { lo_v > hi_v };
                    if empty {
                        pc = exit as usize;
                    } else {
                        let step = if down { -1 } else { 1 };
                        ctrs[ctr as usize] = Ctr {
                            cur: lo_v,
                            end: hi_v,
                            step,
                        };
                    }
                }
                Op::CtrStep { ctr, head } => {
                    let c = &mut ctrs[ctr as usize];
                    c.cur += c.step;
                    let more = if c.step > 0 {
                        c.cur <= c.end
                    } else {
                        c.cur >= c.end
                    };
                    if more {
                        pc = head as usize;
                    }
                }
                Op::Jmp { target } => {
                    pc = target as usize;
                }
                Op::JmpIfZero { cond, target } => {
                    if regs[cond as usize] == 0.0 {
                        pc = target as usize;
                    }
                }
                Op::LdLdBin {
                    op,
                    dst,
                    da,
                    aa,
                    db,
                    ab,
                } => {
                    load_elem!(aa, da);
                    load_elem!(ab, db);
                    regs[dst as usize] = binop(op, regs[da as usize], regs[db as usize]);
                }
                Op::LdBin {
                    op,
                    dst,
                    dl,
                    acc,
                    other,
                    right,
                } => {
                    load_elem!(acc, dl);
                    let (x, y) = if right { (other, dl) } else { (dl, other) };
                    regs[dst as usize] = binop(op, regs[x as usize], regs[y as usize]);
                }
                Op::BinBin {
                    op1,
                    d1,
                    a1,
                    b1,
                    op2,
                    d2,
                    a2,
                    b2,
                } => {
                    regs[d1 as usize] = binop(op1, regs[a1 as usize], regs[b1 as usize]);
                    regs[d2 as usize] = binop(op2, regs[a2 as usize], regs[b2 as usize]);
                }
                Op::BinSt { op, dst, a, b, acc } => {
                    regs[dst as usize] = binop(op, regs[a as usize], regs[b as usize]);
                    store_elem!(acc, dst);
                }
                Op::LdSt { dst, la, sa } => {
                    load_elem!(la, dst);
                    store_elem!(sa, dst);
                }
                Op::SimdBegin { simd } => {
                    // Scalar dispatchers and observed runs fall through
                    // into the loop; the lane fast path requires the
                    // verifier's unchecked-access proof (`UNCHECKED` is
                    // gated on `Vm::verify`), which the lane memory path
                    // reuses for its whole-span bounds reasoning.
                    if UNCHECKED && lane_want >= 2 {
                        let info = &code.simds[simd as usize];
                        let mut mem = simd::VmMem {
                            code: code.as_ref(),
                            arrays: arrays.as_mut_slice(),
                        };
                        let r = simd::run_lanes(
                            code,
                            info,
                            lane_want,
                            info.start,
                            info.stop,
                            regs,
                            &idx,
                            &mut mem,
                            simd_scratch,
                            if FUELED { limits.deadline } else { None },
                        );
                        match r {
                            Err(e) => break Err(e),
                            Ok(run) if run.iters > 0 => {
                                loads += run.loads;
                                stores += run.stores;
                                flops += run.flops;
                                points += run.points;
                                if FUELED {
                                    // Lanes draw scalar-equivalent fuel:
                                    // one unit per body op per covered
                                    // iteration, like the tile pool.
                                    if run.ops > fuel_left {
                                        break Err(ExecError::fuel());
                                    }
                                    fuel_left -= run.ops;
                                }
                                let extent = (info.stop - info.start) / info.step;
                                if run.iters == extent {
                                    idx[info.dim as usize] = info.stop;
                                    pc = info.exit as usize;
                                } else {
                                    // Scalar epilogue: resume the loop at
                                    // its head for the remainder (the
                                    // skipped SetIdx is compensated here).
                                    idx[info.dim as usize] = info.start + run.iters * info.step;
                                    pc = info.head as usize;
                                }
                            }
                            Ok(_) => {} // too few iterations: stay scalar
                        }
                    }
                }
                Op::Halt => break Ok(()),
            }
        };
        self.idx = idx;
        self.stats.loads += loads;
        self.stats.stores += stores;
        self.stats.flops += flops;
        self.stats.points += points;
        // Tile counters fold in through the same deterministic merge the
        // public aggregation API exposes; the cumulative stats then match
        // a sequential run exactly (same points, same u64 sums).
        self.stats = RunOutcome::merge(Vec::new(), self.stats, batch_tiles.iter().copied()).stats;
        self.tile_log = batch_tiles;
        res?;
        Ok(RunOutcome::new(
            self.regs[..code.n_scalars as usize].to_vec(),
            self.stats,
        ))
    }

    /// The contents of an array, if it was allocated during the run.
    pub fn array(&self, id: ArrayId) -> Option<&[f64]> {
        self.arrays[id.0 as usize]
            .as_ref()
            .map(|b| b.data.as_slice())
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The config binding in use.
    pub fn binding(&self) -> &ConfigBinding {
        &self.binding
    }

    /// Number of bytecode operations in the compiled program.
    pub fn code_len(&self) -> usize {
        self.code.ops.len()
    }
}

/// Lazy allocation mirroring the interpreter's `ensure_alloc`: same
/// base staggering, same alignment, same stats accounting — so both
/// engines present identical byte addresses to the cache simulator.
fn alloc(
    code: &Code,
    arrays: &mut [Option<VmArray>],
    stats: &mut RunStats,
    next_base: &mut u64,
    ai: usize,
) {
    if arrays[ai].is_some() {
        return;
    }
    let info = &code.arrays[ai];
    let stagger = ((stats.arrays_allocated as u64 * 7) % 128) * 64;
    let base = ((*next_base + 63) & !63) + stagger;
    *next_base = base + info.bytes;
    arrays[ai] = Some(VmArray {
        base,
        data: vec![0.0; info.elems],
    });
    stats.arrays_allocated += 1;
    stats.peak_bytes += info.bytes;
}

/// Resolves an access-table entry against the current index vector.
/// Shared with the parallel tile executor (`crate::par`), which evaluates
/// the same halo checks against its private index vector.
#[inline]
pub(crate) fn resolve(
    code: &Code,
    idx: &[i64; MAX_RANK],
    acc: u32,
) -> Result<(usize, usize), ExecError> {
    let a = &code.accesses[acc as usize];
    if let Some(chk) = &a.check {
        for &(d, off, lo, ext) in &chk.dims {
            let i = idx[d as usize] + off - lo;
            if i < 0 || i >= ext {
                return Err(oob(code, idx, chk));
            }
        }
    }
    let mut flat = a.const_flat;
    match a.rank {
        0 => {}
        1 => flat += idx[0] * a.strides[0],
        // The common case: every paper benchmark is rank <= 2.
        2 => flat += idx[0] * a.strides[0] + idx[1] * a.strides[1],
        _ => {
            for (i, s) in idx.iter().zip(&a.strides).take(a.rank as usize) {
                flat += i * s;
            }
        }
    }
    Ok((a.arr as usize, flat as usize))
}

#[cold]
fn oob(code: &Code, idx: &[i64; MAX_RANK], chk: &Check) -> ExecError {
    let pt: Vec<i64> = chk
        .off
        .iter()
        .take(MAX_RANK)
        .enumerate()
        .map(|(d, &o)| idx[d] + o)
        .collect();
    ExecError::access(format!(
        "access to `{}` at {:?} is outside its declared region (declare a halo?)",
        code.arrays[chk.arr.0 as usize].name, pt
    ))
}

#[cold]
pub(crate) fn unallocated(code: &Code, ai: usize) -> ExecError {
    ExecError::trap(format!(
        "array `{}` accessed before its Alloc op (malformed bytecode)",
        code.arrays[ai].name
    ))
}

impl Executor for Vm {
    fn execute(&mut self, obs: &mut dyn Observer) -> Result<RunOutcome, ExecError> {
        self.run(obs)
    }

    fn set_limits(&mut self, limits: ExecLimits) {
        Vm::set_limits(self, limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, NoopObserver};
    use crate::ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest};
    use zlang::ir::{ConfigBinding, Offset, RegionId, ScalarExpr, ScalarId};

    fn prog() -> zlang::ir::Program {
        zlang::compile(
            "program t; config n : int = 4; region R = [1..n, 1..n]; \
             var A, B : [R] float; var s : float; var k : int; begin end",
        )
        .unwrap()
    }

    fn run_both(sp: &ScalarProgram) -> (RunOutcome, RunOutcome) {
        let b = ConfigBinding::defaults(&sp.program);
        let mut i = Interp::new(sp, b.clone());
        let oi = i.execute(&mut NoopObserver).unwrap();
        let mut v = Vm::new(sp, b).unwrap();
        let ov = v.execute(&mut NoopObserver).unwrap();
        (oi, ov)
    }

    #[test]
    fn vm_matches_interp_on_index_fill() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Index(0)),
                            Box::new(EExpr::Const(10.0)),
                        )),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let (oi, ov) = run_both(&sp);
        assert_eq!(oi, ov);
    }

    #[test]
    fn vm_matches_interp_on_reduce_and_for() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![
                LStmt::Nest(LoopNest {
                    region: RegionId(0),
                    structure: vec![1, 2],
                    body: vec![ElemStmt {
                        target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                        rhs: EExpr::Index(1),
                    }],
                    cluster: 0,
                    temps: 0,
                }),
                LStmt::For {
                    var: ScalarId(1),
                    lo: ScalarExpr::Const(1.0),
                    hi: ScalarExpr::Const(3.0),
                    down: false,
                    body: vec![LStmt::ReduceNest {
                        lhs: ScalarId(0),
                        op: zlang::ast::ReduceOp::Sum,
                        region: RegionId(0),
                        structure: vec![1, 2],
                        rhs: EExpr::Load(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    }],
                },
            ],
        };
        let (oi, ov) = run_both(&sp);
        assert_eq!(oi, ov);
        assert_eq!(ov.scalar(ScalarId(0)), 40.0);
    }

    #[test]
    fn verified_vm_matches_checked_vm() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Index(0)),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let mut checked = Vm::new(&sp, b.clone()).unwrap();
        let oc = checked.execute(&mut NoopObserver).unwrap();
        let mut fast = Vm::new(&sp, b).unwrap();
        fast.verify().unwrap();
        assert!(fast.is_verified());
        let of = fast.execute(&mut NoopObserver).unwrap();
        assert_eq!(oc, of);
        assert_eq!(
            checked.array(zlang::ir::ArrayId(0)),
            fast.array(zlang::ir::ArrayId(0))
        );
    }

    #[test]
    fn vm_reports_halo_error_like_interp() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1, 2],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Load(zlang::ir::ArrayId(1), Offset(vec![-1, 0])),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let ei = Interp::new(&sp, b.clone())
            .execute(&mut NoopObserver)
            .unwrap_err();
        let ev = Vm::new(&sp, b)
            .unwrap()
            .execute(&mut NoopObserver)
            .unwrap_err();
        assert_eq!(ei, ev);
    }

    fn fill_nest() -> ScalarProgram {
        ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Index(0)),
                            Box::new(EExpr::Const(10.0)),
                        )),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        }
    }

    #[test]
    fn parallel_vm_is_bit_identical_to_sequential_vm() {
        let sp = fill_nest();
        let b = ConfigBinding::defaults(&sp.program);
        let mut seq = Vm::new(&sp, b.clone()).unwrap();
        let os = seq.execute(&mut NoopObserver).unwrap();
        for threads in [1, 2, 3] {
            let mut par = Vm::new(&sp, b.clone()).unwrap();
            par.verify().unwrap();
            par.set_threads(threads);
            assert_eq!(par.threads(), threads);
            let op = par.execute(&mut NoopObserver).unwrap();
            assert_eq!(os, op, "threads={threads}");
            assert_eq!(
                seq.array(zlang::ir::ArrayId(0)),
                par.array(zlang::ir::ArrayId(0))
            );
            if threads == 1 {
                assert!(par.tile_stats().is_empty(), "one thread runs sequentially");
                continue;
            }
            assert!(
                !par.tile_stats().is_empty(),
                "the fill nest should fan out (threads={threads})"
            );
            let tiled_points: u64 = par.tile_stats().iter().map(|t| t.points).sum();
            assert_eq!(tiled_points, op.stats.points);
        }
    }

    #[test]
    fn reduction_nests_never_fan_out() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::ReduceNest {
                lhs: ScalarId(0),
                op: zlang::ast::ReduceOp::Sum,
                region: RegionId(0),
                structure: vec![1, 2],
                rhs: EExpr::Index(0),
            }],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let mut seq = Vm::new(&sp, b.clone()).unwrap();
        let os = seq.execute(&mut NoopObserver).unwrap();
        let mut par = Vm::new(&sp, b).unwrap();
        par.set_threads(4);
        let op = par.execute(&mut NoopObserver).unwrap();
        assert_eq!(os, op);
        assert!(par.tile_stats().is_empty());
    }

    #[test]
    fn max_min_nests_fan_out_and_sum_nests_stay_sequential() {
        use zlang::ast::{BinOp, ReduceOp};
        let nest = |op: ReduceOp| ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1, 2],
                body: vec![
                    ElemStmt {
                        target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                        rhs: EExpr::Index(1),
                    },
                    ElemStmt {
                        target: ElemRef::Reduce(ScalarId(0), op),
                        rhs: EExpr::Binary(
                            BinOp::Sub,
                            Box::new(EExpr::Index(1)),
                            Box::new(EExpr::Index(0)),
                        ),
                    },
                    ElemStmt {
                        target: ElemRef::Reduce(ScalarId(1), ReduceOp::Min),
                        rhs: EExpr::Index(0),
                    },
                ],
                cluster: 0,
                temps: 0,
            })],
        };
        for (op, tiles) in [(ReduceOp::Max, true), (ReduceOp::Sum, false)] {
            let sp = nest(op);
            let b = ConfigBinding::defaults(&sp.program);
            let want = Interp::new(&sp, b.clone())
                .execute(&mut NoopObserver)
                .unwrap();
            let mut par = Vm::new(&sp, b).unwrap();
            par.verify().unwrap();
            par.set_threads(3);
            let got = par.execute(&mut NoopObserver).unwrap();
            assert_eq!(want, got, "{op:?}");
            assert_eq!(!par.tile_stats().is_empty(), tiles, "{op:?}");
        }
    }

    #[test]
    fn shared_program_runs_without_recompiling() {
        let sp = fill_nest();
        let b = ConfigBinding::defaults(&sp.program);
        let mut first = Vm::new(&sp, b).unwrap();
        first.verify().unwrap();
        let shared = first.share();
        assert!(shared.is_verified());
        let o1 = first.execute(&mut NoopObserver).unwrap();
        let mut second = Vm::from_shared(&shared);
        assert!(second.is_verified());
        second.set_threads(2);
        let o2 = second.execute(&mut NoopObserver).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn shared_program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedProgram>();
        assert_send_sync::<Vm>();
    }
}
