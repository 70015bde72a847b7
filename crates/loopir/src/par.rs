//! Parallel tiled execution of partitionable loop ladders.
//!
//! The bytecode compiler marks a nest's ladder with
//! [`Op::ParBegin`](crate::bytecode::Op) when it can prove the iteration
//! points independent along one dimension (see
//! [`ParInfo`](crate::bytecode::ParInfo) for the exact obligations). When
//! the [`Vm`](crate::Vm) runs with [`Vm::set_threads`](crate::Vm) enabled
//! and a passive observer, [`run_ladder`] splits that dimension's range
//! into contiguous tiles and executes each tile as an independent task on
//! a persistent `std::thread` pool.
//!
//! Everything about the fan-out is deterministic except which worker runs
//! which tile — and nothing observable depends on that:
//!
//! * the tile decomposition is a pure function of the static bounds and
//!   the configured thread count;
//! * each tile executes the *same shared bytecode* over its sub-range
//!   (only the partitioned dimension's `SetIdx` start and `IdxStep` stop
//!   are overridden), with a private register frame and index vector;
//! * writes land in disjoint slices of the shared arrays (the compiler's
//!   proof), so the array contents equal the sequential run's bit for bit;
//! * per-tile counters return as [`TileStats`] keyed by tile index and
//!   merge in that order ([`RunOutcome::merge`](crate::RunOutcome::merge));
//!   errors resolve to the lowest-indexed failing tile;
//! * a ladder may carry `max<<`/`min<<` reductions into private
//!   accumulators ([`ParInfo::folds`]). Every tile starts from the frame
//!   snapshot, so each folds its own partial seeded with the pre-ladder
//!   value, and [`combine`] folds the partials in tile order into the
//!   coordinator's registers. Under [`fold`] those operators are
//!   order-free bit for bit, so the result equals the sequential fold.
//!
//! `+<<` and `*<<` never reach this module: IEEE-754 addition and
//! multiplication are not associative, so any split of their fold would
//! change result bits. The compiler keeps such nests sequential (they
//! still run in lanes, which fold in iteration order), and the tile
//! executor traps on any reduce its ladder does not list.

use crate::bytecode::{Code, Op, ParInfo, MAX_LANES, MAX_RANK};
use crate::exec::TileStats;
use crate::interp::{binop, fold, ExecError};
use crate::simd::{self, LaneMem};
use crate::vm::{resolve, VmArray};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;
use zlang::ast::ReduceOp;

/// A persistent pool of `threads - 1` workers plus the coordinating
/// thread. Workers park on a condvar between batches; submitting a batch
/// bumps a generation counter and wakes them. Work *within* a batch is
/// stolen tile-by-tile from a shared atomic cursor, so an uneven tile
/// (or a descheduled worker) never idles the rest of the pool.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct JobSlot {
    /// Bumped once per published batch; workers compare against the last
    /// generation they saw, so a worker that slept through a whole batch
    /// simply skips it.
    gen: u64,
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot::default()),
            cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker(sh))
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, batch: &Arc<Batch>) {
        if self.workers.is_empty() {
            return; // the coordinator runs every tile itself
        }
        let mut slot = self.shared.slot.lock().unwrap();
        slot.gen += 1;
        slot.batch = Some(Arc::clone(batch));
        drop(slot);
        self.shared.cv.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(sh: Arc<PoolShared>) {
    let mut seen = 0u64;
    loop {
        let batch = {
            let mut slot = sh.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.gen != seen {
                    seen = slot.gen;
                    break slot
                        .batch
                        .clone()
                        .expect("published generation has a batch");
                }
                slot = sh.cv.wait(slot).unwrap();
            }
        };
        batch.run_tiles();
    }
}

/// A borrowed view of one allocated array's buffer, shared by every tile
/// of a batch through raw pointers.
struct ArrayView {
    ptr: *mut f64,
    len: usize,
}

struct TileRun {
    stats: TileStats,
    /// The index vector as the tile's ladder left it; the last tile's copy
    /// equals the sequential run's post-ladder state.
    final_idx: [i64; MAX_RANK],
    /// The tile's partial of each accumulator in [`ParInfo::folds`].
    partials: Vec<f64>,
}

/// One published fan-out: the shared program, the frozen pre-ladder run
/// state, and the tile work list.
struct Batch {
    code: Arc<Code>,
    /// Index of the ladder's entry in [`Code::pars`].
    par: usize,
    /// Per tile, the partitioned dimension's `(start, stop)` override, in
    /// iteration order (`stop` is one `step` past the tile's last
    /// iterate), concatenating to exactly the sequential range.
    tiles: Vec<(i64, i64)>,
    /// Snapshot of the register frame at the `ParBegin`.
    frame: Vec<f64>,
    /// Snapshot of the index vector at the `ParBegin`.
    idx: [i64; MAX_RANK],
    views: Vec<ArrayView>,
    deadline: Option<Instant>,
    batch_id: u32,
    /// Lane width for `Op::SimdBegin` loops inside the ladder (`< 2`
    /// keeps tiles scalar). Only verified superfused programs fan out
    /// with lanes enabled, mirroring the sequential VM's gate.
    lanes: usize,
    /// The work-stealing cursor: each claim takes the next unstarted tile.
    next: AtomicUsize,
    state: Mutex<BatchState>,
    done_cv: Condvar,
}

struct BatchState {
    slots: Vec<Option<Result<TileRun, ExecError>>>,
    done: usize,
}

// SAFETY: `Batch` is shared across threads only through `run_tiles`, whose
// element accesses go through the raw `ArrayView` pointers. The compiler's
// `ParInfo` obligations make those accesses race-free: every written array
// varies along the partitioned dimension and is touched at a single
// constant offset along it, so each tile reads and writes only its own
// disjoint slice of each written array; arrays that are only read are
// shared read-only. The pointers stay valid for the whole fan-out because
// the coordinator borrows the arrays mutably for the duration of
// `run_ladder`, which does not return until every tile has completed (and
// workers touch no view after their last tile). All remaining fields are
// either immutable after publication or synchronized (`Mutex`, atomics).
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Batch {
    fn info(&self) -> &ParInfo {
        &self.code.pars[self.par]
    }

    fn run_tiles(&self) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.tiles.len() {
                return;
            }
            let r = run_tile(self, t);
            let mut st = self.state.lock().unwrap();
            st.slots[t] = Some(r);
            st.done += 1;
            if st.done == self.tiles.len() {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Splits the partitioned dimension's `extent` iterates into at most
/// `threads * 4` contiguous tiles (never smaller than one iterate). The
/// 4x over-decomposition lets the stealing cursor rebalance when tiles
/// run unevenly; the decomposition itself depends only on static bounds
/// and the configured thread count, never on scheduling.
fn make_tiles(info: &ParInfo, threads: usize) -> Vec<(i64, i64)> {
    let extent = info.extent as usize;
    let want = (threads * 4).clamp(1, extent);
    let base = extent / want;
    let rem = extent % want;
    let mut tiles = Vec::with_capacity(want);
    let mut off = 0i64;
    for k in 0..want {
        let size = (base + usize::from(k < rem)) as i64;
        let start = info.start + info.step * off;
        tiles.push((start, start + info.step * size));
        off += size;
    }
    tiles
}

/// Combines per-tile partials of one accumulator, in tile order: the
/// first tile's partial, then each later one folded in. Every partial was
/// seeded with the same pre-ladder value, and `op` is `Max` or `Min`, so
/// this equals the sequential fold of the whole range.
pub(crate) fn combine(op: ReduceOp, partials: impl IntoIterator<Item = f64>) -> Option<f64> {
    partials.into_iter().reduce(|acc, v| fold(op, acc, v))
}

/// Executes ladder `par` of `code` as parallel tiles and waits for all of
/// them.
///
/// Appends each tile's counters to `out` in tile order, writes the
/// combined value of every accumulator in the ladder's fold list into
/// `frame`, and returns the sequential run's post-ladder index vector. On
/// failure returns the error of the lowest-indexed failing tile (which,
/// when the partitioned dimension is outermost, is also the first error
/// the sequential run would have hit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ladder(
    pool: &Pool,
    code: &Arc<Code>,
    par: usize,
    frame: &mut [f64],
    idx: &[i64; MAX_RANK],
    arrays: &mut [Option<VmArray>],
    deadline: Option<Instant>,
    batch_id: u32,
    lanes: usize,
    out: &mut Vec<TileStats>,
) -> Result<[i64; MAX_RANK], ExecError> {
    let info = &code.pars[par];
    let tiles = make_tiles(info, pool.threads());
    let n = tiles.len();
    let views = arrays
        .iter_mut()
        .map(|a| match a {
            Some(arr) => ArrayView {
                ptr: arr.data.as_mut_ptr(),
                len: arr.data.len(),
            },
            None => ArrayView {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            },
        })
        .collect();
    let batch = Arc::new(Batch {
        code: Arc::clone(code),
        par,
        tiles,
        frame: frame.to_vec(),
        idx: *idx,
        views,
        deadline,
        batch_id,
        lanes,
        next: AtomicUsize::new(0),
        state: Mutex::new(BatchState {
            slots: (0..n).map(|_| None).collect(),
            done: 0,
        }),
        done_cv: Condvar::new(),
    });
    pool.submit(&batch);
    batch.run_tiles(); // the coordinator is a worker too
    let mut st = batch.state.lock().unwrap();
    while st.done < n {
        st = batch.done_cv.wait(st).unwrap();
    }
    let mut runs = Vec::with_capacity(n);
    for slot in st.slots.iter_mut() {
        runs.push(
            slot.take()
                .expect("completed batch has every slot filled")?,
        );
    }
    for (k, &(r, op)) in info.folds.iter().enumerate() {
        if let Some(v) = combine(op, runs.iter().map(|run| run.partials[k])) {
            frame[r as usize] = v;
        }
    }
    let mut final_idx = *idx;
    for run in runs {
        final_idx = run.final_idx;
        out.push(run.stats);
    }
    Ok(final_idx)
}

/// The tile task: re-executes the shared ladder bytecode `[entry, exit)`
/// over one tile's sub-range, with a private frame and index vector.
///
/// Only the straight-line subset of the ISA can appear inside a ladder
/// (the compiler puts allocs, counters, and nest bookkeeping before the
/// `ParBegin`), plus the `Reduce` ops the ladder's fold list names;
/// anything else is a malformed-bytecode trap. Element
/// accesses are always length-checked against the view — unlike the
/// sequential unchecked fast path this costs one predictable branch, and
/// it keeps the raw-pointer path sound even for hand-built bytecode.
fn run_tile(b: &Batch, ti: usize) -> Result<TileRun, ExecError> {
    let code = &*b.code;
    let ops = &code.ops[..];
    let info = b.info();
    let pdim = info.dim as usize;
    let (t_start, t_stop) = b.tiles[ti];
    let mut regs = b.frame.clone();
    let mut idx = b.idx;
    let mut pc = info.entry as usize;
    let exit = info.exit as usize;
    let (mut loads, mut stores, mut flops, mut points) = (0u64, 0u64, 0u64, 0u64);
    let mut ops_done = 0u64;
    let mut lane_scratch: Vec<[f64; MAX_LANES]> = Vec::new();
    // Constituent element load/store of a superinstruction — the same
    // length-checked view semantics as `Op::Load`/`Op::Store` below.
    macro_rules! tile_load {
        ($acc:expr, $dst:expr) => {{
            let (ai, flat) = resolve(code, &idx, $acc)?;
            let v = &b.views[ai];
            if flat >= v.len {
                return Err(tile_oob(code, ai));
            }
            loads += 1;
            // SAFETY: as for `Op::Load` — length-checked, and tiles only
            // write disjoint slices.
            regs[$dst as usize] = unsafe { *v.ptr.add(flat) };
        }};
    }
    macro_rules! tile_store {
        ($acc:expr, $src:expr) => {{
            let val = regs[$src as usize];
            let (ai, flat) = resolve(code, &idx, $acc)?;
            let v = &b.views[ai];
            if flat >= v.len {
                return Err(tile_oob(code, ai));
            }
            // SAFETY: as for `Op::Store`.
            unsafe { *v.ptr.add(flat) = val };
            stores += 1;
        }};
    }
    while pc != exit {
        let op = ops[pc];
        pc += 1;
        ops_done += 1;
        if ops_done & 0x1FFF == 0 {
            if let Some(d) = b.deadline {
                if Instant::now() >= d {
                    return Err(ExecError::deadline());
                }
            }
        }
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
                regs[dst as usize] = intr.eval(&regs[base..base + n as usize]);
            }
            Op::IdxF { dst, d } => {
                regs[dst as usize] = idx[d as usize] as f64;
            }
            Op::Load { dst, acc } => {
                let (ai, flat) = resolve(code, &idx, acc)?;
                let v = &b.views[ai];
                if flat >= v.len {
                    return Err(tile_oob(code, ai));
                }
                loads += 1;
                // SAFETY: `flat < len` was just checked; concurrent tiles
                // only write disjoint slices (see the Send/Sync note on
                // `Batch`), and a read of a written array stays at the
                // tile's own offset along the partitioned dimension.
                regs[dst as usize] = unsafe { *v.ptr.add(flat) };
            }
            Op::Store { acc, src } => {
                let val = regs[src as usize];
                let (ai, flat) = resolve(code, &idx, acc)?;
                let v = &b.views[ai];
                if flat >= v.len {
                    return Err(tile_oob(code, ai));
                }
                // SAFETY: as for Load; additionally this tile is the only
                // one whose index range maps onto this slice of the array.
                unsafe { *v.ptr.add(flat) = val };
                stores += 1;
            }
            Op::Tick { flops: n } => {
                points += 1;
                flops += n as u64;
            }
            Op::Reduce { op, dst, src } if info.folds.contains(&(dst, op)) => {
                regs[dst as usize] = fold(op, regs[dst as usize], regs[src as usize]);
            }
            Op::SetIdx { d, v } => {
                idx[d as usize] = if d as usize == pdim { t_start } else { v };
            }
            Op::IdxStep {
                d,
                step,
                stop,
                head,
            } => {
                let stop = if d as usize == pdim { t_stop } else { stop };
                let v = idx[d as usize] + step;
                idx[d as usize] = v;
                if v != stop {
                    pc = head as usize;
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
                tile_load!(aa, da);
                tile_load!(ab, db);
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
                tile_load!(acc, dl);
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
                tile_store!(acc, dst);
            }
            Op::LdSt { dst, la, sa } => {
                tile_load!(la, dst);
                tile_store!(sa, dst);
            }
            Op::SimdBegin { simd } => {
                // The simd × tiling composition: when the vectorized loop
                // is the partitioned dimension itself (1-D ladders), the
                // lane run covers this tile's sub-range; for inner loops
                // of a 2-D ladder it covers the full inner range at the
                // tile's fixed outer index.
                if b.lanes >= 2 {
                    let info = &code.simds[simd as usize];
                    let (s_start, s_stop) = if info.dim as usize == pdim {
                        (t_start, t_stop)
                    } else {
                        (info.start, info.stop)
                    };
                    let mut mem = TileMem { views: &b.views };
                    let run = simd::run_lanes(
                        code,
                        info,
                        b.lanes,
                        s_start,
                        s_stop,
                        &mut regs,
                        &idx,
                        &mut mem,
                        &mut lane_scratch,
                        b.deadline,
                    )?;
                    if run.iters > 0 {
                        loads += run.loads;
                        stores += run.stores;
                        flops += run.flops;
                        points += run.points;
                        ops_done += run.ops;
                        let extent = (s_stop - s_start) / info.step;
                        if run.iters == extent {
                            idx[info.dim as usize] = s_stop;
                            pc = info.exit as usize;
                        } else {
                            idx[info.dim as usize] = s_start + run.iters * info.step;
                            pc = info.head as usize;
                        }
                    }
                }
            }
            Op::Reduce { .. }
            | Op::NestBegin { .. }
            | Op::ReduceBegin
            | Op::ParBegin { .. }
            | Op::Alloc { .. }
            | Op::CtrInit { .. }
            | Op::CtrToIdx { .. }
            | Op::CtrToScalar { .. }
            | Op::ForInit { .. }
            | Op::CtrStep { .. }
            | Op::Jmp { .. }
            | Op::JmpIfZero { .. }
            | Op::Halt => {
                return Err(ExecError::trap(format!(
                    "{op:?} inside a parallel ladder (malformed bytecode)"
                )));
            }
        }
    }
    Ok(TileRun {
        stats: TileStats {
            batch: b.batch_id,
            tile: ti as u32,
            loads,
            stores,
            flops,
            points,
            ops: ops_done,
        },
        final_idx: idx,
        partials: info.folds.iter().map(|&(r, _)| regs[r as usize]).collect(),
    })
}

/// [`LaneMem`] over a batch's raw array views. Tiles only write disjoint
/// slices (see `Batch`), so handing the lane loop the raw base pointer is
/// as sound here as in the scalar tile path; the lane executor's
/// whole-run span check covers bounds.
struct TileMem<'a> {
    views: &'a [ArrayView],
}

impl LaneMem for TileMem<'_> {
    fn resolve(&mut self, ai: usize) -> Result<(*mut f64, usize), ExecError> {
        let v = &self.views[ai];
        Ok((v.ptr, v.len))
    }
}

#[cold]
fn tile_oob(code: &Code, ai: usize) -> ExecError {
    ExecError::trap(format!(
        "array `{}` accessed outside its allocation in a parallel tile \
         (malformed bytecode)",
        code.arrays[ai].name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(start: i64, step: i64, extent: i64) -> ParInfo {
        ParInfo {
            dim: 0,
            start,
            step,
            extent,
            entry: 0,
            exit: 0,
            folds: Vec::new(),
        }
    }

    #[test]
    fn tiles_cover_the_range_exactly() {
        for threads in [1, 2, 3, 4, 7] {
            for extent in [1i64, 2, 5, 16, 257] {
                let up = make_tiles(&info(1, 1, extent), threads);
                assert!(up.len() <= (threads * 4).max(1));
                let mut at = 1i64;
                for &(start, stop) in &up {
                    assert_eq!(start, at, "threads={threads} extent={extent}");
                    assert!(stop > start);
                    at = stop;
                }
                assert_eq!(at, 1 + extent);

                let down = make_tiles(&info(extent, -1, extent), threads);
                let mut at = extent;
                for &(start, stop) in &down {
                    assert_eq!(start, at);
                    assert!(stop < start);
                    at = stop;
                }
                assert_eq!(at, 0);
            }
        }
    }

    /// The fold one lane run plus its scalar epilogue performs over
    /// `vals` at width `l`: whole chunks through `fold_lanes`, then the
    /// remainder one value at a time (`run_lanes` leaves a range shorter
    /// than one chunk entirely to the scalar loop).
    fn laned(op: ReduceOp, seed: f64, vals: &[f64], l: usize) -> f64 {
        let whole = if l >= 2 { vals.len() / l * l } else { 0 };
        let acc = vals[..whole]
            .chunks(l.max(1))
            .fold(seed, |a, c| simd::fold_lanes(op, a, c));
        vals[whole..].iter().fold(acc, |a, &v| fold(op, a, v))
    }

    #[test]
    fn tiled_and_laned_folds_equal_the_sequential_fold() {
        // Every sequence of length <= 5 over the IEEE-754 corner values,
        // every pre-ladder seed, every lane width, and (for max/min) every
        // split into contiguous tiles — each tile folding its own partial
        // from the seed, the partials combined in tile order.
        const V: [f64; 7] = [
            f64::NAN,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            0.0,
            1.0,
            f64::INFINITY,
        ];
        let ops = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Max, ReduceOp::Min];
        let mut vals = Vec::with_capacity(5);
        for len in 0..=5u32 {
            for code in 0..7usize.pow(len) {
                vals.clear();
                let mut c = code;
                for _ in 0..len {
                    vals.push(V[c % 7]);
                    c /= 7;
                }
                for seed in V {
                    for op in ops {
                        let want = vals.iter().fold(seed, |a, &v| fold(op, a, v)).to_bits();
                        for l in 1..=MAX_LANES {
                            let got = laned(op, seed, &vals, l).to_bits();
                            assert_eq!(got, want, "{op:?} seed {seed} {vals:?} lanes {l}");
                        }
                        if !matches!(op, ReduceOp::Max | ReduceOp::Min) {
                            continue;
                        }
                        // Bit k of `cuts` set: a tile boundary after value k.
                        for cuts in 0..1u32 << len.saturating_sub(1) {
                            let mut bounds = vec![0];
                            bounds.extend(
                                (0..len)
                                    .filter(|k| cuts >> k & 1 == 1)
                                    .map(|k| k as usize + 1),
                            );
                            bounds.push(vals.len());
                            // Every tile is itself an enumerated sequence,
                            // so the lane check above already covers each
                            // (tile, width) pair; rotating the width over
                            // the splits exercises the composition without
                            // multiplying the run time.
                            let l = 1 + cuts as usize % MAX_LANES;
                            let partials = bounds
                                .windows(2)
                                .map(|w| laned(op, seed, &vals[w[0]..w[1]], l));
                            let got = combine(op, partials).unwrap().to_bits();
                            assert_eq!(
                                got, want,
                                "{op:?} seed {seed} {vals:?} tiles {bounds:?} lanes {l}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_decomposition_is_deterministic() {
        let a = make_tiles(&info(0, 1, 100), 4);
        let b = make_tiles(&info(0, 1, 100), 4);
        assert_eq!(a, b);
        // and balanced: sizes differ by at most one iterate
        let sizes: Vec<i64> = a.iter().map(|&(s, e)| e - s).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }
}
