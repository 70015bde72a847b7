//! Pieces every workload shares: the compile path split into its layers,
//! the O0 reference, statistics, and the host calibration loop.

use crate::trace::Tracer;
use fusion_core::RunRequest;
use loopir::{
    Engine, ExecError, NoopObserver, Observer, RunOutcome, RunStats, ScalarProgram, SharedProgram,
    Vm,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use zlang::ir::{ConfigBinding, Program};

/// What the benchmark hands back to `main`: the sample accounting, any
/// counter that failed to repeat, and the metric values by name.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub nondeterministic: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Counts one unit of work; `ok` means it finished without error and
    /// bit-identical to the reference.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `attempted` units of which `ok` succeeded.
    pub fn count_many(&mut self, attempted: u64, ok: u64) {
        self.attempted += attempted;
        self.failed += attempted - ok;
    }

    /// Records that a counter expected to repeat exactly did not.
    pub fn expect_same<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, first: &T, now: &T) {
        if first != now {
            self.nondeterministic
                .push(format!("{what}: {first:?} then {now:?}"));
        }
    }

    pub fn ok_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The deterministic facts about one compiled unit: they must repeat
/// exactly every time the unit is compiled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counters {
    pub nests: usize,
    pub contracted: usize,
    pub asdg_builds: usize,
    pub code_len: usize,
}

/// One cold compile: frontend, array passes, bytecode lowering and the
/// bytecode verifier.
pub struct Compiled {
    pub scalarized: Arc<ScalarProgram>,
    pub shared: SharedProgram,
    pub counters: Counters,
    /// `(pass name, ms)` from the pass manager's own `PassTrace`.
    pub passes: Vec<(&'static str, f64)>,
}

/// Parses `source` inside a `zlang` span.
pub fn parse(source: &str, tr: &mut Tracer, unit: u64) -> Result<Program, String> {
    tr.leaf("zlang", unit, || zlang::compile(source))
        .map_err(|e| format!("parse: {e}"))
}

/// Compiles `source` as `req` asks, one span per layer.
pub fn compile_unit(
    source: &str,
    req: &RunRequest,
    tr: &mut Tracer,
    unit: u64,
) -> Result<Compiled, String> {
    let program = parse(source, tr, unit)?;
    let binding = req.binding_for(&program)?;
    compile_program(&program, binding, req, tr, unit)
}

/// The compile half after parsing. Lowering and verification are the two
/// halves of `Engine::compile_shared`, called separately so each layer is
/// timed on its own.
pub fn compile_program(
    program: &Program,
    binding: ConfigBinding,
    req: &RunRequest,
    tr: &mut Tracer,
    unit: u64,
) -> Result<Compiled, String> {
    let opt = tr.leaf("passes", unit, || req.pipeline().optimize(program));
    let (superfused, verified) = match req.engine {
        Engine::Vm => (false, false),
        Engine::VmVerified => (false, true),
        Engine::VmSimd | Engine::VmPar => (true, true),
        Engine::Interp => return Err("the interpreter has no compiled form".into()),
    };
    let mut vm = tr
        .leaf("loopir.lower", unit, || {
            if superfused {
                Vm::new_superfused(&opt.scalarized, binding)
            } else {
                Vm::new(&opt.scalarized, binding)
            }
        })
        .map_err(|e| format!("lower: {}", e.message))?;
    if verified {
        tr.leaf("loopir.verify", unit, || vm.verify())
            .map_err(|d| format!("verify: {} diagnostics", d.len()))?;
    }
    Ok(Compiled {
        counters: Counters {
            nests: opt.scalarized.nest_count(),
            contracted: opt.contracted.len(),
            asdg_builds: opt.asdg_builds,
            code_len: vm.code_len(),
        },
        passes: opt
            .passes
            .iter()
            .map(|p| (p.id.name(), p.duration.as_secs_f64() * 1e3))
            .collect(),
        shared: vm.share(),
        scalarized: Arc::new(opt.scalarized),
    })
}

/// Runs a compiled unit the way the serving path does: a fresh executor
/// from the shared bytecode, then one execution.
pub fn execute(
    shared: &SharedProgram,
    req: &RunRequest,
    obs: &mut dyn Observer,
) -> Result<RunOutcome, ExecError> {
    req.engine
        .shared_executor(shared, req.exec_opts())
        .execute(obs)
}

/// The request's output as bit patterns, for `f64::to_bits` comparison.
pub fn bits(out: &RunOutcome) -> Vec<u64> {
    out.scalars.iter().map(|s| s.to_bits()).collect()
}

/// The reference answer: the unoptimized (`baseline`) program on the
/// tree-walking interpreter, under the same config overrides as `req`.
pub fn reference(source: &str, req: &RunRequest) -> Result<Vec<u64>, String> {
    let mut base = RunRequest::new()
        .with_level_spec("baseline")?
        .with_engine_name("interp")?;
    base.sets = req.sets.clone();
    let program = zlang::compile(source).map_err(|e| e.to_string())?;
    let binding = base.binding_for(&program)?;
    let opt = base.pipeline().optimize(&program);
    let out = base
        .engine
        .executor(&opt.scalarized, binding)
        .and_then(|mut ex| ex.execute(&mut NoopObserver))
        .map_err(|e| e.message)?;
    Ok(bits(&out))
}

/// A fixed, benchmark-owned loop: streaming passes with independent
/// accumulators over a buffer the size of a typical L2, the same kind of
/// throughput- and cache-bound work the engines do. Its time moves only
/// with the host (frequency, co-tenants on the core and the memory
/// system), never with the program, so it shows host drift next to the
/// measured metrics.
pub struct Calib {
    buf: Vec<f64>,
}

impl Calib {
    pub fn new() -> Self {
        Calib {
            buf: (0..1 << 18).map(|i| (i % 1000) as f64 * 1e-3).collect(),
        }
    }

    /// One timed pass of the loop, in milliseconds.
    pub fn sample_ms(&mut self) -> f64 {
        let started = Instant::now();
        let buf = black_box(&mut self.buf);
        let mut acc = [0.0f64; 4];
        for _ in 0..4 {
            for chunk in buf.chunks_exact_mut(4) {
                for (a, x) in acc.iter_mut().zip(chunk.iter_mut()) {
                    *a += *x * 1.000_001;
                    *x = *x * 0.999_999 + 1e-9;
                }
            }
        }
        black_box(acc);
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// What [`rounds`] measured besides the work itself.
pub struct Rounds {
    /// One calibration sample before each round.
    pub calib_ms: Vec<f64>,
    /// Time per unit of each traced and each untraced round.
    pub traced_ms: Vec<f64>,
    pub plain_ms: Vec<f64>,
}

/// Calls `round` until `seconds` have passed, timing the calibration loop
/// before each round. In a traced run every other round records spans
/// and the rounds in between give the untraced baseline for the tracing
/// overhead. `round` gets whether it is traced and returns the units of
/// work it did.
pub fn rounds(
    seconds: f64,
    tr: &mut Tracer,
    mut round: impl FnMut(&mut Tracer, bool) -> usize,
) -> Rounds {
    let traced = tr.enabled();
    let mut calib = Calib::new();
    let mut out = Rounds {
        calib_ms: Vec::new(),
        traced_ms: Vec::new(),
        plain_ms: Vec::new(),
    };
    let started = Instant::now();
    let mut index = 0;
    while started.elapsed().as_secs_f64() < seconds {
        out.calib_ms.push(calib.sample_ms());
        let tracing = traced && index % 2 == 1;
        tr.set_enabled(tracing);
        let round_started = Instant::now();
        let units = round(tr, tracing);
        let per_unit = ms_since(round_started) / units.max(1) as f64;
        if tracing {
            out.traced_ms.push(per_unit);
        } else {
            out.plain_ms.push(per_unit);
        }
        index += 1;
    }
    tr.set_enabled(traced);
    out
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Each unit's median, for units with samples.
pub fn medians(per_unit: &[Vec<f64>]) -> Vec<f64> {
    per_unit
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect()
}

/// `compile_p50_ms` and `compile_p99_ms`: percentiles over the distinct
/// units of each unit's median cold-compile time. Taking each unit's
/// median first keeps a stray slow sample from moving the tail.
pub fn put_compile_percentiles(rep: &mut Report, per_unit: &[Vec<f64>]) {
    let m = medians(per_unit);
    rep.put("compile_p50_ms", percentile(&m, 50.0));
    rep.put("compile_p99_ms", percentile(&m, 99.0));
}

pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Adds the deterministic execution counters of one run to a running
/// total for the `exec.*` metrics.
pub fn add_stats(total: &mut RunStats, s: &RunStats) {
    total.loads += s.loads;
    total.stores += s.stores;
    total.flops += s.flops;
    total.points += s.points;
    total.peak_bytes += s.peak_bytes;
}

/// The `exec.*` counter metrics over a set of distinct executions.
pub fn put_exec_counters(rep: &mut Report, total: &RunStats) {
    let bytes = 8.0 * (total.loads + total.stores) as f64;
    rep.put("exec.points", total.points as f64);
    rep.put("exec.flops", total.flops as f64);
    rep.put("exec.loads", total.loads as f64);
    rep.put("exec.stores", total.stores as f64);
    rep.put("exec.bytes_computed", bytes);
    rep.put("exec.flops_per_byte", total.flops as f64 / bytes.max(1.0));
}

/// The compile counter metrics over a set of distinct compiled units.
pub fn put_compile_counters<'a>(rep: &mut Report, all: impl Iterator<Item = &'a Counters>) {
    let (mut nests, mut contracted, mut builds, mut code) = (0, 0, 0, 0);
    for c in all {
        nests += c.nests;
        contracted += c.contracted;
        builds += c.asdg_builds;
        code += c.code_len;
    }
    rep.put("passes.nests", nests as f64);
    rep.put("passes.contracted", contracted as f64);
    rep.put("passes.asdg_builds", builds as f64);
    rep.put("loopir.code_len", code as f64);
}

/// The metric-name fragment for a level spec: `c2+f3+rce2` -> `c2f3rce2`.
pub fn spec_tag(spec: &str) -> String {
    spec.replace('+', "")
}

/// Every array pass the workloads' level specs schedule, in pipeline
/// order; each gets a `passes.<name>_ms` metric.
pub const PASSES: [&str; 7] = [
    "normalize",
    "rce2",
    "fuse-contraction",
    "fuse-locality",
    "contract",
    "find-loop-structure",
    "scalarize",
];

/// Mean per-optimize-call time of each pass, from `PassTrace`.
pub fn put_pass_times(rep: &mut Report, calls: &[Vec<(&'static str, f64)>]) {
    let n = calls.len().max(1) as f64;
    for pass in PASSES {
        let total: f64 = calls
            .iter()
            .flatten()
            .filter(|(name, _)| *name == pass)
            .map(|(_, ms)| ms)
            .sum();
        rep.put(format!("passes.{pass}_ms"), total / n);
    }
}

/// Per-layer self time per unit of work, from the spans recorded since
/// `mark`.
pub fn put_self_times(rep: &mut Report, tr: &Tracer, mark: usize, units: u64) {
    let per_unit = units.max(1) as f64;
    for (layer, ms) in tr.self_ms_since(mark) {
        rep.put(format!("self.{layer}_ms"), ms / per_unit);
    }
}

/// Mean duration of each compile-layer call since `mark`.
pub fn put_call_means(rep: &mut Report, tr: &Tracer, mark: usize) {
    for (layer, metric) in [
        ("zlang", "zlang.parse_ms"),
        ("passes", "passes.optimize_ms"),
        ("loopir.lower", "loopir.lower_ms"),
        ("loopir.verify", "loopir.verify_ms"),
    ] {
        let ds: Vec<f64> = tr
            .durations_since(mark, layer)
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        rep.put(metric, mean(&ds));
    }
}

/// Tracing overhead: the traced rounds' median time per unit against
/// the untraced rounds', interleaved in the same run.
pub fn put_overhead(rep: &mut Report, traced: &[f64], untraced: &[f64]) {
    let t = median(traced);
    let u = median(untraced);
    rep.put(
        "trace.overhead_pct",
        if u > 0.0 { (t / u - 1.0) * 100.0 } else { 0.0 },
    );
}
