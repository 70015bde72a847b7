//! The level spec survives every path that compiles on a caller's behalf.
//!
//! A request's `+dse`/`+rce`/`+rce2` cleanup suffixes must reach the
//! optimizer whether the program runs directly, under the supervisor, or
//! through the serving path, and the compile cache must keep two specs of
//! one program apart. Each check compares against the request's own
//! pipeline followed by direct execution.

use fusion_core::serve::{serve, serve_with, ServeOptions, ServeRequest};
use fusion_core::{CacheKey, CompileCache, RunRequest};
use loopir::{NoopObserver, RunOutcome};
use std::sync::Arc;

/// SP, small enough for a debug build; its stencil sweeps are where
/// `+rce2` changes the executed work.
fn sp_request(spec: &str) -> RunRequest {
    RunRequest::new()
        .with_level_spec(spec)
        .unwrap()
        .with_set("n", 8)
}

fn sp_source() -> &'static str {
    zpl_fusion::workloads::by_name("sp").unwrap().source
}

/// The request's pipeline, then direct execution on its engine.
fn direct(req: &RunRequest) -> RunOutcome {
    let program = zlang::compile(sp_source()).unwrap();
    let binding = req.binding_for(&program).unwrap();
    let opt = req.pipeline().optimize(&program);
    let mut exec = req
        .engine
        .executor_with(&opt.scalarized, binding, req.exec_opts())
        .unwrap();
    exec.execute(&mut NoopObserver).unwrap()
}

fn bits(out: &RunOutcome) -> Vec<u64> {
    out.scalars.iter().map(|s| s.to_bits()).collect()
}

#[test]
fn supervised_runs_keep_the_cleanup_suffixes() {
    let plain = direct(&sp_request("c2+f3"));
    let rce2 = direct(&sp_request("c2+f3+rce2"));
    assert_ne!(
        plain.stats, rce2.stats,
        "+rce2 must change SP's executed work"
    );
    let cache = Arc::new(CompileCache::new());
    for spec in ["c2+f3+rce2", "c2+f3+dse"] {
        let req = sp_request(spec);
        let want = direct(&req);
        // Uncached, then a cold and a warm run through one cache.
        let runs = [
            req.supervisor().run_source(sp_source()),
            req.supervisor()
                .with_cache(cache.clone())
                .run_source(sp_source()),
            req.supervisor()
                .with_cache(cache.clone())
                .run_source(sp_source()),
        ];
        for run in runs {
            let run = run.unwrap();
            assert!(!run.report.degraded(), "{}", run.report.render());
            assert_eq!(run.outcome.stats, want.stats, "{spec}: RunStats differ");
            assert_eq!(bits(&run.outcome), bits(&want), "{spec}: scalars differ");
        }
    }
}

#[test]
fn served_runs_keep_the_cleanup_suffixes() {
    let program = zlang::compile(sp_source()).unwrap();
    for spec in ["c2+f3+rce2", "c2+f3+dse"] {
        let req = sp_request(spec);
        let want = direct(&req);
        let batch = vec![ServeRequest::new("sp", sp_source(), req.clone()); 3];
        let cache = Arc::new(CompileCache::new());
        let report = serve_with(&batch, &ServeOptions::new().with_workers(2), &cache);
        assert_eq!(report.completed(), 3, "{}", report.render());
        for r in &report.records {
            assert!(!r.degraded, "{spec}");
            assert_eq!(r.scalars_bits, bits(&want), "{spec}: request {}", r.index);
        }
        // The artifact the requests were served from sits under the
        // request's own key and does the request's work.
        let key = CacheKey::for_request(&program, &req.binding_for(&program).unwrap(), &req);
        let served = cache
            .lookup(&key)
            .unwrap_or_else(|| panic!("{spec}: nothing cached under the request's key"));
        let out = served.executor(req.exec_opts()).execute_pure().unwrap();
        assert_eq!(out.stats, want.stats, "{spec}: RunStats differ");
        assert_eq!(bits(&out), bits(&want), "{spec}: scalars differ");
    }
}

#[test]
fn one_cache_keeps_two_specs_of_one_program_apart() {
    let cache = Arc::new(CompileCache::new());
    for spec in ["c2+f3", "c2+f3+rce2"] {
        let batch = vec![ServeRequest::new("sp", sp_source(), sp_request(spec))];
        serve(&batch, 1, &cache);
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (2, 0), "{stats:?}");
    assert_eq!(cache.len(), 2);
}
