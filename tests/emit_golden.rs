//! Golden `--emit` snapshots: the scalarized IR for every paper benchmark
//! at `c2+f3` is pinned under `tests/golden/`. Any change to fusion,
//! contraction, loop-structure selection, or the printers shows up as a
//! readable diff here instead of a silent behavior change.
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test emit_golden`.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn emit(name: &str, source: &str, level: &str, pass: &str) -> String {
    // One source file per invocation: tests run in parallel, and a shared
    // name would let one `zlc` read a file another test just truncated.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("zlc-emit-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!(
        "{name}-{}-{}.zl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&src, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args([src.to_str().unwrap(), "--level", level, "--emit", pass])
        .output()
        .expect("zlc runs");
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&src).unwrap();
    String::from_utf8(out.stdout).expect("utf-8 snapshot")
}

fn emit_scalarize(name: &str, source: &str) -> String {
    emit(name, source, "c2+f3", "scalarize")
}

#[test]
fn benchmark_snapshots_match_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for bench in zpl_fusion::workloads::all() {
        let got = emit_scalarize(bench.name, bench.source);
        let path = golden_dir().join(format!("{}.c2f3.scalarize.txt", bench.name));
        if bless {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing golden file {path:?}: {e}", bench.name));
        assert_eq!(
            got, want,
            "{}: snapshot drifted from {path:?}; run with ZLC_BLESS=1 to re-bless",
            bench.name
        );
    }
}

/// The `+rce2` rewrite records for the stencil benchmarks: which
/// subexpressions the offset-lattice analysis proved redundant, where the
/// shared temporaries were materialized, and what was hoisted. Pinned so a
/// change to the analysis (facts found, widening, scoring) surfaces as a
/// readable diff.
#[test]
fn rce2_snapshots_match_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for name in ["tomcatv", "simple", "sp"] {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let got = emit(bench.name, bench.source, "c2+f3+rce2", "rce2");
        let path = golden_dir().join(format!("{}.c2f3rce2.rce2.txt", bench.name));
        if bless {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden file {path:?}: {e}"));
        assert_eq!(
            got, want,
            "{name}: snapshot drifted from {path:?}; run with ZLC_BLESS=1 to re-bless"
        );
    }
}
