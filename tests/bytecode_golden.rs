//! Golden `--print bytecode` snapshots: the one superinstruction/lane
//! form of the compiled bytecode for selected paper benchmarks at `c2+f3`
//! is pinned under `tests/golden/`. Any change to the bytecode compiler, the
//! superinstruction peephole, the lane vectorizer, or the disassembler
//! shows up as a readable diff here instead of a silent ISA change.
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test bytecode_golden`.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn disasm(name: &str, source: &str, engine: &str) -> String {
    // One source file per invocation: tests run in parallel, and a shared
    // name would let one `zlc` read a file another test just truncated.
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("zlc-bytecode-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!(
        "{name}-{}-{}.zl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&src, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args([
            src.to_str().unwrap(),
            "--level",
            "c2+f3",
            "--engine",
            engine,
            "--print",
            "bytecode",
        ])
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

/// The benchmarks pinned: `simple` (the headline element-wise kernel the
/// ≥4x bar is measured on) and `tomcatv` (stencils, reductions, and a
/// time loop — exercises alias caps, lane folds, and a `max<<` ladder
/// split across tiles).
const PINNED: [&str; 2] = ["simple", "tomcatv"];

#[test]
fn superfused_bytecode_matches_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for name in PINNED {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let got = disasm(bench.name, bench.source, "vm");
        let path = golden_dir().join(format!("{name}.c2f3.bytecode.txt"));
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

#[test]
fn every_vm_engine_prints_the_same_pinned_bytecode() {
    // There is one bytecode form: every VM engine name (aliases included)
    // compiles the same superinstruction stream with the same lane
    // annotations, byte for byte the pinned snapshot.
    for name in PINNED {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let path = golden_dir().join(format!("{name}.c2f3.bytecode.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden file {path:?}: {e}"));
        for engine in ["vm", "vm-verified", "vm-simd", "vm-par"] {
            let got = disasm(bench.name, bench.source, engine);
            assert_eq!(
                got, want,
                "{name}: `--engine {engine}` differs from {path:?}"
            );
        }
    }
}

/// Counts the ops of a `--print bytecode` listing with one mnemonic
/// (`;;` table lines are not ops).
fn markers(listing: &str, mnemonic: &str) -> usize {
    listing
        .lines()
        .filter(|l| !l.starts_with(";;") && l.split_whitespace().nth(1) == Some(mnemonic))
        .count()
}

#[test]
fn reduction_nests_get_lanes_and_max_ladders_get_tiles() {
    // Tomcatv's fused relaxation nest ends in two `max<<` folds: it gains
    // a ladder (4 -> 5) and a lane loop, and the closing `+<<` checksum
    // loop gains lanes too (4 -> 6 simd loops).
    let tomcatv = zpl_fusion::workloads::by_name("tomcatv").unwrap();
    let listing = disasm(tomcatv.name, tomcatv.source, "vm-par");
    assert_eq!(markers(&listing, "par"), 5, "{listing}");
    assert_eq!(markers(&listing, "simd"), 6, "{listing}");
    assert!(
        listing.contains("folds [Max r0, Max r1]"),
        "the fused nest's ladder lists both max accumulators\n{listing}"
    );
    // EP contracts everything into one nest carrying ten `+<<` folds: it
    // stays sequential but runs in lanes.
    let ep = zpl_fusion::workloads::by_name("ep").unwrap();
    let listing = disasm(ep.name, ep.source, "vm");
    assert_eq!(markers(&listing, "par"), 0, "{listing}");
    assert_eq!(markers(&listing, "simd"), 1, "{listing}");
    assert_eq!(listing.matches(") over lanes").count(), 10, "{listing}");
}
