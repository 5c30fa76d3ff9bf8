//! Stdout of the crash-validation commands, pinned byte for byte: any
//! change to a verdict, a counter or the explored/pruned split of these
//! runs fails here. The files under `tests/golden/` are the commands'
//! output; regenerate one only when a change is meant to move it, e.g.
//! `deepmc crashsweep --app all > crates/deepmc/tests/golden/crashsweep_all.txt`.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_deepmc");

fn assert_golden(args: &[&str], golden: &str) {
    let out = Command::new(BIN).args(args).output().expect("spawn deepmc");
    assert!(
        out.status.success(),
        "`deepmc {}` exited {:?}:\n{}",
        args.join(" "),
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(golden);
    let want = std::fs::read_to_string(&path).expect("read golden file");
    let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(got, want, "`deepmc {}` drifted from {}", args.join(" "), path.display());
}

#[test]
fn exhaustive_crashsweep_matches_golden() {
    assert_golden(&["crashsweep", "--app", "all"], "crashsweep_all.txt");
}

#[test]
fn pruned_oracle_bug_crashsweep_matches_golden() {
    assert_golden(
        &["crashsweep", "--app", "all", "--prune", "--oracle", "--inject-bug"],
        "crashsweep_prune_oracle_bug.txt",
    );
}

#[test]
fn ds_corpus_check_matches_golden() {
    assert_golden(&["check", "--ds", "all"], "check_ds_all.txt");
}

/// `deepmc crash` counts distinct durable states by the crash image's
/// content hash, so states that differ only past the tx log (where the
/// program's data lives) are told apart.
#[test]
fn crash_matrix_counts_every_distinct_durable_state() {
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../corpus/tests/fixtures/obs_golden.pir");
    for (root, want) in [
        ("root_buggy", "13 crash points × 16 eviction orders → 6 distinct durable states"),
        ("root_clean", "9 crash points × 16 eviction orders → 4 distinct durable states"),
    ] {
        let out = Command::new(BIN).arg("crash").arg(root).arg(&fixture).output().expect("spawn");
        assert!(out.status.success(), "`deepmc crash {root}` exited {:?}", out.status.code());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let first = stdout.lines().next().unwrap_or_default();
        assert_eq!(first, format!("crash matrix: {want}"), "{root}");
    }
}
