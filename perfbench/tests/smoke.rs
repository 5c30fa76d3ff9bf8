//! Tiny-size smoke test: the same seed gives the same inputs and the same
//! verdict counts; a different seed gives different inputs; and
//! `BENCHMARK.json` names exactly the workloads and metrics the binary
//! prints.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use deepmc_perfbench::{build, Scale, Tally, Tracer, END_TO_END, LAYERS};
use std::path::PathBuf;

const WORKLOADS: [&str; 3] = ["static-check", "crash-sweep", "dynamic-race"];

fn run(workload: &str, seed: u64, dir: &str) -> (u64, Tally) {
    let work = std::env::temp_dir().join(format!("perfbench-smoke-{}-{dir}", std::process::id()));
    let mut w = build(workload, seed, Scale::Tiny, &work).expect("known workload");
    let mut tally = Tally::default();
    let parts = w.pass(&mut Tracer::new(false), &mut tally);
    let _ = std::fs::remove_dir_all(&work);
    assert!(
        parts.iter().all(|p| p.items > 0.0 && p.secs > 0.0),
        "{workload}: every part does work"
    );
    (w.input_digest(), tally)
}

#[test]
fn same_seed_same_verdicts_other_seed_other_inputs() {
    for workload in WORKLOADS {
        let (digest_a, a) = run(workload, 7, "a");
        let (digest_b, b) = run(workload, 7, "b");
        let (digest_c, _) = run(workload, 8, "c");
        assert_eq!(digest_a, digest_b, "{workload}: same seed, same inputs");
        assert_ne!(digest_a, digest_c, "{workload}: other seed, other inputs");
        assert!(a.attempted() > 0 && a.errors.is_empty(), "{workload}: {:?}", a.errors);
        let w = build(workload, 7, Scale::Tiny, &std::env::temp_dir()).expect("known workload");
        for (name, _) in w.layer_metrics(&Tracer::new(true), 1.0) {
            assert!(LAYERS.iter().any(|l| l.0 == name), "{workload}: {name} missing from LAYERS");
        }
        assert_eq!(a.attempted(), b.attempted(), "{workload}: same seed, same verdict count");
        // Thread interleaving decides whether the tracker reports a race,
        // so only the deterministic workloads must fail identically.
        if workload != "dynamic-race" {
            assert_eq!(a.failures, b.failures, "{workload}: same seed, same failures");
        }
    }
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the benchmark");
    let names: Vec<&str> =
        text.split("\"name\": \"").skip(1).filter_map(|s| s.split('"').next()).collect();
    let want: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .chain(END_TO_END.iter().map(|m| m.0))
        .chain(LAYERS.iter().map(|m| m.0))
        .collect();
    assert_eq!(names, want);
}
