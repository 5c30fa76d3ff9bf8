//! Benchmark driver.
//!
//! ```text
//! deepmc-perfbench --workload <static-check|crash-sweep|dynamic-race>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets up seven times (builds the workload's inputs from the seed and
//! drives tiny inputs through one pass; the median is `setup_s`), runs one
//! untimed full-size warm-up pass, then closed-loop passes for
//! `--seconds`. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and prints the
//! per-layer metrics. The last stdout line is one JSON object. Each run
//! appends one record to the `deepmc-obs` ledger
//! (`.deepmc-obs/ledger.jsonl`, or `DEEPMC_LEDGER`), so `deepmc stats
//! show|diff` read benchmark runs.

use deepmc_obs::{Event, Histogram, LedgerRecord, ObsData, Recorder};
use deepmc_perfbench::{
    build, fnv1a, median, ratio, Scale, Tally, Tracer, END_TO_END, JOBS, LAYERS,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const SETUP_REPS: usize = 7;
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One measured pass, for the ledger.
struct PassRecord {
    start_us: u64,
    parts: [(u64, u64); 4],
}

/// Ledger record: one `pass` span per measured pass with its four parts
/// nested under it, plus verdict counters.
fn ledger_record(
    tool: &str,
    digest: &str,
    names: [&'static str; 4],
    passes: &[PassRecord],
    tally: &Tally,
) -> LedgerRecord {
    let mut events = Vec::new();
    for p in passes {
        let mut at = p.start_us;
        let total: u64 = p.parts.iter().map(|&(_, d)| d).sum();
        events.push(Event {
            name: "pass",
            cat: "phase",
            worker: 0,
            depth: 0,
            start_us: at,
            dur_us: Some(total),
            args: vec![],
        });
        for (name, &(_, dur)) in names.iter().zip(&p.parts) {
            events.push(Event {
                name,
                cat: "phase",
                worker: 0,
                depth: 1,
                start_us: at,
                dur_us: Some(dur),
                args: vec![],
            });
            at += dur;
        }
    }
    let mut counters = BTreeMap::new();
    counters.insert("bench.attempted", tally.attempted());
    counters.insert("bench.failed", tally.failed());
    counters.insert("bench.checks", tally.checks);
    counters.insert("bench.passes", passes.len() as u64);
    for (k, name) in names.iter().enumerate() {
        counters.insert(name, passes.iter().map(|p| p.parts[k].0).sum());
    }
    let data = ObsData { events, counters, hists: BTreeMap::<&'static str, Histogram>::new() };
    let build_id = std::env::var("DEEPMC_BUILD_ID").unwrap_or_else(|_| "perfbench".into());
    LedgerRecord::from_data(tool, &build_id, digest, 0, &data)
}

/// Keep freed memory in the process (glibc): blocks up to 32 MiB come
/// from the heap instead of fresh `mmap`s, and the heap is never trimmed.
/// The crash sweep allocates several 4 MiB pool images per crash state;
/// without this every one is page-faulted in anew, and on a virtual machine
/// those faults cost more than the sweep's own work and vary run to run.
/// Retained memory is warmed by the warm-up pass like any other cache.
/// Arenas are capped at one per worker: each arena keeps its own high
/// water mark, so an uncapped count made peak RSS depend on how threads
/// happened to meet arenas (74 or 96 MiB for the same crash sweep).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn retain_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: mallopt only adjusts allocator tunables; called before any
    // thread is spawned.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_ARENA_MAX, JOBS as i32);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn retain_freed_memory() {}

fn main() -> ExitCode {
    retain_freed_memory();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Panics are caught per operation and counted; keep stderr to one
    // summary line per failure kind instead of a message per panic.
    std::panic::set_hook(Box::new(|_| {}));

    let work_dir = PathBuf::from(".perfbench-work").join(&args.workload);
    let _ = std::fs::remove_dir_all(&work_dir);
    // One set-up = build the full inputs, then drive tiny inputs through
    // one pass so lazy initialisation (code paths, allocator, thread
    // pools) happens here rather than in the first timed pass.
    let mut setup = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let built = build(&args.workload, args.seed, Scale::Full, &work_dir).zip(build(
            &args.workload,
            args.seed,
            Scale::Tiny,
            &work_dir.join("tiny"),
        ));
        let Some((w, mut tiny)) = built else {
            eprintln!("perfbench: unknown workload {}", args.workload);
            return ExitCode::from(2);
        };
        tiny.pass(&mut Tracer::new(false), &mut Tally::default());
        setup.push(t.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut w = workload.expect("built");
    // Then one untimed full-size pass, so caches are warm before timing.
    // Its verdicts count like those of every other pass.
    let mut tally = Tally::default();
    let t = Instant::now();
    w.pass(&mut Tracer::new(false), &mut tally);
    eprintln!(
        "perfbench: {} seed {} warm-up pass {:.3}s",
        args.workload,
        args.seed,
        t.elapsed().as_secs_f64()
    );

    let mut tracer = Tracer::new(true);
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Whole traced passes, untimed preparation included: the denominator
    // of `obs.coverage`.
    let mut traced_elapsed = 0.0;
    let mut rates: [Vec<f64>; 4] = Default::default();
    let mut part_secs: [Vec<f64>; 4] = Default::default();
    let mut records = Vec::new();
    let start = Instant::now();
    loop {
        let passes = untraced_walls.len() + traced_walls.len();
        if passes >= MIN_PASSES && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        // Traced runs alternate untraced and traced passes.
        let traced = args.trace && passes % 2 == 1;
        let pass_start = start.elapsed().as_micros() as u64;
        let mut pass_tally = Tally::default();
        let pass_clock = Instant::now();
        let parts = if traced {
            let rec = Recorder::new();
            let guard = rec.attach(0);
            let parts = w.pass(&mut tracer, &mut pass_tally);
            drop(guard);
            traced_elapsed += pass_clock.elapsed().as_secs_f64();
            w.absorb(&rec.finish(), &mut tracer);
            parts
        } else {
            w.pass(&mut Tracer::new(false), &mut pass_tally)
        };
        tally.merge(pass_tally);
        let wall: f64 = parts.iter().map(|p| p.secs).sum();
        let shown: Vec<String> = parts.iter().map(|p| format!("{:.1}", p.rate())).collect();
        eprintln!(
            "perfbench: pass {passes}{} rates {} /s",
            if traced { " (traced)" } else { "" },
            shown.join(" ")
        );
        if traced {
            traced_walls.push(wall);
        } else {
            untraced_walls.push(wall);
            for ((r, s), p) in rates.iter_mut().zip(part_secs.iter_mut()).zip(&parts) {
                r.push(p.rate());
                s.push(p.secs);
            }
        }
        let us = |s: f64| (s * 1e6) as u64;
        records.push(PassRecord {
            start_us: pass_start,
            parts: parts.map(|p| (p.items as u64, us(p.secs))),
        });
    }

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        // JSON has no NaN/inf; a non-finite value reads as 0.
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
    };
    if args.trace {
        w.probe(&mut tracer);
        let passes = traced_walls.len() as f64;
        let mut layer: BTreeMap<&str, f64> = w.layer_metrics(&tracer, passes).into_iter().collect();
        let leaves: f64 = w.leaf_layers().iter().map(|n| tracer.get(n)).sum();
        layer.insert("obs.coverage", ratio(leaves, traced_elapsed));
        layer.insert("obs.overhead", median(&traced_walls) / median(&untraced_walls) - 1.0);
        for &(name, unit) in LAYERS {
            put(name, layer.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        let values = [median(&setup), median(&untraced_walls), peak_rss_mb()]
            .into_iter()
            .chain(rates.iter().map(|r| median(r)));
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            put(name, value, unit);
        }
    }

    let _ = std::fs::remove_dir_all(&work_dir);
    let tool = format!("perfbench/{}", args.workload);
    let digest =
        format!("{:016x}", fnv1a(format!("{} trace={}", args.workload, args.trace).as_bytes()));
    let ledger = std::env::var("DEEPMC_LEDGER")
        .map(PathBuf::from)
        .unwrap_or_else(|_| deepmc_obs::ledger::default_path());
    if let Err(e) = deepmc_obs::ledger::append(
        &ledger,
        &ledger_record(&tool, &digest, w.part_names(), &records, &tally),
    ) {
        eprintln!("perfbench: ledger append to {} failed: {e}", ledger.display());
    }

    eprintln!(
        "perfbench: {} passes ({} traced) in {:.1}s; {} verdicts checked {} times, {} failed; \
         input digest {:016x}",
        records.len(),
        traced_walls.len(),
        start.elapsed().as_secs_f64(),
        tally.attempted(),
        tally.checks,
        tally.failed(),
        w.input_digest()
    );
    for (name, part) in w.part_names().iter().zip(&part_secs) {
        eprintln!("perfbench:   {name}: median {:.3}s per pass", median(part));
    }
    for (what, n) in &tally.failures {
        eprintln!("perfbench: FAILED in {n} checks: {what}");
    }
    for e in &tally.errors {
        eprintln!("perfbench: ERROR: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.errors.is_empty() && tally.attempted() > 0,
        tally.attempted(),
        tally.failed(),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
