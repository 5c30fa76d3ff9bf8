//! End-to-end and per-layer benchmark of DeepMC's three user paths.
//!
//! Each workload ([`static_check`], [`crash`], [`dynamic`]) builds its
//! inputs from a seed, then runs closed-loop *passes* over them: one pass
//! drives every input through the path once, split into four timed
//! *parts*, and checks every verdict against ground truth. The driver in
//! `main.rs` repeats passes for a fixed time and reports medians.
//!
//! Untraced passes give the end-to-end numbers. Traced passes attach the
//! `deepmc-obs` recorder (reading the spans and counters the program
//! already emits) and time calls into each layer's public functions from
//! the benchmark's side ([`Tracer`]); they give the per-layer numbers.

pub mod crash;
pub mod dynamic;
pub mod static_check;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Worker/client threads every workload runs with, whatever the machine
/// or `DEEPMC_JOBS` says.
pub const JOBS: usize = 2;

/// Input sizes: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// SplitMix64 over `seed ^ salt`: derives independent sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, for input digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Verdict bookkeeping. A *verdict* is one input (or sweep, or run) checked
/// against ground truth; every pass checks every verdict again. A verdict
/// fails if any of its checks disagreed with ground truth or panicked.
/// Counting verdicts rather than checks keeps `attempted` and `failed`
/// independent of how many passes fit in the run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Every verdict checked, and whether any of its checks failed.
    verdicts: BTreeMap<String, bool>,
    /// Checks made, over all passes.
    pub checks: u64,
    /// Failed checks by kind (e.g. `fault sweep: redis panic: …`), for
    /// stderr.
    pub failures: BTreeMap<String, u64>,
    /// Errors that make the run's outputs untrustworthy (an input that
    /// does not parse, a checker returning an error).
    pub errors: Vec<String>,
}

impl Tally {
    /// Record one check of `verdict`; `what` names the failure kind when
    /// `ok` is false.
    pub fn verdict(&mut self, verdict: &str, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        *self.verdicts.entry(verdict.to_string()).or_insert(false) |= !ok;
        if !ok {
            *self.failures.entry(what()).or_insert(0) += 1;
        }
    }

    /// Distinct verdicts checked (`ops`).
    pub fn attempted(&self) -> u64 {
        self.verdicts.len() as u64
    }

    /// Verdicts with at least one failed check (`ops_failed`).
    pub fn failed(&self) -> u64 {
        self.verdicts.values().filter(|&&f| f).count() as u64
    }

    pub fn merge(&mut self, other: Tally) {
        for (k, f) in other.verdicts {
            *self.verdicts.entry(k).or_insert(false) |= f;
        }
        self.checks += other.checks;
        for (k, v) in other.failures {
            *self.failures.entry(k).or_insert(0) += v;
        }
        self.errors.extend(other.errors);
    }
}

/// Run `f`, turning a panic into `Err(message)`.
pub fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Benchmark-side layer timing. When off, [`Tracer::time`] just runs the
/// closure.
#[derive(Debug, Default)]
pub struct Tracer {
    pub on: bool,
    /// Summed seconds (or counts) per layer metric.
    pub sums: BTreeMap<&'static str, f64>,
    /// Raw samples per latency family.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, ..Default::default() }
    }

    /// Time `f` into `layer` (seconds).
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.add(layer, t.elapsed().as_secs_f64());
        out
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_insert(0.0) += v;
        }
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.samples.entry(name).or_default().push(v);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// One timed part of a pass: work items completed and seconds spent.
#[derive(Debug, Default, Clone, Copy)]
pub struct Part {
    pub items: f64,
    pub secs: f64,
}

impl Part {
    pub fn rate(&self) -> f64 {
        self.items / self.secs
    }
}

/// The four timed parts of one pass.
pub type Parts = [Part; 4];

/// A workload: inputs built once from a seed, then driven pass after
/// pass.
pub trait Workload {
    /// Names of the four parts, in order (also ledger span names).
    fn part_names(&self) -> [&'static str; 4];
    /// Digest of the generated inputs (same seed, same digest).
    fn input_digest(&self) -> u64;
    /// One closed-loop pass: every input through the path once.
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Parts;
    /// Traced passes only: fold what the program's own spans and
    /// counters recorded during the pass into layer metrics.
    fn absorb(&mut self, data: &deepmc_obs::ObsData, tr: &mut Tracer);
    /// Traced runs only: extra layer probes outside the timed pass.
    fn probe(&mut self, tr: &mut Tracer);
    /// Per-layer metrics (name, value; units in [`LAYERS`]) from the traced
    /// passes.
    fn layer_metrics(&self, tr: &Tracer, passes: f64) -> Vec<(&'static str, f64)>;
    /// Layer metrics whose sum should cover the traced pass wall time.
    fn leaf_layers(&self) -> &'static [&'static str];
}

/// Build one of the three workloads by name.
pub fn build(
    name: &str,
    seed: u64,
    scale: Scale,
    work_dir: &std::path::Path,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "static-check" => Box::new(static_check::StaticCheck::new(seed, scale, work_dir)),
        "crash-sweep" => Box::new(crash::CrashSweep::new(seed, scale)),
        "dynamic-race" => Box::new(dynamic::DynamicRace::new(seed, scale)),
        _ => return None,
    })
}

/// Nearest-rank percentile of `v` (sorted copy), `q` in 0..=100.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    s[rank.min(s.len()) - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Sum of span durations (seconds) named `name`, optionally only those
/// on the driving thread (worker 0).
pub fn span_secs(data: &deepmc_obs::ObsData, name: &str, driver_only: bool) -> f64 {
    data.spans_of(name)
        .filter(|e| !driver_only || e.worker == 0)
        .map(|e| e.dur_us.unwrap_or(0) as f64 / 1e6)
        .sum()
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric (name, unit), in output order. Each workload
/// reports the layers it touches; a layer it bypasses reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("pir.parse_s", "s"),
    ("pir.parse_insts_per_s", "1/s"),
    ("analysis.link_s", "s"),
    ("analysis.callgraph_s", "s"),
    ("analysis.dsa_s", "s"),
    ("analysis.trace_s", "s"),
    ("analysis.trace_events", "count"),
    ("analysis.memo_hit_ratio", "ratio"),
    ("analysis.root_p50_us", "us"),
    ("analysis.root_p99_us", "us"),
    ("analysis.root_samples", "count"),
    ("models.rules_s", "s"),
    ("models.warnings", "count"),
    ("cache.keys_s", "s"),
    ("cache.store_s", "s"),
    ("cache.lookup_s", "s"),
    ("cache.lookup_p99_us", "us"),
    ("cache.lookup_samples", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("cache.cold_check_s", "s"),
    ("cache.cold_roots_per_s", "1/s"),
    ("nvm.pool_new_s", "s"),
    ("nvm.crash_image_s", "s"),
    ("nvm.image_hash_s", "s"),
    ("nvm.reboot_s", "s"),
    ("pmem.lines_written_back", "count"),
    ("pmem.flushes", "count"),
    ("pmem.fences", "count"),
    ("apps.replay_s", "s"),
    ("apps.recover_s", "s"),
    ("apps.validate_s", "s"),
    ("sweep.step_p50_ms", "ms"),
    ("sweep.step_p99_ms", "ms"),
    ("sweep.step_samples", "count"),
    ("prune.explored_ratio", "ratio"),
    ("fault.records_dropped", "count"),
    ("fault.flushes_dropped", "count"),
    ("apps.op_ns_p50", "ns"),
    ("apps.op_ns_p99", "ns"),
    ("apps.op_samples", "count"),
    ("pmem.stores_per_op", "ratio"),
    ("pmem.fences_per_op", "ratio"),
    ("tracker.access_ns_p50", "ns"),
    ("tracker.access_ns_p99", "ns"),
    ("tracker.access_samples", "count"),
    ("race.on_access_ns", "ns"),
    ("race.replayed_accesses", "count"),
    ("race.shadow_cells", "count"),
    ("race.reports", "count"),
    ("interp.check_dynamic_s", "s"),
    ("obs.coverage", "ratio"),
    ("obs.overhead", "ratio"),
];

/// End-to-end metrics (name, unit), in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("part1_per_s", "1/s"),
    ("part2_per_s", "1/s"),
    ("part3_per_s", "1/s"),
    ("part4_per_s", "1/s"),
];
