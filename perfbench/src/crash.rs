//! `crash-sweep`: crash-state sweeps through `sweep` and `ds_sweep`.
//!
//! Four parts per pass: an exhaustive clean sweep of the three apps with a
//! script 4× the CLI default of 24 steps (so the quadratic prefix replay is
//! a visible share), a pruned + oracle + injected-bug sweep at 24 steps, a
//! fault sweep at 24 steps with torn stores, dropped `clwb`s and poison all
//! nonzero, and the 17 DS cells pruned with the oracle. Touches
//! `nvm-runtime` pool/crash/fault and `apps` replay/recover/explore; never
//! `analysis` or `race` beyond each sweep's one instrumented cross-check.

use crate::{
    caught, fnv1a, mix, percentile, ratio, span_secs, Part, Parts, Scale, Tally, Tracer, Workload,
    JOBS,
};
use nvm_apps::ds::{self, DsKind, DsSweepConfig};
use nvm_apps::memcached::Memcached;
use nvm_apps::nstore::NStore;
use nvm_apps::redis::Redis;
use nvm_apps::tracker::NoopTracker;
use nvm_apps::workloads::{sweep_script, ClientCtx, ScriptOp};
use nvm_apps::{sweep, SweepApp, SweepConfig};
use nvm_runtime::{CrashPolicy, FaultConfig, PmemHeap, PmemPool, PoolConfig};
use std::collections::HashMap;
use std::time::Instant;

pub struct CrashSweep {
    exhaustive: SweepConfig,
    pruned: SweepConfig,
    fault: SweepConfig,
    ds: Vec<DsSweepConfig>,
}

impl CrashSweep {
    pub fn new(seed: u64, scale: Scale) -> CrashSweep {
        let (long, short) = match scale {
            Scale::Full => (96, 24),
            Scale::Tiny => (8, 6),
        };
        let base = SweepConfig { jobs: JOBS, random_seeds: 2, ..SweepConfig::default() };
        let exhaustive = SweepConfig { seed: mix(seed, 1), steps: long, ..base };
        let pruned = SweepConfig {
            seed: mix(seed, 2),
            steps: short,
            prune: true,
            oracle: true,
            inject_bug: true,
            ..base
        };
        let fault = SweepConfig {
            seed: mix(seed, 3),
            steps: short,
            fault: FaultConfig {
                seed: mix(seed, 4),
                torn_store_rate: 0.25,
                dropped_flush_rate: 0.1,
                poison_rate: 0.002,
                transient_rate: 0.5,
            },
            ..base
        };
        let ds = DsKind::ALL
            .iter()
            .flat_map(|&kind| kind.variants().into_iter().map(move |bug| (kind, bug)))
            .enumerate()
            .map(|(i, (kind, bug))| DsSweepConfig {
                seed: mix(seed, 10 + i as u64),
                steps: short,
                prune: true,
                oracle: true,
                jobs: JOBS,
                ..DsSweepConfig::new(kind, bug)
            })
            .collect();
        CrashSweep { exhaustive, pruned, fault, ds }
    }
}

/// Which app-sweep verdict a part checks.
#[derive(Clone, Copy)]
enum Mode {
    Clean,
    Bug,
    Fault,
}

/// Sweep each app separately (a panic fails that app's sweep only).
fn app_part(cfg: &SweepConfig, mode: Mode, tr: &mut Tracer, tally: &mut Tally) -> Part {
    let label = ["clean sweep", "bug sweep", "fault sweep"][mode as usize];
    let mut part = Part::default();
    for app in SweepApp::ALL {
        let verdict = format!("{label}: {}", app.name());
        let start = Instant::now();
        match caught(|| sweep(cfg, &[app]).remove(0)) {
            Ok(o) => {
                // Completed sweeps only, images and time alike: a sweep that
                // panics has no outcome to count.
                part.items += o.images_checked as f64;
                part.secs += start.elapsed().as_secs_f64();
                if matches!(mode, Mode::Bug) {
                    tr.add("prune.explored", o.states_explored as f64);
                    tr.add("prune.images", o.images_checked as f64);
                }
                let ok =
                    o.violations.is_empty() && (!matches!(mode, Mode::Bug) || o.bug_attributed > 0);
                tally.verdict(&verdict, ok, || format!("{verdict} verdict"));
            }
            Err(msg) => tally.verdict(&verdict, false, || format!("{verdict} panic: {msg}")),
        }
    }
    part
}

/// Replay `ops` against `app` on `pool`; returns every (key, value) written.
fn replay(
    app: SweepApp,
    pool: &PmemPool,
    heap: &PmemHeap<'_>,
    ops: &[ScriptOp],
) -> HashMap<u64, Vec<u64>> {
    let noop = NoopTracker;
    let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
    let mut written: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut note = |k: u64, v: u64| written.entry(k).or_default().push(v);
    match app {
        SweepApp::Memcached => {
            let mc = Memcached::new(pool, heap, 8);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        mc.set(key, val, &noop, &ctx);
                        note(key, val);
                    }
                    ScriptOp::Del { key } => {
                        mc.set(key, 0xDEAD, &noop, &ctx);
                        note(key, 0xDEAD);
                    }
                    ScriptOp::Barrier => mc.epoch_barrier(&noop),
                }
            }
        }
        SweepApp::Redis => {
            let r = Redis::new(pool, heap, 8, 1 << 16);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        r.set(key, val, &noop, None);
                        note(key, val);
                    }
                    ScriptOp::Del { key } => {
                        r.del(key, &noop, None);
                    }
                    ScriptOp::Barrier => {}
                }
            }
        }
        SweepApp::NStore => {
            let db = NStore::new(pool, heap, 8, 1 << 16);
            for op in ops {
                match *op {
                    ScriptOp::Set { key, val } => {
                        db.put(key, [val, val ^ 1, val ^ 2, val ^ 3], &noop, None);
                        note(key, val);
                    }
                    ScriptOp::Del { key } => {
                        db.put(key, [7, 7, 7, 7], &noop, None);
                        note(key, 7);
                    }
                    ScriptOp::Barrier => {}
                }
            }
        }
    }
    written
}

/// Recover `app` from a rebooted pool and read back every written key.
fn recover_and_read(
    app: SweepApp,
    pool: &PmemPool,
    keys: &[u64],
    tr: &mut Tracer,
) -> Vec<(u64, Option<u64>)> {
    let heap = PmemHeap::open(pool);
    let noop = NoopTracker;
    let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
    match app {
        SweepApp::Memcached => {
            let (mc, _) = tr.time("apps.recover", || Memcached::recover(pool, &heap, 8));
            tr.time("apps.validate", || keys.iter().map(|&k| (k, mc.get(k, &noop, &ctx))).collect())
        }
        SweepApp::Redis => {
            let (r, _) = tr.time("apps.recover", || Redis::recover(pool, &heap, 8, 1 << 16));
            tr.time("apps.validate", || keys.iter().map(|&k| (k, r.get(k, &noop, None))).collect())
        }
        SweepApp::NStore => {
            let (db, _) = tr.time("apps.recover", || NStore::recover(pool, &heap, 8, 1 << 16));
            tr.time("apps.validate", || {
                keys.iter().map(|&k| (k, db.read(k, 0, &noop, None))).collect()
            })
        }
    }
}

impl Workload for CrashSweep {
    fn part_names(&self) -> [&'static str; 4] {
        ["sweep.exhaustive", "sweep.pruned", "sweep.fault", "sweep.ds"]
    }

    fn input_digest(&self) -> u64 {
        let mut text = String::new();
        for cfg in [&self.exhaustive, &self.pruned, &self.fault] {
            text.push_str(&format!("{:?}", sweep_script(cfg.seed, cfg.steps)));
            text.push_str(&format!("{:?}", cfg.fault));
        }
        for cfg in &self.ds {
            text.push_str(&format!("{:?}", ds::ds_script(cfg.seed, cfg.steps)));
        }
        fnv1a(text.as_bytes())
    }

    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Parts {
        let exhaustive = app_part(&self.exhaustive, Mode::Clean, tr, tally);
        let pruned = app_part(&self.pruned, Mode::Bug, tr, tally);
        let fault = app_part(&self.fault, Mode::Fault, tr, tally);
        let start = Instant::now();
        let mut images = 0u64;
        for cfg in &self.ds {
            let cell = format!("ds crash cell: {}/{}", cfg.kind.name(), ds::variant_name(cfg.bug));
            match caught(|| ds::ds_sweep(cfg)) {
                Ok(o) => {
                    images += o.images_checked;
                    let flagged = !o.violations.is_empty();
                    tally.verdict(&cell, flagged == ds::expected(cfg.bug).crash, || {
                        format!("{cell} verdict")
                    });
                }
                Err(msg) => tally.verdict(&cell, false, || format!("{cell} panic: {msg}")),
            }
        }
        let ds_part = Part { items: images as f64, secs: start.elapsed().as_secs_f64() };
        [exhaustive, pruned, fault, ds_part]
    }

    fn absorb(&mut self, data: &deepmc_obs::ObsData, tr: &mut Tracer) {
        tr.add("crash.sweep_app", span_secs(data, "sweep.app", true));
        tr.add("crash.sweep_explore", span_secs(data, "sweep.explore", true));
        tr.add("crash.ds_sweep", span_secs(data, "ds.sweep", true));
        for e in data.spans_of("sweep.step") {
            tr.sample("sweep.step_ms", e.dur_us.unwrap_or(0) as f64 / 1e3);
        }
        for name in [
            "pmem.lines_written_back",
            "pmem.flushes",
            "pmem.fences",
            "sweep.records_dropped",
            "sweep.flushes_dropped",
        ] {
            tr.add(name, data.counter(name) as f64);
        }
    }

    fn probe(&mut self, tr: &mut Tracer) {
        // The exhaustive sweep's step loop, re-driven through each layer's
        // public functions on one thread so every layer is timed per call.
        let cfg = self.exhaustive;
        let ops = sweep_script(cfg.seed, cfg.steps);
        let policies = [
            CrashPolicy::Pessimistic,
            CrashPolicy::Optimistic,
            CrashPolicy::PendingOnly,
            CrashPolicy::Random(cfg.seed),
        ];
        for app in SweepApp::ALL {
            for step in 1..=ops.len() {
                let pool = tr.time("nvm.pool_new", || {
                    PmemPool::with_faults(
                        PoolConfig { size: 4 << 20, shards: 8, ..Default::default() },
                        FaultConfig { seed: cfg.seed ^ step as u64, ..cfg.fault },
                    )
                });
                let heap = PmemHeap::open(&pool);
                let written = tr.time("apps.replay", || replay(app, &pool, &heap, &ops[..step]));
                let mut keys: Vec<u64> = written.keys().copied().collect();
                keys.sort_unstable();
                for policy in policies {
                    let img = tr.time("nvm.crash_image", || policy.apply(&pool));
                    std::hint::black_box(tr.time("nvm.image_hash", || img.content_hash()));
                    let rebooted = tr.time("nvm.reboot", || img.reboot(8));
                    let read = recover_and_read(app, &rebooted, &keys, tr);
                    tr.time("apps.validate", || {
                        let bad = read
                            .iter()
                            .filter(|(k, v)| v.is_some_and(|v| !written[k].contains(&v)))
                            .count();
                        std::hint::black_box(bad);
                    });
                }
            }
        }
        tr.add("probes", 1.0);
    }

    fn layer_metrics(&self, tr: &Tracer, passes: f64) -> Vec<(&'static str, f64)> {
        let per = |n: &str| tr.get(n) / passes;
        let probes = tr.get("probes").max(1.0);
        let probe = |n: &str| tr.get(n) / probes;
        let steps = tr.samples.get("sweep.step_ms").map(Vec::as_slice).unwrap_or(&[]);
        vec![
            ("nvm.pool_new_s", probe("nvm.pool_new")),
            ("nvm.crash_image_s", probe("nvm.crash_image")),
            ("nvm.image_hash_s", probe("nvm.image_hash")),
            ("nvm.reboot_s", probe("nvm.reboot")),
            ("apps.replay_s", probe("apps.replay")),
            ("apps.recover_s", probe("apps.recover")),
            ("apps.validate_s", probe("apps.validate")),
            ("sweep.step_p50_ms", percentile(steps, 50.0)),
            ("sweep.step_p99_ms", percentile(steps, 99.0)),
            ("sweep.step_samples", steps.len() as f64),
            ("prune.explored_ratio", ratio(tr.get("prune.explored"), tr.get("prune.images"))),
            ("fault.records_dropped", per("sweep.records_dropped")),
            ("fault.flushes_dropped", per("sweep.flushes_dropped")),
            ("pmem.lines_written_back", per("pmem.lines_written_back")),
            ("pmem.flushes", per("pmem.flushes")),
            ("pmem.fences", per("pmem.fences")),
        ]
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &["crash.sweep_app", "crash.sweep_explore", "crash.ds_sweep"]
    }
}
