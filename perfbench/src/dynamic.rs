//! `dynamic-race`: the dynamic race detector on apps, DS driver and PIR.
//!
//! Four parts per pass, all at 2 clients on a zero-latency pool: one
//! read-heavy and one write-heavy mix per app (memslap, redis-benchmark,
//! YCSB) with `NoopTracker`, the same runs with `DeepMcTracker`, `ds_driver`
//! over the 17 DS variants at 2 strands, and `deepmc::dynamic::check_dynamic`
//! (the PIR interpreter) over the 17 DS models. Touches tracker → `race` →
//! `shadow` and the pool hot path; never analysis or crash. Figure 12's
//! per-request busy-wait and pool latency model are left out so the
//! program's own cost is what gets timed.

use crate::{caught, fnv1a, mix, percentile, ratio, Parts, Scale, Tally, Tracer, Workload, JOBS};
use deepmc_models::PersistencyModel;
use nvm_apps::ds::{self, DsBug, DsKind};
use nvm_apps::memcached::Memcached;
use nvm_apps::nstore::NStore;
use nvm_apps::redis::Redis;
use nvm_apps::tracker::{DeepMcTracker, NoopTracker, Tracker};
use nvm_apps::workloads::{
    ds_driver, memslap_workloads, redis_benchmark_suite, ycsb_workloads, BenchApp, ClientCtx,
    DsDriverSpec, OpStream, WorkloadSpec,
};
use nvm_runtime::{PmemHeap, PmemPool, PoolConfig, RaceDetector, StrandId};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum App {
    Memcached,
    Redis,
    NStore,
}

/// One app × mix run: the mix and the two clients' stream ids.
struct Run {
    app: App,
    spec: WorkloadSpec,
    ids: [u64; JOBS],
}

/// The one verdict every tracked app run checks: no race report. Whether
/// a false report shows depends on how the two clients' operations happen
/// to overlap, so the same run may draw none one time and several the
/// next. Checked by every tracked run of every pass, the shared verdict
/// fails in every benchmark run of code that draws false reports at all,
/// where a verdict per app and mix would fail in some runs and not others.
const RACE_FREE: &str = "tracked runs: no race report on a clean app";

/// Request sizes and pool layout of the app runs.
#[derive(Clone, Copy)]
struct Sizes {
    keyspace: u64,
    ops_per_client: u64,
    /// Pool bytes, and bytes of the Redis AOF / NStore WAL ring in it.
    pool: u64,
    log: u64,
}

pub struct DynamicRace {
    runs: Vec<Run>,
    sizes: Sizes,
    ds: Vec<DsDriverSpec>,
    models: Vec<(DsKind, Option<DsBug>, String)>,
    model_reps: usize,
}

impl DynamicRace {
    pub fn new(seed: u64, scale: Scale) -> DynamicRace {
        // Tiny inputs (set-up and the smoke test) get a small pool, so
        // set-up is not dominated by zeroing 128 MiB images.
        let (sizes, ds_ops, model_reps) = match scale {
            Scale::Full => {
                let sizes = Sizes {
                    keyspace: 10_000,
                    ops_per_client: 40_000,
                    pool: 128 << 20,
                    log: 32 << 20,
                };
                (sizes, 2_000, 10)
            }
            Scale::Tiny => {
                let sizes =
                    Sizes { keyspace: 200, ops_per_client: 500, pool: 4 << 20, log: 1 << 20 };
                (sizes, 64, 1)
            }
        };
        // Read-heavy then write-heavy mix per app. `OpStream` seeds from
        // the client id alone, so the ids carry the benchmark seed (kept
        // below 2^31: the stream derives insert keys from `id << 32`).
        let mixes = [
            (App::Memcached, memslap_workloads()[1], memslap_workloads()[0]),
            (App::Redis, redis_benchmark_suite()[1], redis_benchmark_suite()[0]),
            (App::NStore, ycsb_workloads()[1], ycsb_workloads()[0]),
        ];
        let mut runs = Vec::new();
        for (app, read, write) in mixes {
            for spec in [read, write] {
                let salt = runs.len() as u64 * JOBS as u64;
                let ids = std::array::from_fn(|c| mix(seed, salt + c as u64) & 0x7FFF_FFFF);
                runs.push(Run { app, spec, ids });
            }
        }
        let mut ds = Vec::new();
        let mut models = Vec::new();
        for kind in DsKind::ALL {
            for bug in kind.variants() {
                ds.push(DsDriverSpec {
                    threads: JOBS,
                    ops_per_thread: ds_ops,
                    key_range: 2,
                    seed: mix(seed, 1000 + ds.len() as u64),
                    ..DsDriverSpec::new(kind, bug)
                });
                models.push((kind, bug, ds::pir::pir_model(kind, bug)));
            }
        }
        DynamicRace { runs, sizes, ds, models, model_reps }
    }
}

fn app_name(app: App) -> &'static str {
    match app {
        App::Memcached => "memcached",
        App::Redis => "redis",
        App::NStore => "nstore",
    }
}

thread_local! {
    static SAMPLES: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Delegates to a tracker, timing each `access` call (ns) per thread;
/// with `record` set it also logs the event stream, in one global order,
/// for replay into a fresh detector.
struct TimedTracker<'t> {
    inner: &'t dyn Tracker,
    samples: Mutex<Vec<f64>>,
    record: Option<Mutex<Vec<Ev>>>,
}

#[derive(Clone, Copy)]
enum Ev {
    Begin(StrandId),
    End(StrandId),
    Barrier,
    Access(StrandId, u64, u64, bool),
    Acquire(StrandId, u64),
    Release(StrandId, u64),
}

impl<'t> TimedTracker<'t> {
    fn new(inner: &'t dyn Tracker, record: bool) -> TimedTracker<'t> {
        TimedTracker {
            inner,
            samples: Mutex::new(Vec::new()),
            record: record.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Run `f` and log `ev`, atomically with respect to other logged
    /// events when recording.
    fn logged<T>(&self, ev: impl FnOnce(&T) -> Option<Ev>, f: impl FnOnce() -> T) -> T {
        match &self.record {
            None => f(),
            Some(log) => {
                let mut log = log.lock();
                let out = f();
                if let Some(e) = ev(&out) {
                    log.push(e);
                }
                out
            }
        }
    }
}

impl Tracker for TimedTracker<'_> {
    fn region_begin(&self) -> Option<StrandId> {
        self.logged(|s: &Option<StrandId>| s.map(Ev::Begin), || self.inner.region_begin())
    }

    fn region_end(&self, strand: StrandId) {
        self.logged(|_| Some(Ev::End(strand)), || self.inner.region_end(strand));
        SAMPLES.with(|s| self.samples.lock().append(&mut s.borrow_mut()));
    }

    fn barrier(&self) {
        self.logged(|_| Some(Ev::Barrier), || self.inner.barrier());
    }

    fn access(&self, strand: Option<StrandId>, addr: u64, len: u64, is_write: bool) {
        let t = Instant::now();
        self.logged(
            |_| strand.map(|s| Ev::Access(s, addr, len, is_write)),
            || self.inner.access(strand, addr, len, is_write),
        );
        let ns = t.elapsed().as_nanos() as f64;
        SAMPLES.with(|s| s.borrow_mut().push(ns));
    }

    fn lock_acquire(&self, strand: Option<StrandId>, lock: u64) {
        self.logged(
            |_| strand.map(|s| Ev::Acquire(s, lock)),
            || self.inner.lock_acquire(strand, lock),
        );
    }

    fn lock_release(&self, strand: Option<StrandId>, lock: u64) {
        self.logged(
            |_| strand.map(|s| Ev::Release(s, lock)),
            || self.inner.lock_release(strand, lock),
        );
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }
}

/// What one app run did.
struct RunOut {
    ops: u64,
    secs: f64,
    /// Per-op latencies (ns), when timed.
    op_ns: Vec<f64>,
    stores: u64,
    fences: u64,
    /// Untimed pool creation and preload (traced runs count it as a layer).
    prep_secs: f64,
}

/// Closed loop: each client issues its next op when the previous one
/// returns. Pool set-up and preload are not timed.
fn run_clients(run: &Run, sizes: Sizes, tracker: &dyn Tracker, time_ops: bool) -> RunOut {
    let Sizes { keyspace, ops_per_client, .. } = sizes;
    let prep = Instant::now();
    let pool = PmemPool::new(PoolConfig { size: sizes.pool, shards: 64, ..Default::default() });
    let heap = PmemHeap::open(&pool);
    let (app, batch): (Box<dyn BenchApp + '_>, u64) = match run.app {
        App::Memcached => (Box::new(Memcached::new(&pool, &heap, 64)), 8),
        App::Redis => (Box::new(Redis::new(&pool, &heap, 64, sizes.log)), u64::MAX),
        App::NStore => (Box::new(NStore::new(&pool, &heap, 64, sizes.log)), u64::MAX),
    };
    app.preload(keyspace);
    let prep_secs = prep.elapsed().as_secs_f64();
    let before = pool.stats();
    let app = &*app;
    let start = Instant::now();
    let op_ns: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS)
            .map(|c| {
                let id = run.ids[c];
                s.spawn(move || {
                    let strand = tracker.region_begin();
                    let ctx = ClientCtx { id: c, tracker, strand };
                    let mut stream = OpStream::new(run.spec, keyspace, id);
                    let mut lat =
                        Vec::with_capacity(if time_ops { ops_per_client as usize } else { 0 });
                    let mut in_batch = 0u64;
                    for _ in 0..ops_per_client {
                        let (kind, key) = stream.next_op();
                        if time_ops {
                            let t = Instant::now();
                            app.client_op(&ctx, kind, key);
                            lat.push(t.elapsed().as_nanos() as f64);
                        } else {
                            app.client_op(&ctx, kind, key);
                        }
                        in_batch += 1;
                        if in_batch >= batch {
                            app.batch_end(&ctx);
                            in_batch = 0;
                        }
                    }
                    if in_batch > 0 {
                        app.batch_end(&ctx);
                    }
                    if let Some(strand) = strand {
                        tracker.region_end(strand);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let after = pool.stats();
    RunOut {
        ops: JOBS as u64 * ops_per_client,
        secs,
        op_ns,
        prep_secs,
        stores: after.stores - before.stores,
        fences: after.fences - before.fences,
    }
}

/// Replay a recorded event stream into a fresh detector; returns the
/// mean ns per `on_access`.
fn replay(events: &[Ev]) -> (f64, u64) {
    let det = RaceDetector::new(64);
    let mut map: HashMap<StrandId, StrandId> = HashMap::new();
    let mut total = 0f64;
    let mut n = 0u64;
    for ev in events {
        match *ev {
            Ev::Begin(s) => {
                map.insert(s, det.strand_begin(None));
            }
            Ev::End(s) => det.strand_end(map[&s]),
            Ev::Barrier => det.global_barrier(),
            Ev::Access(s, addr, len, w) => {
                let strand = map[&s];
                let t = Instant::now();
                let _ = std::hint::black_box(det.on_access(strand, addr, len, w));
                total += t.elapsed().as_nanos() as f64;
                n += 1;
            }
            Ev::Acquire(s, l) => det.lock_acquire(map[&s], l),
            Ev::Release(s, l) => det.lock_release(map[&s], l),
        }
    }
    (ratio(total, n as f64), n)
}

impl Workload for DynamicRace {
    fn part_names(&self) -> [&'static str; 4] {
        ["run.base", "run.tracked", "run.ds_driver", "run.interp"]
    }

    fn input_digest(&self) -> u64 {
        let Sizes { keyspace, ops_per_client, .. } = self.sizes;
        let mut text = format!("{keyspace} {ops_per_client}");
        for r in &self.runs {
            let mut s = OpStream::new(r.spec, keyspace, r.ids[0]);
            text.push_str(&format!(
                "{:?}{:?}",
                r.ids,
                (0..16).map(|_| s.next_op()).collect::<Vec<_>>()
            ));
        }
        for d in &self.ds {
            text.push_str(&format!("{}", d.seed));
        }
        fnv1a(text.as_bytes())
    }

    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Parts {
        let mut parts = Parts::default();
        for run in &self.runs {
            let verdict = format!("base run {}/{}", app_name(run.app), run.spec.name);
            match caught(|| run_clients(run, self.sizes, &NoopTracker, tr.on)) {
                Ok(out) => {
                    parts[0].items += out.ops as f64;
                    parts[0].secs += out.secs;
                    tr.add("dyn.base_run", out.secs);
                    tr.add("dyn.prep", out.prep_secs);
                    tr.add("apps.ops", out.ops as f64);
                    tr.add("pmem.stores", out.stores as f64);
                    tr.add("pmem.fences_app", out.fences as f64);
                    for ns in out.op_ns {
                        tr.sample("apps.op_ns", ns);
                    }
                    tally.verdict(&verdict, true, String::new);
                }
                Err(msg) => tally.verdict(&verdict, false, || format!("{verdict} panic: {msg}")),
            }
        }
        for run in &self.runs {
            let verdict = format!("tracked run {}/{}", app_name(run.app), run.spec.name);
            let detector = DeepMcTracker::new();
            let timed = TimedTracker::new(&detector, false);
            let tracker: &dyn Tracker = if tr.on { &timed } else { &detector };
            match caught(|| run_clients(run, self.sizes, tracker, false)) {
                Ok(out) => {
                    parts[1].items += out.ops as f64;
                    parts[1].secs += out.secs;
                    tr.add("dyn.tracked_run", out.secs);
                    tr.add("dyn.prep", out.prep_secs);
                    let reports = detector.reports().len();
                    tr.add("race.reports", reports as f64);
                    tr.add("race.shadow_cells", detector.shadow_cells() as f64);
                    for ns in timed.samples.into_inner() {
                        tr.sample("tracker.access_ns", ns);
                    }
                    tally.verdict(&verdict, true, String::new);
                    // A correct app under a clean mix must draw no reports.
                    tally.verdict(RACE_FREE, reports == 0, || {
                        format!("{verdict}: false race reports")
                    });
                }
                Err(msg) => tally.verdict(&verdict, false, || format!("{verdict} panic: {msg}")),
            }
        }
        for spec in &self.ds {
            let cell = format!("ds_driver {}/{}", spec.kind.name(), ds::variant_name(spec.bug));
            let detector = DeepMcTracker::new();
            match caught(|| ds_driver(spec, &detector)) {
                Ok(tp) => {
                    parts[2].items += tp.ops as f64;
                    parts[2].secs += tp.elapsed.as_secs_f64();
                    tr.add("dyn.ds_driver", tp.elapsed.as_secs_f64());
                    let races = !detector.reports().is_empty();
                    let want = spec.bug == Some(DsBug::StrandRace);
                    tally.verdict(&cell, races == want, || format!("{cell}: race verdict"));
                }
                Err(msg) => tally.verdict(&cell, false, || format!("{cell} panic: {msg}")),
            }
        }
        // Each model checks in milliseconds, so the part runs the set
        // `model_reps` times over.
        for (kind, bug, src) in self.models.iter().cycle().take(self.models.len() * self.model_reps)
        {
            let cell = format!("dynamic DS cell {}/{}", kind.name(), ds::variant_name(*bug));
            let start = Instant::now();
            let module = match tr.time("interp.parse", || deepmc_pir::parse(src)) {
                Ok(m) => m,
                Err(e) => {
                    tally.errors.push(format!("{cell}: model parse failed: {e}"));
                    continue;
                }
            };
            let res = tr.time("interp.check_dynamic", || {
                caught(|| {
                    deepmc::dynamic::check_dynamic(
                        std::slice::from_ref(&module),
                        "main",
                        PersistencyModel::Strand,
                    )
                })
            });
            parts[3].items += 1.0;
            parts[3].secs += start.elapsed().as_secs_f64();
            match res {
                Ok(Ok(report)) => {
                    let hit = !report.warnings.is_empty();
                    tally.verdict(&cell, hit == ds::expected(*bug).dynamic, || {
                        format!("{cell} verdict")
                    });
                }
                Ok(Err(e)) => tally.errors.push(format!("{cell}: dynamic check failed: {e}")),
                Err(msg) => tally.verdict(&cell, false, || format!("{cell} panic: {msg}")),
            }
        }
        parts
    }

    fn absorb(&mut self, _data: &deepmc_obs::ObsData, _tr: &mut Tracer) {}

    fn probe(&mut self, tr: &mut Tracer) {
        // Record the write-heavy NStore run's access stream, then replay
        // it into a fresh detector with every `on_access` timed.
        let Some(run) = self.runs.iter().rev().find(|r| r.app == App::NStore) else { return };
        let detector = DeepMcTracker::new();
        let rec = TimedTracker::new(&detector, true);
        let sizes = Sizes { ops_per_client: self.sizes.ops_per_client / 4, ..self.sizes };
        run_clients(run, sizes, &rec, false);
        let events = rec.record.map(Mutex::into_inner).unwrap_or_default();
        let (ns, n) = replay(&events);
        tr.add("race.on_access_ns", ns);
        tr.add("race.replayed", n as f64);
        tr.add("probes", 1.0);
    }

    fn layer_metrics(&self, tr: &Tracer, passes: f64) -> Vec<(&'static str, f64)> {
        let per = |n: &str| tr.get(n) / passes;
        let probes = tr.get("probes").max(1.0);
        let ops = tr.samples.get("apps.op_ns").map(Vec::as_slice).unwrap_or(&[]);
        let access = tr.samples.get("tracker.access_ns").map(Vec::as_slice).unwrap_or(&[]);
        vec![
            ("apps.op_ns_p50", percentile(ops, 50.0)),
            ("apps.op_ns_p99", percentile(ops, 99.0)),
            ("apps.op_samples", ops.len() as f64),
            ("pmem.stores_per_op", ratio(tr.get("pmem.stores"), tr.get("apps.ops"))),
            ("pmem.fences_per_op", ratio(tr.get("pmem.fences_app"), tr.get("apps.ops"))),
            ("tracker.access_ns_p50", percentile(access, 50.0)),
            ("tracker.access_ns_p99", percentile(access, 99.0)),
            ("tracker.access_samples", access.len() as f64),
            ("race.on_access_ns", tr.get("race.on_access_ns") / probes),
            ("race.replayed_accesses", tr.get("race.replayed") / probes),
            ("race.shadow_cells", per("race.shadow_cells")),
            ("race.reports", per("race.reports")),
            ("interp.check_dynamic_s", per("interp.check_dynamic")),
        ]
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &[
            "dyn.prep",
            "dyn.base_run",
            "dyn.tracked_run",
            "dyn.ds_driver",
            "interp.parse",
            "interp.check_dynamic",
        ]
    }
}
