//! `static-check`: the static checker over PIR text, in four cache states.
//!
//! Inputs: generated programs at the Table 9 sizes (96, 624 and 360
//! functions) plus one about 13× Redis (128×64 functions), the four corpus
//! frameworks, and the 17 DS PIR models. Every input is printed to text in
//! set-up; each pass parses, links and checks every input with no cache, a
//! cold cache, a warm cache, and (generated programs only) a warm cache
//! after one module was regenerated. Touches `pir`, `analysis`, `models`
//! and `deepmc::cache`; never `nvm-runtime`.
//!
//! The cache lives inside the checkout, on whatever filesystem that is. On
//! a disk filesystem a cold store costs about a millisecond of file
//! metadata per root, varying threefold run to run, so the cold state runs
//! in the untimed warm-up pass (filling the caches the warm and
//! incremental states read) and in the traced run's probe, not in the
//! timed passes.
//!
//! Without a cache, the 13× program is timed apart from the other inputs.
//! The corpus and DS programs are checked once per state like the rest:
//! each check takes a fraction of a millisecond, mostly spent starting
//! and joining the two workers, and a part made of thousands of them (100
//! repetitions per pass) spread 0.17–0.42 over ten runs on a shared
//! 2-vCPU machine, where the parts of larger programs spread about 0.1.

use crate::{
    caught, fnv1a, mix, percentile, ratio, span_secs, Parts, Scale, Tally, Tracer, Workload, JOBS,
};
use deepmc::cache::{CacheEntry, KeyBuilder};
use deepmc::{AnalysisCache, DeepMcConfig, Report, StaticChecker};
use deepmc_analysis::{CallGraph, DsaResult, Program, TraceCollector};
use deepmc_corpus::ground_truth::sites_for;
use deepmc_corpus::Framework;
use deepmc_models::{PersistencyModel, Severity};
use nvm_apps::ds::{self, DsBug, DsKind};
use nvm_apps::pirgen::generate_module;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What a correct report for an input looks like.
enum Expect {
    /// Generated code follows correct persist patterns: no warnings.
    Clean,
    /// The corpus ground truth: exactly the labelled sites.
    Corpus(Framework),
    /// `ds::expected(bug).static_`: some violation-severity warning or none.
    Ds(Option<DsBug>),
}

struct Input {
    name: String,
    texts: Vec<String>,
    expect: Expect,
    config: DeepMcConfig,
    checker: StaticChecker,
    /// Generated programs: (seed, module count, functions per module).
    /// Each pass regenerates one module with a fresh seed for the
    /// incremental state, so its roots always miss.
    gen: Option<(u64, usize, usize)>,
    /// The regenerated module: (index, text).
    incr: Option<(usize, String)>,
    /// The 13× program: checked without a cache in a part of its own, and
    /// left out of the traced run's cold-check probe (its cold fill takes
    /// seconds of disk metadata).
    big: bool,
    /// Per-input cache directory: `0` is filled by the warm-up pass and
    /// serves the timed passes; the probe's cold check uses `1`.
    cache_root: PathBuf,
    cache: AnalysisCache,
    /// Analysis roots, learned from the cache statistics of a cold run.
    roots: u64,
}

pub struct StaticCheck {
    inputs: Vec<Input>,
    work_dir: PathBuf,
    passes: u64,
}

/// (name, modules, functions per module) of the generated programs.
fn sizes(scale: Scale) -> [(&'static str, usize, usize); 4] {
    match scale {
        Scale::Full => {
            [("memcached", 4, 24), ("redis", 16, 39), ("nstore", 10, 36), ("redis13x", 128, 64)]
        }
        Scale::Tiny => {
            [("memcached", 2, 6), ("redis", 2, 8), ("nstore", 2, 7), ("redis13x", 3, 10)]
        }
    }
}

impl Input {
    fn new(
        name: String,
        texts: Vec<String>,
        expect: Expect,
        model: PersistencyModel,
        cache_dir: &Path,
    ) -> Input {
        let cache_root = cache_dir.join(&name);
        Input {
            cache: AnalysisCache::open(cache_root.join("0")),
            cache_root,
            name,
            texts,
            expect,
            config: DeepMcConfig::new(model),
            checker: StaticChecker::new(DeepMcConfig::new(model)),
            gen: None,
            incr: None,
            big: false,
            roots: 0,
        }
    }
}

impl StaticCheck {
    pub fn new(seed: u64, scale: Scale, work_dir: &Path) -> StaticCheck {
        let cache_dir = work_dir.join("cache");
        let mut inputs = Vec::new();
        for (k, (app, modules, funcs)) in sizes(scale).into_iter().enumerate() {
            let gseed = mix(seed, k as u64);
            let texts = (0..modules)
                .map(|i| deepmc_pir::print(&generate_module(app, i, funcs, gseed)))
                .collect();
            let mut inp = Input::new(
                format!("gen-{app}"),
                texts,
                Expect::Clean,
                PersistencyModel::Strict,
                &cache_dir,
            );
            inp.gen = Some((gseed, modules, funcs));
            inp.big = app == "redis13x";
            inputs.push(inp);
        }
        for fw in Framework::ALL {
            let texts = fw.sources().iter().map(|s| s.to_string()).collect();
            inputs.push(Input::new(
                format!("corpus-{}", fw.name()),
                texts,
                Expect::Corpus(fw),
                fw.model(),
                &cache_dir,
            ));
        }
        for kind in DsKind::ALL {
            for bug in kind.variants() {
                let name = format!("ds-{}-{}", kind.name(), ds::variant_name(bug));
                let texts = vec![ds::pir::pir_model(kind, bug)];
                inputs.push(Input::new(
                    name,
                    texts,
                    Expect::Ds(bug),
                    PersistencyModel::Epoch,
                    &cache_dir,
                ));
            }
        }
        StaticCheck { inputs, work_dir: work_dir.to_path_buf(), passes: 0 }
    }
}

/// Does `report` match the ground truth for `expect`?
fn verdict_ok(expect: &Expect, report: &Report) -> bool {
    match expect {
        Expect::Clean => {
            report.warnings.is_empty() && report.failures.is_empty() && !report.degraded
        }
        Expect::Corpus(fw) => {
            let sites: Vec<_> = sites_for(*fw).collect();
            report.warnings.len() == sites.len()
                && sites.iter().all(|s| report.contains(s.class, s.file, s.line))
        }
        Expect::Ds(bug) => {
            let hit = report.warnings.iter().any(|w| w.class.severity() == Severity::Violation);
            hit == ds::expected(*bug).static_
        }
    }
}

/// Which inputs one step of a pass checks.
#[derive(Clone, Copy)]
enum Inputs {
    All,
    Generated,
    Big,
    /// All but the 13× program.
    Rest,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    NoCache,
    Cold,
    Warm,
    Incr,
}

/// Parse, link and check one input; a cold state starts an empty cache
/// in subdirectory `dir`. Returns (roots, seconds).
fn check_one(
    inp: &mut Input,
    state: State,
    dir: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> (u64, f64) {
    let texts: Vec<&str> = match (state, &inp.incr) {
        (State::Incr, Some((idx, text))) => inp
            .texts
            .iter()
            .enumerate()
            .map(|(i, t)| if i == *idx { text.as_str() } else { t.as_str() })
            .collect(),
        _ => inp.texts.iter().map(String::as_str).collect(),
    };
    if state == State::Cold {
        inp.cache = AnalysisCache::open(inp.cache_root.join(dir.to_string()));
    }
    let cache = (state != State::NoCache).then_some(&inp.cache);
    let start = Instant::now();
    let parsed = tr.time("pir.parse", || {
        texts.iter().map(|t| deepmc_pir::parse(t)).collect::<Result<Vec<_>, _>>()
    });
    let modules = match parsed {
        Ok(m) => m,
        Err(e) => {
            tally.errors.push(format!("{}: parse failed: {e}", inp.name));
            return (0, start.elapsed().as_secs_f64());
        }
    };
    if tr.on {
        let insts: usize = modules.iter().flat_map(|m| &m.functions).map(|f| f.inst_count()).sum();
        tr.add("pir.insts", insts as f64);
    }
    let program = match tr.time("analysis.link", || Program::new(modules)) {
        Ok(p) => p,
        Err(e) => {
            tally.errors.push(format!("{}: link failed: {e}", inp.name));
            return (0, start.elapsed().as_secs_f64());
        }
    };
    let checker = &inp.checker;
    let result = caught(|| checker.check_program_with_jobs(&program, cache, JOBS));
    let secs = start.elapsed().as_secs_f64();
    // Freeing the linked program is outside the timed check but inside the
    // traced pass; it counts toward the link layer.
    tr.time("analysis.link", || drop(program));
    let state_name = ["nocache", "cold", "warm", "incr"][state as usize];
    let verdict = format!("static {state_name}: {}", inp.name);
    match result {
        Ok((report, stats)) => {
            if cache.is_some() {
                inp.roots = stats.hits + stats.misses;
            }
            tr.add("models.warnings", report.warnings.len() as f64);
            tally.verdict(&verdict, verdict_ok(&inp.expect, &report), || {
                format!("{verdict} verdict")
            });
        }
        Err(msg) => tally.verdict(&verdict, false, || format!("{verdict} panic: {msg}")),
    }
    (inp.roots, secs)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

impl Workload for StaticCheck {
    fn part_names(&self) -> [&'static str; 4] {
        ["check.nocache", "check.nocache_13x", "check.warm", "check.incr"]
    }

    fn input_digest(&self) -> u64 {
        let mut all = String::new();
        for inp in &self.inputs {
            all.extend(inp.texts.iter().map(String::as_str));
        }
        fnv1a(all.as_bytes())
    }

    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) -> Parts {
        let mut parts = Parts::default();
        let first = self.passes == 0;
        self.passes += 1;
        for inp in self.inputs.iter_mut() {
            if let (Some((gseed, modules, funcs)), Some(app)) =
                (inp.gen, inp.name.strip_prefix("gen-"))
            {
                let idx = (mix(gseed, self.passes) % modules as u64) as usize;
                let seed = mix(gseed, 0xC0DE ^ self.passes);
                let text = tr.time("pir.print", || {
                    deepmc_pir::print(&generate_module(app, idx, funcs, seed))
                });
                inp.incr = Some((idx, text));
            }
        }
        // Parts: no cache over all but the 13× program, no cache over the
        // 13× program, warm cache, incremental. The cold state runs only in
        // the first (warm-up) pass, to fill the caches (and learn each
        // input's root count).
        let mut plan = Vec::new();
        if first {
            plan.push((None, State::Cold, Inputs::All));
        }
        plan.extend([
            (Some(0), State::NoCache, Inputs::Rest),
            (Some(1), State::NoCache, Inputs::Big),
            (Some(2), State::Warm, Inputs::All),
            (Some(3), State::Incr, Inputs::Generated),
        ]);
        for (part, state, which) in plan {
            for inp in self.inputs.iter_mut() {
                let wanted = match which {
                    Inputs::All => true,
                    Inputs::Generated => inp.gen.is_some(),
                    Inputs::Big => inp.big,
                    Inputs::Rest => !inp.big,
                };
                if !wanted {
                    continue;
                }
                let (roots, secs) = check_one(inp, state, 0, tr, tally);
                if let Some(k) = part {
                    parts[k].items += roots as f64;
                    parts[k].secs += secs;
                }
            }
        }
        parts
    }

    fn absorb(&mut self, data: &deepmc_obs::ObsData, tr: &mut Tracer) {
        tr.add("analysis.callgraph", span_secs(data, "cfg", false));
        tr.add("analysis.dsa", span_secs(data, "dsa", false));
        tr.add("cache.keys", span_secs(data, "cache.keys", false));
        tr.add("check.roots", span_secs(data, "roots", true));
        tr.add("check.report", span_secs(data, "report", true));
        tr.add("analysis.trace", span_secs(data, "traces", false));
        tr.add("models.rules", span_secs(data, "rules", false));
        for name in ["trace.memo.hits", "trace.memo.misses", "cache.hits", "cache.misses"] {
            tr.add(name, data.counter(name) as f64);
        }
        // One root = its `traces` span followed by its `rules` span on the
        // same worker.
        let mut pending: std::collections::HashMap<u32, u64> = Default::default();
        for e in data.events.iter().filter(|e| e.is_span()) {
            match e.name {
                "traces" => {
                    pending.insert(e.worker, e.dur_us.unwrap_or(0));
                }
                "rules" => {
                    if let Some(t) = pending.remove(&e.worker) {
                        tr.sample("analysis.root_us", (t + e.dur_us.unwrap_or(0)) as f64);
                    }
                }
                _ => {}
            }
        }
    }

    fn probe(&mut self, tr: &mut Tracer) {
        // The cold state, into fresh directories: on a disk filesystem its
        // time is mostly file metadata, too unsteady to bound end to end.
        for inp in self.inputs.iter_mut().filter(|i| !i.big) {
            let (roots, secs) =
                check_one(inp, State::Cold, 1, &mut Tracer::new(false), &mut Tally::default());
            tr.add("cache.cold_check", secs);
            tr.add("cache.cold_roots", roots as f64);
            inp.cache = AnalysisCache::open(inp.cache_root.join("0"));
        }
        // The cache layer timed per call, and trace events counted, over
        // the original (non-regenerated) inputs against their warm caches.
        let scratch = AnalysisCache::open(self.work_dir.join("store-probe"));
        let mut bytes = 0u64;
        for inp in &self.inputs {
            let Ok(modules) =
                inp.texts.iter().map(|t| deepmc_pir::parse(t)).collect::<Result<Vec<_>, _>>()
            else {
                continue;
            };
            let Ok(program) = Program::new(modules) else { continue };
            let cg = CallGraph::build(&program);
            let dsa = DsaResult::analyze(&program, &cg);
            let config = &inp.config;
            let collector = TraceCollector::new(&program, &dsa, config.trace.clone());
            let roots = collector.analysis_roots(&cg);
            let events: usize = roots
                .iter()
                .flat_map(|&r| collector.collect_root_counted(r).0)
                .map(|t| t.events.len())
                .sum();
            tr.add("analysis.trace_events", events as f64);
            let kb = KeyBuilder::new(config, &program, &dsa, &cg);
            for &root in &roots {
                let key = kb.root_key(root);
                let t = Instant::now();
                let hit = inp.cache.lookup(&key);
                let dt = t.elapsed().as_secs_f64();
                tr.add("cache.lookup", dt);
                tr.sample("cache.lookup_us", dt * 1e6);
                let entry = hit.unwrap_or_else(|| CacheEntry {
                    key: key.clone(),
                    root: program.func(root).name.clone(),
                    warnings: Vec::new(),
                    paths_pruned: 0,
                    events_truncated: 0,
                    traces: 0,
                });
                tr.time("cache.store", || scratch.store(&entry));
            }
            bytes += dir_bytes(inp.cache.dir());
        }
        tr.add("cache.bytes", bytes as f64);
        tr.add("probes", 1.0);
        let _ = std::fs::remove_dir_all(scratch.dir());
    }

    fn layer_metrics(&self, tr: &Tracer, passes: f64) -> Vec<(&'static str, f64)> {
        let per = |n: &str| tr.get(n) / passes;
        let probes = tr.get("probes").max(1.0);
        let roots = tr.samples.get("analysis.root_us").map(Vec::as_slice).unwrap_or(&[]);
        let lookups = tr.samples.get("cache.lookup_us").map(Vec::as_slice).unwrap_or(&[]);
        vec![
            ("pir.parse_s", per("pir.parse")),
            ("pir.parse_insts_per_s", ratio(tr.get("pir.insts"), tr.get("pir.parse"))),
            ("analysis.link_s", per("analysis.link")),
            ("analysis.callgraph_s", per("analysis.callgraph")),
            ("analysis.dsa_s", per("analysis.dsa")),
            ("analysis.trace_s", per("analysis.trace")),
            ("analysis.trace_events", tr.get("analysis.trace_events") / probes),
            (
                "analysis.memo_hit_ratio",
                ratio(
                    tr.get("trace.memo.hits"),
                    tr.get("trace.memo.hits") + tr.get("trace.memo.misses"),
                ),
            ),
            ("analysis.root_p50_us", percentile(roots, 50.0)),
            ("analysis.root_p99_us", percentile(roots, 99.0)),
            ("analysis.root_samples", roots.len() as f64),
            ("models.rules_s", per("models.rules")),
            ("models.warnings", per("models.warnings")),
            ("cache.keys_s", per("cache.keys")),
            ("cache.store_s", tr.get("cache.store") / probes),
            ("cache.lookup_s", tr.get("cache.lookup") / probes),
            ("cache.lookup_p99_us", percentile(lookups, 99.0)),
            ("cache.lookup_samples", lookups.len() as f64),
            (
                "cache.hit_ratio",
                ratio(tr.get("cache.hits"), tr.get("cache.hits") + tr.get("cache.misses")),
            ),
            ("cache.bytes", tr.get("cache.bytes") / probes),
            ("cache.cold_check_s", tr.get("cache.cold_check") / probes),
            (
                "cache.cold_roots_per_s",
                ratio(tr.get("cache.cold_roots"), tr.get("cache.cold_check")),
            ),
        ]
    }

    fn leaf_layers(&self) -> &'static [&'static str] {
        &[
            "pir.print",
            "pir.parse",
            "analysis.link",
            "analysis.callgraph",
            "analysis.dsa",
            "cache.keys",
            "check.roots",
            "check.report",
        ]
    }
}
