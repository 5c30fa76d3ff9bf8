//! Systematic crash-point sweep under fault injection.
//!
//! The paper validates reported bugs by manually constructing the crash
//! state each bug implies and running the application's recovery on it
//! (§6.2). This module automates that at scale: a deterministic scripted
//! workload runs against a fault-injecting pool, crashes at **every** op
//! boundary under every [`CrashPolicy`] (plus extra `Random` seeds),
//! reboots the surviving image, runs the application's `recover()`, and
//! checks application-level invariants:
//!
//! 1. **No corruption** — every recovered value was actually written by
//!    the workload (checksums filtered torn records).
//! 2. **Acked durability** — every durably-acknowledged update is present
//!    after recovery, *unless* the loss is attributable to an injected
//!    fault (the recovery report dropped records, or the fault plan
//!    dropped a `clwb`) or to the deliberately injected application bug.
//!
//! With [`SweepConfig::oracle`] set, two stronger output-equivalence
//! oracles run against the operation history the workload driver records
//! ([`crate::workloads::OpHistory`]):
//!
//! 3. **No rollback past an ack** — a recovered value must have been
//!    written at or after the key's last acknowledged update.
//! 4. **Prefix cut** (strict apps) — the recovered state as a whole must
//!    equal the state after some prefix of the operation history.
//!
//! With all fault rates zero and no injected bug the sweep must be
//! violation-free — that is the regression contract. With
//! [`SweepConfig::inject_bug`] set, each app runs with a seeded
//! ground-truth bug (NStore: commit mark never flushed; Memcached: epoch
//! barrier without the fence; Redis: AOF entry appended but never
//! persisted) and the sweep must *catch* it, attributing every loss to
//! the bug. A full instrumented pass ([`crate::tracker::DeepMcTracker`])
//! runs once per app as a dynamic cross-check; correct apps report no
//! races.
//!
//! The sweep is the crate's one crash-exploration engine (`explore`)
//! driven by one `AppTarget` per app: crash steps fan out over the shared
//! work-stealing pool and merge in step order, so the outcome is
//! identical for any [`SweepConfig::jobs`] value. With
//! [`SweepConfig::prune`] set, only one representative per class of
//! equivalent crash points (`AppTarget::class_context`) is recovered and
//! validated; counter for counter and violation for violation, the
//! pruned sweep reports exactly what the exhaustive one would.
//!
//! Sweeps are *resumable*: with a [`SweepJournal`] attached, every
//! completed crash step is appended as it finishes, and a later run over
//! the same config replays journaled steps instead of re-executing them
//! — even after a hard kill. Cooperative interruption ([`SweepSession`])
//! stops scheduling new steps, drains in-flight workers, and leaves the
//! journal flushed.

use crate::explore::{explore, CrashTarget, PolicyVerdict, Replay, StepEntry};
use crate::memcached::Memcached;
use crate::nstore::NStore;
use crate::recovery::checksum;
use crate::redis::Redis;
use crate::tracker::{DeepMcTracker, NoopTracker, Tracker};
use crate::workloads::{sweep_script, ClientCtx, OpHistory, ScriptOp};
use deepmc_analysis::pool::resolve_jobs_request;
use deepmc_obs as obs;
use nvm_runtime::hash::{self, fnv1a_words};
use nvm_runtime::{
    CrashImage, CrashPolicy, FaultConfig, PmemHeap, PmemPool, PoolConfig, PoolFreeList, StrandId,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Which applications to sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepApp {
    Memcached,
    Redis,
    NStore,
}

impl SweepApp {
    pub const ALL: [SweepApp; 3] = [SweepApp::Memcached, SweepApp::Redis, SweepApp::NStore];

    pub fn name(&self) -> &'static str {
        match self {
            SweepApp::Memcached => "memcached",
            SweepApp::Redis => "redis",
            SweepApp::NStore => "nstore",
        }
    }
}

/// Sweep parameters. Everything is deterministic in `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Workload/script seed (also feeds the crash-policy Random seeds).
    pub seed: u64,
    /// Ops per workload run; the sweep crashes after each one.
    pub steps: u64,
    /// Extra `CrashPolicy::Random` seeds beyond the three deterministic
    /// policies.
    pub random_seeds: u64,
    /// Fault-injection rates for the pool under test.
    pub fault: FaultConfig,
    /// Inject each app's seeded ground-truth bug (NStore: commit mark
    /// never persisted; Memcached: epoch barrier without the fence;
    /// Redis: AOF entry never persisted).
    pub inject_bug: bool,
    /// Collapse crash points with identical persisted state + history
    /// into equivalence classes and validate one representative each
    /// (the `explore` engine). The reported outcome is identical to the
    /// exhaustive sweep's.
    pub prune: bool,
    /// Enable the stronger output-equivalence oracles (rollback-past-ack
    /// and prefix-cut) on top of the two base invariants.
    pub oracle: bool,
    /// Worker threads for the crash-step fan-out; `0` resolves via
    /// `DEEPMC_JOBS` then the machine's available parallelism. Each crash
    /// step is an independent work item (its own pool, script prefix, and
    /// crash images), and per-step results merge in step order, so the
    /// outcome is identical for any worker count.
    pub jobs: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 1,
            steps: 24,
            random_seeds: 2,
            fault: FaultConfig::default(),
            inject_bug: false,
            prune: false,
            oracle: false,
            jobs: 0,
        }
    }
}

/// One unattributed invariant violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    pub app: String,
    pub crash_step: u64,
    pub policy: String,
    pub key: u64,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: crash@{} [{}] key {}: {}",
            self.app, self.crash_step, self.policy, self.key, self.detail
        )
    }
}

/// Results of sweeping one application.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    pub app: &'static str,
    /// Crash states checked (members of validated equivalence classes in
    /// pruned mode — the pruned and exhaustive counts are equal).
    pub images_checked: u64,
    /// Crash states actually recovered and validated: equals
    /// `images_checked` exhaustively, one per equivalence class pruned.
    pub states_explored: u64,
    /// Crash states whose verdict was propagated from an equivalent
    /// representative instead of being re-validated.
    pub states_pruned: u64,
    /// Records dropped by recovery across all images (torn + poisoned).
    pub records_dropped: u64,
    /// `clwb`s dropped by fault injection across all pre-crash runs (from
    /// [`nvm_runtime::StatsSnapshot::dropped_flushes`]) — the evidence the
    /// fault-attribution path leans on.
    pub flushes_dropped: u64,
    /// Acked keys found missing but attributed to injected faults.
    pub fault_attributed: u64,
    /// Acked keys found missing and attributed to the injected app bug.
    pub bug_attributed: u64,
    /// Races the instrumented (no-crash) pass reported.
    pub dynamic_reports: usize,
    /// Violations nothing explains — real failures.
    pub violations: Vec<Violation>,
}

impl fmt::Display for SweepOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>4} images  {:>4} explored  {:>4} pruned  {:>4} dropped  \
             {:>4} clwb-dropped  {:>4} fault-attr  {:>4} bug-attr  {:>2} dyn-reports  \
             {} violations",
            self.app,
            self.images_checked,
            self.states_explored,
            self.states_pruned,
            self.records_dropped,
            self.flushes_dropped,
            self.fault_attributed,
            self.bug_attributed,
            self.dynamic_reports,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION {v}")?;
        }
        Ok(())
    }
}

pub(crate) fn policy_name(p: &CrashPolicy) -> String {
    match p {
        CrashPolicy::Pessimistic => "pessimistic".into(),
        CrashPolicy::Optimistic => "optimistic".into(),
        CrashPolicy::PendingOnly => "pending-only".into(),
        CrashPolicy::Random(s) => format!("random({s:#x})"),
    }
}

/// One app's sweep as a [`CrashTarget`]: the config's script (built
/// once), its policies, and a per-sweep free list whose prefix and reboot
/// pools are reset in place, at O(lines touched), instead of being
/// allocated per crash state.
struct AppTarget {
    cfg: SweepConfig,
    app: SweepApp,
    script: Vec<ScriptOp>,
    policies: Vec<CrashPolicy>,
    pools: PoolFreeList,
}

/// The verdict on one recovered app crash state. The sweep relabels its
/// violations with each class member's own step and policy.
#[derive(Clone, Default, Serialize, Deserialize)]
struct AppVerdict {
    records_dropped: u64,
    fault_attributed: u64,
    bug_attributed: u64,
    violations: Vec<Violation>,
}

impl AppTarget {
    fn new(cfg: &SweepConfig, app: SweepApp) -> AppTarget {
        AppTarget {
            cfg: *cfg,
            app,
            script: sweep_script(cfg.seed, cfg.steps),
            // The three deterministic policies plus `random_seeds` random
            // evictions derived from the sweep seed.
            policies: [CrashPolicy::Pessimistic, CrashPolicy::Optimistic, CrashPolicy::PendingOnly]
                .into_iter()
                .chain(
                    (0..cfg.random_seeds)
                        .map(|i| CrashPolicy::Random(checksum(cfg.seed, &[0x5EED, i]))),
                )
                .collect(),
            pools: PoolFreeList::new(PoolConfig { size: 4 << 20, shards: 8, ..Default::default() }),
        }
    }

    /// Run the first `steps` script ops on `pool`, reporting accesses to
    /// `tracker` under `strand`; `bug` takes each app's seeded buggy path.
    /// Returns the operation history (writes, acks with positions, and
    /// buggy-path keys) the post-recovery oracles compare against.
    fn run_ops(
        &self,
        pool: &PmemPool,
        steps: usize,
        tracker: &dyn Tracker,
        strand: Option<StrandId>,
        bug: bool,
    ) -> OpHistory {
        let mut history = OpHistory::default();
        let heap = PmemHeap::open(pool);
        let ctx = ClientCtx { id: 0, tracker, strand };
        let ops = self.script[..steps].iter().enumerate();
        match self.app {
            SweepApp::Memcached => {
                let mc = Memcached::new(pool, &heap, 8);
                // Pending acks: promoted to acked at the next barrier.
                let mut pending: HashMap<u64, u64> = HashMap::new();
                for (i, op) in ops {
                    let (key, val) = match *op {
                        ScriptOp::Set { key, val } => (key, val),
                        // The mini-Memcached has no delete command in its
                        // protocol surface; script deletes become sets.
                        ScriptOp::Del { key } => (key, 0xDEAD),
                        ScriptOp::Barrier => {
                            if bug {
                                mc.epoch_barrier_skip_fence(tracker);
                            } else {
                                mc.epoch_barrier(tracker);
                            }
                            for (k, v) in pending.drain() {
                                history.ack(k, i as u64, v, bug);
                            }
                            continue;
                        }
                    };
                    mc.set(key, val, tracker, &ctx);
                    history.record_write(i as u64, key, val);
                    pending.insert(key, val);
                }
            }
            SweepApp::Redis => {
                let r = Redis::new(pool, &heap, 8, 1 << 16);
                for (i, op) in ops {
                    match *op {
                        ScriptOp::Set { key, val } => {
                            history.record_write(i as u64, key, val);
                            let buggy = bug && i % 4 == 3;
                            if buggy {
                                r.set_skip_aof_persist(key, val, tracker, strand);
                            } else {
                                r.set(key, val, tracker, strand);
                            }
                            history.ack(key, i as u64, val, buggy);
                        }
                        ScriptOp::Del { key } => {
                            r.del(key, tracker, strand);
                            history.unack(key);
                        }
                        ScriptOp::Barrier => {}
                    }
                }
            }
            SweepApp::NStore => {
                let db = NStore::new(pool, &heap, 8, 1 << 16);
                for (i, op) in ops {
                    // NStore has no delete; treat it as an overwrite.
                    let (key, val, cols) = match *op {
                        ScriptOp::Set { key, val } => (key, val, [val, val ^ 1, val ^ 2, val ^ 3]),
                        ScriptOp::Del { key } => (key, 7, [7; 4]),
                        ScriptOp::Barrier => continue,
                    };
                    let buggy = bug && i % 4 == 3;
                    if buggy {
                        db.put_skip_commit_persist(key, cols, tracker, strand);
                    } else {
                        db.put(key, cols, tracker, strand);
                    }
                    history.record_write(i as u64, key, val);
                    history.ack(key, i as u64, val, buggy);
                }
            }
        }
        history
    }

    /// One instrumented, crash-free run of the whole script: the dynamic
    /// checker must stay quiet on the correct applications.
    fn dynamic_cross_check(&self) -> usize {
        let _s = obs::span_lazy("sweep.dynamic", || vec![("app", self.app.name().to_string())]);
        let pool = self.pools.fresh(None);
        let tracker = DeepMcTracker::new();
        let strand = tracker.region_begin();
        self.run_ops(&pool, self.script.len(), &tracker, strand, false);
        let reports = tracker.reports().len();
        obs::counter("sweep.dynamic_reports", reports as u64);
        obs::counter("dynamic.shadow_cells", tracker.shadow_cells() as u64);
        reports
    }

    /// Does `recovered` equal the state after *some* prefix of the first
    /// `crash_step` ops? Only meaningful for the strict apps (every op
    /// acks as it completes); Memcached's epoch batching makes any
    /// barrier-consistent mix legal, so it is excluded.
    fn matches_some_prefix(&self, crash_step: usize, recovered: &HashMap<u64, u64>) -> bool {
        let mut state: HashMap<u64, u64> = HashMap::new();
        let mut matched = &state == recovered;
        for op in &self.script[..crash_step] {
            match (self.app, *op) {
                (_, ScriptOp::Set { key, val }) => {
                    state.insert(key, val);
                }
                (SweepApp::Redis, ScriptOp::Del { key }) => {
                    state.remove(&key);
                }
                (SweepApp::NStore, ScriptOp::Del { key }) => {
                    state.insert(key, 7);
                }
                _ => {}
            }
            matched |= &state == recovered;
        }
        matched
    }
}

impl CrashTarget for AppTarget {
    type History = OpHistory;
    type Verdict = AppVerdict;
    const STEP_SPAN: &'static str = "sweep.step";

    fn name(&self) -> &str {
        self.app.name()
    }

    fn steps(&self) -> usize {
        self.script.len()
    }

    fn policies(&self) -> &[CrashPolicy] {
        &self.policies
    }

    /// The fault plan is re-seeded per step.
    fn replay(&self, step: usize) -> Replay<'_, OpHistory> {
        let fault = FaultConfig { seed: self.cfg.seed ^ step as u64, ..self.cfg.fault };
        let pool = self.pools.fresh(Some(fault));
        let history = self.run_ops(&pool, step, &NoopTracker, None, self.cfg.inject_bug);
        Replay { pool, history }
    }

    /// The oracle-relevant history ([`OpHistory::digest`]), whether
    /// faults dropped a `clwb`, and — for the strict apps, whose
    /// prefix-cut oracle and corruption check consult the full per-step
    /// write history — the crash step. Memcached alone may collapse
    /// across steps: epoch batching skips the prefix oracle and its
    /// per-key checks are monotone in the history.
    fn class_context(&self, step: usize, run: &Replay<'_, OpHistory>) -> u64 {
        let step_key = if self.app == SweepApp::Memcached { 0 } else { step as u64 };
        let dropped = run.pool.stats().dropped_flushes > 0;
        fnv1a_words(&[run.history.digest(), dropped as u64, step_key])
    }

    /// Reboot one crash image, run recovery, and check every invariant
    /// (plus the [`SweepConfig::oracle`] oracles).
    fn recover_validate(
        &self,
        run: &Replay<'_, OpHistory>,
        crash_step: usize,
        policy: usize,
        img: &CrashImage,
    ) -> AppVerdict {
        let history = &run.history;
        let pool2 = self.pools.boot(img);
        let heap2 = PmemHeap::open(&pool2);
        // Read every key the history wrote back from the recovered app.
        let read_back = |get: &dyn Fn(u64) -> Option<u64>| -> HashMap<u64, u64> {
            history.keys().filter_map(|k| get(k).map(|v| (k, v))).collect()
        };
        let noop = NoopTracker;
        let (recovered, report) = match self.app {
            SweepApp::Memcached => {
                let (mc, rep) = Memcached::recover(&pool2, &heap2, 8);
                let ctx = ClientCtx { id: 0, tracker: &noop, strand: None };
                (read_back(&|k| mc.get(k, &noop, &ctx)), rep)
            }
            SweepApp::Redis => {
                let (r, rep) = Redis::recover(&pool2, &heap2, 8, 1 << 16);
                (read_back(&|k| r.get(k, &noop, None)), rep)
            }
            SweepApp::NStore => {
                let (db, rep) = NStore::recover(&pool2, &heap2, 8, 1 << 16);
                (read_back(&|k| db.read(k, 0, &noop, None)), rep)
            }
        };
        let mut verdict = AppVerdict { records_dropped: report.dropped(), ..Default::default() };
        // Faults injected into this run — recovery drops plus silently
        // dropped clwbs (the pool's own counter records exactly the drops
        // this run experienced) — license missing acked data.
        let attributable = report.dropped() > 0 || run.pool.stats().dropped_flushes > 0;
        let violation = |key: u64, detail: String| Violation {
            app: self.app.name().to_string(),
            crash_step: crash_step as u64,
            policy: policy_name(&self.policies[policy]),
            key,
            detail,
        };
        // Keys are visited in sorted order so violation order is stable
        // across worker counts *and* processes (HashMap order is neither).
        let mut recovered_keys: Vec<u64> = recovered.keys().copied().collect();
        recovered_keys.sort_unstable();
        // Invariant 1: no corruption — recovered values were written.
        for k in recovered_keys {
            let v = recovered[&k];
            if !history.was_written(k, v) {
                verdict
                    .violations
                    .push(violation(k, format!("recovered value {v:#x} was never written")));
            }
        }
        // Invariant 2: acked durability — and, under the oracle, no
        // rollback past the last acknowledged update. A loss is the seeded
        // bug's, else an injected fault's, else a violation.
        let mut acked_keys: Vec<u64> = history.acked().keys().copied().collect();
        acked_keys.sort_unstable();
        for k in acked_keys {
            let (pos, want) = history.acked()[&k];
            let detail = match recovered.get(&k) {
                None => "acked key missing after recovery with no fault to blame".to_string(),
                Some(&got)
                    if self.cfg.oracle
                        && got != want
                        && !history.written_at_or_after(k, pos, got) =>
                {
                    format!("acked value {want:#x} rolled back to stale {got:#x}")
                }
                Some(_) => continue,
            };
            if history.is_buggy(k) {
                verdict.bug_attributed += 1;
            } else if attributable {
                verdict.fault_attributed += 1;
            } else {
                verdict.violations.push(violation(k, detail));
            }
        }
        // Oracle: the strict apps' recovered state must be a prefix cut of
        // the op history. Skipped when a fault or the seeded bug already
        // explains a divergence (the prefix property only holds fault-free).
        if self.cfg.oracle
            && self.app != SweepApp::Memcached
            && !attributable
            && !history.any_buggy()
            && !self.matches_some_prefix(crash_step, &recovered)
        {
            verdict
                .violations
                .push(violation(0, "recovered state matches no prefix of the op history".into()));
        }
        verdict
    }
}

/// Magic first line of a sweep journal; ties the journal to one config.
/// v3 journals one [`StepEntry`] per step in both modes; older journals
/// fail the header check and start fresh.
const JOURNAL_MAGIC: &str = "deepmc-sweep-journal-v3";

/// Digest of everything that determines a step's outcome: seed, script
/// shape, fault plan, bug injection, prune/oracle modes, and the app set.
/// `jobs` is excluded on purpose — a journal written at `--jobs 4`
/// resumes at any worker count.
fn config_fingerprint(cfg: &SweepConfig, apps: &[SweepApp]) -> u64 {
    let mut text = format!(
        "seed={} steps={} random_seeds={} fault={:?} inject_bug={} prune={} oracle={}",
        cfg.seed, cfg.steps, cfg.random_seeds, cfg.fault, cfg.inject_bug, cfg.prune, cfg.oracle
    );
    for a in apps {
        text.push(' ');
        text.push_str(a.name());
    }
    hash::fnv1a(text.as_bytes())
}

/// One journaled line: a step's [`StepEntry`], kept as parsed JSON until
/// the sweep that owns it asks for it.
#[derive(Serialize, Deserialize)]
struct JournalLine<E> {
    app: String,
    step: u64,
    entry: E,
}

/// Append-only on-disk record of completed crash steps.
///
/// Layout: a header line binding the journal to a config fingerprint,
/// then one JSON line per completed step. Every append is a single
/// `write_all` + flush, so a killed sweep leaves at most one torn
/// *trailing* line — tolerated (skipped) on reload, costing one
/// re-executed step. A corrupt line anywhere *before* the last one means
/// the file was damaged after the fact; replaying around it would
/// silently desynchronize the resume, so the journal is quarantined
/// (renamed aside, like the analysis cache quarantines corrupt entries)
/// and the open fails with a clear error. Opening with `resume = false`,
/// or with a header that doesn't match the current config, truncates and
/// starts fresh.
pub struct SweepJournal {
    done: HashMap<(String, u64), serde::Value>,
    file: Mutex<fs::File>,
    appended: AtomicU64,
}

impl SweepJournal {
    /// Open (or create) the journal at `path` for this config. With
    /// `resume`, previously journaled steps of a matching-config journal
    /// are loaded and later skipped by [`sweep_session`].
    pub fn open(
        path: impl Into<PathBuf>,
        cfg: &SweepConfig,
        apps: &[SweepApp],
        resume: bool,
    ) -> io::Result<SweepJournal> {
        let path = path.into();
        let header = format!("{JOURNAL_MAGIC} fingerprint={:016x}", config_fingerprint(cfg, apps));
        let mut done = HashMap::new();
        let mut reusable = false;
        if resume {
            if let Ok(text) = fs::read_to_string(&path) {
                let mut lines = text.lines();
                if lines.next() == Some(header.as_str()) {
                    reusable = true;
                    let body: Vec<&str> = lines.collect();
                    for (i, line) in body.iter().enumerate() {
                        match serde_json::from_str::<JournalLine<serde::Value>>(line) {
                            Ok(jl) => {
                                done.insert((jl.app, jl.step), jl.entry);
                            }
                            // A torn *trailing* line is the expected
                            // residue of a hard kill mid-append: skip it
                            // and re-execute that one step.
                            Err(_) if i + 1 == body.len() => {}
                            // An unparsable *interior* line means the
                            // journal was corrupted after it was written.
                            // Quarantine it and fail the resume loudly.
                            Err(err) => {
                                let mut quarantined = path.clone().into_os_string();
                                quarantined.push(".quarantined");
                                let quarantined = PathBuf::from(quarantined);
                                let moved = fs::rename(&path, &quarantined).is_ok();
                                obs::warning(
                                    "sweep.journal_corrupt",
                                    &format!(
                                        "sweep journal {} has a corrupt interior entry \
                                         (line {} of {}): {err}",
                                        path.display(),
                                        i + 2,
                                        body.len() + 1,
                                    ),
                                );
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!(
                                        "sweep journal {} is corrupt at line {} (not the \
                                         trailing line, so this is damage, not a torn append); \
                                         resuming would silently desynchronize the sweep. {} \
                                         Rerun without --resume to start a fresh journal.",
                                        path.display(),
                                        i + 2,
                                        if moved {
                                            format!(
                                                "The journal was quarantined to {}.",
                                                quarantined.display()
                                            )
                                        } else {
                                            "The journal could not be moved aside.".to_string()
                                        },
                                    ),
                                ));
                            }
                        }
                    }
                } else {
                    obs::warning(
                        "sweep.journal_mismatch",
                        &format!(
                            "journal {} was written for a different sweep config; starting fresh",
                            path.display()
                        ),
                    );
                }
            }
        }
        let file = if reusable {
            fs::OpenOptions::new().append(true).open(&path)?
        } else {
            let mut f = fs::File::create(&path)?;
            writeln!(f, "{header}")?;
            f.flush()?;
            f
        };
        Ok(SweepJournal { done, file: Mutex::new(file), appended: AtomicU64::new(0) })
    }

    /// Steps loaded from a previous run (skippable on this one).
    pub fn loaded_steps(&self) -> u64 {
        self.done.len() as u64
    }

    /// Append one completed step (single flushed write); returns how many
    /// steps this run has journaled so far.
    fn append<V: Serialize>(&self, app: &str, step: u64, entry: &StepEntry<V>) -> u64 {
        let line = JournalLine { app: app.to_string(), step, entry };
        if let Ok(json) = serde_json::to_string(&line) {
            let mut buf = json.into_bytes();
            buf.push(b'\n');
            let mut f = self.file.lock().expect("journal file lock");
            let _ = f.write_all(&buf);
            let _ = f.flush();
        }
        self.appended.fetch_add(1, Ordering::SeqCst) + 1
    }
}

/// Controls for one resumable/interruptible sweep run.
#[derive(Default)]
pub struct SweepSession<'a> {
    /// Completed steps are appended here and journaled steps skipped.
    pub journal: Option<&'a SweepJournal>,
    /// Cooperative interrupt: after this many freshly journaled steps,
    /// cancel the session (deterministic stand-in for Ctrl-C in tests and
    /// CI; see `DEEPMC_SWEEP_INTERRUPT_AFTER`).
    pub trip_after: Option<u64>,
    cancelled: AtomicBool,
}

impl<'a> SweepSession<'a> {
    /// A session with a journal and an optional cooperative trip point.
    pub fn new(journal: Option<&'a SweepJournal>, trip_after: Option<u64>) -> SweepSession<'a> {
        SweepSession { journal, trip_after, cancelled: AtomicBool::new(false) }
    }

    /// Request cancellation: no further crash steps start, in-flight ones
    /// drain, the journal stays flushed.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Has the session been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// The journaled entry of `app`'s crash `step`, if a previous run
    /// completed it.
    pub(crate) fn lookup<V>(&self, app: &str, step: usize) -> Option<StepEntry<V>>
    where
        V: for<'de> Deserialize<'de>,
    {
        let entry = self.journal?.done.get(&(app.to_string(), step as u64))?;
        serde::from_value(entry.clone()).ok()
    }

    /// Journal a freshly completed step, cancelling the session once
    /// [`SweepSession::trip_after`] steps have been journaled.
    pub(crate) fn record<V: Serialize>(&self, app: &str, step: usize, entry: &StepEntry<V>) {
        if let Some(journal) = self.journal {
            let journaled = journal.append(app, step as u64, entry);
            if self.trip_after.is_some_and(|t| journaled >= t) {
                self.cancel();
            }
        }
    }
}

/// Result of a [`sweep_session`] run.
pub struct SweepRun {
    /// Per-app outcomes, in app order (partial if interrupted).
    pub outcomes: Vec<SweepOutcome>,
    /// Steps replayed from the journal instead of re-executed.
    pub resumed_steps: u64,
    /// Steps not executed because the session was cancelled.
    pub skipped_steps: u64,
}

impl SweepRun {
    /// Did cancellation leave steps unexecuted (results are partial)?
    pub fn interrupted(&self) -> bool {
        self.skipped_steps > 0
    }
}

/// Sweep one application: crash after every op under every policy.
///
/// Crash steps fan out over a work-stealing pool sized by
/// [`SweepConfig::jobs`]; per-step results merge in step order, so the
/// outcome (counter for counter, violation for violation) is identical
/// for any worker count.
pub fn sweep_app(cfg: &SweepConfig, app: SweepApp) -> SweepOutcome {
    sweep_app_session(cfg, app, &SweepSession::default()).0
}

/// [`sweep_app`] under a session; returns `(outcome, resumed, skipped)`.
fn sweep_app_session(
    cfg: &SweepConfig,
    app: SweepApp,
    session: &SweepSession<'_>,
) -> (SweepOutcome, u64, u64) {
    // Two span names for the one engine: the benchmark reads both.
    let span = if cfg.prune { "sweep.explore" } else { "sweep.app" };
    let _s = obs::span_lazy(span, || vec![("app", app.name().to_string())]);
    let target = AppTarget::new(cfg, app);
    let mut outcome = SweepOutcome { app: app.name(), ..Default::default() };
    if session.is_cancelled() {
        return (outcome, 0, target.steps() as u64);
    }
    outcome.dynamic_reports = target.dynamic_cross_check();
    let run = explore(&target, cfg.prune, resolve_jobs_request(cfg.jobs), session);
    let mut skipped = 0u64;
    for (idx, step) in run.steps.into_iter().enumerate() {
        let Some(step) = step else {
            skipped += 1;
            continue;
        };
        outcome.flushes_dropped += step.flushes_dropped;
        for PolicyVerdict { policy, verdict } in step.verdicts {
            outcome.images_checked += 1;
            outcome.records_dropped += verdict.records_dropped;
            outcome.fault_attributed += verdict.fault_attributed;
            outcome.bug_attributed += verdict.bug_attributed;
            outcome.violations.extend(verdict.violations.into_iter().map(|v| Violation {
                crash_step: idx as u64 + 1,
                policy: policy_name(&target.policies[policy]),
                ..v
            }));
        }
    }
    outcome.states_explored = run.explored;
    outcome.states_pruned = outcome.images_checked - outcome.states_explored;
    // Emitted once, from the merged outcome, so exhaustive, pruned and
    // resumed runs report the same totals.
    obs::counter("sweep.images_checked", outcome.images_checked);
    obs::counter("sweep.records_dropped", outcome.records_dropped);
    obs::counter("sweep.flushes_dropped", outcome.flushes_dropped);
    obs::counter("sweep.fault_attributed", outcome.fault_attributed);
    obs::counter("sweep.bug_attributed", outcome.bug_attributed);
    obs::counter("sweep.violations", outcome.violations.len() as u64);
    obs::counter("sweep.explored", outcome.states_explored);
    obs::counter("sweep.pruned", outcome.states_pruned);
    (outcome, run.resumed, skipped)
}

/// Sweep a set of applications.
pub fn sweep(cfg: &SweepConfig, apps: &[SweepApp]) -> Vec<SweepOutcome> {
    apps.iter().map(|&a| sweep_app(cfg, a)).collect()
}

/// Sweep a set of applications under a [`SweepSession`]: journaled steps
/// are replayed, fresh steps are journaled as they complete, and
/// cancellation drains in-flight workers then stops.
pub fn sweep_session(cfg: &SweepConfig, apps: &[SweepApp], session: &SweepSession<'_>) -> SweepRun {
    let mut run = SweepRun { outcomes: Vec::new(), resumed_steps: 0, skipped_steps: 0 };
    for &app in apps {
        let (outcome, resumed, skipped) = sweep_app_session(cfg, app, session);
        run.outcomes.push(outcome);
        run.resumed_steps += resumed;
        run.skipped_steps += skipped;
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> SweepConfig {
        SweepConfig { seed, steps: 12, random_seeds: 1, ..Default::default() }
    }

    #[test]
    fn clean_sweep_has_no_violations() {
        for outcome in sweep(&small(3), &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
            assert_eq!(outcome.records_dropped, 0, "no faults, nothing to drop");
            assert_eq!(outcome.flushes_dropped, 0, "no faults, no clwbs dropped");
            assert_eq!(outcome.dynamic_reports, 0, "correct apps race-free");
            assert!(outcome.images_checked > 0);
            assert_eq!(outcome.states_explored, outcome.images_checked);
            assert_eq!(outcome.states_pruned, 0);
        }
    }

    #[test]
    fn clean_sweep_with_oracles_has_no_violations() {
        let cfg = SweepConfig { oracle: true, ..small(3) };
        for outcome in sweep(&cfg, &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
        }
    }

    #[test]
    fn faulty_sweep_attributes_losses_without_violations() {
        let cfg = SweepConfig {
            fault: FaultConfig {
                torn_store_rate: 0.3,
                dropped_flush_rate: 0.1,
                poison_rate: 0.005,
                ..Default::default()
            },
            ..small(7)
        };
        let mut any_attributed = 0;
        let mut any_flushes_dropped = 0;
        for outcome in sweep(&cfg, &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
            any_attributed += outcome.fault_attributed + outcome.records_dropped;
            any_flushes_dropped += outcome.flushes_dropped;
        }
        assert!(any_attributed > 0, "these rates must cost something");
        assert!(any_flushes_dropped > 0, "a 10% dropped-clwb rate must show in pool stats");
    }

    #[test]
    fn recovery_survives_poison_on_freshly_allocated_blocks() {
        // The CLI's fault mix at `--steps 24 --seeds 2`: Redis and NStore
        // recovery used to read a version from a block the heap had just
        // handed out, and panicked on its poisoned line.
        let cfg = SweepConfig {
            steps: 24,
            random_seeds: 2,
            fault: FaultConfig {
                seed: 1,
                torn_store_rate: 0.25,
                dropped_flush_rate: 0.1,
                poison_rate: 0.002,
                ..Default::default()
            },
            ..SweepConfig::default()
        };
        for outcome in sweep(&cfg, &SweepApp::ALL) {
            assert!(
                outcome.violations.is_empty(),
                "{}: {:?}",
                outcome.app,
                outcome.violations.first()
            );
            assert_eq!(outcome.images_checked, 135, "{}", outcome.app);
            assert!(outcome.records_dropped > 0, "{}: poisoned records are dropped", outcome.app);
        }
    }

    #[test]
    fn injected_bug_is_caught_and_attributed() {
        let cfg = SweepConfig { inject_bug: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::NStore);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(
            outcome.bug_attributed > 0,
            "the sweep must observe acked transactions lost to the bug"
        );
    }

    #[test]
    fn memcached_missing_fence_bug_is_caught() {
        // The skipped fence leaves acked records merely FlushPending; a
        // pessimistic crash right after a barrier rolls them back. The
        // rollback oracle is what catches the stale-value variant (an
        // older durable value survives, so presence alone looks fine).
        let cfg = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::Memcached);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(outcome.bug_attributed > 0, "the missing-fence bug must be observed");
    }

    #[test]
    fn redis_unpersisted_aof_bug_is_caught() {
        let cfg = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
        let outcome = sweep_app(&cfg, SweepApp::Redis);
        assert!(outcome.violations.is_empty(), "{:?}", outcome.violations.first());
        assert!(outcome.bug_attributed > 0, "the unpersisted-AOF-append bug must be observed");
    }

    /// Field-for-field equality on everything but the explored/pruned
    /// split (which is the one thing pruning is allowed to change).
    fn assert_same_verdicts(ex: &SweepOutcome, pr: &SweepOutcome) {
        assert_eq!(ex.images_checked, pr.images_checked, "{}", ex.app);
        assert_eq!(ex.records_dropped, pr.records_dropped, "{}", ex.app);
        assert_eq!(ex.flushes_dropped, pr.flushes_dropped, "{}", ex.app);
        assert_eq!(ex.fault_attributed, pr.fault_attributed, "{}", ex.app);
        assert_eq!(ex.bug_attributed, pr.bug_attributed, "{}", ex.app);
        assert_eq!(ex.dynamic_reports, pr.dynamic_reports, "{}", ex.app);
        assert_eq!(ex.violations, pr.violations, "{}", ex.app);
    }

    #[test]
    fn pruned_sweep_matches_exhaustive_and_reduces_work() {
        for app in SweepApp::ALL {
            let base = SweepConfig { oracle: true, ..small(21) };
            let ex = sweep_app(&base, app);
            let pr = sweep_app(&SweepConfig { prune: true, ..base }, app);
            assert_same_verdicts(&ex, &pr);
            assert_eq!(pr.states_explored + pr.states_pruned, pr.images_checked, "{app:?}");
            assert!(
                pr.states_explored * 2 <= pr.images_checked,
                "{app:?}: explored {} of {} states — pruning must halve the work",
                pr.states_explored,
                pr.images_checked
            );
        }
    }

    #[test]
    fn pruned_sweep_still_catches_every_seeded_bug() {
        for app in SweepApp::ALL {
            let base = SweepConfig { inject_bug: true, oracle: true, ..small(5) };
            let ex = sweep_app(&base, app);
            let pr = sweep_app(&SweepConfig { prune: true, ..base }, app);
            assert_same_verdicts(&ex, &pr);
            assert!(pr.bug_attributed > 0, "{app:?}: pruning must not hide the seeded bug");
        }
    }

    #[test]
    fn transient_poison_does_not_split_equivalence_classes() {
        // Every poisoned line is transient: recovery retries through all
        // of them, so crash states differing only in transient-poison
        // scratch must land in the same class and pruning must still
        // collapse the policy fan-out.
        let cfg = SweepConfig {
            fault: FaultConfig { poison_rate: 0.01, transient_rate: 1.0, ..Default::default() },
            prune: true,
            oracle: true,
            ..small(17)
        };
        let pr = sweep_app(&cfg, SweepApp::Memcached);
        assert!(pr.violations.is_empty(), "{:?}", pr.violations.first());
        assert!(pr.states_pruned > 0, "transient-only poison must not defeat dedup");
        let ex = sweep_app(&SweepConfig { prune: false, ..cfg }, SweepApp::Memcached);
        assert_same_verdicts(&ex, &pr);
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let cfg = SweepConfig {
            fault: FaultConfig {
                torn_store_rate: 0.2,
                dropped_flush_rate: 0.05,
                ..Default::default()
            },
            inject_bug: true,
            ..small(11)
        };
        let seq = sweep_app(&SweepConfig { jobs: 1, ..cfg }, SweepApp::NStore);
        let par = sweep_app(&SweepConfig { jobs: 4, ..cfg }, SweepApp::NStore);
        // Display renders every counter and every violation — comparing
        // the rendered form checks the merge is order-identical too.
        assert_eq!(seq.to_string(), par.to_string());
    }

    #[test]
    fn parallel_pruned_sweep_matches_sequential() {
        let cfg = SweepConfig { inject_bug: true, prune: true, oracle: true, ..small(11) };
        for app in SweepApp::ALL {
            let seq = sweep_app(&SweepConfig { jobs: 1, ..cfg }, app);
            let par = sweep_app(&SweepConfig { jobs: 4, ..cfg }, app);
            assert_eq!(seq.to_string(), par.to_string(), "{app:?}");
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = sweep_app(&small(9), SweepApp::Redis);
        let b = sweep_app(&small(9), SweepApp::Redis);
        assert_eq!(a.images_checked, b.images_checked);
        assert_eq!(a.records_dropped, b.records_dropped);
        assert_eq!(a.fault_attributed, b.fault_attributed);
        assert_eq!(a.violations.len(), b.violations.len());
    }

    fn outcomes_text(outcomes: &[SweepOutcome]) -> String {
        outcomes.iter().map(|o| o.to_string()).collect()
    }

    #[test]
    fn interrupted_sweep_resumes_to_identical_attribution() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j1-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let cfg = SweepConfig { inject_bug: true, jobs: 2, ..small(13) };
        let apps = [SweepApp::NStore];

        // Ground truth: an uninterrupted sweep with no journal.
        let straight = sweep(&cfg, &apps);

        // Run 1: cancel after 4 freshly journaled steps.
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session =
            SweepSession { journal: Some(&journal), trip_after: Some(4), ..Default::default() };
        let first = sweep_session(&cfg, &apps, &session);
        assert!(first.interrupted(), "trip_after must cancel mid-sweep");
        assert!(first.skipped_steps > 0);
        drop(journal);

        // Run 2: resume. Journaled steps replay; the rest execute.
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        let loaded = journal.loaded_steps();
        assert!(loaded >= 4, "at least the tripped steps were journaled, got {loaded}");
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let second = sweep_session(&cfg, &apps, &session);
        assert!(!second.interrupted());
        assert_eq!(second.resumed_steps, loaded, "every journaled step is skipped, not re-run");
        assert_eq!(
            outcomes_text(&second.outcomes),
            outcomes_text(&straight),
            "resumed sweep must match the uninterrupted one byte for byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_pruned_sweep_resumes_to_identical_attribution() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j4-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let cfg = SweepConfig { inject_bug: true, prune: true, oracle: true, jobs: 2, ..small(13) };
        let apps = [SweepApp::NStore];
        let straight = sweep(&cfg, &apps);

        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session =
            SweepSession { journal: Some(&journal), trip_after: Some(2), ..Default::default() };
        let first = sweep_session(&cfg, &apps, &session);
        assert!(first.interrupted(), "trip_after must cancel the exploration mid-run");
        drop(journal);

        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        assert!(journal.loaded_steps() >= 2);
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let second = sweep_session(&cfg, &apps, &session);
        assert!(!second.interrupted());
        assert!(second.resumed_steps > 0, "journaled exploration steps replay on resume");
        assert_eq!(
            outcomes_text(&second.outcomes),
            outcomes_text(&straight),
            "resumed pruned sweep must match the uninterrupted one byte for byte"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// The `sweep.*` counters one session emits, minus the split that
    /// pruning and resuming are allowed to change.
    fn sweep_counters(
        cfg: &SweepConfig,
        apps: &[SweepApp],
        session: &SweepSession<'_>,
    ) -> Vec<(&'static str, u64)> {
        let rec = obs::Recorder::new();
        {
            let _attach = rec.attach(0);
            sweep_session(cfg, apps, session);
        }
        let split = ["sweep.explored", "sweep.pruned", "sweep.resumed_steps"];
        rec.finish()
            .counters
            .into_iter()
            .filter(|(name, _)| name.starts_with("sweep.") && !split.contains(name))
            .collect()
    }

    #[test]
    fn exhaustive_pruned_and_resumed_runs_emit_the_same_counters() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j7-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let cfg = SweepConfig {
            fault: FaultConfig {
                torn_store_rate: 0.25,
                dropped_flush_rate: 0.1,
                ..Default::default()
            },
            inject_bug: true,
            oracle: true,
            jobs: 2,
            ..small(13)
        };
        let apps = SweepApp::ALL;
        let straight = sweep_counters(&cfg, &apps, &SweepSession::default());
        for name in ["sweep.images_checked", "sweep.flushes_dropped", "sweep.bug_attributed"] {
            assert!(straight.iter().any(|&(n, v)| n == name && v > 0), "{name}: {straight:?}");
        }
        for prune in [false, true] {
            let cfg = SweepConfig { prune, ..cfg };
            assert_eq!(sweep_counters(&cfg, &apps, &SweepSession::default()), straight);
            let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
            let session = SweepSession::new(Some(&journal), Some(5));
            assert!(sweep_session(&cfg, &apps, &session).interrupted());
            drop(journal);
            let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
            let resumed = sweep_counters(&cfg, &apps, &SweepSession::new(Some(&journal), None));
            assert_eq!(resumed, straight, "prune={prune}: resumed run");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_for_different_config_is_discarded() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j2-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg_a = small(1);
        let cfg_b = small(2);
        let journal = SweepJournal::open(&journal_path, &cfg_a, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg_a, &apps, &session);
        drop(journal);
        // Resuming under a different seed must not replay cfg_a's steps.
        let journal = SweepJournal::open(&journal_path, &cfg_b, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps(), 0, "mismatched journal starts fresh");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fingerprint_covers_prune_and_oracle_flags() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j5-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // A pruned resume must not replay exhaustive-mode entries.
        let pruned = SweepConfig { prune: true, ..cfg };
        let journal = SweepJournal::open(&journal_path, &pruned, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps(), 0, "prune flag changes the fingerprint");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_journal_line_is_tolerated() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j3-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let straight = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // Simulate a hard kill mid-append: truncate the last line in half.
        let text = fs::read_to_string(&journal_path).unwrap();
        let full_steps = text.trim_end().lines().count() - 1;
        let keep = text.trim_end().rfind('\n').unwrap() + 1;
        let torn = format!("{}{}", &text[..keep], &text[keep..keep + (text.len() - keep) / 2]);
        fs::write(&journal_path, torn).unwrap();
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, true).unwrap();
        assert_eq!(journal.loaded_steps() as usize, full_steps - 1, "only the torn step is lost");
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let resumed = sweep_session(&cfg, &apps, &session);
        assert_eq!(
            outcomes_text(&resumed.outcomes),
            outcomes_text(&straight.outcomes),
            "the torn step re-executes and the result is unchanged"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn interior_corrupt_journal_line_quarantines_and_fails_resume() {
        let dir = std::env::temp_dir().join(format!("deepmc-sweep-j6-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("sweep.journal");
        let apps = [SweepApp::Redis];
        let cfg = small(4);
        let journal = SweepJournal::open(&journal_path, &cfg, &apps, false).unwrap();
        let session = SweepSession { journal: Some(&journal), ..Default::default() };
        let _ = sweep_session(&cfg, &apps, &session);
        drop(journal);
        // Corrupt a line in the *middle* of the journal (damage, not a
        // torn trailing append).
        let text = fs::read_to_string(&journal_path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        assert!(lines.len() > 4, "need interior lines to corrupt");
        let mid = lines.len() / 2;
        lines[mid] = lines[mid][..lines[mid].len() / 2].to_string();
        fs::write(&journal_path, lines.join("\n") + "\n").unwrap();

        let err = SweepJournal::open(&journal_path, &cfg, &apps, true)
            .err()
            .expect("an interior corrupt line must fail the resume, not skip silently");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("corrupt"), "error names the problem: {msg}");
        assert!(msg.contains("quarantined"), "error names the quarantine: {msg}");
        assert!(!journal_path.exists(), "the corrupt journal is moved aside");
        let quarantined = dir.join("sweep.journal.quarantined");
        assert!(quarantined.exists(), "the corrupt journal is preserved for inspection");
        let _ = fs::remove_dir_all(&dir);
    }
}
