//! Crash-recovery sweep over the DS corpus.
//!
//! For every prefix of a deterministic operation script, run the prefix
//! against a fresh structure, crash under every [`CrashPolicy`], reboot,
//! run the structure's recovery, and validate the recovered contents:
//!
//! * with `oracle` — the linearization-prefix oracle: the recovered state
//!   must equal the canonical model state at some point inside the
//!   operation's durability window (`[batch-floor(s), s]`; the window is
//!   a single point for the per-op structures and the current batch for
//!   the combining queue, which only acks at batch close);
//! * without — a membership-only check: every recovered element must have
//!   been added by the executed prefix.
//!
//! The sweep is the crate's crash-exploration engine (`explore`) driven
//! by a `DsTarget`. With `prune`, crash points with the same `(image
//! content hash, oracle-window digest)` are one class and only one
//! representative per class is validated. The pruned outcome is
//! violation-for-violation identical to the exhaustive one at every
//! worker count; only the explored/pruned split differs.

use super::{model_states, DsBug, DsInstance, DsKind, DsOp};
use crate::crashsweep::{policy_name, SweepSession};
use crate::explore::{explore, CrashTarget, PolicyVerdict, Replay};
use crate::tracker::NoopTracker;
use deepmc_analysis::pool::resolve_jobs_request;
use deepmc_obs as obs;
use nvm_runtime::hash::fnv1a_words;
use nvm_runtime::{CrashImage, CrashPolicy, PmemHeap, PoolConfig, PoolFreeList};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Configuration for one structure × variant sweep.
#[derive(Debug, Clone)]
pub struct DsSweepConfig {
    pub kind: DsKind,
    pub bug: Option<DsBug>,
    /// Script seed (drives [`super::ds_script`]).
    pub seed: u64,
    /// Script length; every prefix `1..=steps` is crashed.
    pub steps: u64,
    /// Collapse equivalent crash states before validating.
    pub prune: bool,
    /// Linearization-prefix oracle (vs membership-only).
    pub oracle: bool,
    /// Worker threads (0 = auto).
    pub jobs: usize,
}

impl DsSweepConfig {
    pub fn new(kind: DsKind, bug: Option<DsBug>) -> DsSweepConfig {
        DsSweepConfig { kind, bug, seed: 0xD5, steps: 24, prune: false, oracle: false, jobs: 1 }
    }
}

/// One failed crash-recovery validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsViolation {
    pub step: u64,
    pub policy: String,
    pub detail: String,
}

/// Aggregate result of one sweep.
#[derive(Debug, Clone)]
pub struct DsSweepOutcome {
    pub kind: DsKind,
    pub bug: Option<DsBug>,
    pub steps: u64,
    /// Crash images validated (directly or via a class representative).
    pub images_checked: u64,
    /// Images actually recovered (class representatives).
    pub states_explored: u64,
    /// Images whose verdict was propagated from a representative.
    pub states_pruned: u64,
    pub violations: Vec<DsViolation>,
}

impl DsSweepOutcome {
    /// Deterministic one-sweep render (used for jobs-parity assertions).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "ds sweep: kind={} variant={} steps={} images={} explored={} pruned={} violations={}\n",
            self.kind.name(),
            super::variant_name(self.bug),
            self.steps,
            self.images_checked,
            self.states_explored,
            self.states_pruned,
            self.violations.len(),
        );
        for v in &self.violations {
            let _ = writeln!(s, "  violation step={} policy={} {}", v.step, v.policy, v.detail);
        }
        s
    }
}

/// One structure × variant sweep as a [`CrashTarget`].
struct DsTarget<'s> {
    cfg: &'s DsSweepConfig,
    script: &'s [DsOp],
    /// The canonical model state after each prefix `0..=steps`.
    models: Vec<Vec<u64>>,
    /// Every element the script adds.
    added: BTreeSet<u64>,
    /// Every step is crashed under these, in canonical order.
    policies: Vec<CrashPolicy>,
    /// Prefix and reboot pools, reset in place.
    pools: PoolFreeList,
}

impl DsTarget<'_> {
    /// The durability window for a crash at step `s`: operations up to
    /// the last acknowledged batch are guaranteed; in-flight ones may or
    /// may not have landed.
    fn window(&self, s: u64) -> (u64, u64) {
        (s - s % self.cfg.kind.batch(), s)
    }
}

impl CrashTarget for DsTarget<'_> {
    type History = ();
    /// `None` means the image passed.
    type Verdict = Option<String>;
    const STEP_SPAN: &'static str = "ds.step";

    fn name(&self) -> &str {
        self.cfg.kind.name()
    }

    fn steps(&self) -> usize {
        self.script.len()
    }

    fn policies(&self) -> &[CrashPolicy] {
        &self.policies
    }

    fn replay(&self, s: usize) -> Replay<'_, ()> {
        let pool = self.pools.fresh(None);
        {
            let heap = PmemHeap::open(&pool);
            let inst = DsInstance::create(self.cfg.kind, self.cfg.bug, &heap);
            let t = NoopTracker;
            let batch = self.cfg.kind.batch();
            for (i, &op) in self.script[..s].iter().enumerate() {
                let seq = i as u64 + 1;
                inst.apply(op, &t, None, 0, seq);
                if seq.is_multiple_of(batch) {
                    inst.batch_end(&t, None, 0, seq);
                }
            }
        }
        Replay { pool, history: () }
    }

    /// The oracle's durability window and the model states inside it (or,
    /// membership-only, the added set).
    fn class_context(&self, s: usize, _run: &Replay<'_, ()>) -> u64 {
        let (floor, hi) = self.window(s as u64);
        let mut ctx: Vec<u64> = vec![self.cfg.oracle as u64, floor, hi];
        let mut digest_state = |state: &[u64]| {
            ctx.push(state.len() as u64);
            ctx.extend_from_slice(state);
        };
        if self.cfg.oracle {
            for t in floor..=hi {
                digest_state(&self.models[t as usize]);
            }
        } else {
            digest_state(&self.added.iter().copied().collect::<Vec<u64>>());
        }
        fnv1a_words(&ctx)
    }

    fn recover_validate(
        &self,
        _run: &Replay<'_, ()>,
        s: usize,
        _policy: usize,
        img: &CrashImage,
    ) -> Option<String> {
        let pool = self.pools.boot(img);
        let heap = PmemHeap::open(&pool);
        let inst = DsInstance::recover(self.cfg.kind, self.cfg.bug, &heap);
        let got = inst.contents();
        if self.cfg.oracle {
            let (floor, hi) = self.window(s as u64);
            if !(floor..=hi).any(|t| self.models[t as usize] == got) {
                return Some(format!(
                    "recovered {:?} is no linearization prefix in [{floor}, {hi}] (expected around {:?})",
                    got, self.models[hi as usize]
                ));
            }
        } else if let Some(orphan) = got.iter().find(|v| !self.added.contains(v)) {
            return Some(format!("recovered element {orphan} was never added"));
        }
        None
    }
}

/// Sweep using the canonical deterministic script for `cfg.seed`.
pub fn ds_sweep(cfg: &DsSweepConfig) -> DsSweepOutcome {
    let script = super::ds_script(cfg.seed, cfg.steps);
    ds_sweep_script(cfg, &script)
}

/// Sweep an explicit operation history (the proptest entry point).
pub fn ds_sweep_script(cfg: &DsSweepConfig, script: &[DsOp]) -> DsSweepOutcome {
    let _span = obs::span_lazy("ds.sweep", || {
        vec![
            ("kind", cfg.kind.name().to_string()),
            ("variant", super::variant_name(cfg.bug).to_string()),
        ]
    });
    let target = DsTarget {
        cfg,
        script,
        models: model_states(cfg.kind, script),
        added: script
            .iter()
            .filter_map(|op| if let DsOp::Add(v) = op { Some(*v) } else { None })
            .collect(),
        policies: vec![
            CrashPolicy::Pessimistic,
            CrashPolicy::PendingOnly,
            CrashPolicy::Optimistic,
            CrashPolicy::Random(cfg.seed ^ 0xD5_CA5),
        ],
        pools: PoolFreeList::new(PoolConfig { size: 1 << 20, shards: 8, ..Default::default() }),
    };
    let run = explore(&target, cfg.prune, resolve_jobs_request(cfg.jobs), &SweepSession::default());
    let images_checked = (script.len() * target.policies.len()) as u64;
    let mut outcome = DsSweepOutcome {
        kind: cfg.kind,
        bug: cfg.bug,
        steps: script.len() as u64,
        images_checked,
        states_explored: run.explored,
        states_pruned: images_checked - run.explored,
        violations: Vec::new(),
    };
    for (idx, step) in run.steps.into_iter().enumerate() {
        let step = step.expect("a DS sweep is never cancelled");
        for PolicyVerdict { policy, verdict } in step.verdicts {
            if let Some(detail) = verdict {
                outcome.violations.push(DsViolation {
                    step: idx as u64 + 1,
                    policy: policy_name(&target.policies[policy]),
                    detail,
                });
            }
        }
    }
    obs::counter("ds.images_checked", outcome.images_checked);
    obs::counter("ds.explored", outcome.states_explored);
    obs::counter("ds.pruned", outcome.states_pruned);
    obs::counter("ds.violations", outcome.violations.len() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(kind: DsKind, bug: Option<DsBug>, prune: bool, oracle: bool) -> DsSweepOutcome {
        let mut cfg = DsSweepConfig::new(kind, bug);
        cfg.prune = prune;
        cfg.oracle = oracle;
        ds_sweep(&cfg)
    }

    #[test]
    fn clean_variants_have_zero_violations_under_oracle() {
        for kind in DsKind::ALL {
            let out = sweep(kind, None, false, true);
            assert!(out.violations.is_empty(), "{}: {}", kind.name(), out.summary());
        }
    }

    #[test]
    fn crash_seeded_bugs_are_caught_and_strand_race_is_crash_clean() {
        for kind in DsKind::ALL {
            for &bug in kind.seeded_bugs() {
                let out = sweep(kind, Some(bug), false, true);
                let e = super::super::expected(Some(bug));
                assert_eq!(
                    !out.violations.is_empty(),
                    e.crash,
                    "{}/{}: {}",
                    kind.name(),
                    bug.name(),
                    out.summary()
                );
            }
        }
    }

    #[test]
    fn pruned_sweep_matches_exhaustive_and_actually_prunes() {
        for kind in DsKind::ALL {
            for bug in kind.variants() {
                let ex = sweep(kind, bug, false, true);
                let pr = sweep(kind, bug, true, true);
                assert_eq!(
                    ex.violations,
                    pr.violations,
                    "{}/{}",
                    kind.name(),
                    super::super::variant_name(bug)
                );
                assert_eq!(ex.images_checked, pr.images_checked);
                assert!(
                    pr.states_pruned > 0,
                    "{}/{} pruned nothing ({} images)",
                    kind.name(),
                    super::super::variant_name(bug),
                    pr.images_checked
                );
            }
        }
    }

    #[test]
    fn jobs_do_not_change_the_summary() {
        for prune in [false, true] {
            let mut cfg = DsSweepConfig::new(DsKind::MsQueue, Some(DsBug::SkipCheckpointFence));
            cfg.prune = prune;
            cfg.oracle = true;
            cfg.jobs = 1;
            let one = ds_sweep(&cfg).summary();
            cfg.jobs = 4;
            let four = ds_sweep(&cfg).summary();
            assert_eq!(one, four, "prune={prune}");
        }
    }
}
