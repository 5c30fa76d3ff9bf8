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
//! With `prune`, validation runs WITCHER-style in the same two-phase
//! shape as [`crate::explore`]: probe every `(step, policy)` crash point,
//! bucket by `(image content hash, oracle-window digest)`, validate one
//! representative per class in canonical order via the shared analysis
//! pool, and propagate verdicts. The pruned outcome is
//! violation-for-violation identical to the exhaustive one at every
//! worker count; only the explored/pruned split differs.

use super::{model_states, DsBug, DsInstance, DsKind, DsOp};
use crate::crashsweep::policy_name;
use crate::tracker::NoopTracker;
use deepmc_analysis::pool::{resolve_jobs_request, run_indexed};
use deepmc_obs as obs;
use nvm_runtime::hash::fnv1a_words;
use nvm_runtime::{CrashImage, CrashPolicy, PmemHeap, PoolConfig, PoolFreeList, PooledPool};
use std::collections::{BTreeSet, HashMap};
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

/// The crash policies every step is subjected to, in canonical order.
fn policies(cfg: &DsSweepConfig) -> Vec<CrashPolicy> {
    vec![
        CrashPolicy::Pessimistic,
        CrashPolicy::PendingOnly,
        CrashPolicy::Optimistic,
        CrashPolicy::Random(cfg.seed ^ 0xD5_CA5),
    ]
}

fn digest_state(h: &mut Vec<u64>, state: &[u64]) {
    h.push(state.len() as u64);
    h.extend_from_slice(state);
}

/// Run the first `s` script operations against a fresh structure on a
/// reset pool and return the pool ready to crash.
fn run_prefix<'a>(
    cfg: &DsSweepConfig,
    script: &[DsOp],
    s: usize,
    pools: &'a PoolFreeList,
) -> PooledPool<'a> {
    let pool = pools.fresh(None);
    {
        let heap = PmemHeap::open(&pool);
        let inst = DsInstance::create(cfg.kind, cfg.bug, &heap);
        let t = NoopTracker;
        let batch = cfg.kind.batch();
        for (i, &op) in script[..s].iter().enumerate() {
            let seq = i as u64 + 1;
            inst.apply(op, &t, None, 0, seq);
            if seq.is_multiple_of(batch) {
                inst.batch_end(&t, None, 0, seq);
            }
        }
    }
    pool
}

/// The durability window for a crash at step `s`: operations up to the
/// last acknowledged batch are guaranteed; in-flight ones may or may not
/// have landed.
fn window(cfg: &DsSweepConfig, s: u64) -> (u64, u64) {
    let floor = s - s % cfg.kind.batch();
    (floor, s)
}

/// Reboot one crash image, recover, and validate. `None` means the image
/// passed.
fn validate(
    cfg: &DsSweepConfig,
    models: &[Vec<u64>],
    added: &BTreeSet<u64>,
    s: u64,
    img: &CrashImage,
    pools: &PoolFreeList,
) -> Option<String> {
    let pool = pools.boot(img);
    let heap = PmemHeap::open(&pool);
    let inst = DsInstance::recover(cfg.kind, cfg.bug, &heap);
    let got = inst.contents();
    if cfg.oracle {
        let (floor, hi) = window(cfg, s);
        if !(floor..=hi).any(|t| models[t as usize] == got) {
            return Some(format!(
                "recovered {:?} is no linearization prefix in [{floor}, {hi}] (expected around {:?})",
                got, models[hi as usize]
            ));
        }
    } else if let Some(orphan) = got.iter().find(|v| !added.contains(v)) {
        return Some(format!("recovered element {orphan} was never added"));
    }
    None
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
    let models = model_states(cfg.kind, script);
    let added: BTreeSet<u64> = script
        .iter()
        .filter_map(|op| if let DsOp::Add(v) = op { Some(*v) } else { None })
        .collect();
    let jobs = resolve_jobs_request(cfg.jobs);
    // Prefix and reboot pools, reset in place.
    let pools = PoolFreeList::new(PoolConfig { size: 1 << 20, shards: 8, ..Default::default() });
    let pols = policies(cfg);
    let total = script.len();
    let mut outcome = DsSweepOutcome {
        kind: cfg.kind,
        bug: cfg.bug,
        steps: total as u64,
        images_checked: (total * pols.len()) as u64,
        states_explored: 0,
        states_pruned: 0,
        violations: Vec::new(),
    };

    if !cfg.prune {
        // Exhaustive: validate every (step, policy) image; steps fan out
        // over the shared pool, results merge in step order.
        let steps: Vec<usize> = (1..=total).collect();
        let per_step = run_indexed(jobs, steps, |_, s| {
            let run = run_prefix(cfg, script, s, &pools);
            pols.iter()
                .map(|p| validate(cfg, &models, &added, s as u64, &p.apply(&run), &pools))
                .collect::<Vec<_>>()
        });
        for (idx, verdicts) in per_step.into_iter().enumerate() {
            for (pi, verdict) in verdicts.into_iter().enumerate() {
                if let Some(detail) = verdict {
                    outcome.violations.push(DsViolation {
                        step: idx as u64 + 1,
                        policy: policy_name(&pols[pi]),
                        detail,
                    });
                }
            }
        }
        outcome.states_explored = outcome.images_checked;
    } else {
        // Phase A: probe — image hash + oracle-window digest per crash
        // point, no recovery.
        let steps: Vec<usize> = (1..=total).collect();
        let probes = run_indexed(jobs, steps, |_, s| {
            let run = run_prefix(cfg, script, s, &pools);
            let (floor, hi) = window(cfg, s as u64);
            let mut ctx: Vec<u64> = vec![cfg.oracle as u64, floor, hi];
            if cfg.oracle {
                for t in floor..=hi {
                    digest_state(&mut ctx, &models[t as usize]);
                }
            } else {
                digest_state(&mut ctx, &added.iter().copied().collect::<Vec<u64>>());
            }
            let ctx_digest = fnv1a_words(&ctx);
            pols.iter()
                .map(|p| fnv1a_words(&[p.apply(&run).content_hash(), ctx_digest]))
                .collect::<Vec<u64>>()
        });

        // Elect representatives in canonical (step, policy) order.
        let mut rep_of: HashMap<u64, (usize, usize)> = HashMap::new();
        let mut reps_by_step: Vec<(usize, Vec<usize>)> = Vec::new();
        for (idx, keys) in probes.iter().enumerate() {
            let s = idx + 1;
            let mut mine: Vec<usize> = Vec::new();
            for (pi, &key) in keys.iter().enumerate() {
                rep_of.entry(key).or_insert_with(|| {
                    mine.push(pi);
                    (s, pi)
                });
            }
            if !mine.is_empty() {
                reps_by_step.push((s, mine));
            }
        }

        // Phase B: validate only the representatives. Every policy is
        // still applied in order so representative images are
        // byte-identical to the exhaustive run's.
        let results = run_indexed(jobs, reps_by_step.clone(), |_, (s, rep_pis)| {
            let run = run_prefix(cfg, script, s, &pools);
            pols.iter()
                .enumerate()
                .filter_map(|(pi, p)| {
                    let img = p.apply(&run);
                    rep_pis
                        .contains(&pi)
                        .then(|| (pi, validate(cfg, &models, &added, s as u64, &img, &pools)))
                })
                .collect::<Vec<_>>()
        });
        let mut verdicts: HashMap<(usize, usize), Option<String>> = HashMap::new();
        for ((s, _), frags) in reps_by_step.iter().zip(results) {
            for (pi, verdict) in frags {
                verdicts.insert((*s, pi), verdict);
            }
        }
        outcome.states_explored = verdicts.len() as u64;
        outcome.states_pruned = outcome.images_checked - outcome.states_explored;

        // Merge: propagate verdicts to class members in canonical order,
        // relabelled with the member's own step and policy.
        for (idx, keys) in probes.iter().enumerate() {
            let s = idx + 1;
            for (pi, key) in keys.iter().enumerate() {
                if let Some(detail) = &verdicts[&rep_of[key]] {
                    outcome.violations.push(DsViolation {
                        step: s as u64,
                        policy: policy_name(&pols[pi]),
                        detail: detail.clone(),
                    });
                }
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
