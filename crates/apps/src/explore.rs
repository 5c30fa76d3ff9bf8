//! Pruned crash-state exploration.
//!
//! The exhaustive sweep ([`crate::crashsweep`]) recovers and validates
//! every crash image at every crash point. Most of those images are
//! duplicates: a store that persists eagerly reaches the same durable
//! state under several eviction policies, and an epoch-batched store
//! parks in the same durable state for whole stretches of the script.
//! WITCHER-style pruning exploits this: two crash states validate
//! identically whenever
//!
//! 1. their persisted pool images are identical
//!    ([`nvm_runtime::CrashImage::content_hash`] — durable bytes plus
//!    permanent poison; transient poison is excluded because recovery
//!    reads through retries), and
//! 2. the oracle-relevant slice of their operation histories is
//!    identical ([`crate::workloads::OpHistory::digest`] — the acked map
//!    and the buggy-key set), and
//! 3. they agree on whether injected faults dropped any `clwb` (the
//!    fault-attribution escape hatch), and
//! 4. for the strict apps (Redis, NStore) they sit at the same crash
//!    step — the prefix-cut oracle and the corruption check consult the
//!    *full* write history, which grows per step, so cross-step
//!    collapsing is only sound for Memcached, whose epoch batching skips
//!    the prefix oracle and whose per-key checks are monotone in the
//!    history.
//!
//! Exploration runs in two phases over the same work-stealing pool the
//! exhaustive sweep uses. Phase A (probe) runs every script prefix,
//! materializes every crash image, and buckets each `(step, policy)`
//! crash point by the class key above — no reboot, no recovery. Phase B
//! (validate) re-runs only the steps that own a class representative and
//! validates just those images with the exact code the exhaustive sweep
//! uses ([`crate::crashsweep::validate_image`]); every policy is still
//! *applied* in order so the fault plan's RNG stream — which advances
//! per application — stays byte-identical to the exhaustive run. The
//! merge then propagates each representative's verdict to every member
//! of its class, relabelling violations with the member's own step and
//! policy. The reported outcome is counter-for-counter and
//! violation-for-violation equal to the exhaustive sweep's; only the
//! explored/pruned split differs.
//!
//! Phase-B steps journal as [`crate::crashsweep::JournalEntry::Explore`]
//! entries, so an interrupted pruned run resumes exactly like an
//! exhaustive one (the config fingerprint covers the prune flag, so the
//! two modes never replay each other's journals).

use crate::crashsweep::{
    dynamic_cross_check, policies, policy_name, run_prefix, script, sweep_pools, validate_image,
    ExploreFrag, JournalEntry, StepOutcome, SweepApp, SweepConfig, SweepOutcome, SweepSession,
    Violation,
};
use deepmc_analysis::pool::{resolve_jobs_request, run_indexed};
use deepmc_obs as obs;
use nvm_runtime::hash::fnv1a_words;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Everything phase A learns about one crash step.
struct StepProbe {
    /// Equivalence-class key per policy (index-aligned with
    /// [`policies`]).
    class_keys: Vec<u64>,
    /// `clwb`s the fault plan dropped during this step's prefix run.
    flush_faults: u64,
}

/// What one phase-B pool job produced for a representative-owning step.
enum ExploreResult {
    /// Session cancelled before the step started.
    Skipped,
    /// Replayed from the journal.
    Resumed(Vec<ExploreFrag>),
    /// Freshly validated.
    Computed(Vec<ExploreFrag>),
}

/// Pruned counterpart of the exhaustive `sweep_app_session`: same
/// signature, same outcome (minus the explored/pruned split), a fraction
/// of the recoveries.
pub(crate) fn explore_app_session(
    cfg: &SweepConfig,
    app: SweepApp,
    session: &SweepSession<'_>,
) -> (SweepOutcome, u64, u64) {
    let _s = obs::span_lazy("sweep.explore", || vec![("app", app.name().to_string())]);
    let total_steps = script(cfg).len();
    let mut outcome = SweepOutcome::empty(app);
    if session.is_cancelled() {
        return (outcome, 0, total_steps as u64);
    }
    let jobs = resolve_jobs_request(cfg.jobs);
    let pools = sweep_pools();
    outcome.dynamic_reports = dynamic_cross_check(cfg, app, &pools);
    let pols = policies(cfg);

    // Phase A: probe every crash point — image hash + history digest per
    // (step, policy), no recovery. Steps are independent, so this fans
    // out too; probes land in step order regardless of worker count.
    let steps: Vec<usize> = (1..=total_steps).collect();
    let probes = run_indexed(jobs, steps, |_, crash_step| {
        if session.is_cancelled() {
            return None;
        }
        let _s = obs::span_lazy("explore.probe", || vec![("step", crash_step.to_string())]);
        let run = run_prefix(cfg, app, crash_step, &pools);
        let flush_faults = run.pool.stats().dropped_flushes;
        let digest = run.history.digest();
        // Cross-step collapsing is only sound for Memcached (see module
        // docs); the strict apps key on their step as well.
        let step_key = if app == SweepApp::Memcached { 0 } else { crash_step as u64 };
        let class_keys = pols
            .iter()
            .map(|p| {
                let img = p.apply(&run.pool);
                fnv1a_words(&[img.content_hash(), digest, (flush_faults > 0) as u64, step_key])
            })
            .collect();
        Some(StepProbe { class_keys, flush_faults })
    });
    if probes.iter().any(Option::is_none) {
        // Cancelled mid-probe: nothing was validated or journaled.
        return (outcome, 0, total_steps as u64);
    }
    let probes: Vec<StepProbe> = probes.into_iter().flatten().collect();

    // Elect representatives in canonical (step, policy) order so the
    // assignment — and therefore the journal and the output — is
    // identical for every worker count.
    let mut rep_of: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut reps_by_step: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, probe) in probes.iter().enumerate() {
        let crash_step = idx + 1;
        for (pi, &key) in probe.class_keys.iter().enumerate() {
            rep_of.entry(key).or_insert_with(|| {
                reps_by_step.entry(crash_step).or_default().push(pi);
                (crash_step, pi)
            });
        }
    }

    // Phase B: recover + validate only the representatives. Every policy
    // is still applied in order (the fault plan's RNG advances per
    // apply), so representative images are byte-identical to the
    // exhaustive sweep's.
    let rep_steps: Vec<(usize, Vec<usize>)> = reps_by_step.into_iter().collect();
    let results = run_indexed(jobs, rep_steps.clone(), |_, (crash_step, rep_pis)| {
        if session.is_cancelled() {
            return ExploreResult::Skipped;
        }
        if let Some(journal) = session.journal {
            if let Some(frags) = journal.lookup_explore(app.name(), crash_step as u64) {
                obs::counter("sweep.resumed_steps", 1);
                return ExploreResult::Resumed(frags.clone());
            }
        }
        let _s = obs::span_lazy("explore.validate", || vec![("step", crash_step.to_string())]);
        let run = run_prefix(cfg, app, crash_step, &pools);
        let flush_faults = run.pool.stats().dropped_flushes;
        let mut frags: Vec<ExploreFrag> = Vec::with_capacity(rep_pis.len());
        for (pi, policy) in pols.iter().enumerate() {
            let img = policy.apply(&run.pool);
            if rep_pis.contains(&pi) {
                let mut frag = StepOutcome::default();
                validate_image(
                    cfg,
                    app,
                    crash_step,
                    policy,
                    &img,
                    &run.history,
                    flush_faults,
                    &pools,
                    &mut frag,
                );
                frags.push(ExploreFrag { policy: pi, outcome: frag });
            }
        }
        if let Some(journal) = session.journal {
            let journaled = journal.append(
                app.name(),
                crash_step as u64,
                &JournalEntry::Explore(frags.clone()),
            );
            if session.trip_after.is_some_and(|t| journaled >= t) {
                session.cancel();
            }
        }
        ExploreResult::Computed(frags)
    });

    let mut resumed = 0u64;
    let mut frag_map: HashMap<(usize, usize), StepOutcome> = HashMap::new();
    for ((crash_step, _), result) in rep_steps.iter().zip(results) {
        let frags = match result {
            ExploreResult::Skipped => continue,
            ExploreResult::Resumed(f) => {
                resumed += 1;
                f
            }
            ExploreResult::Computed(f) => f,
        };
        for frag in frags {
            frag_map.insert((*crash_step, frag.policy), frag.outcome);
        }
    }

    // Merge: propagate each representative's verdict to every member of
    // its class, in canonical (step, policy) order — the same order the
    // exhaustive sweep emits. A step any of whose representatives is
    // missing (cancelled before validation) counts as skipped, exactly
    // like an unexecuted exhaustive step.
    let mut skipped = 0u64;
    let mut explored: HashSet<(usize, usize)> = HashSet::new();
    for (idx, probe) in probes.iter().enumerate() {
        let crash_step = idx + 1;
        let reps: Vec<(usize, usize)> = probe.class_keys.iter().map(|key| rep_of[key]).collect();
        if reps.iter().any(|rep| !frag_map.contains_key(rep)) {
            skipped += 1;
            continue;
        }
        outcome.flushes_dropped += probe.flush_faults;
        for (pi, rep) in reps.into_iter().enumerate() {
            let frag = &frag_map[&rep];
            explored.insert(rep);
            outcome.images_checked += frag.images_checked;
            outcome.records_dropped += frag.records_dropped;
            outcome.fault_attributed += frag.fault_attributed;
            outcome.bug_attributed += frag.bug_attributed;
            for v in &frag.violations {
                outcome.violations.push(Violation {
                    app: v.app.clone(),
                    crash_step: crash_step as u64,
                    policy: policy_name(&pols[pi]),
                    key: v.key,
                    detail: v.detail.clone(),
                });
            }
        }
    }
    outcome.states_explored = explored.len() as u64;
    outcome.states_pruned = outcome.images_checked - outcome.states_explored;
    obs::progress::add_pruned(outcome.states_pruned);
    obs::counter("sweep.images_checked", outcome.images_checked);
    obs::counter("sweep.records_dropped", outcome.records_dropped);
    obs::counter("sweep.fault_attributed", outcome.fault_attributed);
    obs::counter("sweep.bug_attributed", outcome.bug_attributed);
    obs::counter("sweep.violations", outcome.violations.len() as u64);
    obs::counter("sweep.explored", outcome.states_explored);
    obs::counter("sweep.pruned", outcome.states_pruned);
    (outcome, resumed, skipped)
}
