//! The crash-exploration engine.
//!
//! The paper validates each reported bug by building the crash state it
//! implies and running recovery on it (§6.2). Every crash sweep in this
//! crate — the three apps ([`crate::crashsweep`]) and the DS corpus
//! ([`crate::ds::sweep`]) — is this one engine driven by a
//! [`CrashTarget`]: a deterministic script whose every prefix
//! `1..=steps` is replayed against a freshly reset pool and crashed under
//! every policy, and whose crash images are rebooted, recovered and
//! validated by the target.
//!
//! Most crash states are duplicates: a store that persists eagerly
//! reaches the same durable state under several eviction policies, and
//! an epoch-batched store parks in one durable state for whole stretches
//! of the script. With `prune` set the engine explores WITCHER-style:
//! two crash points validate identically whenever their persisted images
//! are identical ([`nvm_runtime::CrashImage::content_hash`] — durable
//! bytes plus permanent poison; transient poison is excluded because
//! recovery reads through retries) *and* they agree on the target's
//! [`CrashTarget::class_context`] (everything besides the image the
//! verdict depends on).
//!
//! An exploration runs in up to two passes over the shared work-stealing
//! pool:
//!
//! 1. *Probe* (pruned only): replay every prefix, hash every crash image
//!    and bucket each `(step, policy)` point by its class key — no
//!    reboot, no recovery. Representatives are elected in canonical
//!    `(step, policy)` order, so the election (and with it the journal
//!    and the output) is the same for every worker count. Exhaustively
//!    this pass is skipped and every point is its own representative.
//! 2. *Validate*: replay each step that owns a representative once,
//!    apply every policy in order (the fault plan's RNG advances per
//!    application, so representative images are byte-identical to the
//!    exhaustive run's) and recover and validate the representatives'
//!    images as they are built — no image is held past its validation.
//!
//! The merge then hands every crash point its representative's verdict,
//! in canonical order; the caller relabels it with the point's own step
//! and policy. Counter for counter and violation for violation, the
//! pruned result equals the exhaustive one; only the explored/pruned
//! split differs.
//!
//! Validated steps journal as one [`StepEntry`] each through the
//! [`SweepSession`], so an interrupted exploration resumes from its last
//! completed step in either mode (the journal fingerprint covers the
//! prune flag, so the two modes never replay each other's entries).

use crate::crashsweep::SweepSession;
use deepmc_analysis::pool::run_indexed;
use deepmc_obs as obs;
use nvm_runtime::hash::fnv1a_words;
use nvm_runtime::{CrashImage, CrashPolicy, PooledPool};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A script prefix run against a freshly reset pool, ready to crash.
pub(crate) struct Replay<'a, H> {
    pub(crate) pool: PooledPool<'a>,
    /// What the target's validation compares the recovered state with.
    pub(crate) history: H,
}

/// What the engine explores: a deterministic script and its crash
/// policies, plus how to replay a prefix (on pools the target owns) and
/// how to judge a recovered crash image.
pub(crate) trait CrashTarget: Sync {
    /// Per-replay record the validation needs besides the pool.
    type History;
    /// The verdict on one recovered crash state.
    type Verdict: Clone + Send + Serialize + for<'de> Deserialize<'de>;

    /// The span each validated crash step is recorded under.
    const STEP_SPAN: &'static str;

    /// Names the target in spans and journal entries.
    fn name(&self) -> &str;
    /// Script length; every prefix `1..=steps()` is crashed.
    fn steps(&self) -> usize;
    /// The crash policies, in canonical order.
    fn policies(&self) -> &[CrashPolicy];
    /// Run the first `step` script ops against a freshly reset pool.
    fn replay(&self, step: usize) -> Replay<'_, Self::History>;
    /// Digest of everything besides the crash image that a verdict at
    /// `step` depends on: crash points agreeing on it and on the image
    /// hash are one class.
    fn class_context(&self, step: usize, run: &Replay<'_, Self::History>) -> u64;
    /// Reboot `img` (crashed under policy index `policy`), recover and
    /// validate.
    fn recover_validate(
        &self,
        run: &Replay<'_, Self::History>,
        step: usize,
        policy: usize,
        img: &CrashImage,
    ) -> Self::Verdict;
}

/// One crash step's result: the `clwb`s fault injection dropped during
/// its prefix run plus policy verdicts. Journaled with the step's
/// validated representatives; in an [`Exploration`] it carries every
/// policy, in order.
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct StepEntry<V> {
    pub(crate) flushes_dropped: u64,
    pub(crate) verdicts: Vec<PolicyVerdict<V>>,
}

/// The verdict on the crash image of one policy (an index into
/// [`CrashTarget::policies`]).
#[derive(Clone, Serialize, Deserialize)]
pub(crate) struct PolicyVerdict<V> {
    pub(crate) policy: usize,
    pub(crate) verdict: V,
}

/// The merged result of [`explore`].
pub(crate) struct Exploration<V> {
    /// Per crash step in order; `None` where cancellation left one of
    /// the step's representatives unvalidated.
    pub(crate) steps: Vec<Option<StepEntry<V>>>,
    /// Crash states actually recovered and validated.
    pub(crate) explored: u64,
    /// Steps replayed from the journal instead of re-executed.
    pub(crate) resumed: u64,
}

/// Explore every crash point of `target`, validating one representative
/// per equivalence class with `prune` and every point without.
pub(crate) fn explore<T: CrashTarget>(
    target: &T,
    prune: bool,
    jobs: usize,
    session: &SweepSession<'_>,
) -> Exploration<T::Verdict> {
    let steps = target.steps();
    let points = target.policies().len();
    let mut flushes: Vec<Option<u64>> = vec![None; steps];
    // The class key of every crash point, per step. Exhaustively each
    // point is a class of its own.
    let keys: Vec<Vec<u64>> = if prune {
        let probes = run_indexed(jobs, (1..=steps).collect(), |_, step| {
            if session.is_cancelled() {
                return None;
            }
            let _s = obs::span_lazy("explore.probe", || vec![("step", step.to_string())]);
            let run = target.replay(step);
            let context = target.class_context(step, &run);
            let keys = target
                .policies()
                .iter()
                .map(|p| fnv1a_words(&[p.apply(&run.pool).content_hash(), context]))
                .collect::<Vec<u64>>();
            Some((run.pool.stats().dropped_flushes, keys))
        });
        let Some(probes) = probes.into_iter().collect::<Option<Vec<_>>>() else {
            // Cancelled mid-probe: nothing was validated or journaled.
            return Exploration { steps: vec![None; steps], explored: 0, resumed: 0 };
        };
        let (dropped, keys): (Vec<u64>, _) = probes.into_iter().unzip();
        flushes = dropped.into_iter().map(Some).collect();
        keys
    } else {
        (0..steps).map(|i| (0..points).map(|pi| (i * points + pi) as u64).collect()).collect()
    };

    // Elect the first member of each class, in canonical order, as its
    // representative; `owned` lists the steps that own one.
    let mut rep_of: HashMap<u64, (usize, usize)> = HashMap::new();
    let mut owned: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut reps: Vec<Vec<(usize, usize)>> = Vec::with_capacity(steps);
    for (i, step_keys) in keys.iter().enumerate() {
        let step = i + 1;
        let mut mine = Vec::new();
        let mut step_reps = Vec::with_capacity(points);
        for (pi, &key) in step_keys.iter().enumerate() {
            step_reps.push(*rep_of.entry(key).or_insert_with(|| {
                mine.push(pi);
                (step, pi)
            }));
        }
        if !mine.is_empty() {
            owned.push((step, mine));
        }
        reps.push(step_reps);
    }

    let results = run_indexed(jobs, owned.clone(), |_, (step, mine)| {
        validate_step(target, session, step, &mine)
    });
    let mut resumed = 0u64;
    let mut verdicts: HashMap<(usize, usize), T::Verdict> = HashMap::new();
    for ((step, _), result) in owned.iter().zip(results) {
        let Some((entry, from_journal)) = result else { continue };
        resumed += from_journal as u64;
        flushes[step - 1] = Some(entry.flushes_dropped);
        verdicts.extend(entry.verdicts.into_iter().map(|v| ((*step, v.policy), v.verdict)));
    }

    // Merge: every crash point takes its representative's verdict. A step
    // any of whose representatives is missing counts as skipped.
    let mut explored: HashSet<(usize, usize)> = HashSet::new();
    let mut members = 0u64;
    let steps = reps
        .iter()
        .zip(flushes)
        .map(|(step_reps, flushes_dropped)| {
            let verdicts = step_reps
                .iter()
                .enumerate()
                .map(|(policy, rep)| {
                    Some(PolicyVerdict { policy, verdict: verdicts.get(rep)?.clone() })
                })
                .collect::<Option<Vec<_>>>()?;
            explored.extend(step_reps);
            members += step_reps.len() as u64;
            Some(StepEntry { flushes_dropped: flushes_dropped?, verdicts })
        })
        .collect();
    obs::progress::add_pruned(members - explored.len() as u64);
    Exploration { steps, explored: explored.len() as u64, resumed }
}

/// Validate the representatives `mine` of one crash step, or replay the
/// step from the journal. `None` if the session was cancelled first; the
/// flag says whether the entry came from the journal.
fn validate_step<T: CrashTarget>(
    target: &T,
    session: &SweepSession<'_>,
    step: usize,
    mine: &[usize],
) -> Option<(StepEntry<T::Verdict>, bool)> {
    if session.is_cancelled() {
        return None;
    }
    if let Some(entry) = session.lookup(target.name(), step) {
        obs::counter("sweep.resumed_steps", 1);
        return Some((entry, true));
    }
    let _s = obs::span_lazy(T::STEP_SPAN, || {
        vec![("app", target.name().to_string()), ("step", step.to_string())]
    });
    let run = target.replay(step);
    let mut entry = StepEntry {
        flushes_dropped: run.pool.stats().dropped_flushes,
        verdicts: Vec::with_capacity(mine.len()),
    };
    for (pi, policy) in target.policies().iter().enumerate() {
        let img = policy.apply(&run.pool);
        if mine.contains(&pi) {
            let verdict = target.recover_validate(&run, step, pi, &img);
            entry.verdicts.push(PolicyVerdict { policy: pi, verdict });
        }
    }
    session.record(target.name(), step, &entry);
    Some((entry, false))
}
