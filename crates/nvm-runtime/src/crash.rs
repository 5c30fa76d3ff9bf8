//! Crash-state simulation and recovery validation.
//!
//! A crash freezes the durable image plus an *arbitrary subset* of
//! not-yet-durable cache lines (eviction order is unpredictable). The
//! policies here drive [`crate::PmemPool::crash_image`]:
//!
//! * [`CrashPolicy::Pessimistic`] — nothing un-fenced survives (adversarial
//!   for durability bugs: lost-update consequences show).
//! * [`CrashPolicy::Optimistic`] — everything survives (adversarial for
//!   ordering bugs: later writes persist while earlier ones were *assumed*).
//! * [`CrashPolicy::PendingOnly`] — issued `clwb`s complete, dirty lines
//!   vanish (models a crash right after the flush queue drains).
//! * [`CrashPolicy::Random`] — each line flips a seeded coin; used by the
//!   crash-consistency fuzz example and proptests.
//!
//! This is the stand-in for the paper's manual bug validation ("we manually
//! reproduced and validated all these 24 new bugs", §5.1): run the buggy
//! program, crash it under a policy, and check the recovered state for
//! consistency.

use crate::hash::Fnv;
use crate::pool::{Line, PAddr, PmemPool, PoolConfig, CACHE_LINE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How not-yet-durable lines behave at the crash point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPolicy {
    Pessimistic,
    Optimistic,
    PendingOnly,
    /// Seeded per-line coin flip.
    Random(u64),
}

impl CrashPolicy {
    /// Take a crash image of `pool` under this policy.
    pub fn apply(self, pool: &PmemPool) -> CrashImage {
        match self {
            CrashPolicy::Pessimistic => pool.crash_image(&mut |_, _| false),
            CrashPolicy::Optimistic => pool.crash_image(&mut |_, _| true),
            CrashPolicy::PendingOnly => pool.crash_image(&mut |_, pending| pending),
            CrashPolicy::Random(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                pool.crash_image(&mut |_, _| rng.gen_bool(0.5))
            }
        }
    }
}

/// A frozen post-crash durable image, readable like a pool. Carries the
/// set of cache lines the crash left poisoned (media errors): rebooting
/// transfers them to the new pool, where reads fail until scrubbed.
///
/// The image is sparse: only its non-zero cache lines are stored, so two
/// images hold equal bytes exactly when they compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashImage {
    /// Image size in bytes.
    size: u64,
    /// (global line index, bytes) of every non-zero line, ascending.
    lines: Vec<(u64, Line)>,
    /// (global line index, transient?) pairs.
    poisoned: Vec<(u64, bool)>,
}

impl CrashImage {
    /// `lines` must be ascending by line index and hold no all-zero line.
    pub(crate) fn from_lines(
        size: u64,
        lines: Vec<(u64, Line)>,
        poisoned: Vec<(u64, bool)>,
    ) -> CrashImage {
        debug_assert!(lines.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(lines.iter().all(|(_, l)| *l != [0; CACHE_LINE as usize]));
        CrashImage { size, lines, poisoned }
    }

    /// The non-zero lines, ascending by line index.
    pub(crate) fn lines(&self) -> &[(u64, Line)] {
        &self.lines
    }

    /// Lines the crash poisoned.
    pub fn poisoned(&self) -> &[(u64, bool)] {
        &self.poisoned
    }

    /// Content hash of the *durable* identity of this crash state: the
    /// image bytes plus the set of permanently poisoned lines. Two images
    /// with equal hashes recover identically, so crash-state explorers may
    /// collapse them into one equivalence class. Only the non-zero lines
    /// are hashed (with their indices), so the cost is O(lines in the
    /// image), not O(size).
    ///
    /// Transient poison is deliberately excluded: it clears after a single
    /// failed read, and every recovery path reads through
    /// [`crate::PmemPool::read_reliable`] with at least one retry, so it
    /// can never alter what recovery adopts or drops. Hashing it would
    /// split logically identical crash states into distinct classes.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(self.size);
        for (line, bytes) in &self.lines {
            h.word(*line);
            for w in bytes.chunks_exact(8) {
                h.word(u64::from_le_bytes(w.try_into().expect("8-byte word")));
            }
        }
        let mut durable_poison: Vec<u64> = self
            .poisoned
            .iter()
            .filter(|&&(_, transient)| !transient)
            .map(|&(line, _)| line)
            .collect();
        durable_poison.sort_unstable();
        h.word(0x9E37_79B9_7F4A_7C15 ^ durable_poison.len() as u64);
        for line in durable_poison {
            h.word(line);
        }
        h.finish()
    }

    /// Image size in bytes.
    pub fn len(&self) -> usize {
        self.size as usize
    }

    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        let end = addr.0 + buf.len() as u64;
        assert!(end <= self.size, "crash image read past its {} bytes", self.size);
        buf.fill(0);
        let first = self.lines.partition_point(|&(line, _)| (line + 1) * CACHE_LINE <= addr.0);
        for (line, bytes) in &self.lines[first..] {
            let lo = line * CACHE_LINE;
            if lo >= end {
                break;
            }
            let (from, to) = (lo.max(addr.0), (lo + CACHE_LINE).min(end));
            buf[(from - addr.0) as usize..(to - addr.0) as usize]
                .copy_from_slice(&bytes[(from - lo) as usize..(to - lo) as usize]);
        }
    }

    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Boot a fresh pool whose durable *and* visible images equal this
    /// crash image — i.e. restart the machine from the crashed DIMM.
    pub fn reboot(&self, shards: usize) -> PmemPool {
        let mut pool = PmemPool::new(PoolConfig { size: self.size, shards, ..Default::default() });
        pool.load_image(self);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 14, shards: 2, ..Default::default() })
    }

    #[test]
    fn policies_differ_on_unfenced_data() {
        let p = pool();
        p.write_u64(PAddr(0), 11); // dirty
        p.write_u64(PAddr(64), 22);
        p.flush(PAddr(64), 8); // pending
        assert_eq!(CrashPolicy::Pessimistic.apply(&p).read_u64(PAddr(0)), 0);
        assert_eq!(CrashPolicy::Pessimistic.apply(&p).read_u64(PAddr(64)), 0);
        assert_eq!(CrashPolicy::Optimistic.apply(&p).read_u64(PAddr(0)), 11);
        assert_eq!(CrashPolicy::Optimistic.apply(&p).read_u64(PAddr(64)), 22);
        let pending_only = CrashPolicy::PendingOnly.apply(&p);
        assert_eq!(pending_only.read_u64(PAddr(0)), 0);
        assert_eq!(pending_only.read_u64(PAddr(64)), 22);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let p = pool();
        for i in 0..32 {
            p.write_u64(PAddr(i * 64), i + 1);
        }
        let a = CrashPolicy::Random(7).apply(&p);
        let b = CrashPolicy::Random(7).apply(&p);
        assert_eq!(a, b);
    }

    #[test]
    fn content_hash_tracks_bytes_and_permanent_poison_only() {
        let p = pool();
        p.write_u64(PAddr(64), 42);
        p.persist(PAddr(64), 8);
        let base = CrashPolicy::Pessimistic.apply(&p);
        let h = base.content_hash();
        assert_eq!(h, base.content_hash(), "hash is a pure function of the image");

        // Different bytes -> different class.
        p.write_u64(PAddr(64), 43);
        p.persist(PAddr(64), 8);
        assert_ne!(CrashPolicy::Pessimistic.apply(&p).content_hash(), h);

        // Transient poison is scratch state: same class as the clean image.
        let with_poison = |poisoned| CrashImage { poisoned, ..base.clone() };
        let transient = with_poison(vec![(3, true), (9, true)]);
        assert_eq!(transient.content_hash(), h, "transient poison must not split classes");

        // Permanent poison changes what recovery can read -> new class.
        let permanent = with_poison(vec![(3, false)]);
        assert_ne!(permanent.content_hash(), h);

        // Permanent poison order is irrelevant.
        let a = with_poison(vec![(3, false), (9, false)]);
        let b = with_poison(vec![(9, false), (3, false)]);
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn zero_stores_leave_the_image_and_hash_unchanged() {
        let p = pool();
        let empty = CrashPolicy::Optimistic.apply(&p);
        p.write(PAddr(64), &[0; 16]);
        p.persist(PAddr(64), 16);
        let zeroed = CrashPolicy::Optimistic.apply(&p);
        assert_eq!(zeroed, empty, "a touched all-zero line is not stored");
        assert_eq!(zeroed.content_hash(), empty.content_hash());
    }

    #[test]
    fn reads_straddle_stored_and_zero_lines() {
        let p = pool();
        p.write(PAddr(60), &[7; 8]); // lines 0 and 1
        p.write_u64(PAddr(200), 9); // line 3
        let img = CrashPolicy::Optimistic.apply(&p);
        let mut buf = [1u8; 256];
        img.read(PAddr(0), &mut buf);
        let mut want = [0u8; 256];
        want[60..68].fill(7);
        want[200..208].copy_from_slice(&9u64.to_le_bytes());
        assert_eq!(buf, want);
        assert_eq!(img.read_u64(PAddr(64 * 200)), 0, "untouched lines read as zero");
    }

    #[test]
    fn reboot_restores_durable_state() {
        let p = pool();
        p.write_u64(PAddr(128), 99);
        p.persist(PAddr(128), 8);
        let img = CrashPolicy::Pessimistic.apply(&p);
        let rebooted = img.reboot(2);
        assert_eq!(rebooted.read_u64(PAddr(128)), 99);
        assert_eq!(rebooted.non_durable_lines(), 0);
    }
}

/// Systematic crash exploration (in the spirit of Yat's exhaustive testing,
/// which the paper compares against): run a workload repeatedly, crash it
/// at every step under several eviction policies, and check a user
/// invariant on every recovered image.
///
/// The driver returns `true` when it executed to completion (no more crash
/// points); the invariant receives the crash image and the step at which
/// the crash hit.
pub struct CrashMatrix {
    /// Random eviction seeds to try per crash point (in addition to the
    /// deterministic pessimistic/optimistic/pending policies).
    pub random_seeds: u64,
    /// Upper bound on crash points to explore.
    pub max_steps: u64,
}

impl Default for CrashMatrix {
    fn default() -> Self {
        CrashMatrix { random_seeds: 8, max_steps: 256 }
    }
}

/// Result of a matrix sweep.
#[derive(Debug, Clone, Default)]
pub struct CrashMatrixReport {
    pub crash_points: u64,
    pub images_checked: u64,
    /// (step, policy description) of every invariant violation.
    pub violations: Vec<(u64, String)>,
}

impl CrashMatrix {
    /// `run(step)` must execute the workload on a fresh pool, crashing
    /// before `step`, and return `None` if the workload finished before
    /// reaching `step` (ending the sweep) or `Some(pool)` at a crash.
    /// `invariant(image)` returns `Err(reason)` on an inconsistent state.
    pub fn sweep(
        &self,
        mut run: impl FnMut(u64) -> Option<PmemPool>,
        mut invariant: impl FnMut(&CrashImage) -> Result<(), String>,
    ) -> CrashMatrixReport {
        let mut report = CrashMatrixReport::default();
        for step in 0..self.max_steps {
            let Some(pool) = run(step) else { break };
            report.crash_points += 1;
            let mut policies: Vec<(String, CrashPolicy)> = vec![
                ("pessimistic".into(), CrashPolicy::Pessimistic),
                ("optimistic".into(), CrashPolicy::Optimistic),
                ("pending-only".into(), CrashPolicy::PendingOnly),
            ];
            for seed in 0..self.random_seeds {
                policies.push((format!("random({seed})"), CrashPolicy::Random(seed)));
            }
            for (name, policy) in policies {
                let image = policy.apply(&pool);
                report.images_checked += 1;
                if let Err(reason) = invariant(&image) {
                    report.violations.push((step, format!("{name}: {reason}")));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod matrix_tests {
    use super::*;
    use crate::heap::PmemHeap;
    use crate::pool::PoolConfig;
    use crate::tx::TxManager;

    /// A transactional two-field update is atomic under the full matrix.
    #[test]
    fn matrix_validates_transactional_atomicity() {
        let run = |step: u64| -> Option<PmemPool> {
            let pool = PmemPool::new(PoolConfig { size: 1 << 16, shards: 2, ..Default::default() });
            let heap = PmemHeap::open(&pool);
            let log = heap.alloc(4096);
            let obj = heap.alloc(64);
            let txm = TxManager::new(&pool, log, 4096);
            // The "workload", with a crash check between every operation.
            let mut op = 0u64;
            let mut crashed = false;
            let mut guard = |crashed: &mut bool| {
                if op == step {
                    *crashed = true;
                }
                op += 1;
                !*crashed
            };
            'work: {
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 5);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(8), 5);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj, 16);
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.begin();
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.add(obj, 16).unwrap();
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 3);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(8), 7);
                if !guard(&mut crashed) {
                    break 'work;
                }
                txm.commit();
            }
            if crashed {
                Some(pool)
            } else {
                None
            }
        };
        let obj_base = 64 + 4096;
        let invariant = |img: &CrashImage| -> Result<(), String> {
            let log_base = crate::pool::PAddr(64);
            let a = img.read_u64(crate::pool::PAddr(obj_base));
            let b = img.read_u64(crate::pool::PAddr(obj_base + 8));
            // Recovery first (roll back active log), THEN check.
            let pool = img.reboot(2);
            let txm = TxManager::attach(&pool, log_base, 4096);
            txm.recover();
            let a = if txm.depth() == 0 { pool.read_u64(crate::pool::PAddr(obj_base)) } else { a };
            let b =
                if txm.depth() == 0 { pool.read_u64(crate::pool::PAddr(obj_base + 8)) } else { b };
            let valid = [(0, 0), (5, 0), (0, 5), (5, 5), (3, 7)];
            if valid.contains(&(a, b)) {
                Ok(())
            } else {
                Err(format!("torn state a={a} b={b}"))
            }
        };
        let report = CrashMatrix::default().sweep(run, invariant);
        assert!(report.crash_points >= 7, "{report:?}");
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    /// A non-transactional two-field update is caught as torn by the
    /// matrix (the fields are on different cache lines).
    #[test]
    fn matrix_catches_non_atomic_updates() {
        let run = |step: u64| -> Option<PmemPool> {
            let pool = PmemPool::new(PoolConfig { size: 1 << 16, shards: 2, ..Default::default() });
            let heap = PmemHeap::open(&pool);
            let obj = heap.alloc(128); // two cache lines
            let mut op = 0u64;
            let mut crashed = false;
            let mut guard = |crashed: &mut bool| {
                if op == step {
                    *crashed = true;
                }
                op += 1;
                !*crashed
            };
            'work: {
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj, 1);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj, 8);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.write_u64(obj.offset(64), 1);
                if !guard(&mut crashed) {
                    break 'work;
                }
                pool.persist(obj.offset(64), 8);
            }
            if crashed {
                Some(pool)
            } else {
                None
            }
        };
        let obj_base = 64;
        let invariant = |img: &CrashImage| -> Result<(), String> {
            let a = img.read_u64(crate::pool::PAddr(obj_base));
            let b = img.read_u64(crate::pool::PAddr(obj_base + 64));
            // Pretend the application requires a == b always.
            if a == b {
                Ok(())
            } else {
                Err(format!("a={a} b={b}"))
            }
        };
        let report = CrashMatrix::default().sweep(run, invariant);
        assert!(!report.violations.is_empty(), "the torn intermediate state must be observable");
    }
}
