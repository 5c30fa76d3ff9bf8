//! Happens-before WAW/RAW detection between strands (paper §4.4).
//!
//! Strand persistency lets independent strands persist concurrently; a
//! write-after-write or read-after-write dependence between concurrent
//! strands is a model violation ("they should be placed in the same strand
//! and a barrier is used to enforce the order"). DeepMC customizes
//! ThreadSanitizer's happens-before race detection with shadow segments
//! restricted to persistent memory; this module is that detector.
//!
//! Ordering edges:
//! * strand creation: the child inherits the creator's clock (program order
//!   up to the `strand_begin`);
//! * `global_barrier` (a persist barrier issued outside any strand): all
//!   strands *ended* before the barrier happen-before strands created
//!   after it;
//! * lock release → acquire pairs on the same lock (FastTrack-style),
//!   mirroring the application's mutexes.
//!
//! Two accesses to overlapping cells race iff neither strand's clock knows
//! the other's epoch and at least one access is a write.
//!
//! The hot path ([`RaceDetector::on_access`]) is engineered for the
//! Figure-12 overhead measurements: per-strand state sits in an
//! append-only table read without locks or reference counts, the strand's
//! vector clock is read-locked in place (no per-access clone), the shadow
//! takes one lock per 64-byte line touched, lock clocks are sharded and
//! joined in place, and reports are deduplicated through a hash set beside
//! the ordered list.

use crate::clock::VectorClock;
use crate::shadow::{ShadowAccess, ShadowSegment};
use deepmc_obs::fxhash::{FxHashMap, FxHashSet};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Identifies one strand registered with the detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrandId(pub u32);

/// WAW or RAW.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaceKind {
    WriteAfterWrite,
    ReadAfterWrite,
}

impl std::fmt::Display for RaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceKind::WriteAfterWrite => write!(f, "WAW"),
            RaceKind::ReadAfterWrite => write!(f, "RAW"),
        }
    }
}

/// One detected inter-strand dependence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RaceReport {
    pub kind: RaceKind,
    /// Persistent address (cell-aligned) where the dependence was observed.
    pub addr: u64,
    pub first: StrandId,
    pub second: StrandId,
}

struct StrandInfo {
    clock: RwLock<VectorClock>,
    /// Epoch recorded into shadow cells for this strand's accesses (the
    /// strand's own clock component, cached for lock-free reads).
    epoch: AtomicU32,
    ended: AtomicBool,
}

/// Append-only strand table. Segment `k` holds strands `2^k - 1 ..
/// 2^(k+1) - 1` and is allocated when its first strand registers, so a
/// lookup is two `OnceLock` reads: no lock, no reference count. (A
/// `RwLock<Vec<_>>` read guard instead cost the two-client tracked apps
/// about 13% of their throughput on a 2-vCPU VM: its shared reader count
/// moves between the clients' cores on every access.)
struct StrandTable {
    segments: [OnceLock<Box<[OnceLock<StrandInfo>]>>; 31],
    /// Strands registered, written only under `RaceDetector::base` (so
    /// the writer reads it relaxed). Its Release store in `push` pairs with
    /// the Acquire load in `iter`: every strand counted is in its slot.
    len: AtomicUsize,
}

impl StrandTable {
    fn new() -> StrandTable {
        StrandTable { segments: std::array::from_fn(|_| OnceLock::new()), len: AtomicUsize::new(0) }
    }

    fn slot(idx: usize) -> (usize, usize) {
        let n = idx + 1;
        let segment = (usize::BITS - 1 - n.leading_zeros()) as usize;
        (segment, n - (1 << segment))
    }

    fn get(&self, idx: usize) -> &StrandInfo {
        let (segment, at) = Self::slot(idx);
        self.segments[segment].get().and_then(|s| s[at].get()).expect("registered strand")
    }

    /// Register strand `len()`.
    fn push(&self, info: StrandInfo) {
        let idx = self.len.load(Ordering::Relaxed);
        let (segment, at) = Self::slot(idx);
        let segment = self.segments[segment]
            .get_or_init(|| (0..1 << segment).map(|_| OnceLock::new()).collect());
        assert!(segment[at].set(info).is_ok(), "strand slot filled once");
        self.len.store(idx + 1, Ordering::Release);
    }

    fn iter(&self) -> impl Iterator<Item = &StrandInfo> {
        (0..self.len.load(Ordering::Acquire)).map(|i| self.get(i))
    }
}

const LOCK_SHARDS: usize = 32;

/// Reports in discovery order, with a set for O(1) deduplication.
#[derive(Default)]
struct Reports {
    list: Vec<RaceReport>,
    seen: FxHashSet<RaceReport>,
}

/// The happens-before WAW/RAW detector.
pub struct RaceDetector {
    shadow: ShadowSegment,
    strands: StrandTable,
    /// Clock inherited by strands created after the last barrier; its lock
    /// also serializes strand registration.
    base: Mutex<VectorClock>,
    /// Release clocks per lock, sharded by lock id.
    locks: Vec<Mutex<FxHashMap<u64, VectorClock>>>,
    reports: Mutex<Reports>,
}

impl Default for RaceDetector {
    fn default() -> Self {
        RaceDetector::new(16)
    }
}

impl RaceDetector {
    pub fn new(shadow_shards: usize) -> RaceDetector {
        RaceDetector {
            shadow: ShadowSegment::new(shadow_shards),
            strands: StrandTable::new(),
            base: Mutex::new(VectorClock::new()),
            locks: (0..LOCK_SHARDS).map(|_| Mutex::default()).collect(),
            reports: Mutex::default(),
        }
    }

    fn strand(&self, id: StrandId) -> &StrandInfo {
        self.strands.get(id.0 as usize)
    }

    fn lock_shard(&self, lock: u64) -> &Mutex<FxHashMap<u64, VectorClock>> {
        &self.locks[(lock % LOCK_SHARDS as u64) as usize]
    }

    /// Register a new strand. It inherits the post-barrier base clock and,
    /// when `parent` is given, the parent's current clock (program order).
    pub fn strand_begin(&self, parent: Option<StrandId>) -> StrandId {
        let base = self.base.lock();
        let idx = self.strands.len.load(Ordering::Relaxed);
        assert!(idx + 1 < ShadowAccess::MAX_STRANDS as usize, "too many strands");
        let mut clock = base.clone();
        if let Some(p) = parent {
            clock.join(&self.strand(p).clock.read());
        }
        let epoch = clock.tick(idx).max(1);
        clock.set(idx, epoch);
        self.strands.push(StrandInfo {
            clock: RwLock::new(clock),
            epoch: AtomicU32::new(epoch),
            ended: AtomicBool::new(false),
        });
        StrandId(idx as u32)
    }

    /// Mark a strand finished. Its effects become orderable by the next
    /// global barrier.
    pub fn strand_end(&self, strand: StrandId) {
        self.strand(strand).ended.store(true, Ordering::Release);
    }

    /// A persist barrier outside any strand: all *ended* strands
    /// happen-before everything that follows.
    pub fn global_barrier(&self) {
        let mut base = self.base.lock();
        for s in self.strands.iter().filter(|s| s.ended.load(Ordering::Acquire)) {
            base.join(&s.clock.read());
        }
    }

    /// Lock synchronization, FastTrack-style: `release` publishes the
    /// strand's clock into the lock; `acquire` joins the lock's clock into
    /// the strand. Accesses ordered by a release→acquire pair on the same
    /// lock do not race.
    ///
    /// Both take the lock's shard before the strand's clock.
    pub fn lock_acquire(&self, strand: StrandId, lock: u64) {
        let shard = self.lock_shard(lock).lock();
        if let Some(lc) = shard.get(&lock) {
            self.strand(strand).clock.write().join(lc);
        }
    }

    /// See [`RaceDetector::lock_acquire`].
    pub fn lock_release(&self, strand: StrandId, lock: u64) {
        let info = self.strand(strand);
        let idx = strand.0 as usize;
        // Publish the strand's history, then advance its epoch so accesses
        // after the release are NOT ordered by this pair.
        {
            let mut shard = self.lock_shard(lock).lock();
            let clock = info.clock.read();
            shard.entry(lock).and_modify(|lc| lc.join(&clock)).or_insert_with(|| clock.clone());
        }
        let mut clock = info.clock.write();
        let e = clock.tick(idx);
        info.epoch.store(e, Ordering::Release);
    }

    /// Record an access by `strand` to persistent bytes `[addr, addr+len)`,
    /// reporting WAW/RAW dependences with concurrent strands. Returns the
    /// *newly* discovered dependences so callers can attribute them to the
    /// source location of this access.
    pub fn on_access(
        &self,
        strand: StrandId,
        addr: u64,
        len: u64,
        is_write: bool,
    ) -> Vec<RaceReport> {
        self.on_access_counted(strand, addr, len, is_write).0
    }

    /// [`RaceDetector::on_access`], also returning how many shadow cells
    /// the access touched for the first time.
    pub fn on_access_counted(
        &self,
        strand: StrandId,
        addr: u64,
        len: u64,
        is_write: bool,
    ) -> (Vec<RaceReport>, usize) {
        let info = self.strand(strand);
        let epoch = info.epoch.load(Ordering::Acquire);
        let clock = info.clock.read();
        let mut found: Vec<RaceReport> = Vec::new();
        let new_cells = self.shadow.access(
            addr,
            len,
            ShadowAccess { strand: strand.0, epoch, is_write },
            |cell_addr, cell| {
                for a in cell.accesses() {
                    if a.strand == strand.0 {
                        continue; // program order within a strand
                    }
                    if !is_write && !a.is_write {
                        continue; // read–read never conflicts
                    }
                    if clock.knows(a.strand as usize, a.epoch) {
                        continue; // ordered by happens-before
                    }
                    let kind = if is_write && a.is_write {
                        RaceKind::WriteAfterWrite
                    } else {
                        RaceKind::ReadAfterWrite
                    };
                    found.push(RaceReport {
                        kind,
                        addr: cell_addr,
                        first: StrandId(a.strand),
                        second: strand,
                    });
                }
            },
        );
        drop(clock);
        if !found.is_empty() {
            let mut reports = self.reports.lock();
            found.retain(|r| reports.seen.insert(r.clone()));
            reports.list.extend_from_slice(&found);
        }
        (found, new_cells)
    }

    /// All dependences reported so far, in discovery order.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.reports.lock().list.clone()
    }

    /// Number of shadowed cells (scales with persistent data touched).
    /// Costs one lock per shadow shard.
    pub fn shadow_cells(&self) -> usize {
        self.shadow.cells()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_waw_detected() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::WriteAfterWrite);
    }

    #[test]
    fn concurrent_raw_detected() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 64, 8, true);
        d.on_access(s2, 64, 8, false);
        let reports = d.reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind, RaceKind::ReadAfterWrite);
    }

    #[test]
    fn read_read_is_no_conflict() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, false);
        d.on_access(s2, 0, 8, false);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn disjoint_addresses_no_conflict() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 8, 8, true);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn barrier_orders_ended_strands() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.strand_end(s1);
        d.global_barrier();
        let s2 = d.strand_begin(None);
        d.on_access(s2, 0, 8, true);
        assert!(d.reports().is_empty(), "barrier creates happens-before");
    }

    #[test]
    fn barrier_does_not_order_running_strands() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        // s1 never ends before the barrier.
        d.global_barrier();
        let s2 = d.strand_begin(None);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn parent_child_are_ordered() {
        let d = RaceDetector::default();
        let parent = d.strand_begin(None);
        d.on_access(parent, 0, 8, true);
        let child = d.strand_begin(Some(parent));
        d.on_access(child, 0, 8, true);
        assert!(d.reports().is_empty(), "child inherits parent's clock");
    }

    #[test]
    fn same_strand_never_races_with_itself() {
        let d = RaceDetector::default();
        let s = d.strand_begin(None);
        d.on_access(s, 0, 8, true);
        d.on_access(s, 0, 8, true);
        d.on_access(s, 0, 8, false);
        assert!(d.reports().is_empty());
    }

    #[test]
    fn duplicate_reports_collapse() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.on_access(s1, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn lock_release_acquire_orders_accesses() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 9);
        d.on_access(s1, 0, 8, true);
        d.lock_release(s1, 9);
        d.lock_acquire(s2, 9);
        d.on_access(s2, 0, 8, true);
        d.lock_release(s2, 9);
        assert!(d.reports().is_empty(), "lock-ordered writes do not race");
    }

    #[test]
    fn different_locks_do_not_order() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 1);
        d.on_access(s1, 0, 8, true);
        d.lock_release(s1, 1);
        d.lock_acquire(s2, 2);
        d.on_access(s2, 0, 8, true);
        d.lock_release(s2, 2);
        assert_eq!(d.reports().len(), 1);
    }

    #[test]
    fn access_after_release_not_covered_by_earlier_acquire() {
        let d = RaceDetector::default();
        let s1 = d.strand_begin(None);
        let s2 = d.strand_begin(None);
        d.lock_acquire(s1, 9);
        d.lock_release(s1, 9);
        d.on_access(s1, 0, 8, true); // AFTER the release: unprotected
        d.lock_acquire(s2, 9);
        d.on_access(s2, 0, 8, true);
        assert_eq!(d.reports().len(), 1, "post-release access still races");
    }

    #[test]
    fn multithreaded_detection() {
        let d = std::sync::Arc::new(RaceDetector::new(16));
        let ids: Vec<StrandId> = (0..8).map(|_| d.strand_begin(None)).collect();
        crossbeam::scope(|scope| {
            for (i, &sid) in ids.iter().enumerate() {
                let d = d.clone();
                scope.spawn(move |_| {
                    // Every strand writes its own region plus one shared
                    // cell.
                    for k in 0..32u64 {
                        d.on_access(sid, 4096 * (i as u64 + 1) + k * 8, 8, true);
                    }
                    d.on_access(sid, 0, 8, true);
                });
            }
        })
        .unwrap();
        assert!(!d.reports().is_empty(), "shared-cell WAW must be caught under real concurrency");
        assert!(d.reports().iter().all(|r| r.addr == 0), "private regions must not be reported");
    }
}
