//! The simulated persistent memory pool.
//!
//! Two byte images model the x86-64 + NVM stack:
//!
//! * **visible** — what loads observe: every store lands here immediately
//!   (the cache hierarchy is coherent).
//! * **durable** — what survives a crash: bytes reach it only through a
//!   cache-line write-back.
//!
//! Per 64-byte cache line the pool tracks a line state:
//!
//! * `Untouched` — never stored to since the pool booted or was reset:
//!   zero in both images.
//! * `Clean` — visible == durable for this line.
//! * `Dirty` — stored to, no write-back issued. The cache may evict it *at
//!   any time* ("the order in which stored values are made persistent
//!   depends on the order in which they are evicted", paper §2.1), so at a
//!   crash a dirty line may or may not be durable.
//! * `FlushPending` — `clwb` issued but not yet guaranteed complete; a
//!   `fence` (sfence) makes all pending lines durable.
//!
//! The pool is sharded: each shard owns a contiguous range guarded by a
//! `parking_lot` mutex, so concurrent clients (the Figure-12 workloads run
//! multiple client threads) scale. A `fence` walks the shards in index
//! order but locks only those whose "has pending lines" flag is set; each
//! flag sits on its own cache line, so the clients' flushes and fences do
//! not contend on it.
//!
//! Each shard also lists the lines that ever left `Untouched`. Crash
//! images, [`PmemPool::reset`] and reboots ([`PmemPool::load_image`]) visit
//! only those, so the crash path costs what the program touched rather
//! than the pool size, and a [`PoolFreeList`] lets a sweep reuse pools
//! instead of allocating and zeroing two per crash state. A shard
//! allocates its images and line states on its first store or image load;
//! until then it reads as zeros, so building a pool costs O(shards), not
//! O(size).
//!
//! An optional latency model charges a busy-wait per write-back and fence,
//! so performance bugs (redundant flushes, §3.3: "an additional writeback
//! can introduce extra latency by 2–4×") have measurable cost.

use crate::crash::CrashImage;
use crate::fault::{FaultConfig, FaultPlan, FaultStats, PmemError};
use deepmc_obs as obs;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Cache-line size in bytes.
pub const CACHE_LINE: u64 = 64;

/// The bytes of one cache line.
pub(crate) type Line = [u8; CACHE_LINE as usize];

/// A persistent-memory address (byte offset within the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PAddr(pub u64);

impl PAddr {
    pub const NULL: PAddr = PAddr(u64::MAX);

    pub fn is_null(self) -> bool {
        self == PAddr::NULL
    }

    pub fn offset(self, delta: u64) -> PAddr {
        PAddr(self.0 + delta)
    }

    fn line(self) -> u64 {
        self.0 / CACHE_LINE
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    Untouched,
    Clean,
    Dirty,
    FlushPending,
}

struct Shard {
    /// First byte offset covered by this shard.
    base: u64,
    /// The shard's images and line states: empty until the first store or
    /// image load, and an empty shard reads as zeros in both images.
    visible: Vec<u8>,
    durable: Vec<u8>,
    /// State per cache line of this shard.
    lines: Vec<LineState>,
    /// Local indices of lines in `FlushPending` state, so a fence drains
    /// in O(pending) instead of scanning the whole shard.
    pending: Vec<u32>,
    /// Local indices of the lines that left `Untouched`, in first-touch
    /// order (sorted on demand by [`PmemPool::crash_image`]).
    touched: Vec<u32>,
}

impl Shard {
    fn new(base: u64) -> Shard {
        Shard {
            base,
            visible: Vec::new(),
            durable: Vec::new(),
            lines: Vec::new(),
            pending: Vec::new(),
            touched: Vec::new(),
        }
    }

    fn is_allocated(&self) -> bool {
        !self.lines.is_empty()
    }

    /// Allocate the images and line states of a `bytes`-byte shard.
    fn allocate(&mut self, bytes: u64) {
        if !self.is_allocated() {
            self.visible = vec![0; bytes as usize];
            self.durable = vec![0; bytes as usize];
            self.lines = vec![LineState::Untouched; (bytes / CACHE_LINE) as usize];
        }
    }

    /// The state of local line `idx`.
    fn line_state(&self, idx: usize) -> LineState {
        self.lines.get(idx).copied().unwrap_or(LineState::Untouched)
    }

    fn mark_dirty(&mut self, first_line: u64, last_line: u64) {
        let base_line = self.base / CACHE_LINE;
        for l in first_line..=last_line {
            let idx = (l - base_line) as usize;
            if self.lines[idx] == LineState::Untouched {
                self.touched.push(idx as u32);
            }
            self.lines[idx] = LineState::Dirty;
        }
    }

    /// Set local line `idx` to `bytes` in both images, `Clean`.
    fn load_line(&mut self, idx: usize, bytes: &Line) {
        if self.lines[idx] == LineState::Untouched {
            self.touched.push(idx as u32);
        }
        let a = idx * CACHE_LINE as usize;
        let b = a + CACHE_LINE as usize;
        self.visible[a..b].copy_from_slice(bytes);
        self.durable[a..b].copy_from_slice(bytes);
        self.lines[idx] = LineState::Clean;
    }

    /// Return every touched line to `Untouched`: O(lines touched).
    fn clear(&mut self) {
        for &idx in &self.touched {
            let a = idx as usize * CACHE_LINE as usize;
            let b = a + CACHE_LINE as usize;
            self.visible[a..b].fill(0);
            self.durable[a..b].fill(0);
            self.lines[idx as usize] = LineState::Untouched;
        }
        self.touched.clear();
        self.pending.clear();
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Pool size in bytes (rounded up to shards × lines).
    pub size: u64,
    /// Number of lock shards.
    pub shards: usize,
    /// Busy-wait charged per line actually written back at a fence
    /// (models NVM write latency). Zero disables the latency model.
    pub writeback_cost: Duration,
    /// Busy-wait charged per fence (drain latency).
    pub fence_cost: Duration,
    /// Busy-wait charged per cache line a `clwb` touches (instruction and
    /// write-queue occupancy — this is what makes redundant flushes cost
    /// real time even when the line is already clean).
    pub flush_cost: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 16 << 20,
            shards: 16,
            writeback_cost: Duration::ZERO,
            fence_cost: Duration::ZERO,
            flush_cost: Duration::ZERO,
        }
    }
}

/// Operation counters (all monotonic).
#[derive(Debug, Default)]
pub struct PoolStats {
    pub stores: AtomicU64,
    pub bytes_stored: AtomicU64,
    pub loads: AtomicU64,
    pub flushes: AtomicU64,
    /// `clwb` issued on lines that were already clean — wasted work that
    /// the performance rules hunt for.
    pub clean_flushes: AtomicU64,
    pub fences: AtomicU64,
    /// Lines actually copied to the durable image.
    pub lines_written_back: AtomicU64,
    /// `clwb`s that retired from the program's point of view but were
    /// dropped by fault injection, leaving the line dirty. Without this
    /// counter a dropped flush is indistinguishable from a flush that was
    /// never issued.
    pub dropped_flushes: AtomicU64,
    /// Word-sized compare-and-swap attempts ([`PmemPool::cas_u64`]).
    pub cas_ops: AtomicU64,
    /// CAS attempts that lost (observed value != expected).
    pub cas_failures: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub stores: u64,
    pub bytes_stored: u64,
    pub loads: u64,
    pub flushes: u64,
    pub clean_flushes: u64,
    pub fences: u64,
    pub lines_written_back: u64,
    pub dropped_flushes: u64,
    pub cas_ops: u64,
    pub cas_failures: u64,
}

/// A shard's "has pending lines" flag, alone on its cache line.
#[repr(align(64))]
#[derive(Default)]
struct PendingFlag(AtomicBool);

/// The simulated persistent memory pool.
pub struct PmemPool {
    shards: Vec<Mutex<Shard>>,
    /// Per shard: set under the shard lock when a flush queues a line,
    /// cleared under it when a fence drains the shard. The flush's Release
    /// store pairs with the fence's Acquire load, so a fence ordered after
    /// a flush (same thread, or synchronized with it) sees the flag.
    has_pending: Vec<PendingFlag>,
    shard_bytes: u64,
    size: u64,
    stats: PoolStats,
    writeback_cost: Duration,
    fence_cost: Duration,
    flush_cost: Duration,
    /// Optional fault-injection engine (see [`crate::fault`]).
    fault: Option<FaultPlan>,
    /// Poisoned cache lines: global line index → transient? Populated by
    /// [`crate::CrashImage::reboot`] and by tests; reads through the typed
    /// API fail on these lines until they are scrubbed by a store.
    poisoned: Mutex<HashMap<u64, bool>>,
    /// Serializes [`PmemPool::cas_u64`] read-modify-write sequences. All
    /// mutators of a CAS-mediated word must go through `cas_u64` — a plain
    /// `write` to the same word concurrent with a CAS is a program bug,
    /// exactly as mixing `mov` and `lock cmpxchg` on real hardware is.
    cas_lock: Mutex<()>,
}

impl PmemPool {
    /// Create a pool; the durable image starts zeroed (fresh DIMM).
    pub fn new(config: PoolConfig) -> PmemPool {
        Self::build(config, None)
    }

    /// Create a pool with a deterministic fault-injection plan attached.
    pub fn with_faults(config: PoolConfig, fault: FaultConfig) -> PmemPool {
        Self::build(config, Some(FaultPlan::new(fault)))
    }

    fn build(config: PoolConfig, fault: Option<FaultPlan>) -> PmemPool {
        let shards = config.shards.max(1);
        // Round the shard size up to a line multiple.
        let raw = config.size.div_ceil(shards as u64);
        let shard_bytes = raw.div_ceil(CACHE_LINE) * CACHE_LINE;
        let size = shard_bytes * shards as u64;
        PmemPool {
            shards: (0..shards).map(|i| Mutex::new(Shard::new(i as u64 * shard_bytes))).collect(),
            has_pending: (0..shards).map(|_| PendingFlag::default()).collect(),
            shard_bytes,
            size,
            stats: PoolStats::default(),
            writeback_cost: config.writeback_cost,
            fence_cost: config.fence_cost,
            flush_cost: config.flush_cost,
            fault,
            poisoned: Mutex::new(HashMap::new()),
            cas_lock: Mutex::new(()),
        }
    }

    /// Return the pool to its freshly booted state — both images zero,
    /// counters zero, no poison — and attach a new fault plan seeded from
    /// `fault`. Costs O(lines touched since the last reset), not O(size).
    pub fn reset(&mut self, fault: Option<FaultConfig>) {
        for (shard, flag) in self.shards.iter_mut().zip(&mut self.has_pending) {
            shard.get_mut().clear();
            *flag.0.get_mut() = false;
        }
        self.stats = PoolStats::default();
        self.fault = fault.map(FaultPlan::new);
        self.poisoned.get_mut().clear();
    }

    /// Reboot in place from a crash image: [`PmemPool::reset`] without a
    /// fault plan, then visible == durable == `image`, with the image's
    /// poison applied. Costs O(lines touched + lines in the image).
    pub fn load_image(&mut self, image: &CrashImage) {
        assert!(
            image.len() as u64 <= self.size,
            "crash image of {} bytes does not fit a {}-byte pool",
            image.len(),
            self.size
        );
        self.reset(None);
        let lines_per_shard = self.shard_bytes / CACHE_LINE;
        for (line, bytes) in image.lines() {
            let shard = self.shards[(line / lines_per_shard) as usize].get_mut();
            shard.allocate(self.shard_bytes);
            shard.load_line((line % lines_per_shard) as usize, bytes);
        }
        self.poisoned.get_mut().extend(image.poisoned().iter().copied());
    }

    /// Fault counters, when a plan is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats())
    }

    /// Mark a cache line poisoned (media error on read until scrubbed).
    pub fn poison_line(&self, line: u64, transient: bool) {
        self.poisoned.lock().insert(line, transient);
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_line_count(&self) -> usize {
        self.poisoned.lock().len()
    }

    /// Total pool size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    fn shard_of(&self, addr: u64) -> usize {
        (addr / self.shard_bytes) as usize
    }

    /// Range validation as a typed result.
    fn range_ok(&self, addr: PAddr, len: u64) -> Result<(), PmemError> {
        if !addr.is_null() && addr.0.checked_add(len).is_some_and(|end| end <= self.size) {
            Ok(())
        } else {
            Err(PmemError::OutOfRange { addr: addr.0, len, size: self.size })
        }
    }

    fn check_range(&self, addr: PAddr, len: u64) {
        if let Err(e) = self.range_ok(addr, len) {
            panic!("{e}");
        }
    }

    /// Store bytes. Visible immediately; durable only after flush + fence
    /// (or an unlucky/lucky eviction).
    pub fn write(&self, addr: PAddr, data: &[u8]) {
        self.try_write(addr, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Store bytes, reporting out-of-range accesses instead of panicking.
    /// A store scrubs transient poison from every line it touches (the
    /// line is allocated in cache; the pending ECC retry never runs), but
    /// permanent media damage is scrubbed only by a store that rewrites
    /// the *entire* line — a partial store still leaves unreadable bytes
    /// on media, so reads keep failing.
    pub fn try_write(&self, addr: PAddr, data: &[u8]) -> Result<(), PmemError> {
        self.range_ok(addr, data.len() as u64)?;
        let write_start = addr.0;
        let write_end = addr.0 + data.len() as u64;
        self.stats.stores.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_stored.fetch_add(data.len() as u64, Ordering::Relaxed);
        let mut off = addr.0;
        let mut rest = data;
        while !rest.is_empty() {
            let si = self.shard_of(off);
            let mut shard = self.shards[si].lock();
            shard.allocate(self.shard_bytes);
            let local = (off - shard.base) as usize;
            let n = rest.len().min(self.shard_bytes as usize - local);
            if let Some(plan) = &self.fault {
                // Offer each stored line-span as a torn-store candidate
                // before the new bytes land (the mark captures the old
                // content).
                let mut seg = off;
                let end = off + n as u64;
                while seg < end {
                    let line = seg / CACHE_LINE;
                    let seg_end = end.min((line + 1) * CACHE_LINE);
                    let sl = (seg - shard.base) as usize;
                    plan.on_store(line, seg, &shard.visible[sl..sl + (seg_end - seg) as usize]);
                    seg = seg_end;
                }
            }
            shard.visible[local..local + n].copy_from_slice(&rest[..n]);
            let first = off / CACHE_LINE;
            let last = (off + n as u64 - 1) / CACHE_LINE;
            shard.mark_dirty(first, last);
            drop(shard);
            {
                let mut poisoned = self.poisoned.lock();
                if !poisoned.is_empty() {
                    for line in first..=last {
                        let full_line = write_start <= line * CACHE_LINE
                            && (line + 1) * CACHE_LINE <= write_end;
                        match poisoned.get(&line) {
                            Some(&transient) if transient || full_line => {
                                poisoned.remove(&line);
                            }
                            _ => {}
                        }
                    }
                }
            }
            off += n as u64;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Load bytes from the visible image.
    pub fn read(&self, addr: PAddr, buf: &mut [u8]) {
        self.try_read(addr, buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Load bytes, reporting out-of-range and media errors instead of
    /// panicking. A transient media error clears itself after the failed
    /// read (the ECC retry succeeds), so one retry observes good data.
    pub fn try_read(&self, addr: PAddr, buf: &mut [u8]) -> Result<(), PmemError> {
        self.range_ok(addr, buf.len() as u64)?;
        self.stats.loads.fetch_add(1, Ordering::Relaxed);
        {
            let mut poisoned = self.poisoned.lock();
            if !poisoned.is_empty() {
                let first = addr.line();
                let last = PAddr(addr.0 + buf.len().max(1) as u64 - 1).line();
                for line in first..=last {
                    if let Some(&transient) = poisoned.get(&line) {
                        if transient {
                            poisoned.remove(&line);
                        }
                        return Err(PmemError::MediaError { line, transient });
                    }
                }
            }
        }
        let mut off = addr.0;
        let mut rest = &mut buf[..];
        while !rest.is_empty() {
            let si = self.shard_of(off);
            let shard = self.shards[si].lock();
            let local = (off - shard.base) as usize;
            let n = rest.len().min(self.shard_bytes as usize - local);
            if shard.is_allocated() {
                rest[..n].copy_from_slice(&shard.visible[local..local + n]);
            } else {
                rest[..n].fill(0);
            }
            off += n as u64;
            rest = &mut rest[n..];
        }
        Ok(())
    }

    /// Bounded retry-then-degrade read: transient media errors are retried
    /// up to `retries` times; permanent errors (and out-of-range) are
    /// returned for the caller to degrade gracefully (e.g. drop the
    /// record).
    pub fn read_reliable(
        &self,
        addr: PAddr,
        buf: &mut [u8],
        retries: u32,
    ) -> Result<(), PmemError> {
        let mut last = Ok(());
        for _ in 0..=retries {
            match self.try_read(addr, buf) {
                Ok(()) => return Ok(()),
                Err(e @ PmemError::MediaError { transient: true, .. }) => last = Err(e),
                Err(e) => return Err(e),
            }
        }
        last
    }

    /// Convenience: store a u64 (little endian).
    pub fn write_u64(&self, addr: PAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Convenience: load a u64.
    pub fn read_u64(&self, addr: PAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Convenience: load a u64 with typed errors.
    pub fn try_read_u64(&self, addr: PAddr) -> Result<u64, PmemError> {
        let mut b = [0u8; 8];
        self.try_read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Word-sized compare-and-swap (`lock cmpxchg` on an 8-byte NVM word):
    /// atomically replace the visible value at `addr` with `new` iff it
    /// currently equals `expected`. Returns `Ok(())` on success and
    /// `Err(observed)` on failure. Like a hardware CAS, this orders only
    /// the *visible* image — the new value reaches the durable image
    /// through the usual flush + fence (or eviction), which is precisely
    /// the window the detectable-CAS protocols close with a persisted
    /// checkpoint.
    pub fn cas_u64(&self, addr: PAddr, expected: u64, new: u64) -> Result<(), u64> {
        self.check_range(addr, 8);
        self.stats.cas_ops.fetch_add(1, Ordering::Relaxed);
        let _g = self.cas_lock.lock();
        let observed = self.read_u64(addr);
        if observed != expected {
            self.stats.cas_failures.fetch_add(1, Ordering::Relaxed);
            return Err(observed);
        }
        self.write_u64(addr, new);
        Ok(())
    }

    /// `clwb`: issue a write-back for every line overlapping the range.
    /// Durability is guaranteed only after the next [`PmemPool::fence`].
    pub fn flush(&self, addr: PAddr, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(addr, len);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        obs::counter("pmem.flushes", 1);
        // Latency histogram sample, not a span: flushes are far too
        // frequent for one event each. Timed only when instrumented.
        let lat_start = obs::active().then(Instant::now);
        let first = addr.line();
        let last = PAddr(addr.0 + len - 1).line();
        if obs::active() {
            obs::instant_args(
                "pmem.flush",
                vec![("addr", format!("{:#x}", addr.0)), ("lines", (last - first + 1).to_string())],
            );
        }
        if self.flush_cost > Duration::ZERO {
            busy_wait(self.flush_cost * (last - first + 1) as u32);
        }
        let mut l = first;
        while l <= last {
            let si = self.shard_of(l * CACHE_LINE);
            let mut shard = self.shards[si].lock();
            let base_line = shard.base / CACHE_LINE;
            let shard_last = base_line + self.shard_bytes / CACHE_LINE - 1;
            let upto = last.min(shard_last);
            let mut queued = false;
            for line in l..=upto {
                let idx = (line - base_line) as usize;
                match shard.line_state(idx) {
                    // clwb on a clean line is legal but pointless; it must
                    // not resurrect the line to pending.
                    LineState::Untouched | LineState::Clean => {
                        self.stats.clean_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                    LineState::Dirty => {
                        // An injected dropped flush: the clwb retires from
                        // the program's point of view but the line stays
                        // dirty — the next fence persists nothing for it.
                        if self.fault.as_ref().is_some_and(|f| f.drop_flush(line)) {
                            self.stats.dropped_flushes.fetch_add(1, Ordering::Relaxed);
                            obs::counter("fault.dropped_flushes", 1);
                            continue;
                        }
                        shard.lines[idx] = LineState::FlushPending;
                        shard.pending.push(idx as u32);
                        queued = true;
                    }
                    LineState::FlushPending => {
                        // Re-flushing a pending line: counted as wasted too.
                        self.stats.clean_flushes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Only the shard lock's holder writes the flag, so a relaxed
            // read suffices; skipping a redundant store keeps the flag's
            // line from bouncing between clients.
            let flag = &self.has_pending[si].0;
            if queued && !flag.load(Ordering::Relaxed) {
                flag.store(true, Ordering::Release);
            }
            l = upto + 1;
        }
        if let Some(t0) = lat_start {
            obs::latency("pmem.flush", t0.elapsed().as_micros() as u64);
        }
    }

    /// `sfence`: all pending write-backs complete; their lines become
    /// durable. Dirty (unflushed) lines are *not* persisted — that is the
    /// whole point of persistency bugs.
    pub fn fence(&self) {
        let lat_start = obs::active().then(Instant::now);
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        let mut written_back = 0u64;
        for (shard, flag) in self.shards.iter().zip(&self.has_pending) {
            if !flag.0.load(Ordering::Acquire) {
                continue;
            }
            let mut s = shard.lock();
            flag.0.store(false, Ordering::Release);
            let pending = std::mem::take(&mut s.pending);
            for &idx32 in &pending {
                let idx = idx32 as usize;
                if s.lines[idx] == LineState::FlushPending {
                    let a = idx * CACHE_LINE as usize;
                    let b = a + CACHE_LINE as usize;
                    let Shard { visible, durable, .. } = &mut *s;
                    durable[a..b].copy_from_slice(&visible[a..b]);
                    s.lines[idx] = LineState::Clean;
                    if let Some(plan) = &self.fault {
                        plan.on_writeback(s.base / CACHE_LINE + idx as u64);
                    }
                    written_back += 1;
                }
            }
        }
        self.stats.lines_written_back.fetch_add(written_back, Ordering::Relaxed);
        obs::counter("pmem.fences", 1);
        obs::counter("pmem.lines_written_back", written_back);
        if obs::active() {
            obs::instant_args("pmem.fence", vec![("written_back", written_back.to_string())]);
        }
        if self.writeback_cost > Duration::ZERO && written_back > 0 {
            busy_wait(self.writeback_cost * written_back as u32);
        }
        if self.fence_cost > Duration::ZERO {
            busy_wait(self.fence_cost);
        }
        if let Some(t0) = lat_start {
            obs::latency("pmem.fence", t0.elapsed().as_micros() as u64);
        }
    }

    /// `flush` + `fence` (pmem_persist).
    pub fn persist(&self, addr: PAddr, len: u64) {
        self.flush(addr, len);
        self.fence();
    }

    /// Number of lines currently not durable (dirty or pending).
    pub fn non_durable_lines(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock();
                s.touched
                    .iter()
                    .filter(|&&idx| {
                        matches!(s.lines[idx as usize], LineState::Dirty | LineState::FlushPending)
                    })
                    .count() as u64
            })
            .sum()
    }

    /// PMDK-style bad-block clearing for a range the allocator hands out:
    /// rewrite every *permanently* poisoned line in it as a full zero line
    /// (scrub-on-write), so the new owner's partial stores and later loads
    /// do not hit media errors. Free when the pool has no poison.
    pub fn clear_bad_lines(&self, addr: PAddr, len: u64) {
        if len == 0 {
            return;
        }
        let bad: Vec<u64> = {
            let poisoned = self.poisoned.lock();
            if poisoned.is_empty() {
                return;
            }
            (addr.line()..=PAddr(addr.0 + len - 1).line())
                .filter(|line| poisoned.get(line) == Some(&false))
                .collect()
        };
        for line in bad {
            self.write(PAddr(line * CACHE_LINE), &[0; CACHE_LINE as usize]);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            stores: self.stats.stores.load(Ordering::Relaxed),
            bytes_stored: self.stats.bytes_stored.load(Ordering::Relaxed),
            loads: self.stats.loads.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            clean_flushes: self.stats.clean_flushes.load(Ordering::Relaxed),
            fences: self.stats.fences.load(Ordering::Relaxed),
            lines_written_back: self.stats.lines_written_back.load(Ordering::Relaxed),
            dropped_flushes: self.stats.dropped_flushes.load(Ordering::Relaxed),
            cas_ops: self.stats.cas_ops.load(Ordering::Relaxed),
            cas_failures: self.stats.cas_failures.load(Ordering::Relaxed),
        }
    }

    /// Produce the post-crash durable image under `policy` (see
    /// [`crate::crash`]). Dirty and pending lines persist or vanish per the
    /// policy — modeling arbitrary eviction order. With a fault plan
    /// attached, surviving un-retired lines may additionally be torn
    /// (prefix of the last store, suffix of the old bytes) and pool lines
    /// may come back poisoned.
    ///
    /// Only touched lines are visited, in ascending line order — the order
    /// in which `policy` and the fault plan draw their random numbers.
    pub fn crash_image(&self, policy: &mut dyn FnMut(u64, bool) -> bool) -> CrashImage {
        let mut lines: Vec<(u64, Line)> = Vec::new();
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.touched.sort_unstable();
            let s = &*guard;
            let base_line = s.base / CACHE_LINE;
            for &idx in &s.touched {
                let idx = idx as usize;
                let line = base_line + idx as u64;
                let survives = match s.lines[idx] {
                    LineState::Untouched | LineState::Clean => false,
                    LineState::Dirty => policy(line, false),
                    LineState::FlushPending => policy(line, true),
                };
                let a = idx * CACHE_LINE as usize;
                let b = a + CACHE_LINE as usize;
                let src = if survives { &s.visible } else { &s.durable };
                let mut bytes: Line = src[a..b].try_into().expect("one cache line");
                // The line died before its write-back retired: a torn mark
                // resurfaces the old suffix of the stored span.
                if survives {
                    if let Some(mark) = self.fault.as_ref().and_then(|f| f.torn_mark(line)) {
                        let at = (mark.start - line * CACHE_LINE) as usize;
                        bytes[at + mark.split..at + mark.old.len()]
                            .copy_from_slice(&mark.old[mark.split..]);
                    }
                }
                if bytes != [0; CACHE_LINE as usize] {
                    lines.push((line, bytes));
                }
            }
        }
        CrashImage::from_lines(self.size, lines, self.crash_poison())
    }

    /// The lines a crash poisons (fault plan attached), drawn after the
    /// image's lines.
    fn crash_poison(&self) -> Vec<(u64, bool)> {
        match &self.fault {
            Some(plan) => plan.poison_lines(self.size / CACHE_LINE),
            None => Vec::new(),
        }
    }

    /// Test oracle for [`PmemPool::crash_image`]: the original full-copy
    /// image over every pool line, as dense bytes plus the poison set.
    #[cfg(test)]
    pub(crate) fn dense_crash_image(
        &self,
        policy: &mut dyn FnMut(u64, bool) -> bool,
    ) -> (Vec<u8>, Vec<(u64, bool)>) {
        let mut image = vec![0u8; self.size as usize];
        for shard in &self.shards {
            let s = shard.lock();
            if !s.is_allocated() {
                continue;
            }
            let base = s.base as usize;
            image[base..base + s.durable.len()].copy_from_slice(&s.durable);
            for (idx, state) in s.lines.iter().enumerate() {
                let line = s.base / CACHE_LINE + idx as u64;
                let survives = match state {
                    LineState::Untouched | LineState::Clean => continue,
                    LineState::Dirty => policy(line, false),
                    LineState::FlushPending => policy(line, true),
                };
                if survives {
                    let a = idx * CACHE_LINE as usize;
                    let b = a + CACHE_LINE as usize;
                    image[base + a..base + b].copy_from_slice(&s.visible[a..b]);
                    if let Some(mark) = self.fault.as_ref().and_then(|f| f.torn_mark(line)) {
                        let at = mark.start as usize;
                        image[at + mark.split..at + mark.old.len()]
                            .copy_from_slice(&mark.old[mark.split..]);
                    }
                }
            }
        }
        (image, self.crash_poison())
    }
}

/// A free list of identically configured pools. A crash sweep takes its
/// prefix and reboot pools from here — reset or reloaded in place, at
/// O(lines touched) — instead of allocating and zeroing fresh ones per
/// crash state.
pub struct PoolFreeList {
    config: PoolConfig,
    free: Mutex<Vec<PmemPool>>,
}

impl PoolFreeList {
    /// An empty free list. A pool is built only when none is idle, so it
    /// never holds more pools than were on loan at one time.
    pub fn new(config: PoolConfig) -> PoolFreeList {
        PoolFreeList { config, free: Mutex::new(Vec::new()) }
    }

    fn take(&self, fault: Option<FaultConfig>) -> PmemPool {
        let idle = self.free.lock().pop();
        match idle {
            Some(mut pool) => {
                pool.reset(fault);
                pool
            }
            None => PmemPool::build(self.config.clone(), fault.map(FaultPlan::new)),
        }
    }

    /// A pool in the freshly booted state with a fault plan seeded from
    /// `fault` (as [`PmemPool::new`] / [`PmemPool::with_faults`]).
    pub fn fresh(&self, fault: Option<FaultConfig>) -> PooledPool<'_> {
        PooledPool { pool: Some(self.take(fault)), home: self }
    }

    /// A pool rebooted from `image` (as [`CrashImage::reboot`]).
    pub fn boot(&self, image: &CrashImage) -> PooledPool<'_> {
        let mut pool = self.take(None);
        pool.load_image(image);
        PooledPool { pool: Some(pool), home: self }
    }
}

/// A pool on loan from a [`PoolFreeList`]; it goes back on drop.
pub struct PooledPool<'a> {
    pool: Option<PmemPool>,
    home: &'a PoolFreeList,
}

impl Deref for PooledPool<'_> {
    type Target = PmemPool;

    fn deref(&self) -> &PmemPool {
        self.pool.as_ref().expect("pool present until drop")
    }
}

impl Drop for PooledPool<'_> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            self.home.free.lock().push(pool);
        }
    }
}

/// Busy-wait for `d` (models device latency without yielding to the OS).
fn busy_wait(d: Duration) {
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> PmemPool {
        PmemPool::new(PoolConfig { size: 1 << 16, shards: 4, ..Default::default() })
    }

    #[test]
    fn write_is_visible_immediately() {
        let p = pool();
        p.write_u64(PAddr(128), 42);
        assert_eq!(p.read_u64(PAddr(128)), 42);
    }

    #[test]
    fn unflushed_write_is_lost_on_pessimistic_crash() {
        let p = pool();
        p.write_u64(PAddr(0), 7);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "dirty line dropped");
    }

    #[test]
    fn flushed_unfenced_write_may_be_lost() {
        let p = pool();
        p.write_u64(PAddr(0), 7);
        p.flush(PAddr(0), 8);
        // Pending lines survive only if the policy says the clwb completed.
        let lost = p.crash_image(&mut |_, _| false);
        assert_eq!(lost.read_u64(PAddr(0)), 0);
        let kept = p.crash_image(&mut |_, pending| pending);
        assert_eq!(kept.read_u64(PAddr(0)), 7);
    }

    #[test]
    fn flush_fence_makes_durable() {
        let p = pool();
        p.write_u64(PAddr(64), 9);
        p.persist(PAddr(64), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(64)), 9);
        assert_eq!(p.non_durable_lines(), 0);
    }

    #[test]
    fn fence_does_not_persist_dirty_lines() {
        let p = pool();
        p.write_u64(PAddr(0), 1); // dirty, never flushed
        p.write_u64(PAddr(64), 2);
        p.flush(PAddr(64), 8);
        p.fence();
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "dirty line survives fence unpersisted");
        assert_eq!(img.read_u64(PAddr(64)), 2);
    }

    #[test]
    fn eviction_may_persist_dirty_lines() {
        let p = pool();
        p.write_u64(PAddr(0), 5);
        let img = p.crash_image(&mut |_, _| true); // cache evicted everything
        assert_eq!(img.read_u64(PAddr(0)), 5);
    }

    #[test]
    fn clean_flush_counted_as_wasted() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.persist(PAddr(0), 8);
        let before = p.stats().clean_flushes;
        p.flush(PAddr(0), 8); // redundant: line already clean
        assert_eq!(p.stats().clean_flushes, before + 1);
    }

    #[test]
    fn refetching_pending_line_is_wasted_flush() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.flush(PAddr(0), 8);
        let before = p.stats().clean_flushes;
        p.flush(PAddr(0), 8);
        assert_eq!(p.stats().clean_flushes, before + 1);
    }

    #[test]
    fn cross_shard_write_reads_back() {
        let p = pool();
        let shard_bytes = p.shard_bytes;
        let addr = PAddr(shard_bytes - 4); // straddles two shards
        p.write(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        p.read(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        p.persist(addr, 8);
        let img = p.crash_image(&mut |_, _| false);
        let mut out = [0u8; 8];
        img.read(addr, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn stats_count_operations() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.read_u64(PAddr(0));
        p.flush(PAddr(0), 8);
        p.fence();
        let s = p.stats();
        assert_eq!(s.stores, 1);
        assert_eq!(s.loads, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.fences, 1);
        assert_eq!(s.lines_written_back, 1);
        assert_eq!(s.bytes_stored, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let p = pool();
        let size = p.size();
        p.write_u64(PAddr(size), 1);
    }

    #[test]
    fn try_read_reports_out_of_range() {
        let p = pool();
        let mut b = [0u8; 8];
        let err = p.try_read(PAddr(p.size()), &mut b).unwrap_err();
        assert!(matches!(err, crate::PmemError::OutOfRange { .. }));
        assert!(p.try_write(PAddr(p.size() - 4), &b).is_err());
    }

    #[test]
    fn poisoned_line_fails_reads_until_scrubbed() {
        let p = pool();
        p.write_u64(PAddr(256), 5);
        p.poison_line(4, false); // permanent
        let mut b = [0u8; 8];
        assert_eq!(
            p.try_read(PAddr(256), &mut b),
            Err(crate::PmemError::MediaError { line: 4, transient: false })
        );
        // Still failing: permanent poison survives retries.
        assert!(p.read_reliable(PAddr(256), &mut b, 3).is_err());
        // A full-line rewrite scrubs the damage.
        let mut fresh = [0u8; CACHE_LINE as usize];
        fresh[..8].copy_from_slice(&6u64.to_le_bytes());
        p.write(PAddr(256), &fresh);
        assert_eq!(p.try_read_u64(PAddr(256)), Ok(6));
    }

    #[test]
    fn partial_store_does_not_scrub_permanent_poison() {
        let p = pool();
        p.write_u64(PAddr(256), 5);
        p.poison_line(4, false); // permanent damage on line 4
                                 // An 8-byte store inside the 64-byte line must not heal it: the
                                 // other 56 bytes are still unreadable on media.
        p.write_u64(PAddr(256), 6);
        let mut b = [0u8; 8];
        assert_eq!(
            p.try_read(PAddr(256), &mut b),
            Err(crate::PmemError::MediaError { line: 4, transient: false })
        );
        // A full-line store that merely *overlaps* the line (straddling
        // into the neighbour) scrubs only the fully rewritten line.
        p.poison_line(5, false);
        let buf = [7u8; CACHE_LINE as usize + 8];
        p.write(PAddr(4 * CACHE_LINE), &buf); // covers line 4, dips into 5
        assert!(p.try_read(PAddr(4 * CACHE_LINE), &mut b).is_ok(), "line 4 scrubbed");
        assert_eq!(
            p.try_read(PAddr(5 * CACHE_LINE), &mut b),
            Err(crate::PmemError::MediaError { line: 5, transient: false }),
            "line 5 only partially rewritten"
        );
    }

    #[test]
    fn partial_store_still_scrubs_transient_poison() {
        let p = pool();
        p.write_u64(PAddr(128), 9);
        p.poison_line(2, true);
        // Any store allocates the line in cache; the pending ECC retry for
        // a transient error never runs.
        p.write_u64(PAddr(128), 10);
        assert_eq!(p.try_read_u64(PAddr(128)), Ok(10));
    }

    #[test]
    fn transient_poison_clears_after_one_failed_read() {
        let p = pool();
        p.write_u64(PAddr(128), 9);
        p.poison_line(2, true);
        let mut b = [0u8; 8];
        assert!(p.try_read(PAddr(128), &mut b).is_err());
        assert_eq!(p.try_read_u64(PAddr(128)), Ok(9), "retry succeeds");
        // And read_reliable hides the transient entirely.
        p.poison_line(2, true);
        assert_eq!(p.read_reliable(PAddr(128), &mut b, 2), Ok(()));
    }

    #[test]
    fn torn_store_splits_surviving_dirty_line() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 3, torn_store_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(64), u64::MAX); // all-ones over all-zeros, dirty
        let img = p.crash_image(&mut |_, _| true); // line survives un-retired
        let v = img.read_u64(PAddr(64));
        assert_ne!(v, u64::MAX, "suffix of old zero bytes resurfaced");
        assert_ne!(v, 0, "prefix of the new store landed");
        let stats = p.fault_stats().unwrap();
        assert_eq!(stats.torn_marks, 1);
        assert!(stats.torn_applied >= 1);
    }

    #[test]
    fn fence_retires_torn_marks() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 3, torn_store_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(64), u64::MAX);
        p.persist(PAddr(64), 8);
        let img = p.crash_image(&mut |_, _| true);
        assert_eq!(img.read_u64(PAddr(64)), u64::MAX, "durable stores never tear");
    }

    #[test]
    fn dropped_flush_leaves_line_dirty_through_fence() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 1, dropped_flush_rate: 1.0, ..Default::default() },
        );
        p.write_u64(PAddr(0), 7);
        p.flush(PAddr(0), 8); // clwb retires but is dropped
        p.fence();
        assert_eq!(p.non_durable_lines(), 1, "the line silently stayed dirty");
        assert_eq!(p.fault_stats().unwrap().dropped_flushes, 1);
        assert_eq!(p.stats().dropped_flushes, 1, "pool stats record the drop too");
        assert_eq!(p.stats().flushes, 1, "the clwb itself still counts as issued");
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 0, "the value never became durable");
    }

    #[test]
    fn crash_poison_travels_through_reboot() {
        let p = PmemPool::with_faults(
            PoolConfig { size: 1 << 16, shards: 4, ..Default::default() },
            crate::FaultConfig { seed: 5, poison_rate: 0.1, ..Default::default() },
        );
        p.write_u64(PAddr(512), 42);
        p.persist(PAddr(512), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert!(!img.poisoned().is_empty(), "poison rate 0.1 over 1024 lines");
        let p2 = img.reboot(4);
        assert_eq!(p2.poisoned_line_count(), img.poisoned().len());
        let (line, _) = img.poisoned()[0];
        let mut b = [0u8; 8];
        assert!(p2.try_read(PAddr(line * CACHE_LINE), &mut b).is_err());
    }

    #[test]
    fn cas_succeeds_only_on_expected_value() {
        let p = pool();
        p.write_u64(PAddr(64), 5);
        assert_eq!(p.cas_u64(PAddr(64), 5, 9), Ok(()));
        assert_eq!(p.read_u64(PAddr(64)), 9);
        assert_eq!(p.cas_u64(PAddr(64), 5, 11), Err(9), "stale expected loses");
        assert_eq!(p.read_u64(PAddr(64)), 9);
        let s = p.stats();
        assert_eq!(s.cas_ops, 2);
        assert_eq!(s.cas_failures, 1);
    }

    #[test]
    fn cas_is_visible_not_durable() {
        let p = pool();
        p.write_u64(PAddr(0), 1);
        p.persist(PAddr(0), 8);
        assert_eq!(p.cas_u64(PAddr(0), 1, 2), Ok(()));
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 1, "un-flushed CAS result is lost");
        p.persist(PAddr(0), 8);
        let img = p.crash_image(&mut |_, _| false);
        assert_eq!(img.read_u64(PAddr(0)), 2);
    }

    #[test]
    fn concurrent_cas_increments_never_lose_updates() {
        let p = std::sync::Arc::new(pool());
        crossbeam::scope(|s| {
            for _ in 0..8 {
                let p = p.clone();
                s.spawn(move |_| {
                    for _ in 0..100 {
                        loop {
                            let cur = p.read_u64(PAddr(0));
                            if p.cas_u64(PAddr(0), cur, cur + 1).is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(p.read_u64(PAddr(0)), 800, "every increment landed exactly once");
    }

    #[test]
    fn concurrent_writers_disjoint_ranges() {
        let p = std::sync::Arc::new(pool());
        crossbeam::scope(|s| {
            for t in 0..8u64 {
                let p = p.clone();
                s.spawn(move |_| {
                    for i in 0..64u64 {
                        let addr = PAddr(t * 4096 + i * 64);
                        p.write_u64(addr, t * 1000 + i);
                        p.persist(addr, 8);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..8u64 {
            for i in 0..64u64 {
                assert_eq!(p.read_u64(PAddr(t * 4096 + i * 64)), t * 1000 + i);
            }
        }
        assert_eq!(p.non_durable_lines(), 0);
    }
}
