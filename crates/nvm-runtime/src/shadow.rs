//! Shadow memory segments over the persistent address space.
//!
//! "DeepMC maps the NVM program's persistent address space to a shadow
//! segment. The shadow segment is responsible for tracking the history of
//! reads and writes issued by a set of strands (or threads) to each
//! persistent memory address" (paper §4.4).
//!
//! Each 8-byte persistent cell has a small bounded access history (like
//! ThreadSanitizer's shadow words). The segment is keyed by 64-byte line:
//! one map entry holds the histories of the line's 8 cells inline, each
//! access packed into one `u64`, so an access costs one shard lock and one
//! Fx-hashed lookup per line it touches rather than a map entry, a lock
//! and a heap-allocated history per cell. Shards are `parking_lot` mutexes
//! so instrumented multi-threaded workloads scale — and, crucially for the
//! paper's low overhead claim, only *persistent* addresses inside
//! annotated regions are ever shadowed.

use deepmc_obs::fxhash::FxHashMap;
use parking_lot::Mutex;

/// Shadow granularity in bytes.
pub const GRAIN: u64 = 8;

/// Max remembered accesses per cell (older reads are evicted; a write
/// supersedes the whole history).
pub const HISTORY: usize = 4;

/// Bytes of persistent memory one map entry shadows.
const LINE: u64 = 64;
const CELLS_PER_LINE: usize = (LINE / GRAIN) as usize;

/// One remembered access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShadowAccess {
    pub strand: u32,
    /// The strand's epoch at access time (always ≥ 1).
    pub epoch: u32,
    pub is_write: bool,
}

impl ShadowAccess {
    /// Strand ids must fit the 31 bits the packed form leaves them.
    pub const MAX_STRANDS: u32 = 1 << 31;

    /// `strand << 33 | epoch << 1 | is_write`; never 0, because epochs
    /// start at 1, so 0 marks an empty history slot.
    fn pack(self) -> u64 {
        debug_assert!(self.epoch >= 1 && self.strand < Self::MAX_STRANDS);
        (self.strand as u64) << 33 | (self.epoch as u64) << 1 | self.is_write as u64
    }

    fn unpack(word: u64) -> ShadowAccess {
        ShadowAccess {
            strand: (word >> 33) as u32,
            epoch: (word >> 1) as u32,
            is_write: word & 1 != 0,
        }
    }
}

/// Access history of one 8-byte cell: packed accesses, oldest first, with
/// the empty slots (0) at the end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell([u64; HISTORY]);

impl Cell {
    /// The remembered accesses, oldest first.
    pub fn accesses(&self) -> impl Iterator<Item = ShadowAccess> + '_ {
        self.0.iter().take_while(|&&w| w != 0).map(|&w| ShadowAccess::unpack(w))
    }

    fn is_empty(&self) -> bool {
        self.0[0] == 0
    }

    fn record(&mut self, access: ShadowAccess) {
        let word = access.pack();
        if access.is_write {
            // A write supersedes prior history for future conflict checks
            // (anything racing with an older access also races with this
            // write or was already reported).
            self.0 = [word, 0, 0, 0];
            return;
        }
        let len = self.0.iter().take_while(|&&w| w != 0).count();
        // Collapse repeated reads by the same strand.
        let same_reader = |w: &&mut u64| **w & 1 == 0 && (**w >> 33) as u32 == access.strand;
        if let Some(slot) = self.0[..len].iter_mut().find(same_reader) {
            *slot = word;
        } else if len == HISTORY {
            // Evict the oldest read (never the write at slot 0 if any).
            let evict = self.0.iter().position(|&w| w & 1 == 0).unwrap_or(0);
            self.0.copy_within(evict + 1.., evict);
            self.0[HISTORY - 1] = word;
        } else {
            self.0[len] = word;
        }
    }
}

#[derive(Default)]
struct Shard {
    /// Line index (shard bits shifted out) → the line's cell histories.
    lines: FxHashMap<u64, [Cell; CELLS_PER_LINE]>,
    /// Cells with a non-empty history.
    cells: usize,
}

/// The sharded shadow segment.
pub struct ShadowSegment {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    shift: u32,
}

impl ShadowSegment {
    /// Create with `shards` rounded up to a power of two.
    pub fn new(shards: usize) -> ShadowSegment {
        let n = shards.max(1).next_power_of_two();
        ShadowSegment {
            shards: (0..n).map(|_| Mutex::default()).collect(),
            mask: n as u64 - 1,
            shift: n.trailing_zeros(),
        }
    }

    /// Record an access to `[addr, addr+len)` and hand each touched cell's
    /// address and *prior* history to `check`, in address order, before
    /// recording. Returns the number of cells shadowed for the first time.
    pub fn access<F>(&self, addr: u64, len: u64, access: ShadowAccess, mut check: F) -> usize
    where
        F: FnMut(u64, &Cell),
    {
        if len == 0 {
            return 0;
        }
        let first = addr / GRAIN;
        let last = (addr + len - 1) / GRAIN;
        let cells_per_line = CELLS_PER_LINE as u64;
        let mut fresh = 0;
        for line in first / cells_per_line..=last / cells_per_line {
            // Adjacent lines go to different shards; within a shard the
            // keys stay dense, which the Fx hash spreads well.
            let mut shard = self.shards[(line & self.mask) as usize].lock();
            let shard = &mut *shard;
            let cells = shard.lines.entry(line >> self.shift).or_default();
            let lo = first.max(line * cells_per_line);
            let hi = last.min(line * cells_per_line + cells_per_line - 1);
            let mut new_cells = 0;
            for cell_idx in lo..=hi {
                let cell = &mut cells[(cell_idx % cells_per_line) as usize];
                new_cells += cell.is_empty() as usize;
                check(cell_idx * GRAIN, cell);
                cell.record(access);
            }
            shard.cells += new_cells;
            fresh += new_cells;
        }
        fresh
    }

    /// Number of cells currently shadowed (for the scalability claim:
    /// proportional to persistent data touched, not total memory). Costs
    /// one lock per shard.
    pub fn cells(&self) -> usize {
        self.shards.iter().map(|s| s.lock().cells).sum()
    }

    /// Drop all history (e.g. at a global barrier when the caller knows
    /// every prior access is ordered before everything that follows).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock();
            shard.lines.clear();
            shard.cells = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(strand: u32, epoch: u32, is_write: bool) -> ShadowAccess {
        ShadowAccess { strand, epoch, is_write }
    }

    fn history(c: &Cell) -> Vec<ShadowAccess> {
        c.accesses().collect()
    }

    #[test]
    fn packing_roundtrips() {
        for a in
            [acc(0, 1, false), acc(7, u32::MAX, true), acc(ShadowAccess::MAX_STRANDS - 1, 3, true)]
        {
            assert_ne!(a.pack(), 0);
            assert_eq!(ShadowAccess::unpack(a.pack()), a);
        }
    }

    #[test]
    fn write_supersedes_history() {
        let mut c = Cell::default();
        c.record(acc(1, 1, false));
        c.record(acc(2, 1, false));
        c.record(acc(3, 1, true));
        assert_eq!(history(&c), vec![acc(3, 1, true)]);
    }

    #[test]
    fn repeated_reads_by_same_strand_collapse() {
        let mut c = Cell::default();
        c.record(acc(1, 1, false));
        c.record(acc(1, 2, false));
        assert_eq!(history(&c), vec![acc(1, 2, false)]);
    }

    #[test]
    fn history_bounded_and_evicts_the_oldest_read() {
        let mut c = Cell::default();
        c.record(acc(9, 1, true));
        for s in 0..10 {
            c.record(acc(s, 1, false));
        }
        assert_eq!(
            history(&c),
            vec![acc(9, 1, true), acc(7, 1, false), acc(8, 1, false), acc(9, 1, false)]
        );
    }

    #[test]
    fn segment_tracks_touched_cells_only() {
        let seg = ShadowSegment::new(4);
        assert_eq!(seg.access(0, 8, acc(0, 1, true), |_, _| {}), 1);
        assert_eq!(seg.access(64, 16, acc(0, 1, true), |_, _| {}), 2);
        assert_eq!(seg.access(60, 8, acc(0, 1, true), |_, _| {}), 1, "only cell 56 is new");
        assert_eq!(seg.cells(), 4, "cells 0, 56, 64 and 72");
    }

    #[test]
    fn check_sees_prior_history_in_address_order() {
        let seg = ShadowSegment::new(4);
        seg.access(8, 8, acc(1, 1, true), |_, _| {});
        let mut seen = Vec::new();
        seg.access(0, 72, acc(2, 1, false), |addr, cell| {
            seen.push((addr, history(cell)));
        });
        assert_eq!(seen.len(), 9, "cells 0..=64 across two lines");
        assert!(seen.windows(2).all(|w| w[0].0 + GRAIN == w[1].0));
        assert_eq!(seen[1], (8, vec![acc(1, 1, true)]));
        assert!(seen.iter().filter(|(a, _)| *a != 8).all(|(_, h)| h.is_empty()));
    }

    #[test]
    fn clear_resets() {
        let seg = ShadowSegment::new(2);
        seg.access(0, 8, acc(0, 1, true), |_, _| {});
        seg.access(64, 16, acc(0, 1, true), |_, _| {});
        seg.clear();
        assert_eq!(seg.cells(), 0);
        let mut seen = Vec::new();
        assert_eq!(seg.access(0, 8, acc(1, 1, false), |_, cell| seen.push(history(cell))), 1);
        assert_eq!(seen, vec![vec![]], "history is gone after a clear");
    }
}
