//! Differential test of the line-grained, packed shadow and the hash-set
//! report dedup against the per-cell detector they replaced, kept here as
//! the oracle: one `HashMap` entry per 8-byte cell holding a `Vec` history,
//! and reports deduplicated by a linear scan of the list.
//!
//! Over random single-threaded strand begin/end, barrier, lock
//! acquire/release and access sequences, the detector and the oracle agree
//! on every `on_access` result, on `reports()` and on `shadow_cells()`.

use crate::clock::VectorClock;
use crate::race::{RaceDetector, RaceKind, RaceReport, StrandId};
use crate::shadow::{ShadowAccess, GRAIN, HISTORY};
use proptest::prelude::*;
use std::collections::HashMap;

/// Access history of one 8-byte cell, as it was.
#[derive(Default)]
struct Cell {
    accesses: Vec<ShadowAccess>,
}

impl Cell {
    fn record(&mut self, access: ShadowAccess) {
        if access.is_write {
            self.accesses.clear();
            self.accesses.push(access);
        } else {
            if let Some(a) =
                self.accesses.iter_mut().find(|a| !a.is_write && a.strand == access.strand)
            {
                a.epoch = access.epoch;
                return;
            }
            if self.accesses.len() == HISTORY {
                let evict = self.accesses.iter().position(|a| !a.is_write).unwrap_or(0);
                self.accesses.remove(evict);
            }
            self.accesses.push(access);
        }
    }
}

struct Strand {
    clock: VectorClock,
    epoch: u32,
    ended: bool,
}

/// The detector as it was, single-threaded.
#[derive(Default)]
struct OracleDetector {
    cells: HashMap<u64, Cell>,
    strands: Vec<Strand>,
    base: VectorClock,
    locks: HashMap<u64, VectorClock>,
    reports: Vec<RaceReport>,
}

impl OracleDetector {
    fn strand_begin(&mut self, parent: Option<StrandId>) -> StrandId {
        let idx = self.strands.len();
        let mut clock = self.base.clone();
        if let Some(p) = parent {
            clock.join(&self.strands[p.0 as usize].clock);
        }
        let epoch = clock.tick(idx).max(1);
        clock.set(idx, epoch);
        self.strands.push(Strand { clock, epoch, ended: false });
        StrandId(idx as u32)
    }

    fn strand_end(&mut self, strand: StrandId) {
        self.strands[strand.0 as usize].ended = true;
    }

    fn global_barrier(&mut self) {
        for s in self.strands.iter().filter(|s| s.ended) {
            self.base.join(&s.clock);
        }
    }

    fn lock_acquire(&mut self, strand: StrandId, lock: u64) {
        if let Some(lc) = self.locks.get(&lock) {
            self.strands[strand.0 as usize].clock.join(lc);
        }
    }

    fn lock_release(&mut self, strand: StrandId, lock: u64) {
        let s = &mut self.strands[strand.0 as usize];
        self.locks.entry(lock).or_default().join(&s.clock);
        s.epoch = s.clock.tick(strand.0 as usize);
    }

    fn on_access(
        &mut self,
        strand: StrandId,
        addr: u64,
        len: u64,
        is_write: bool,
    ) -> Vec<RaceReport> {
        let s = &self.strands[strand.0 as usize];
        let access = ShadowAccess { strand: strand.0, epoch: s.epoch, is_write };
        let mut found = Vec::new();
        for cell_idx in addr / GRAIN..=(addr + len - 1) / GRAIN {
            let cell = self.cells.entry(cell_idx).or_default();
            for a in &cell.accesses {
                if a.strand == strand.0
                    || (!is_write && !a.is_write)
                    || s.clock.knows(a.strand as usize, a.epoch)
                {
                    continue;
                }
                let kind = if is_write && a.is_write {
                    RaceKind::WriteAfterWrite
                } else {
                    RaceKind::ReadAfterWrite
                };
                found.push(RaceReport {
                    kind,
                    addr: cell_idx * GRAIN,
                    first: StrandId(a.strand),
                    second: strand,
                });
            }
            cell.record(access);
        }
        let mut fresh = Vec::new();
        for r in found {
            if !self.reports.contains(&r) {
                self.reports.push(r.clone());
                fresh.push(r);
            }
        }
        fresh
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Begin a strand, with the `parent`-th live strand as parent.
    Begin {
        parent: Option<usize>,
    },
    End(usize),
    Barrier,
    Acquire(usize, u64),
    Release(usize, u64),
    Access {
        strand: usize,
        addr: u64,
        len: u64,
        is_write: bool,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let strand = || 0..8usize;
    let access = || {
        (strand(), 0..512u64, 1..=128u64, any::<bool>())
            .prop_map(|(strand, addr, len, is_write)| Op::Access { strand, addr, len, is_write })
    };
    // The vendored `prop_oneof!` takes no weights: listing `access` three
    // times makes accesses three in eight of the ops.
    prop_oneof![
        proptest::option::of(strand()).prop_map(|parent| Op::Begin { parent }),
        strand().prop_map(Op::End),
        Just(Op::Barrier),
        (strand(), 0..3u64).prop_map(|(s, l)| Op::Acquire(s, l)),
        (strand(), 0..3u64).prop_map(|(s, l)| Op::Release(s, l)),
        access(),
        access(),
        access(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn detector_matches_the_per_cell_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..160),
        shards in 1..8usize,
    ) {
        let fast = RaceDetector::new(shards);
        let mut oracle = OracleDetector::default();
        let mut live: Vec<StrandId> = Vec::new();
        for op in ops {
            // Strand operands index the strands begun so far; with none
            // yet, every op begins one.
            let pick = |i: usize| live[i % live.len()];
            match op {
                _ if live.is_empty() => {
                    let id = fast.strand_begin(None);
                    prop_assert_eq!(oracle.strand_begin(None), id);
                    live.push(id);
                }
                Op::Begin { parent } => {
                    let parent = parent.map(pick);
                    let id = fast.strand_begin(parent);
                    prop_assert_eq!(oracle.strand_begin(parent), id);
                    live.push(id);
                }
                Op::End(s) => {
                    fast.strand_end(pick(s));
                    oracle.strand_end(pick(s));
                }
                Op::Barrier => {
                    fast.global_barrier();
                    oracle.global_barrier();
                }
                Op::Acquire(s, l) => {
                    fast.lock_acquire(pick(s), l);
                    oracle.lock_acquire(pick(s), l);
                }
                Op::Release(s, l) => {
                    fast.lock_release(pick(s), l);
                    oracle.lock_release(pick(s), l);
                }
                Op::Access { strand, addr, len, is_write } => {
                    let before = fast.shadow_cells();
                    let (fresh, new_cells) = fast.on_access_counted(pick(strand), addr, len, is_write);
                    prop_assert_eq!(&fresh, &oracle.on_access(pick(strand), addr, len, is_write));
                    prop_assert_eq!(new_cells, fast.shadow_cells() - before);
                }
            }
            prop_assert_eq!(fast.shadow_cells(), oracle.cells.len());
        }
        prop_assert_eq!(fast.reports(), oracle.reports);
    }
}
