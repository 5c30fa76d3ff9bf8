//! §5.1: "For these identified performance bugs, we manually fix them and
//! see application performance improvement by up to 43%."
//!
//! Three buggy/fixed pairs drive the hot path of a corpus performance bug
//! in a loop on a pool with the Optane-like latency model, measuring the
//! improvement from applying DeepMC's suggested fix:
//!
//! * `superblock-writeback` — PMFS `super.c` recovery writes back the
//!   whole superblock though only one field changed (UnmodifiedWriteback).
//! * `double-flush` — PMFS `xips.c` / Mnemosyne `CHash.c` flush the same
//!   buffer twice per operation (RedundantWriteback).
//! * `empty-durable-tx` — pminvaders commits a durable transaction on
//!   frames that updated nothing (EmptyDurableTx).

use nvm_runtime::{PAddr, PmemHeap, PmemPool, PoolConfig, TxManager};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One pair's measurement.
#[derive(Debug, Clone)]
pub struct FixResult {
    pub name: &'static str,
    pub bug_class: &'static str,
    pub buggy: Duration,
    pub fixed: Duration,
}

impl FixResult {
    /// Improvement from fixing, relative to the buggy version.
    pub fn improvement_pct(&self) -> f64 {
        (1.0 - self.fixed.as_secs_f64() / self.buggy.as_secs_f64()) * 100.0
    }
}

fn bench_pool() -> PmemPool {
    PmemPool::new(PoolConfig {
        size: 8 << 20,
        shards: 8,
        flush_cost: Duration::from_nanos(150),
        writeback_cost: Duration::from_nanos(250),
        fence_cost: Duration::from_nanos(100),
    })
}

/// Timed passes per side of a pair.
const PASSES: usize = 7;

/// Time `iters` calls of the buggy and the fixed body, best of
/// [`PASSES`] passes each. A single pass is at the mercy of the scheduler
/// — one preemption during the *fixed* side can make a real improvement
/// measure negative. The passes alternate buggy, fixed, buggy, … so a
/// slow or fast stretch of the host hits both sides alike, and each side
/// keeps its minimum, the standard de-noising for throughput loops: noise
/// only ever adds time, so the fastest pass is the closest to the true
/// cost.
fn time_pair(
    iters: u64,
    mut buggy: impl FnMut(u64),
    mut fixed: impl FnMut(u64),
) -> (Duration, Duration) {
    let pass = |body: &mut dyn FnMut(u64)| {
        let start = Instant::now();
        for i in 0..iters {
            body(i);
        }
        start.elapsed()
    };
    let (mut best_buggy, mut best_fixed) = (Duration::MAX, Duration::MAX);
    for _ in 0..PASSES {
        best_buggy = best_buggy.min(pass(&mut buggy));
        best_fixed = best_fixed.min(pass(&mut fixed));
    }
    (best_buggy, best_fixed)
}

/// PMFS superblock recovery: the fix flushes only the modified field.
pub fn superblock_writeback(iters: u64) -> FixResult {
    let (buggy_pool, fixed_pool) = (bench_pool(), bench_pool());
    let setup = |pool| {
        let sb = PmemHeap::open(pool).alloc(256); // 4 cache lines
        move |i: u64, flushed: u64| {
            pool.write_u64(sb, i); // only the first field changes
            pool.flush(sb, flushed);
            pool.fence();
        }
    };
    let (buggy_op, fixed_op) = (setup(&buggy_pool), setup(&fixed_pool));
    let (buggy, fixed) = time_pair(
        iters,
        |i| buggy_op(i, 256), // BUG: write back all four lines
        |i| fixed_op(i, 8),
    );
    FixResult {
        name: "superblock-writeback (PMFS super.c)",
        bug_class: "Flush an unmodified object",
        buggy,
        fixed,
    }
}

/// xips/CHash double flush: the fix drops the second flush+fence.
pub fn double_flush(iters: u64) -> FixResult {
    let (buggy_pool, fixed_pool) = (bench_pool(), bench_pool());
    let setup = |pool| {
        let buf = PmemHeap::open(pool).alloc(64);
        move |i: u64, double: bool| {
            pool.write_u64(buf, i);
            pool.flush(buf, 8);
            pool.fence();
            if double {
                pool.flush(buf, 8); // BUG: buffer is already clean
                pool.fence();
            }
        }
    };
    let (buggy_op, fixed_op) = (setup(&buggy_pool), setup(&fixed_pool));
    let (buggy, fixed) = time_pair(iters, |i| buggy_op(i, true), |i| fixed_op(i, false));
    FixResult {
        name: "double-flush (PMFS xips.c / Mnemosyne CHash.c)",
        bug_class: "Multiple flushes to a persistent object",
        buggy,
        fixed,
    }
}

/// pminvaders empty transactions: the fix commits only on real updates.
/// Each frame also pays the game-loop work (input handling, drawing) that
/// exists in both variants.
pub fn empty_durable_tx(iters: u64) -> FixResult {
    let frame_work = Duration::from_nanos(2_000);
    let pools = [bench_pool(), bench_pool()];
    let sides = pools.each_ref().map(|pool| {
        let heap = PmemHeap::open(pool);
        let log = heap.alloc(1 << 16);
        (pool, TxManager::new(pool, log, 1 << 16), heap.alloc(64))
    });
    let frame = |(pool, txm, obj): &(&PmemPool, TxManager<'_>, PAddr), i: u64, always_tx: bool| {
        let t0 = Instant::now();
        while t0.elapsed() < frame_work {
            std::hint::spin_loop();
        }
        let updates = i.is_multiple_of(8); // one frame in eight changes state
        if updates {
            txm.begin();
            txm.add(*obj, 8).expect("log fits");
            pool.write_u64(*obj, i);
            txm.commit();
        } else if always_tx {
            // BUG: durable transaction with no persistent write.
            txm.begin();
            txm.commit();
        }
    };
    let (buggy, fixed) =
        time_pair(iters, |i| frame(&sides[0], i, true), |i| frame(&sides[1], i, false));
    FixResult {
        name: "empty-durable-tx (PMDK pminvaders.c)",
        bug_class: "Durable transaction without persistent writes",
        buggy,
        fixed,
    }
}

/// Run all pairs.
pub fn measure_all(iters: u64) -> Vec<FixResult> {
    vec![superblock_writeback(iters), double_flush(iters), empty_durable_tx(iters)]
}

/// Render the §5.1 experiment.
pub fn report(iters: u64) -> String {
    let results = measure_all(iters);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Performance-bug fixes (§5.1): application improvement after applying\n\
         DeepMC's suggested fix ({iters} iterations per side).\n"
    );
    let _ = writeln!(
        out,
        "{:<48} {:>12} {:>12} {:>12}",
        "Hot path (bug)", "Buggy (ms)", "Fixed (ms)", "Improvement"
    );
    let mut max = 0.0f64;
    for r in &results {
        max = max.max(r.improvement_pct());
        let _ = writeln!(
            out,
            "{:<48} {:>12.1} {:>12.1} {:>11.1}%",
            r.name,
            r.buggy.as_secs_f64() * 1e3,
            r.fixed.as_secs_f64() * 1e3,
            r.improvement_pct()
        );
    }
    let _ = writeln!(out, "\nMaximum improvement: {max:.1}% (paper: up to 43%).");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fix_improves() {
        for r in measure_all(4_000) {
            assert!(
                r.improvement_pct() > 5.0,
                "{} should improve measurably, got {:.1}%",
                r.name,
                r.improvement_pct()
            );
        }
    }

    #[test]
    fn superblock_fix_improvement_in_paper_ballpark() {
        let r = superblock_writeback(8_000);
        let imp = r.improvement_pct();
        assert!(
            (15.0..70.0).contains(&imp),
            "superblock fix improvement {imp:.1}% out of plausible range"
        );
    }
}
