//! Differential tests of the sparse crash path against the dense one it
//! replaced, kept here as the oracle: the full-copy crash image
//! (`PmemPool::dense_crash_image`), FNV-1a over every image byte, and a
//! reboot that writes, flushes and fences the whole image into a new pool.
//!
//! Over random write/flush/fence/CAS sequences, with and without fault
//! injection and under all four crash policies:
//!
//! * the sparse image reads back the dense image's bytes and poison;
//! * sparse hashes agree exactly when the dense images agree;
//! * a pool reused through `load_image` and `reset` behaves like a freshly
//!   booted one: same reads, media errors, non-durable lines and stats.
//!
//! And against a flat line-state model, with some shards never stored to
//! and flushes straddling shard boundaries: shards that were never written
//! read as zeros, crash images and their hashes hold exactly the model's
//! bytes, and every fence drains every shard a flush queued lines in.

use crate::pool::StatsSnapshot;
use crate::{CrashImage, CrashPolicy, FaultConfig, PAddr, PmemPool, PoolConfig, CACHE_LINE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZE: u64 = 1 << 14;
const SHARDS: usize = 4;
const LINES: u64 = SIZE / CACHE_LINE;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `len` bytes of `fill` (zero included: touched lines that stay zero).
    Write {
        addr: u64,
        len: u64,
        fill: u8,
    },
    Flush {
        addr: u64,
        len: u64,
    },
    Fence,
    /// CAS on an aligned word; `hit` expects the current value.
    Cas {
        word: u64,
        hit: bool,
        new: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let write = || {
        (0..SIZE - 128, 1..=96u64, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(addr, len, fill)| Op::Write { addr, len, fill })
    };
    let flush = || (0..SIZE - 128, 1..=128u64).prop_map(|(addr, len)| Op::Flush { addr, len });
    prop_oneof![
        write(),
        write(),
        flush(),
        flush(),
        Just(Op::Fence),
        (0..SIZE / 8, any::<bool>(), any::<u64>()).prop_map(|(word, hit, new)| Op::Cas {
            word,
            hit,
            new
        }),
    ]
}

fn fault_strategy() -> impl Strategy<Value = Option<FaultConfig>> {
    prop_oneof![
        Just(None),
        any::<u64>().prop_map(|seed| Some(FaultConfig {
            seed,
            torn_store_rate: 0.3,
            dropped_flush_rate: 0.2,
            poison_rate: 0.02,
            transient_rate: 0.5,
        })),
    ]
}

fn config() -> PoolConfig {
    PoolConfig { size: SIZE, shards: SHARDS, ..Default::default() }
}

fn boot(fault: Option<FaultConfig>) -> PmemPool {
    match fault {
        Some(f) => PmemPool::with_faults(config(), f),
        None => PmemPool::new(config()),
    }
}

fn apply(pool: &PmemPool, op: Op) {
    match op {
        Op::Write { addr, len, fill } => pool.write(PAddr(addr), &vec![fill; len as usize]),
        Op::Flush { addr, len } => pool.flush(PAddr(addr), len),
        Op::Fence => pool.fence(),
        Op::Cas { word, hit, new } => {
            let addr = PAddr(word * 8);
            let cur = pool.read_u64(addr);
            let _ = pool.cas_u64(addr, if hit { cur } else { cur ^ 1 }, new);
        }
    }
}

fn policies(seed: u64) -> [CrashPolicy; 4] {
    [
        CrashPolicy::Pessimistic,
        CrashPolicy::Optimistic,
        CrashPolicy::PendingOnly,
        CrashPolicy::Random(seed),
    ]
}

/// `CrashPolicy::apply`, through the dense oracle.
fn dense_apply(policy: CrashPolicy, pool: &PmemPool) -> (Vec<u8>, Vec<(u64, bool)>) {
    match policy {
        CrashPolicy::Pessimistic => pool.dense_crash_image(&mut |_, _| false),
        CrashPolicy::Optimistic => pool.dense_crash_image(&mut |_, _| true),
        CrashPolicy::PendingOnly => pool.dense_crash_image(&mut |_, pending| pending),
        CrashPolicy::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            pool.dense_crash_image(&mut |_, _| rng.gen_bool(0.5))
        }
    }
}

/// The content hash as it was: FNV-1a over every 8-byte word of the
/// dense image, then the sorted permanent poison.
fn dense_hash(bytes: &[u8], poisoned: &[(u64, bool)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for c in bytes.chunks_exact(8) {
        mix(u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut durable: Vec<u64> =
        poisoned.iter().filter(|&&(_, transient)| !transient).map(|&(l, _)| l).collect();
    durable.sort_unstable();
    mix(0x9E37_79B9_7F4A_7C15 ^ durable.len() as u64);
    for line in durable {
        mix(line);
    }
    h
}

/// The reboot as it was: write, flush and fence the whole image into a
/// new pool, then apply the poison.
fn dense_reboot(bytes: &[u8], poisoned: &[(u64, bool)]) -> PmemPool {
    let pool = PmemPool::new(config());
    pool.write(PAddr(0), bytes);
    pool.flush(PAddr(0), bytes.len() as u64);
    pool.fence();
    for &(line, transient) in poisoned {
        pool.poison_line(line, transient);
    }
    pool
}

fn image_bytes(img: &CrashImage) -> Vec<u8> {
    let mut bytes = vec![0; img.len()];
    img.read(PAddr(0), &mut bytes);
    bytes
}

/// Read every line once, in order: bytes or the media error it raises
/// (transient errors clear as they are observed, on both sides alike).
fn line_reads(pool: &PmemPool) -> Vec<Result<Vec<u8>, crate::PmemError>> {
    (0..LINES)
        .map(|line| {
            let mut buf = vec![0; CACHE_LINE as usize];
            pool.try_read(PAddr(line * CACHE_LINE), &mut buf).map(|()| buf)
        })
        .collect()
}

const SHARD: u64 = SIZE / SHARDS as u64;

/// A range anywhere, or one straddling a shard boundary.
fn range_strategy() -> impl Strategy<Value = (u64, u64)> {
    prop_oneof![
        (0..SIZE - 256, 1..=128u64),
        (1..SHARDS as u64, 1..=128u64, 1..=256u64)
            .prop_map(|(b, back, len)| (b * SHARD - back, len)),
    ]
}

#[derive(Debug, Clone, Copy)]
enum FlatOp {
    Write { addr: u64, len: u64, fill: u8 },
    Flush { addr: u64, len: u64 },
    Fence,
}

fn flat_op_strategy() -> impl Strategy<Value = FlatOp> {
    prop_oneof![
        (range_strategy(), 1..=255u8).prop_map(|((addr, len), fill)| FlatOp::Write {
            addr,
            len,
            fill
        }),
        range_strategy().prop_map(|(addr, len)| FlatOp::Flush { addr, len }),
        Just(FlatOp::Fence),
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Flat {
    Clean,
    Dirty,
    Pending,
}

/// Write/flush/fence over one flat image with one state per line: no
/// shards, no flags, no lazily allocated images.
struct FlatModel {
    visible: Vec<u8>,
    durable: Vec<u8>,
    state: Vec<Flat>,
}

impl FlatModel {
    fn new() -> FlatModel {
        FlatModel {
            visible: vec![0; SIZE as usize],
            durable: vec![0; SIZE as usize],
            state: vec![Flat::Clean; LINES as usize],
        }
    }

    fn lines(addr: u64, len: u64) -> std::ops::RangeInclusive<usize> {
        (addr / CACHE_LINE) as usize..=((addr + len - 1) / CACHE_LINE) as usize
    }

    fn apply(&mut self, op: FlatOp) {
        match op {
            FlatOp::Write { addr, len, fill } => {
                self.visible[addr as usize..(addr + len) as usize].fill(fill);
                for l in Self::lines(addr, len) {
                    self.state[l] = Flat::Dirty;
                }
            }
            FlatOp::Flush { addr, len } => {
                for l in Self::lines(addr, len) {
                    if self.state[l] == Flat::Dirty {
                        self.state[l] = Flat::Pending;
                    }
                }
            }
            FlatOp::Fence => {
                for l in 0..LINES as usize {
                    if self.state[l] == Flat::Pending {
                        let r = l * CACHE_LINE as usize..(l + 1) * CACHE_LINE as usize;
                        self.durable[r.clone()].copy_from_slice(&self.visible[r]);
                        self.state[l] = Flat::Clean;
                    }
                }
            }
        }
    }

    /// The crash image keeping the lines `keep` picks from `visible`.
    fn image(&self, keep: impl Fn(Flat) -> bool) -> CrashImage {
        let mut lines = Vec::new();
        for l in 0..LINES as usize {
            let src = if keep(self.state[l]) { &self.visible } else { &self.durable };
            let bytes: [u8; CACHE_LINE as usize] =
                src[l * CACHE_LINE as usize..][..CACHE_LINE as usize].try_into().unwrap();
            if bytes != [0; CACHE_LINE as usize] {
                lines.push((l as u64, bytes));
            }
        }
        CrashImage::from_lines(SIZE, lines, Vec::new())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stores confined to the shards in `written`; flushes, fences and
    /// reads anywhere, many of them across shard boundaries.
    #[test]
    fn sharded_pool_matches_the_flat_model(
        ops in proptest::collection::vec(flat_op_strategy(), 0..64),
        written in 0..(1u8 << SHARDS),
    ) {
        let in_written = |addr: u64, len: u64| {
            (addr / SHARD..=(addr + len - 1) / SHARD).all(|s| written >> s & 1 == 1)
        };
        let pool = PmemPool::new(config());
        let mut model = FlatModel::new();
        for (i, &op) in ops.iter().enumerate() {
            if let FlatOp::Write { addr, len, fill } = op {
                if !in_written(addr, len) {
                    continue;
                }
                pool.write(PAddr(addr), &vec![fill; len as usize]);
            } else if let FlatOp::Flush { addr, len } = op {
                pool.flush(PAddr(addr), len);
            } else {
                pool.fence();
            }
            model.apply(op);
            let dirty = model.state.iter().filter(|&&s| s != Flat::Clean).count() as u64;
            prop_assert_eq!(pool.non_durable_lines(), dirty, "step {}", i);
            for (policy, keep) in [
                (CrashPolicy::Pessimistic, (|_| false) as fn(Flat) -> bool),
                (CrashPolicy::PendingOnly, |s| s == Flat::Pending),
                (CrashPolicy::Optimistic, |s| s != Flat::Clean),
            ] {
                let img = policy.apply(&pool);
                let want = model.image(keep);
                prop_assert_eq!(img.content_hash(), want.content_hash(), "step {} {:?}", i, policy);
                prop_assert_eq!(&img, &want);
            }
        }
        // Pre-filled, so a read that skips unallocated shards shows.
        let mut all = vec![0xA5; SIZE as usize];
        pool.read(PAddr(0), &mut all);
        prop_assert!(all == model.visible);
        for s in (0..SHARDS as u64).filter(|s| written >> s & 1 == 0) {
            prop_assert!(all[(s * SHARD) as usize..][..SHARD as usize].iter().all(|&b| b == 0));
        }
    }

    /// The sparse image equals the dense one, byte for byte and poison for
    /// poison, at every crash point and under every policy — so the
    /// policies' and the fault plan's random draws happen in the same
    /// order — and sparse hashes collide exactly when dense images do.
    #[test]
    fn sparse_images_and_hashes_match_the_dense_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..48),
        fault in fault_strategy(),
        seed in any::<u64>(),
    ) {
        let sparse = boot(fault);
        let dense = boot(fault);
        let mut hashes: Vec<(u64, u64)> = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            apply(&sparse, op);
            apply(&dense, op);
            if i % 6 != 5 && i + 1 != ops.len() {
                continue;
            }
            for policy in policies(seed ^ i as u64) {
                let img = policy.apply(&sparse);
                let (bytes, poisoned) = dense_apply(policy, &dense);
                prop_assert_eq!(&image_bytes(&img), &bytes, "step {} {:?}", i, policy);
                prop_assert_eq!(img.poisoned(), &poisoned[..]);
                hashes.push((img.content_hash(), dense_hash(&bytes, &poisoned)));
            }
        }
        prop_assert_eq!(sparse.fault_stats(), dense.fault_stats());
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                prop_assert_eq!(a.0 == b.0, a.1 == b.1, "sparse and dense hashes disagree");
            }
        }
    }

    /// Reboot in place from an image, then reset for a new run: each
    /// stage matches a freshly booted pool.
    #[test]
    fn reused_pools_behave_like_fresh_ones(
        first in proptest::collection::vec(op_strategy(), 0..40),
        second in proptest::collection::vec(op_strategy(), 0..40),
        fault_a in fault_strategy(),
        fault_b in fault_strategy(),
        seed in any::<u64>(),
    ) {
        let mut reused = boot(fault_a);
        let twin = boot(fault_a);
        for &op in &first {
            apply(&reused, op);
            apply(&twin, op);
        }
        let policy = policies(seed)[(seed % 4) as usize];
        let img = policy.apply(&reused);
        let (bytes, poisoned) = dense_apply(policy, &twin);

        // Reboot: the reused pool against the write/flush/fence reboot.
        reused.load_image(&img);
        let oracle = dense_reboot(&bytes, &poisoned);
        prop_assert_eq!(reused.poisoned_line_count(), oracle.poisoned_line_count());
        prop_assert_eq!(reused.non_durable_lines(), 0);
        prop_assert_eq!(oracle.non_durable_lines(), 0);
        prop_assert_eq!(reused.stats(), StatsSnapshot::default());
        prop_assert!(reused.fault_stats().is_none());
        prop_assert_eq!(line_reads(&reused), line_reads(&oracle));

        // Reset: a second run on the reused pool against a fresh pool.
        reused.reset(fault_b);
        let fresh = boot(fault_b);
        prop_assert_eq!(reused.stats(), StatsSnapshot::default());
        prop_assert_eq!(reused.poisoned_line_count(), 0);
        for &op in &second {
            apply(&reused, op);
            apply(&fresh, op);
        }
        prop_assert_eq!(reused.stats(), fresh.stats());
        prop_assert_eq!(reused.non_durable_lines(), fresh.non_durable_lines());
        for policy in policies(seed) {
            prop_assert_eq!(policy.apply(&reused), policy.apply(&fresh));
        }
        prop_assert_eq!(reused.fault_stats(), fresh.fault_stats());
        prop_assert_eq!(line_reads(&reused), line_reads(&fresh));
    }
}
