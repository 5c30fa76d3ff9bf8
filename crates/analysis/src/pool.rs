//! Work-stealing worker pool for embarrassingly-parallel analysis loops.
//!
//! The static checker's per-root pipeline, the crash-point sweep, and the
//! repro benchmarks all share the same shape: a statically known list of
//! independent work items whose results are merged in item order. This
//! module runs such a list over a small pool of scoped worker threads.
//!
//! Scheduling is work-stealing over per-worker deques: items are dealt
//! round-robin at startup, each worker pops from the *front* of its own
//! deque and, when empty, steals from the *back* of a sibling's — the
//! classic split that keeps cache-warm items local and migrates only the
//! coldest work. Results are sent back over a channel tagged with the
//! item index and reassembled in input order, so callers observe a
//! deterministic, schedule-independent result vector.
//!
//! Each job body runs under [`std::panic::catch_unwind`]: a panicking
//! item becomes an `Err(message)` in the result slot of
//! [`run_indexed_caught`] while every other item completes normally.
//! [`run_indexed`] keeps the legacy contract — it re-raises the first
//! panic (in item order) after all workers have drained — so callers
//! that cannot represent partial failure still behave as the same loop
//! would have sequentially.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use parking_lot::Mutex;

/// Resolve a worker count: an explicit request wins, then the
/// `DEEPMC_JOBS` environment variable, then the machine's available
/// parallelism. Always at least 1.
///
/// An unparsable `DEEPMC_JOBS` warns (stderr + obs layer) and falls
/// back to the next source — a typo must not silently serialize or
/// misconfigure the run.
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    resolve_jobs_with_env(explicit, std::env::var("DEEPMC_JOBS").ok().as_deref())
}

/// [`resolve_jobs`] with the environment value injected, so the fallback
/// and warning paths are unit-testable without touching process env.
pub fn resolve_jobs_with_env(explicit: Option<usize>, env: Option<&str>) -> usize {
    if let Some(n) = explicit {
        if n > 0 {
            return n;
        }
    }
    if let Some(v) = env {
        match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => deepmc_obs::warning(
                "jobs.env_unparsable",
                &format!(
                    "DEEPMC_JOBS={v:?} is not a positive integer; \
                     falling back to available parallelism"
                ),
            ),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Resolve a user-facing `--jobs N` request where `0` means "all cores".
///
/// Every CLI that exposes a `--jobs` flag must route through this helper
/// so `0` behaves identically everywhere: it defers to `DEEPMC_JOBS`,
/// then available parallelism — the same fallback chain as omitting the
/// flag. (`check` and `crashsweep` used to disagree here, each rejecting
/// `--jobs 0` at a different layer.)
pub fn resolve_jobs_request(requested: usize) -> usize {
    resolve_jobs((requested > 0).then_some(requested))
}

/// Render a panic payload as a human-readable message. Panics raised via
/// `panic!("...")` carry a `String` or `&'static str`; anything else gets
/// a stable placeholder so degraded reports stay deterministic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run `f` over every item on up to `jobs` workers, returning the results
/// in item order regardless of which worker computed what.
///
/// With `jobs <= 1` (or one item) the items run inline on the calling
/// thread, in order — the zero-thread path parallel callers are compared
/// against for byte-identity.
///
/// A panicking item re-raises out of this function (first in item order)
/// once all workers have drained; use [`run_indexed_caught`] to receive
/// panics as per-item `Err` values instead.
pub fn run_indexed<T, R>(jobs: usize, items: Vec<T>, f: impl Fn(usize, T) -> R + Sync) -> Vec<R>
where
    T: Send,
    R: Send,
{
    run_indexed_caught(jobs, items, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("analysis worker panicked: {msg}")))
        .collect()
}

/// [`run_indexed`] with per-item panic isolation: each job body runs
/// under `catch_unwind`, so a panicking item yields `Err(message)` in its
/// result slot while every other item completes. The result vector is in
/// item order and independent of the worker count — the degraded-output
/// determinism the checker's report contract relies on.
pub fn run_indexed_caught<T, R>(
    jobs: usize,
    items: Vec<T>,
    f: impl Fn(usize, T) -> R + Sync,
) -> Vec<Result<R, String>>
where
    T: Send,
    R: Send,
{
    let n = items.len();
    // Progress (when a --progress sink is installed): each batch adds
    // its items to the declared total, each completed item ticks.
    // Strictly stderr presentation; results are untouched.
    deepmc_obs::progress::add_total(n as u64);
    if jobs <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                deepmc_obs::counter("pool.items", 1);
                let r = {
                    let _s = deepmc_obs::span_lazy("pool.job", || {
                        vec![("index", i.to_string()), ("stolen", "false".to_string())]
                    });
                    catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message)
                };
                deepmc_obs::progress::tick(1);
                r
            })
            .collect();
    }
    let workers = jobs.min(n);
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].lock().push_back((i, item));
    }
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    // If the caller is recording, workers attach to the same recorder
    // under worker ids 1..=N (the caller thread is worker 0), so spans
    // carry the executing worker and steals are visible in the trace.
    let recorder = deepmc_obs::Recorder::current();
    let deques = &deques;
    let f = &f;
    // A worker claims the front of its own deque as soon as its thread
    // runs, and siblings steal only from workers that have started: a
    // thread that starts late never loses its whole share to siblings
    // that finished short items first, so how much is stolen does not
    // hinge on thread start-up order. An idle worker retires only once
    // every sibling has started; until then it yields and retries, so
    // a late sibling's remaining share can still be stolen.
    let started: &Vec<AtomicBool> = &(0..workers).map(|_| AtomicBool::new(false)).collect();
    crossbeam::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let recorder = recorder.clone();
            s.spawn(move |_| {
                let _attach = recorder.as_ref().map(|r| r.attach(w as u32 + 1));
                let mut first = deques[w].lock().pop_front();
                started[w].store(true, Ordering::Release);
                loop {
                    // Own deque first (front: oldest local item), then
                    // steal from the back of the nearest started,
                    // non-empty sibling. The own-deque guard must drop
                    // before the steal loop — holding it while locking a
                    // sibling deadlocks two empty workers against each
                    // other.
                    let own = first.take().or_else(|| deques[w].lock().pop_front());
                    // Read before the steal scan: if every sibling had
                    // started and the scan finds nothing, all deques are
                    // empty for good.
                    let all_started = started.iter().all(|s| s.load(Ordering::Acquire));
                    let job = match own {
                        Some(j) => Some((j, false)),
                        None => (1..workers)
                            .map(|d| (w + d) % workers)
                            .filter(|&v| started[v].load(Ordering::Acquire))
                            .find_map(|v| deques[v].lock().pop_back())
                            .map(|j| (j, true)),
                    };
                    let Some(((i, item), stolen)) = job else {
                        if all_started {
                            return;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    deepmc_obs::counter("pool.items", 1);
                    if stolen {
                        deepmc_obs::counter("pool.steals", 1);
                    }
                    let r = {
                        let _s = deepmc_obs::span_lazy("pool.job", || {
                            vec![("index", i.to_string()), ("stolen", stolen.to_string())]
                        });
                        catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(panic_message)
                    };
                    deepmc_obs::progress::tick(1);
                    // The work set is static: once every deque is empty
                    // the worker can retire — nothing re-enqueues.
                    if tx.send((i, r)).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);
    })
    .expect("analysis worker panicked outside a job body");
    let mut out: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    for (i, r) in rx {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("every work item produces exactly one result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [0, 1, 2, 3, 8, 200] {
            let got = run_indexed(jobs, items.clone(), |_, x| x * x);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let got = run_indexed(4, (0..1000).collect::<Vec<usize>>(), |i, item| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, item);
            i
        });
        assert_eq!(hits.into_inner(), 1000);
        assert_eq!(got.len(), 1000);
    }

    #[test]
    fn index_matches_item_position() {
        let got = run_indexed(3, vec!["a", "b", "c", "d"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn workers_steal_imbalanced_items() {
        // One item is vastly heavier; stealing keeps the rest flowing.
        let got = run_indexed(4, (0..32u64).collect::<Vec<_>>(), |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(got, (1..=32u64).collect::<Vec<_>>());
    }

    /// Suppress the default panic hook's stderr noise for panics whose
    /// payload is marked as intentional test chaos.
    fn quiet_chaos_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let chaotic = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("chaos:"))
                    .or_else(|| info.payload().downcast_ref::<&str>().map(|s| s.contains("chaos:")))
                    .unwrap_or(false);
                if !chaotic {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn caught_panics_become_err_slots_in_item_order() {
        quiet_chaos_panics();
        for jobs in [1, 4] {
            let got = run_indexed_caught(jobs, (0..16u64).collect::<Vec<_>>(), |_, x| {
                if x % 5 == 0 {
                    panic!("chaos: item {x}");
                }
                x * 2
            });
            assert_eq!(got.len(), 16, "jobs={jobs}");
            for (i, r) in got.iter().enumerate() {
                if i % 5 == 0 {
                    assert_eq!(r.as_ref().unwrap_err(), &format!("chaos: item {i}"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn caught_results_are_identical_across_worker_counts() {
        quiet_chaos_panics();
        let run = |jobs| {
            run_indexed_caught(jobs, (0..64u32).collect::<Vec<_>>(), |_, x| {
                if x % 7 == 3 {
                    panic!("chaos: {x}");
                }
                x + 1
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn caught_static_str_payload_is_preserved() {
        quiet_chaos_panics();
        let got = run_indexed_caught(2, vec![0, 1], |_, x| {
            if x == 1 {
                panic!("chaos: static payload");
            }
            x
        });
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Err("chaos: static payload".to_string()));
    }

    #[test]
    fn run_indexed_reraises_job_panics() {
        quiet_chaos_panics();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(2, vec![0u8, 1, 2, 3], |_, x| {
                if x == 2 {
                    panic!("chaos: boom");
                }
                x
            })
        }));
        let msg = panic_message(caught.unwrap_err());
        assert!(msg.contains("chaos: boom"), "re-raised message carries payload: {msg}");
    }

    #[test]
    fn resolve_jobs_prefers_explicit() {
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn resolve_jobs_request_treats_zero_as_all_cores() {
        // Positive requests are taken literally.
        assert_eq!(resolve_jobs_request(5), 5);
        // `--jobs 0` falls back through the same chain as omitting the
        // flag entirely: DEEPMC_JOBS, then available parallelism.
        assert_eq!(resolve_jobs_request(0), resolve_jobs(None));
        assert!(resolve_jobs_request(0) >= 1);
    }

    #[test]
    fn resolve_jobs_env_precedence() {
        // Explicit beats env; a valid env beats the machine default.
        assert_eq!(resolve_jobs_with_env(Some(2), Some("7")), 2);
        assert_eq!(resolve_jobs_with_env(None, Some("7")), 7);
        assert_eq!(resolve_jobs_with_env(None, Some(" 5 ")), 5, "whitespace tolerated");
    }

    #[test]
    fn resolve_jobs_unparsable_env_warns_and_falls_back() {
        let fallback = resolve_jobs_with_env(None, None);
        for bad in ["banana", "", "-2", "0", "4.5"] {
            let rec = deepmc_obs::Recorder::new();
            let got = {
                let _a = rec.attach(0);
                resolve_jobs_with_env(None, Some(bad))
            };
            assert_eq!(got, fallback, "DEEPMC_JOBS={bad:?} falls back, not silently serializes");
            let data = rec.finish();
            let warn = data
                .events
                .iter()
                .find(|e| e.cat == "warn" && e.name == "jobs.env_unparsable")
                .unwrap_or_else(|| panic!("DEEPMC_JOBS={bad:?} must record a warning"));
            assert!(warn.args[0].1.contains("DEEPMC_JOBS"), "warning names the variable");
        }
    }

    #[test]
    fn pool_records_jobs_and_steals_when_attached() {
        let rec = deepmc_obs::Recorder::new();
        {
            let _a = rec.attach(0);
            // A heavy head item forces the other workers to steal.
            let got = run_indexed(4, (0..16u64).collect::<Vec<_>>(), |_, x| {
                if x == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                x
            });
            assert_eq!(got.len(), 16);
        }
        let data = rec.finish();
        assert_eq!(data.counter("pool.items"), 16, "every item counted exactly once");
        assert_eq!(data.spans_of("pool.job").count(), 16, "one span per job");
        // Workers are 1-based; the caller thread (0) records no job
        // spans on the threaded path.
        assert!(data.spans_of("pool.job").all(|e| e.worker >= 1));
        assert!(data.counter("pool.steals") <= 15, "steal count bounded by item count");
    }

    #[test]
    fn pool_counts_inline_jobs_on_caller_thread() {
        let rec = deepmc_obs::Recorder::new();
        {
            let _a = rec.attach(0);
            run_indexed(1, vec![1, 2, 3], |_, x| x);
        }
        let data = rec.finish();
        assert_eq!(data.counter("pool.items"), 3);
        assert_eq!(data.counter("pool.steals"), 0);
        assert!(data.spans_of("pool.job").all(|e| e.worker == 0));
    }
}
