//! A std-only scoped worker pool with an order-preserving parallel map.
//!
//! The rest of the workspace is written so that every result is a pure
//! function of its inputs and a seed; this crate adds host-side
//! parallelism without giving that up. The determinism contract:
//!
//! - **Results come back in input order.** `par_map` and friends return
//!   `Vec<R>` where slot `i` holds `f`'s output for item `i`, no matter
//!   which worker computed it or when it finished.
//! - **Work items own their state.** The closure receives one item (by
//!   shared or exclusive reference) and must not touch the others;
//!   seeded RNG state lives *inside* the item, never in shared storage.
//!   Under that rule the output is bit-for-bit identical for any thread
//!   count, including 1.
//! - **Thread count is an environment knob, not a semantic one.**
//!   [`Pool::from_env`] honors `LR_POOL_THREADS` (default: the host's
//!   available parallelism), so any run can be A/B'd against
//!   `LR_POOL_THREADS=1` and must produce byte-identical artifacts.
//!
//! Workers are `std::thread::scope` threads spawned per call: the pool
//! holds no persistent threads, so it can borrow from the caller's stack
//! and never outlives the data it maps over. Items are handed out via an
//! atomic cursor (dynamic load balancing); each worker accumulates
//! `(index, result)` pairs locally and the caller scatters them back
//! into place after the join, which is what keeps order independent of
//! scheduling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count (`>= 1`).
pub const THREADS_ENV: &str = "LR_POOL_THREADS";

/// A handle describing how many workers a parallel map may use.
///
/// # Examples
///
/// ```
/// use lr_pool::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The worker count [`Pool::from_env`] resolves to: `LR_POOL_THREADS`
/// when set to a positive integer, otherwise the host's available
/// parallelism (1 when that cannot be determined).
pub fn threads_from_env() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(available_threads)
}

/// The pure parsing core of [`threads_from_env`]: `Some(n)` for a
/// positive integer (surrounding whitespace tolerated), `None` for an
/// unset, empty, zero, or unparsable value — callers fall back to the
/// host's available parallelism.
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized from the environment (see [`threads_from_env`]).
    pub fn from_env() -> Self {
        Self::new(threads_from_env())
    }

    /// Resolves an override: `0` means "from the environment", any
    /// other value is an explicit worker count. This is the convention
    /// config structs use to embed a pool size.
    pub fn resolve(threads: usize) -> Self {
        if threads == 0 {
            Self::from_env()
        } else {
            Self::new(threads)
        }
    }

    /// Number of workers this pool will spawn (at most; never more than
    /// the number of items).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning results in input
    /// order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.iter().map(f).collect();
        }
        self.run(n, |i| f(&items[i]))
    }

    /// Like [`Pool::par_map`], but each worker owns a scratch state
    /// built by `init` (e.g. a feature cache or reusable buffer) that is
    /// threaded through every item that worker processes, and `f` also
    /// receives the item's index.
    ///
    /// The determinism contract extends to the state: `f` must produce a
    /// result that does not depend on the state's history (caches and
    /// scratch buffers qualify; accumulators do not), since which items
    /// share a worker's state varies with thread count and scheduling.
    pub fn par_map_init<T, R, S, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, x)| f(&mut state, i, x))
                .collect();
        }
        self.run_with(n, init, |state, i| f(state, i, &items[i]))
    }

    /// Maps `f` over `items` with exclusive access to each item,
    /// returning results in input order. Each item is visited exactly
    /// once, so mutation is race-free by construction; the per-item
    /// mutex exists only to prove that to the compiler and is never
    /// contended.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items.iter_mut().enumerate().map(|(i, x)| f(i, x)).collect();
        }
        let cells: Vec<Mutex<&mut T>> = items.iter_mut().map(Mutex::new).collect();
        self.run(n, |i| {
            #[expect(
                clippy::expect_used,
                reason = "each cell is locked once, so a poisoned lock is a pool bug"
            )]
            let mut guard = cells[i].lock().expect("pool cell poisoned");
            f(i, &mut guard)
        })
    }

    /// The shared fan-out core: hands indices `0..n` to workers via an
    /// atomic cursor and scatters `(index, result)` pairs back into
    /// input order. Panics in `f` are propagated to the caller.
    fn run<R, G>(&self, n: usize, g: G) -> Vec<R>
    where
        R: Send,
        G: Fn(usize) -> R + Sync,
    {
        self.run_with(n, || (), |(), i| g(i))
    }

    /// [`Pool::run`] with a per-worker state built by `init` on the
    /// worker's own thread and reused across every index it claims.
    #[expect(
        clippy::expect_used,
        reason = "the cursor hands out every index in 0..n exactly once"
    )]
    fn run_with<R, S, I, G>(&self, n: usize, init: I, g: G) -> Vec<R>
    where
        R: Send,
        I: Fn() -> S + Sync,
        G: Fn(&mut S, usize) -> R + Sync,
    {
        let workers = self.threads.min(n);
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        let mut local: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, g(&mut state, i)));
                        }
                        local
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });

        slots
            .into_iter()
            .map(|r| r.expect("every index computed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let out = pool.par_map(&items, |&x| x * 2);
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Each item owns its RNG state (a seed), per the pool contract.
        let seeds: Vec<u64> = (0..64).collect();
        let work = |&s: &u64| {
            // SplitMix64: a deterministic function of the item alone.
            let mut z = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 27)
        };
        let serial = Pool::new(1).par_map(&seeds, work);
        for threads in [2, 4, 7] {
            assert_eq!(Pool::new(threads).par_map(&seeds, work), serial);
        }
    }

    #[test]
    fn par_map_mut_gives_exclusive_access() {
        let mut items: Vec<Vec<u64>> = (0..33).map(|i| vec![i]).collect();
        let sums = Pool::new(4).par_map_mut(&mut items, |i, v| {
            v.push(i as u64 * 10);
            v.iter().sum::<u64>()
        });
        for (i, (item, sum)) in items.iter().zip(&sums).enumerate() {
            assert_eq!(item, &vec![i as u64, i as u64 * 10]);
            assert_eq!(*sum, i as u64 * 11);
        }
    }

    #[test]
    fn par_map_init_reuses_worker_state_without_changing_results() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();
        for threads in [1, 2, 5] {
            let inits = AtomicUsize::new(0);
            let out = Pool::new(threads).par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u64>::new() // a scratch buffer, rebuilt per worker
                },
                |scratch, _, &x| {
                    scratch.clear();
                    scratch.extend([x, x, x]);
                    scratch.iter().sum::<u64>()
                },
            );
            assert_eq!(out, expect);
            assert!(inits.load(Ordering::Relaxed) <= threads);
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert_eq!(pool.par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_zero_means_env() {
        assert!(Pool::resolve(0).threads() >= 1);
        assert_eq!(Pool::resolve(3).threads(), 3);
    }

    #[test]
    fn panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).par_map(&items, |&x| {
                if x == 9 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn panics_propagate_out_of_par_map_init() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            Pool::new(4).par_map_init(&items, Vec::<u32>::new, |_, _, &x| {
                if x == 17 {
                    panic!("boom in worker with state");
                }
                x
            })
        });
        assert!(result.is_err());
        // The serial (threads == 1) path must propagate too.
        let serial = std::panic::catch_unwind(|| {
            Pool::new(1).par_map_init(&items, Vec::<u32>::new, |_, _, &x| {
                if x == 17 {
                    panic!("boom serial");
                }
                x
            })
        });
        assert!(serial.is_err());
    }

    #[test]
    fn panics_propagate_out_of_par_map_mut() {
        let mut items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(move || {
            Pool::new(4).par_map_mut(&mut items, |_, x| {
                if *x == 3 {
                    panic!("boom mut");
                }
                *x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn init_and_mut_variants_accept_empty_input() {
        let pool = Pool::new(8);
        let empty: Vec<u32> = Vec::new();
        let out = pool.par_map_init(&empty, || 0u32, |_, _, &x| x);
        assert!(out.is_empty());
        let mut none: Vec<u32> = Vec::new();
        assert!(pool.par_map_mut(&mut none, |_, x| *x).is_empty());
    }

    #[test]
    fn thread_env_parsing_falls_back_on_bad_values() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 12\n")), Some(12));
        // Zero, garbage, empty, negative, and unset all defer to the host.
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("lots")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("-2")), None);
        assert_eq!(parse_threads(None), None);
        // And the fallback itself is always a usable worker count.
        assert!(threads_from_env() >= 1);
    }
}
