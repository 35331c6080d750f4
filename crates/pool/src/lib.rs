//! A std-only scoped worker pool with an order-preserving parallel map
//! and an ordered producer/consumer pipeline.
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
//! Workers are the caller's thread and `std::thread::scope` threads
//! spawned per call: the pool holds no persistent threads, so it can
//! borrow from the caller's stack and never outlives the data it maps
//! over. Items are handed out via an
//! atomic cursor (dynamic load balancing); each worker accumulates
//! `(index, result)` pairs locally and the caller scatters them back
//! into place after the join, which is what keeps order independent of
//! scheduling.
//!
//! [`Pool::pipeline`] is for work whose items cannot be listed up front
//! because one serial chain makes them: the chain runs on the caller's
//! thread and hands each item, in a recycled buffer, to the other
//! workers, at most a fixed number ahead. Results come back in the order
//! the chain made the items.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};

/// Environment variable overriding the worker count (`>= 1`).
const THREADS_ENV: &str = "LR_POOL_THREADS";

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

/// The worker count [`Pool::from_env`] resolves to.
fn threads_from_env() -> usize {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or_else(available_threads)
}

/// The pure parsing core of [`threads_from_env`]: `Some(n)` for a
/// positive integer (surrounding whitespace tolerated), `None` for an
/// unset, empty, zero, or unparsable value — callers fall back to the
/// host's available parallelism.
fn parse_threads(value: Option<&str>) -> Option<usize> {
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

    /// A pool sized from the environment: `LR_POOL_THREADS` when set to a
    /// positive integer, otherwise the host's available parallelism (1
    /// when that cannot be determined).
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

    /// Runs `produce` on the caller's thread while the other workers
    /// consume what it makes, and hands each item's result to `collect`,
    /// on the caller's thread, in production order.
    ///
    /// `produce` hands items over through [`Feed::push`], which fills a
    /// buffer of type `B` in place. At most `bound` buffers exist: a push
    /// with all of them in flight blocks until a consumer returns one, so
    /// a fast producer runs at most `bound` items ahead. Buffers are
    /// recycled, never freed, so a buffer arrives holding an earlier
    /// item's contents and the producer must overwrite them. Each result
    /// comes back with its buffer and goes to `collect` as soon as every
    /// earlier one has, so memory stays bounded however many items the
    /// producer makes, and the consumers keep nothing.
    ///
    /// Each consumer owns a state built by `init`, under the same rule as
    /// [`Pool::par_map_init`]: `consume` may use it as a cache or scratch
    /// space, but its result must not depend on which items the state
    /// has seen. The producer is the one place where order may carry
    /// state (a serial RNG, say), and it runs in one order for every
    /// worker count. With one worker `consume` runs inline, right after
    /// each push, on one buffer. Panics in any of the closures propagate.
    pub fn pipeline<B, R, S, P, I, C, K>(
        &self,
        bound: usize,
        produce: P,
        init: I,
        consume: C,
        mut collect: K,
    ) where
        B: Default + Send,
        R: Send,
        P: FnOnce(&mut Feed<'_, B, R>),
        I: Fn() -> S + Sync,
        C: Fn(&mut S, &B) -> R + Sync,
        K: FnMut(R),
    {
        if self.threads == 1 {
            let mut state = init();
            let mut inline = |buf: &B| consume(&mut state, buf);
            let mut feed = Feed::new(1, Link::Inline(&mut inline), &mut collect);
            produce(&mut feed);
            return feed.finish();
        }

        let (work_tx, work_rx) = mpsc::channel::<(usize, B)>();
        let (back_tx, back_rx) = mpsc::channel::<(usize, R, B)>();
        let work_rx = Mutex::new(work_rx);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..self.threads)
                .map(|_| {
                    let back_tx = back_tx.clone();
                    let (work_rx, init, consume) = (&work_rx, &init, &consume);
                    scope.spawn(move || {
                        let mut state = init();
                        loop {
                            let next = work_rx
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .recv();
                            let Ok((seq, buf)) = next else { break };
                            let result = consume(&mut state, &buf);
                            // The producer outlives every consumer.
                            let _ = back_tx.send((seq, result, buf));
                        }
                    })
                })
                .collect();
            drop(back_tx);
            let link = Link::Workers {
                work: work_tx,
                back: &back_rx,
            };
            let mut feed = Feed::new(bound.max(1), link, &mut collect);
            produce(&mut feed);
            feed.finish();
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// [`Pool::run`] with a per-worker state built by `init` on the
    /// worker's own thread and reused across every index it claims.
    ///
    /// The caller's thread is one of the workers: it claims indices
    /// beside the spawned ones instead of idling until they join. Its
    /// allocations then come from its own malloc arena, which earlier
    /// phases have already grown, rather than from one more thread's
    /// fresh arena: with glibc on a 2-vCPU x86-64 host, the paper-scale
    /// offline build's training peaks about 0.9 MB lower than with every
    /// worker spawned.
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

        let work = || {
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
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            for (i, r) in work() {
                slots[i] = Some(r);
            }
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

/// How a [`Feed`] reaches its consumers.
enum Link<'a, B, R> {
    /// One worker: the producer's thread consumes each item as it is
    /// pushed.
    Inline(&'a mut dyn FnMut(&B) -> R),
    /// Items go out on `work`; each comes back on `back` with its result.
    Workers {
        work: mpsc::Sender<(usize, B)>,
        back: &'a mpsc::Receiver<(usize, R, B)>,
    },
}

/// Puts results back into production order for [`Pool::pipeline`]'s
/// `collect`.
struct Collector<'a, R> {
    collect: &'a mut dyn FnMut(R),
    /// Results back ahead of an earlier one, by sequence number.
    early: BTreeMap<usize, R>,
    /// Sequence number of the next result `collect` takes.
    next: usize,
}

impl<R> Collector<'_, R> {
    /// Takes item `seq`'s result, and collects every result now in
    /// order.
    fn take(&mut self, seq: usize, result: R) {
        self.early.insert(seq, result);
        while let Some(result) = self.early.remove(&self.next) {
            (self.collect)(result);
            self.next += 1;
        }
    }
}

/// The producer's end of [`Pool::pipeline`].
pub struct Feed<'a, B, R> {
    link: Link<'a, B, R>,
    results: Collector<'a, R>,
    /// A buffer ready for the next push.
    spare: Option<B>,
    /// Buffers made so far, at most `bound`.
    made: usize,
    bound: usize,
    /// Sequence number of the next push.
    next: usize,
}

impl<'a, B: Default, R> Feed<'a, B, R> {
    fn new(bound: usize, link: Link<'a, B, R>, collect: &'a mut dyn FnMut(R)) -> Self {
        Self {
            link,
            results: Collector {
                collect,
                early: BTreeMap::new(),
                next: 0,
            },
            spare: None,
            made: 0,
            bound,
            next: 0,
        }
    }

    /// Hands the next item to a consumer: `fill` writes it into a free
    /// buffer, which holds an earlier item's contents unless it is new.
    /// Blocks while every buffer is in flight.
    pub fn push(&mut self, fill: impl FnOnce(&mut B)) {
        let Some(mut buf) = self.free_buffer() else {
            // Every consumer has panicked: drop the item, and let the
            // join re-raise their panic.
            return;
        };
        fill(&mut buf);
        let seq = self.next;
        self.next += 1;
        match &mut self.link {
            Link::Inline(consume) => {
                self.results.take(seq, consume(&buf));
                self.spare = Some(buf);
            }
            Link::Workers { work, .. } => {
                // A send fails only once every consumer has panicked.
                let _ = work.send((seq, buf));
            }
        }
    }

    /// The spare buffer or a returned one, else a new one while fewer
    /// than `bound` exist, else the next one a consumer returns. `None`
    /// once every consumer has panicked.
    fn free_buffer(&mut self) -> Option<B> {
        if let Some(buf) = self.spare.take() {
            return Some(buf);
        }
        let back = match &self.link {
            Link::Workers { back, .. } => Some(*back),
            Link::Inline(_) => None,
        };
        let returned = match back.map(mpsc::Receiver::try_recv) {
            Some(Ok(returned)) => returned,
            _ if self.made < self.bound => {
                self.made += 1;
                return Some(B::default());
            }
            _ => back?.recv().ok()?,
        };
        let (seq, result, buf) = returned;
        self.results.take(seq, result);
        Some(buf)
    }

    /// Closes the feed and collects every item still in flight.
    fn finish(self) {
        let Self {
            link, mut results, ..
        } = self;
        if let Link::Workers { work, back } = link {
            // Closes the work channel: each consumer drains it and stops,
            // which closes `back` once the last one is gone.
            drop(work);
            for (seq, result, _) in back.iter() {
                results.take(seq, result);
            }
        }
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
        assert!(Pool::resolve(0).threads >= 1);
        assert_eq!(Pool::resolve(3).threads, 3);
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

    /// [`Pool::pipeline`], returning what `collect` received.
    fn pipelined<B, R, S>(
        pool: Pool,
        bound: usize,
        produce: impl FnOnce(&mut Feed<'_, B, R>),
        init: impl Fn() -> S + Sync,
        consume: impl Fn(&mut S, &B) -> R + Sync,
    ) -> Vec<R>
    where
        B: Default + Send,
        R: Send,
    {
        let mut out = Vec::new();
        pool.pipeline(bound, produce, init, consume, |r| out.push(r));
        out
    }

    /// Produces `n` items, item `i` a buffer of `i % 7 + 1` words drawn
    /// from one serial SplitMix64 chain (state the producer carries from
    /// item to item), and sums each item on a consumer.
    fn chain_sums(pool: Pool, n: usize, bound: usize) -> Vec<u64> {
        pipelined(
            pool,
            bound,
            |feed| {
                let mut z = 0u64;
                for i in 0..n {
                    feed.push(|buf: &mut Vec<u64>| {
                        buf.clear();
                        for _ in 0..=i % 7 {
                            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                            buf.push((z ^ (z >> 31)) >> 8);
                        }
                    });
                }
            },
            || (),
            |(), buf| buf.iter().sum::<u64>(),
        )
    }

    #[test]
    fn pipeline_collects_results_in_production_order_for_any_worker_count() {
        let serial = chain_sums(Pool::new(1), 500, 4);
        assert_eq!(serial.len(), 500);
        for threads in [2, 4] {
            for bound in [1, 3, 64] {
                assert_eq!(chain_sums(Pool::new(threads), 500, bound), serial);
            }
        }
        let none = pipelined(
            Pool::new(4),
            2,
            |_: &mut Feed<'_, u64, u64>| {},
            || (),
            |(), &x| x,
        );
        assert!(none.is_empty());
    }

    #[test]
    fn pipeline_keeps_in_flight_items_within_the_bound() {
        for (threads, bound) in [(1, 1), (2, 1), (2, 3), (4, 5)] {
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let made = AtomicUsize::new(0);
            let out = pipelined(
                Pool::new(threads),
                bound,
                |feed| {
                    for i in 0..200u32 {
                        feed.push(|buf: &mut u32| {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            high_water.fetch_max(now, Ordering::SeqCst);
                            *buf = i;
                        });
                    }
                },
                || made.fetch_add(1, Ordering::SeqCst),
                |_, &x| {
                    // A slow consumer, so the producer runs into the bound.
                    std::thread::sleep(std::time::Duration::from_micros(20));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    x
                },
            );
            assert_eq!(out, (0..200).collect::<Vec<_>>());
            let high = high_water.load(Ordering::SeqCst);
            assert!(high <= bound, "{high} items in flight, bound {bound}");
            assert_eq!(made.load(Ordering::SeqCst), threads.max(2) - 1);
        }
    }

    #[test]
    fn pipeline_panics_propagate_from_every_side() {
        let produce = |feed: &mut Feed<'_, u32, u32>| {
            for i in 0..50u32 {
                assert!(i != 20, "boom in producer");
                feed.push(|buf| *buf = i);
            }
        };
        for threads in [1, 2, 4] {
            let producer = std::panic::catch_unwind(|| {
                Pool::new(threads).pipeline(2, produce, || (), |(), &x| x, |_| {})
            });
            assert!(producer.is_err(), "producer, {threads} workers");
            let feed_all = |feed: &mut Feed<'_, u32, u32>| {
                for i in 0..50u32 {
                    feed.push(|buf| *buf = i);
                }
            };
            let consumer = std::panic::catch_unwind(|| {
                let consume = |(): &mut (), &x: &u32| {
                    assert!(x != 20, "boom in consumer");
                    x
                };
                Pool::new(threads).pipeline(2, feed_all, || (), consume, |_| {})
            });
            assert!(consumer.is_err(), "consumer, {threads} workers");
            let collector = std::panic::catch_unwind(|| {
                let collect = |x: u32| assert!(x != 20, "boom in collect");
                Pool::new(threads).pipeline(2, feed_all, || (), |(), &x| x, collect)
            });
            assert!(collector.is_err(), "collect, {threads} workers");
        }
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
