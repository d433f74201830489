//! The counting pool: one process-wide set of parked helper threads that every
//! per-query fan-out runs on.
//!
//! A histogram sweep split into block ranges, and a sharded count op split into
//! per-shard legs, are both short (tens to hundreds of microseconds). Spawning a
//! thread per share costs about as much as the share itself, so instead the pool
//! starts `available_parallelism() − 1` helpers once, at first use, and parks them on
//! a condition variable. A call hands its shares to the pool's queue and wakes
//! helpers; nothing is spawned per query.
//!
//! ## The caller's rule
//!
//! The calling thread always runs the first share itself. It then takes back every
//! share of *its own call* that no helper has started yet and runs those too, and it
//! blocks only on shares a helper has already started. Hence:
//!
//! * nested fan-out (a shard leg that splits its sweep) cannot deadlock: every
//!   thread that waits, waits on a share that some running thread is executing;
//! * a pool with no helpers (a 1-core host, or `--no-default-features`) still
//!   completes every call, inline;
//! * a query never waits behind another query's share (say, a remote leg stuck in
//!   its hedge deadline), and never runs another query's share.
//!
//! A share that panics is caught where it ran and re-raised on its caller once the
//! call's other shares are done; the helper keeps serving. Results come back in
//! share order, so a caller's merge never depends on which thread ran what.
//!
//! Shares own their data (`'static` closures): every crate of the workspace forbids
//! `unsafe`, so a helper cannot borrow the caller's stack. Callers hand over `Arc`
//! clones instead.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};

/// A queued share, tagged with the id of the call that submitted it.
type Job = (u64, Box<dyn FnOnce() + Send>);

/// A set of parked helper threads and the queue they serve.
pub struct Pool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    next_call: AtomicU64,
}

struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued or the pool shuts down.
    work: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("no code panics while holding the pool queue lock")
    }
}

impl Pool {
    /// A pool with `helpers` parked helper threads. With 0 helpers every call runs
    /// inline on its caller. A helper the OS refuses to start is simply absent.
    pub fn new(helpers: usize) -> Pool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue::default()),
            work: Condvar::new(),
        });
        let helpers = (0..helpers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("pb-count-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect();
        Pool {
            shared,
            helpers,
            next_call: AtomicU64::new(0),
        }
    }

    /// Number of helper threads (the caller is not counted).
    pub fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Runs `task(i, inner)` for every `i` in `0..n` on at most `budget` threads
    /// (the caller included) and returns the results in index order.
    ///
    /// The indices are cut into `min(budget, n)` contiguous shares; the caller runs
    /// share 0 and helpers pick up the rest (see the module docs for who runs what).
    /// `inner` is each share's part of the budget (`budget / shares`, at least 1), so
    /// a task that fans out again never multiplies the two levels past the budget.
    /// With one share everything runs inline, with the whole budget as `inner`.
    ///
    /// # Panics
    /// Re-raises the first panic (in share order) of any task, after every share of
    /// the call has finished.
    pub fn run<T, F>(&self, budget: usize, n: usize, task: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize, usize) -> T + Send + Sync + 'static,
    {
        let budget = budget.max(1);
        let shares = budget.min(n);
        if shares <= 1 {
            return (0..n).map(|i| task(i, budget)).collect();
        }
        let inner = (budget / shares).max(1);
        let chunk = n.div_ceil(shares);
        let share = Arc::new(move |s: usize| -> Vec<T> {
            let hi = ((s + 1) * chunk).min(n);
            (s * chunk..hi).map(|i| task(i, inner)).collect()
        });

        let call = Arc::new(Call::new(shares));
        let id = self.next_call.fetch_add(1, Ordering::Relaxed);
        {
            let mut queue = self.shared.lock();
            for s in 1..shares {
                let (call, share) = (Arc::clone(&call), Arc::clone(&share));
                queue
                    .jobs
                    .push_back((id, Box::new(move || call.finish(s, catch(|| share(s))))));
            }
        }
        for _ in 0..(shares - 1).min(self.helpers.len()) {
            self.shared.work.notify_one();
        }

        call.finish(0, catch(|| share(0)));
        // Take back this call's shares that no helper has started, and run them here.
        let mine: VecDeque<Job> = {
            let mut queue = self.shared.lock();
            let (mine, others) = queue.jobs.drain(..).partition(|(call, _)| *call == id);
            queue.jobs = others;
            mine
        };
        for (_, job) in mine {
            job();
        }
        call.wait()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            // Jobs catch their own panics, so a helper thread never unwinds.
            let _ = helper.join();
        }
    }
}

fn helper_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.lock();
            loop {
                if let Some((_, job)) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared
                    .work
                    .wait(queue)
                    .expect("no code panics while holding the pool queue lock");
            }
        };
        job();
    }
}

fn catch<T>(f: impl FnOnce() -> T) -> thread::Result<T> {
    panic::catch_unwind(AssertUnwindSafe(f))
}

/// One call's result slots, filled by whichever thread ran each share.
struct Call<T> {
    state: Mutex<Slots<T>>,
    done: Condvar,
}

struct Slots<T> {
    results: Vec<Option<thread::Result<Vec<T>>>>,
    pending: usize,
}

impl<T> Call<T> {
    fn new(shares: usize) -> Call<T> {
        Call {
            state: Mutex::new(Slots {
                results: (0..shares).map(|_| None).collect(),
                pending: shares,
            }),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Slots<T>> {
        self.state
            .lock()
            .expect("no code panics while holding a call's result lock")
    }

    fn finish(&self, share: usize, result: thread::Result<Vec<T>>) {
        let mut slots = self.lock();
        slots.results[share] = Some(result);
        slots.pending -= 1;
        if slots.pending == 0 {
            self.done.notify_one();
        }
    }

    /// Blocks until every share has finished, then returns the results in share
    /// order, re-raising the first panic.
    fn wait(&self) -> Vec<T> {
        let mut slots = self.lock();
        while slots.pending > 0 {
            slots = self
                .done
                .wait(slots)
                .expect("no code panics while holding a call's result lock");
        }
        let results = std::mem::take(&mut slots.results);
        drop(slots);
        let mut out = Vec::new();
        for result in results {
            match result.expect("a finished call has every share's result") {
                Ok(values) => out.extend(values),
                Err(payload) => panic::resume_unwind(payload),
            }
        }
        out
    }
}

/// The process-wide counting pool, started at first use with one helper fewer than
/// the default budget (`PB_NUM_THREADS`, else the hardware parallelism). The
/// programmatic override never resizes it: a budget above the pool's size is still
/// correct, the caller just runs more shares itself.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(default_parallelism() - 1))
}

/// [`Pool::run`] on the [`global`] pool.
pub fn run<T, F>(budget: usize, n: usize, task: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize, usize) -> T + Send + Sync + 'static,
{
    global().run(budget, n, task)
}

/// Programmatic parallelism override; 0 means "not set".
static PARALLELISM_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread budget for index builds, histogram sweeps and shard fan-out
/// (`None` restores the default). Also how the tests force the parallel paths on
/// single-core machines — an in-process setting, unlike mutating `PB_NUM_THREADS`,
/// which could race with concurrent `getenv` calls.
pub fn set_parallelism_override(threads: Option<usize>) {
    PARALLELISM_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::Relaxed);
}

/// The thread budget for index builds, histogram sweeps and shard fan-out: the
/// programmatic override if set, else the default (`PB_NUM_THREADS`, else the
/// hardware parallelism).
pub fn available_parallelism() -> usize {
    match PARALLELISM_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_parallelism(),
        o => o,
    }
}

/// The `PB_NUM_THREADS` environment variable, else the hardware parallelism — both
/// read once per process, at first use, because the standard-library query re-reads
/// the cgroup CPU quota files on every call.
fn default_parallelism() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("PB_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_shard_order() {
        let pool = Pool::new(2);
        for budget in [1usize, 2, 3, 8] {
            let out = pool.run(budget, 7, |s, _| s * 10);
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "budget = {budget}");
        }
    }

    #[test]
    fn inner_budget_never_exceeds_total() {
        let pool = Pool::new(1);
        // 2 shares over a budget of 4: each task gets 2 inner threads.
        assert_eq!(pool.run(4, 2, |_, inner| inner), vec![2, 2]);
        assert_eq!(pool.run(1, 3, |_, inner| inner), vec![1, 1, 1]);
        // One share runs inline with the whole budget.
        assert_eq!(pool.run(3, 1, |_, inner| inner), vec![3]);
    }

    #[test]
    fn empty_and_default() {
        assert!(global().run(4, 0, |s, _| s).is_empty());
        assert!(available_parallelism() >= 1);
        assert_eq!(global().helpers(), default_parallelism() - 1);
        assert_eq!(Pool::new(0).run(0, 3, |s, _| s), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_callers_get_inline_results_in_order() {
        let pool = Arc::new(Pool::new(2));
        let expected =
            |caller: usize| -> Vec<usize> { (0..13).map(|i| caller * 1_000 + i * i).collect() };
        for budget in 1..=4 {
            let start = Arc::new(Barrier::new(8));
            let handles: Vec<_> = (0..8)
                .map(|caller| {
                    let (pool, start) = (Arc::clone(&pool), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        (0..20)
                            .map(|_| pool.run(budget, 13, move |i, _| caller * 1_000 + i * i))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for (caller, handle) in handles.into_iter().enumerate() {
                for out in handle.join().expect("caller thread") {
                    assert_eq!(out, expected(caller), "budget {budget}");
                }
            }
        }
    }

    #[test]
    fn budget_larger_than_the_pool_completes() {
        for helpers in [0, 1] {
            let pool = Pool::new(helpers);
            assert_eq!(pool.helpers(), helpers);
            let out = pool.run(4, 9, |i, inner| (i, inner));
            let expected: Vec<(usize, usize)> = (0..9).map(|i| (i, 1)).collect();
            assert_eq!(out, expected, "{helpers} helpers");
        }
    }

    #[test]
    fn nested_fan_out_terminates() {
        // Every outer share fans out again on the same pool, with its inner budget.
        let pool = Arc::new(Pool::new(1));
        let inner_pool = Arc::clone(&pool);
        let out = pool.run(4, 4, move |i, inner| {
            inner_pool
                .run(inner, 4, move |j, _| i * 10 + j)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(out, vec![6, 46, 86, 126]);
    }

    #[test]
    fn a_panicking_task_re_panics_on_its_caller_and_the_pool_survives() {
        let pool = Pool::new(1);
        for budget in [1, 2, 4] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(budget, 4, |i, _| {
                    assert_ne!(i, 3, "task 3 fails");
                    i
                })
            }));
            let payload = caught.expect_err("the task's panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(message.contains("task 3 fails"), "got {message:?}");
            assert_eq!(pool.run(budget, 4, |i, _| i), vec![0, 1, 2, 3]);
        }
    }
}
