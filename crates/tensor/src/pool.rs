//! A small persistent worker pool for data- and kernel-level parallelism.
//!
//! The build environment has no registry access, so this is a `std`-only
//! replacement for the usual `rayon` dependency. Design constraints:
//!
//! * **One global pool.** Worker threads are spawned lazily on first use
//!   and live for the process lifetime; repeated `parallel_for` calls pay
//!   only a channel send, never a `thread::spawn`.
//! * **Runtime-adjustable width.** [`set_threads`] changes the *split
//!   factor* used by subsequent calls without tearing the pool down, so a
//!   benchmark harness (or a determinism test) can sweep thread counts in
//!   one process. The pool only ever grows its worker set.
//! * **Split-invariant numerics.** Work is distributed as whole tasks via
//!   an atomic cursor; callers must ensure each task writes a disjoint
//!   region and performs its floating-point reductions in a fixed internal
//!   order. Under that contract, results are bit-identical for every
//!   thread count — the property the seeded-training determinism tests
//!   assert.
//! * **Nested calls run serial.** A `parallel_for` issued from inside a
//!   pool task executes inline on the calling worker. This keeps the hot
//!   path free of oversubscription when data-parallel training fans out
//!   tables whose kernels would otherwise fan out again.
//! * **A task's panic is the caller's.** Whichever thread ran the task,
//!   the unwind is caught there, the job still joins, and the first
//!   payload is re-raised from `parallel_for` — no worker is lost and no
//!   caller waits for a task that will never be counted.
//!
//! Sizing: `TURL_THREADS` env var if set, else
//! `std::thread::available_parallelism()`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};

/// A fat pointer to the caller's task closure, lifetime-erased.
///
/// Soundness: [`parallel_for`] does not return — normally or by unwinding —
/// until every claimed task index has finished, and indices past `len` are
/// never claimed, so the pointee is live whenever it is dereferenced. A
/// panicking task cannot cut the join short: [`Job::run`] catches the
/// unwind on whichever thread ran the task, the submitter's included, and
/// the payload is re-raised only after the join. A worker that dequeues
/// the job *after* completion only touches the atomics and exits.
struct TaskFn(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and is only dereferenced while the
// submitting call keeps it alive (see above).
unsafe impl Send for TaskFn {}
unsafe impl Sync for TaskFn {}

/// One `parallel_for` invocation, shared between the submitting thread and
/// any workers that pick it up.
struct Job {
    f: TaskFn,
    /// Next unclaimed task index.
    cursor: AtomicUsize,
    /// Total number of tasks.
    len: usize,
    /// Number of tasks that have finished executing, by returning or by
    /// panicking.
    done: AtomicUsize,
    /// The payload of the first task panic, for the submitter to re-raise.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job {
    /// Claim and run tasks until the cursor runs past the end. Never
    /// unwinds: a panicking task is counted done like any other and its
    /// payload kept (the first one wins), so the submitter's join always
    /// ends and a helper survives to take the next job.
    fn run(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                break;
            }
            // SAFETY: `i < len`, so the closure is still alive (the
            // submitter is blocked in `parallel_for` until `done == len`).
            let f = unsafe { &*self.f.0 };
            // Unwind safety: the payload goes back to the submitter, who
            // sees whatever the task left half-done exactly as it would
            // after a panic on its own thread.
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
                let mut first = self.panic.lock().expect("no task panics holding the panic slot");
                first.get_or_insert(payload);
            }
            self.done.fetch_add(1, Ordering::Release);
        }
    }
}

struct Pool {
    sender: Sender<Arc<Job>>,
    receiver: Arc<Mutex<Receiver<Arc<Job>>>>,
    /// Current split factor (effective thread count including the caller).
    width: AtomicUsize,
    /// Workers actually spawned so far.
    spawned: Mutex<usize>,
}

thread_local! {
    /// Non-zero while the current thread is executing pool tasks; nested
    /// `parallel_for` calls run inline instead of re-entering the pool.
    static POOL_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn env_default_threads() -> usize {
    if let Ok(v) = std::env::var("TURL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let (sender, receiver) = channel::<Arc<Job>>();
        let width = env_default_threads();
        turl_obs::pool_configure(width);
        Pool {
            sender,
            receiver: Arc::new(Mutex::new(receiver)),
            width: AtomicUsize::new(width),
            spawned: Mutex::new(0),
        }
    })
}

/// Ensure at least `n` helper workers exist (callers keep one share of the
/// work for themselves, so `width - 1` helpers suffice).
fn ensure_workers(n: usize) {
    let p = pool();
    let mut spawned = p.spawned.lock().expect("pool worker lock");
    while *spawned < n {
        let rx = Arc::clone(&p.receiver);
        let idx = *spawned;
        std::thread::Builder::new()
            .name(format!("turl-pool-{idx}"))
            .spawn(move || loop {
                let job = {
                    let guard = rx.lock().expect("pool queue lock");
                    guard.recv()
                };
                match job {
                    Ok(j) => POOL_DEPTH.with(|d| {
                        d.set(d.get() + 1);
                        // Observational only: the timer brackets the run
                        // without influencing which tasks this worker claims,
                        // so instrumented runs stay bit-identical.
                        if turl_obs::metrics_enabled() {
                            turl_obs::pool_dequeued();
                            let t0 = std::time::Instant::now();
                            j.run();
                            turl_obs::pool_helper_run(idx, t0.elapsed().as_nanos() as u64);
                        } else {
                            j.run();
                        }
                        d.set(d.get() - 1);
                    }),
                    Err(_) => break,
                }
            })
            .expect("failed to spawn pool worker");
        *spawned += 1;
    }
}

/// Set the effective thread count used by subsequent parallel sections.
///
/// `n` is clamped to at least 1. Values above the number of already
/// spawned workers grow the pool. This only changes how work is *split*;
/// kernel results are bit-identical across widths (see module docs).
pub fn set_threads(n: usize) {
    let n = n.max(1);
    pool().width.store(n, Ordering::Relaxed);
    turl_obs::pool_configure(n);
    if n > 1 {
        ensure_workers(n - 1);
    }
}

/// Effective thread count (including the calling thread).
pub fn n_threads() -> usize {
    pool().width.load(Ordering::Relaxed).max(1)
}

/// Whether the current thread is executing a pool task, i.e. a
/// [`parallel_for`] issued here would run inline. Kernels use it to skip
/// computing a split nobody will run in parallel.
pub(crate) fn in_task() -> bool {
    POOL_DEPTH.with(|d| d.get() > 0)
}

/// Run `f(0..n)` across the pool, blocking until every task completes.
///
/// Tasks are claimed dynamically, so callers should make each index a
/// meaningful chunk of work. Each index is executed exactly once. Calls
/// nested inside a pool task run serially inline. If a task panics, the
/// remaining tasks still run and the call then panics with the first
/// such payload, whichever thread the task ran on.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    if n == 0 {
        return;
    }
    let width = n_threads();
    if width <= 1 || n == 1 || in_task() {
        for i in 0..n {
            f(i);
        }
        return;
    }
    ensure_workers(width - 1);
    let f_ref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: lifetime erasure only — the pointee outlives every
    // dereference because this call joins all claimed tasks before
    // returning (see `TaskFn` docs).
    let f_erased = unsafe {
        std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const (dyn Fn(usize) + Sync)>(
            f_ref as *const _,
        )
    };
    let job = Arc::new(Job {
        f: TaskFn(f_erased),
        cursor: AtomicUsize::new(0),
        len: n,
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
    });
    let helpers = (width - 1).min(n - 1);
    if turl_obs::metrics_enabled() {
        turl_obs::pool_submitted(helpers as u64);
    }
    for _ in 0..helpers {
        // Send failures are impossible: the receiver lives in the global pool.
        let _ = pool().sender.send(Arc::clone(&job));
    }
    POOL_DEPTH.with(|d| {
        d.set(d.get() + 1);
        job.run();
        d.set(d.get() - 1);
    });
    // The caller ran out of tasks to claim; wait for helpers to finish the
    // tasks they already hold. This wait is short (at most one task per
    // helper) so a yielding spin is adequate and keeps the pool dep-free.
    while job.done.load(Ordering::Acquire) < n {
        std::thread::yield_now();
    }
    let panicked = job.panic.lock().expect("no task panics holding the panic slot").take();
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

/// Parallel mutable iteration: `f(i, &mut items[i])` for every `i`, each
/// element visited by exactly one task.
pub fn parallel_for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(items: &mut [T], f: F) {
    let base = items.as_mut_ptr() as usize;
    let n = items.len();
    parallel_for(n, move |i| {
        // SAFETY: each index is claimed exactly once, so `&mut` access to
        // element `i` never aliases; `base` outlives the call because
        // `parallel_for` joins before returning.
        let item = unsafe { &mut *(base as *mut T).add(i) };
        f(i, item);
    });
}

/// Split `0..n` into at most `ways` contiguous ranges of near-equal
/// size. Returns `(start, end)` pairs; empty ranges are omitted. Used by
/// kernels to turn "parallel over rows" into a bounded number of pool
/// tasks.
pub fn split_ranges_for(n: usize, ways: usize) -> Vec<(usize, usize)> {
    let ways = ways.clamp(1, n.max(1));
    let base = n / ways;
    let extra = n % ways;
    let mut out = Vec::with_capacity(ways);
    let mut start = 0usize;
    for w in 0..ways {
        let len = base + usize::from(w < extra);
        if len == 0 {
            continue;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// The pool width is process-global and tests run on parallel threads:
    /// one that sets it holds this until it is done.
    fn width_lock() -> MutexGuard<'static, ()> {
        static WIDTH: Mutex<()> = Mutex::new(());
        WIDTH.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn split_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 3, 7, 64, 65] {
            for ways in 1..9 {
                let ranges = split_ranges_for(n, ways);
                let total: usize = ranges.iter().map(|&(s, e)| e - s).sum();
                assert_eq!(total, n, "n={n} ways={ways}");
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "ranges must be contiguous");
                }
                assert!(ranges.len() <= ways.max(1));
            }
        }
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let _width = width_lock();
        set_threads(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_each_mut_writes_disjoint() {
        let _width = width_lock();
        set_threads(4);
        let mut items = vec![0u64; 100];
        parallel_for_each_mut(&mut items, |i, x| *x = i as u64 * 3);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u64 * 3);
        }
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let _width = width_lock();
        set_threads(4);
        let total = AtomicU64::new(0);
        parallel_for(8, |_| {
            parallel_for(8, |j| {
                total.fetch_add(j as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 28);
    }

    /// Hold the calling task until `n` tasks are inside at once, which
    /// takes `n` different threads; returns this one's id.
    fn rendezvous(arrived: &AtomicUsize, n: usize) -> ThreadId {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(120);
        while arrived.load(Ordering::SeqCst) < n {
            assert!(Instant::now() < deadline, "fewer than {n} pool threads are taking tasks");
            std::thread::yield_now();
        }
        std::thread::current().id()
    }

    /// `parallel_for(width, ..)` with every task on a thread of its own;
    /// `panics(on_caller)` says whether a thread's task panics once all
    /// of them are in flight. Returns the call's panic message, if any.
    fn run_with_panics(width: usize, panics: impl Fn(bool) -> bool + Sync) -> Option<String> {
        let caller = std::thread::current().id();
        let arrived = AtomicUsize::new(0);
        // Stack-local state the tasks keep touching after a sibling has
        // panicked: the closure and its captures must outlive all of them.
        let finished: Vec<AtomicUsize> = (0..width).map(|_| AtomicUsize::new(0)).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(width, |i| {
                let on_caller = rendezvous(&arrived, width) == caller;
                if panics(on_caller) {
                    panic!("task on the {} failed", if on_caller { "caller" } else { "helper" });
                }
                for _ in 0..100 {
                    std::thread::yield_now();
                    finished[i].fetch_add(1, Ordering::Relaxed);
                }
            });
        }));
        let all: usize = finished.iter().map(|f| f.load(Ordering::Relaxed)).sum();
        let survivors = (0..width).filter(|&i| finished[i].load(Ordering::Relaxed) > 0).count();
        assert_eq!(all, survivors * 100, "a surviving task was cut short");
        result.err().map(|payload| *payload.downcast::<String>().expect("a formatted message"))
    }

    #[test]
    fn task_panic_reaches_the_caller_and_costs_no_worker() {
        let _width = width_lock();
        for width in [1, 2, 4] {
            set_threads(width);
            // The caller's own task panics while the helpers are mid-task:
            // the unwind must wait for them (they borrow the caller's stack).
            let msg = run_with_panics(width, |on_caller| on_caller);
            assert_eq!(msg.as_deref(), Some("task on the caller failed"), "width {width}");
            // Every helper panics: the caller must still be woken, with
            // one of their payloads, and the helpers must survive it.
            if width > 1 {
                let msg = run_with_panics(width, |on_caller| !on_caller);
                assert_eq!(msg.as_deref(), Some("task on the helper failed"), "width {width}");
            }
            // The next job still finds `width` threads to run on.
            assert_eq!(run_with_panics(width, |_| false), None, "width {width}");
        }
    }
}
