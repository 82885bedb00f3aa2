//! Recycled `f32` buffers for code that builds and drops the same
//! tensors over and over — a training step's autograd tapes.
//!
//! A [`BufferPool`] does nothing until a thread [enters](BufferPool::enter)
//! it. Inside that scope every dense `f32` [`Tensor`](crate::Tensor)
//! constructor draws its backing `Vec` from the pool, and every dense
//! tensor dropped on the thread hands its `Vec` back instead of freeing
//! it. Outside a scope nothing changes: constructors allocate and drops
//! free exactly as before, at the cost of one thread-local read.
//!
//! A drawn buffer is always empty (`len == 0`); the constructor then
//! zero-fills it or overwrites it completely, so no value of a previous
//! tenant is ever observable — a pooled run is bit-identical to an
//! unpooled one.
//!
//! Buffers are shelved by capacity class, four per octave: a fresh buffer
//! wastes under a quarter of its size, and a draw takes the smallest
//! shelved buffer below twice the request, so a shorter table's tensors
//! fit the buffers a longer one left. Buffers handed back since the last
//! `trim` are searched first: a step that repeats the previous step's
//! draws then repeats its choices and allocates nothing. Retention is
//! bounded by
//! [`BufferPool::trim`]: it frees every buffer that was not handed back
//! since the previous `trim`, so a pool trimmed once per step holds at
//! most what that one step used.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex};

/// `log2` of the smallest pooled capacity. Smaller buffers stay with the
/// allocator, whose thread cache serves them without a lock.
const MIN_SHIFT: u32 = 8;
/// Capacity classes per octave.
const STEPS: usize = 4;

/// The class whose capacity is the largest not above `cap`, if `cap`
/// reaches the smallest class.
fn class_below(cap: usize) -> Option<usize> {
    let octave = cap.checked_ilog2()?.checked_sub(MIN_SHIFT)?;
    let base = 1usize << (octave + MIN_SHIFT);
    Some(octave as usize * STEPS + (cap - base) / (base / STEPS))
}

/// Capacity of class `c`.
fn class_capacity(c: usize) -> usize {
    let base = 1usize << (c / STEPS + MIN_SHIFT as usize);
    base + (c % STEPS) * (base / STEPS)
}

/// The smallest class that holds `n` elements.
fn class_above(n: usize) -> usize {
    match class_below(n) {
        Some(c) if class_capacity(c) == n => c,
        Some(c) => c + 1,
        None => 0,
    }
}

/// Free buffers, one shelf per capacity class; every buffer on shelf `c`
/// has at least `class_capacity(c)` capacity.
#[derive(Default)]
struct Shelves(Vec<Vec<Vec<f32>>>);

impl Shelves {
    fn pop(&mut self, class: usize) -> Option<Vec<f32>> {
        self.0.get_mut(class)?.pop()
    }

    fn push(&mut self, class: usize, buf: Vec<f32>) {
        if self.0.len() <= class {
            self.0.resize_with(class + 1, Vec::new);
        }
        self.0[class].push(buf);
    }
}

#[derive(Default)]
struct Inner {
    /// Handed back since the last [`BufferPool::trim`].
    recent: Shelves,
    /// Left over from before it; what `trim` frees.
    stale: Shelves,
    /// Bytes drawn and not handed back yet.
    out_bytes: u64,
    stats: PoolStats,
}

/// Cumulative draw counters of a [`BufferPool`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Draws served by a recycled buffer.
    pub hits: u64,
    /// Draws that had to allocate.
    pub misses: u64,
    /// Bytes those allocations asked for.
    pub fresh_bytes: u64,
    /// Elements of the largest buffer any draw asked for.
    pub largest_draw: usize,
    /// High-water, since the last [`BufferPool::trim`], of the bytes drawn
    /// and not yet handed back: what the tapes drawing from the pool held
    /// at their fullest. (A buffer handed back that was never drawn — a
    /// tensor built outside the scope — counts against it, down to zero.)
    pub peak_bytes: u64,
}

/// A shared pool of recycled `f32` buffers; see the [module docs](self).
/// Cloning yields another handle to the same pool.
#[derive(Clone, Default)]
pub struct BufferPool(Arc<Mutex<Inner>>);

thread_local! {
    /// The pool this thread's tensors draw from and return to.
    static ACTIVE: RefCell<Option<BufferPool>> = const { RefCell::new(None) };
}

/// Restores the thread's previous pool (usually none) when dropped.
pub struct PoolScope {
    prev: Option<BufferPool>,
    // The scope is this thread's state: it must end on the thread it began on.
    _not_send: PhantomData<*const ()>,
}

impl Drop for PoolScope {
    fn drop(&mut self) {
        // `try_with`: a scope that outlives its thread's locals has
        // nothing left to restore.
        let _ = ACTIVE.try_with(|a| *a.borrow_mut() = self.prev.take());
    }
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make this the calling thread's pool until the returned scope is
    /// dropped. Scopes nest; each thread that should recycle (every pool
    /// worker running part of a step) enters on its own.
    pub fn enter(&self) -> PoolScope {
        let prev = ACTIVE.with(|a| a.borrow_mut().replace(self.clone()));
        PoolScope { prev, _not_send: PhantomData }
    }

    /// Free every buffer that has not been handed back since the last
    /// call: afterwards the pool holds only what was in use in between.
    /// Restarts [`PoolStats::peak_bytes`] from what is drawn right now.
    pub fn trim(&self) {
        let freed = {
            let mut inner = self.lock();
            inner.stats.peak_bytes = inner.out_bytes;
            let recent = std::mem::take(&mut inner.recent);
            std::mem::replace(&mut inner.stale, recent)
        };
        drop(freed); // outside the lock
    }

    /// Draw counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Every update leaves the shelves valid, so a panic elsewhere
        // while the lock was held loses nothing.
        self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An empty buffer with room for `n` elements: the smallest shelved one
    /// within an octave above `n`'s class, else a new one of that class.
    fn draw(&self, n: usize) -> Vec<f32> {
        let class = class_above(n);
        let recycled = {
            let mut inner = self.lock();
            // Recent shelves first, all of them: what this step has handed
            // back so far depends only on the step's own draws, so a step
            // that repeats the previous one's draws repeats its choices
            // and takes from `stale` exactly where that one allocated.
            let fit = |shelves: &mut Shelves| (class..class + STEPS).find_map(|c| shelves.pop(c));
            let buf = fit(&mut inner.recent).or_else(|| fit(&mut inner.stale));
            inner.stats.largest_draw = inner.stats.largest_draw.max(n);
            let bytes = 4 * buf.as_ref().map_or(class_capacity(class), Vec::capacity) as u64;
            match buf {
                Some(_) => inner.stats.hits += 1,
                None => {
                    inner.stats.misses += 1;
                    inner.stats.fresh_bytes += bytes;
                }
            }
            inner.out_bytes += bytes;
            inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.out_bytes);
            buf
        };
        match recycled {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => Vec::with_capacity(class_capacity(class)),
        }
    }
}

/// The calling thread's pool, for a buffer of `n` elements or capacity.
fn active(n: usize) -> Option<BufferPool> {
    if n < 1 << MIN_SHIFT {
        return None;
    }
    ACTIVE.try_with(|a| a.borrow().clone()).ok().flatten()
}

/// An empty buffer with room for `n` elements.
pub(crate) fn with_capacity(n: usize) -> Vec<f32> {
    active(n).map_or_else(|| Vec::with_capacity(n), |p| p.draw(n))
}

/// `n` copies of `value`.
pub(crate) fn filled(n: usize, value: f32) -> Vec<f32> {
    match active(n) {
        Some(p) => {
            let mut buf = p.draw(n);
            buf.resize(n, value);
            buf
        }
        None => vec![value; n],
    }
}

/// A copy of `src`.
pub(crate) fn copy_of(src: &[f32]) -> Vec<f32> {
    let mut buf = with_capacity(src.len());
    buf.extend_from_slice(src);
    buf
}

/// Hand a dropped tensor's buffer to the thread's pool, or free it.
pub(crate) fn recycle(buf: Vec<f32>) {
    if let (Some(class), Some(p)) = (class_below(buf.capacity()), active(buf.capacity())) {
        let mut inner = p.lock();
        inner.out_bytes = inner.out_bytes.saturating_sub(4 * buf.capacity() as u64);
        inner.recent.push(class, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn classes_bracket_every_size() {
        assert_eq!(class_below(255), None);
        for n in (256..5000).chain([1 << 20, (1 << 20) + 1, 6_000_000]) {
            let (below, above) = (class_below(n).expect("poolable"), class_above(n));
            assert!(class_capacity(below) <= n && n <= class_capacity(above), "n = {n}");
            assert!(above - below <= 1 && class_capacity(above) < n + n / 4 + 1, "n = {n}");
            if below > 0 {
                assert!(class_capacity(below - 1) < class_capacity(below));
            }
        }
        assert_eq!(class_above(1), 0);
        assert_eq!(class_capacity(0), 256);
    }

    #[test]
    fn nothing_is_pooled_outside_a_scope() {
        let pool = BufferPool::new();
        drop(Tensor::zeros(vec![1024]));
        {
            let _scope = pool.enter();
            drop(Tensor::zeros(vec![1024]));
        }
        drop(Tensor::zeros(vec![1024]));
        assert_eq!(
            pool.stats(),
            PoolStats {
                hits: 0,
                misses: 1,
                fresh_bytes: 4096,
                largest_draw: 1024,
                peak_bytes: 4096
            }
        );
        // Small tensors never touch the pool.
        let _scope = pool.enter();
        drop(Tensor::zeros(vec![255]));
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn poisoned_buffers_come_back_clean() {
        // Every constructor must fill what it draws: park NaN-filled
        // buffers of the sizes drawn below, then look at the bits.
        let pool = BufferPool::new();
        let _scope = pool.enter();
        let poison = || {
            let sizes = [300usize, 600, 600, 1200, 1200];
            drop(sizes.map(|n| Tensor::full(vec![n], f32::NAN)));
        };
        poison();
        let before = pool.stats();
        let z = Tensor::zeros(vec![20, 30]);
        assert!(z.data().iter().all(|v| v.to_bits() == 0), "zeros not +0.0");
        let src = Tensor::from_slice(vec![300], &[1.5; 300]);
        let copies = [src.clone(), src.map(|v| v), src.reshape(vec![10, 30]).unwrap()];
        assert!(copies.iter().all(|t| t.data() == src.data()));
        drop((z, copies));
        poison();
        let a = Tensor::full(vec![2, 300], 2.0);
        let b = Tensor::full(vec![300], 0.5);
        let sum = a.broadcast_zip(&b, |x, y| x + y).unwrap();
        assert!(sum.data().iter().all(|&v| v == 2.5));
        assert!(sum.reduce_to_shape(&[300]).data().iter().all(|&v| v == 5.0));
        assert!(a.permute(&[1, 0]).data().iter().all(|&v| v == 2.0));
        assert!(a.index_select0(&[1, 0, 1]).data().iter().all(|&v| v == 2.0));
        assert!(Tensor::concat_cols(&[&a, &a]).data().iter().all(|&v| v == 2.0));
        assert!(Tensor::stack_rows(&[&b, &b]).data().iter().all(|&v| v == 0.5));
        let after = pool.stats();
        assert!(after.hits > before.hits, "the poisoned buffers were never drawn");
    }

    #[test]
    fn trim_keeps_only_what_was_used_since() {
        let pool = BufferPool::new();
        let _scope = pool.enter();
        drop([Tensor::zeros(vec![1000]), Tensor::zeros(vec![1000]), Tensor::zeros(vec![5000])]);
        pool.trim(); // all three were handed back since creation: kept
        drop(Tensor::zeros(vec![1000])); // one of the three is used again
        assert_eq!(pool.stats().misses, 3);
        pool.trim(); // frees the other two
        drop([Tensor::zeros(vec![1000]), Tensor::zeros(vec![1000]), Tensor::zeros(vec![5000])]);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (2, 5));
    }

    #[test]
    fn peak_bytes_is_the_high_water_of_what_is_out_since_the_last_trim() {
        let pool = BufferPool::new();
        let _scope = pool.enter();
        let a = Tensor::zeros(vec![1024]);
        let b = Tensor::zeros(vec![2048]);
        drop(a);
        let c = Tensor::zeros(vec![1024]); // a's buffer again: 12 KiB out, as before
        assert_eq!(pool.stats().peak_bytes, 4 * (1024 + 2048));
        drop(b);
        pool.trim(); // only `c` is out
        assert_eq!(pool.stats().peak_bytes, 4 * 1024);
        drop(c);
        drop(Tensor::zeros(vec![512]));
        assert_eq!(pool.stats().peak_bytes, 4 * 1024, "a lower level moved the high-water");
        pool.trim();
        assert_eq!(pool.stats().peak_bytes, 0);
    }

    #[test]
    fn a_draw_takes_the_smallest_buffer_within_an_octave() {
        let pool = BufferPool::new();
        let _scope = pool.enter();
        drop([Tensor::zeros(vec![2048]), Tensor::zeros(vec![1500]), Tensor::zeros(vec![1700])]);
        let fits = Tensor::zeros(vec![1000]); // the 1536 shelf, not 1792; 2048 is out of reach
        assert_eq!(pool.stats().hits, 1);
        let next = Tensor::zeros(vec![1000]);
        let none_left = Tensor::zeros(vec![1000]);
        assert_eq!((pool.stats().hits, pool.stats().misses), (2, 4));
        drop((fits, next, none_left));
        drop(Tensor::zeros(vec![2048]));
        assert_eq!(pool.stats().hits, 3);
    }

    #[test]
    fn buffers_cross_threads_through_the_pool() {
        let pool = BufferPool::new();
        let t = {
            let _scope = pool.enter();
            Tensor::zeros(vec![2048])
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let _scope = pool.enter();
                drop(t);
            });
        });
        let _scope = pool.enter();
        drop(Tensor::zeros(vec![2048]));
        assert_eq!(pool.stats().hits, 1);
    }
}
