//! Kernel and pool profiling: fixed-slot per-op timing plus worker-pool
//! utilization counters.
//!
//! Ops register once into a fixed array of atomic slots, so the record
//! path (`record_op`) is two relaxed `fetch_add`s — no locks, no
//! allocation — and safe to call from pool workers. Everything here is
//! *observational*: it never influences task scheduling or RNG, which
//! is what keeps instrumented runs bit-identical (DESIGN §5d).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::FieldValue;
use crate::recorder::{emit, metrics_enabled};

/// Maximum distinct profiled ops.
pub const MAX_OPS: usize = 128;
/// Maximum pool workers tracked individually.
pub const MAX_POOL_WORKERS: usize = 64;

/// Handle to a registered op's profiling slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId(usize);

struct OpTable {
    names: Mutex<Vec<&'static str>>,
    calls: [AtomicU64; MAX_OPS],
    ns: [AtomicU64; MAX_OPS],
}

fn op_table() -> &'static OpTable {
    static TABLE: OnceLock<OpTable> = OnceLock::new();
    TABLE.get_or_init(|| OpTable {
        names: Mutex::new(Vec::new()),
        calls: std::array::from_fn(|_| AtomicU64::new(0)),
        ns: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

/// Register (or look up) an op name; idempotent.
///
/// Returns `None` once all [`MAX_OPS`] slots are taken — callers then
/// simply skip recording rather than failing.
pub fn register_op(name: &'static str) -> Option<OpId> {
    let t = op_table();
    let mut names = match t.names.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if let Some(idx) = names.iter().position(|n| *n == name) {
        return Some(OpId(idx));
    }
    if names.len() >= MAX_OPS {
        return None;
    }
    names.push(name);
    Some(OpId(names.len() - 1))
}

/// Record one completed call of `op` taking `ns` nanoseconds.
pub fn record_op(op: OpId, ns: u64) {
    let t = op_table();
    t.calls[op.0].fetch_add(1, Ordering::Relaxed);
    t.ns[op.0].fetch_add(ns, Ordering::Relaxed);
}

/// RAII guard timing one op invocation; inert when metrics are off.
pub struct OpTimer {
    op: OpId,
    started: Option<Instant>,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            record_op(self.op, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Time one invocation of a registered op (no-op while disabled).
#[must_use]
pub fn op_timer(op: Option<OpId>) -> Option<OpTimer> {
    if !metrics_enabled() {
        return None;
    }
    op.map(|op| OpTimer { op, started: Some(Instant::now()) })
}

/// Snapshot of every registered op: `(name, calls, total_ns)`.
pub fn op_snapshot() -> Vec<(&'static str, u64, u64)> {
    let t = op_table();
    let names = match t.names.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    names
        .iter()
        .enumerate()
        .map(|(i, n)| (*n, t.calls[i].load(Ordering::Relaxed), t.ns[i].load(Ordering::Relaxed)))
        .collect()
}

// ---------------------------------------------------------------------------
// Pool utilization
// ---------------------------------------------------------------------------

struct PoolStats {
    width: AtomicUsize,
    jobs: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    helper_runs: [AtomicU64; MAX_POOL_WORKERS],
    helper_busy_ns: [AtomicU64; MAX_POOL_WORKERS],
}

fn pool_stats() -> &'static PoolStats {
    static STATS: OnceLock<PoolStats> = OnceLock::new();
    STATS.get_or_init(|| PoolStats {
        width: AtomicUsize::new(0),
        jobs: AtomicU64::new(0),
        queue_depth: AtomicU64::new(0),
        max_queue_depth: AtomicU64::new(0),
        helper_runs: std::array::from_fn(|_| AtomicU64::new(0)),
        helper_busy_ns: std::array::from_fn(|_| AtomicU64::new(0)),
    })
}

/// Record the pool's configured worker count.
pub fn pool_configure(width: usize) {
    pool_stats().width.store(width, Ordering::Relaxed);
}

/// Record one parallel job submission fanning out `helpers` tasks.
pub fn pool_submitted(helpers: u64) {
    let s = pool_stats();
    s.jobs.fetch_add(1, Ordering::Relaxed);
    let depth = s.queue_depth.fetch_add(helpers, Ordering::Relaxed) + helpers;
    s.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
}

/// Record one task leaving the queue.
pub fn pool_dequeued() {
    let s = pool_stats();
    // saturating: a dequeue racing ahead of its submit must not wrap
    let _ = s
        .queue_depth
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| Some(d.saturating_sub(1)));
}

/// Record worker `idx` spending `ns` nanoseconds running one task.
pub fn pool_helper_run(idx: usize, ns: u64) {
    if idx < MAX_POOL_WORKERS {
        let s = pool_stats();
        s.helper_runs[idx].fetch_add(1, Ordering::Relaxed);
        s.helper_busy_ns[idx].fetch_add(ns, Ordering::Relaxed);
    }
}

/// Emit cumulative `op_profile` events (one per op) plus one `pool`
/// event. Call at epoch boundaries; consumers diff across snapshots.
pub fn emit_profile_events() {
    for (name, calls, ns) in op_snapshot() {
        if calls > 0 {
            emit(
                "op_profile",
                vec![
                    ("name", FieldValue::Str(name.to_string())),
                    ("calls", FieldValue::U64(calls)),
                    ("total_ns", FieldValue::U64(ns)),
                ],
            );
        }
    }
    let s = pool_stats();
    let width = s.width.load(Ordering::Relaxed);
    let n = width.min(MAX_POOL_WORKERS);
    let helper_runs: u64 = s.helper_runs[..n].iter().map(|c| c.load(Ordering::Relaxed)).sum();
    let busy_ns: u64 = s.helper_busy_ns[..n].iter().map(|c| c.load(Ordering::Relaxed)).sum();
    emit(
        "pool",
        vec![
            ("width", FieldValue::U64(width as u64)),
            ("jobs", FieldValue::U64(s.jobs.load(Ordering::Relaxed))),
            ("helper_runs", FieldValue::U64(helper_runs)),
            ("helper_busy_ns", FieldValue::U64(busy_ns)),
            ("max_queue_depth", FieldValue::U64(s.max_queue_depth.load(Ordering::Relaxed))),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_registration_is_idempotent() {
        let a = register_op("test_op_alpha").expect("slot");
        let b = register_op("test_op_alpha").expect("slot");
        assert_eq!(a, b);
        record_op(a, 100);
        record_op(a, 50);
        let snap = op_snapshot();
        let (_, calls, ns) =
            snap.iter().find(|(n, _, _)| *n == "test_op_alpha").expect("op present");
        assert!(*calls >= 2);
        assert!(*ns >= 150);
    }

    #[test]
    fn pool_counters_track_depth() {
        pool_configure(4);
        pool_submitted(3);
        pool_dequeued();
        pool_dequeued();
        pool_dequeued();
        pool_helper_run(0, 500);
        pool_helper_run(MAX_POOL_WORKERS + 5, 1); // out of range: ignored
        let s = pool_stats();
        assert!(s.max_queue_depth.load(Ordering::Relaxed) >= 3);
        assert!(s.helper_runs[0].load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn op_timer_disabled_without_sinks() {
        // no structured sink installed in this test binary by default
        let op = register_op("test_op_timer_gate");
        if !crate::recorder::metrics_enabled() {
            assert!(op_timer(op).is_none());
        }
    }
}
