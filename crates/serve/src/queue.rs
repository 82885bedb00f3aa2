//! The bounded cross-request batching queue.
//!
//! Connection threads push [`Job`]s; worker threads pull them with
//! [`BatchQueue::next_batch`], which coalesces up to `max_batch` jobs of
//! the *same input shape* (waiting at most `max_wait` for stragglers)
//! into one batched forward. Shape-divergent jobs are left queued and
//! served as singles by subsequent pulls — coalescing never reorders
//! jobs of a given shape, and a full queue is backpressure (the push
//! fails and the caller answers 503), never an unbounded buffer.

use crate::protocol::ServeError;
use crate::session::Head;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use turl_core::EncodedInput;
use turl_obs::StageCell;

/// The shape signature batching coalesces on — the four values the plan
/// cache's key takes from an input, so a coalesced batch of `k`
/// same-shape tables still occupies exactly one plan-cache slot per
/// distinct `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShapeKey {
    /// Metadata token count.
    pub n_tokens: usize,
    /// Entity cell count.
    pub n_entities: usize,
    /// Total mention tokens across cells.
    pub n_mention_tokens: usize,
    /// Whether the input carries a visibility mask.
    pub masked: bool,
}

impl ShapeKey {
    /// The shape signature of an encoded input.
    pub fn of(input: &EncodedInput) -> Self {
        Self {
            n_tokens: input.token_ids.len(),
            n_entities: input.entities.len(),
            n_mention_tokens: input.entities.iter().map(|e| e.mention.len()).sum(),
            masked: input.mask.is_some(),
        }
    }
}

/// One queued request: the validated input, what to compute from its
/// representations, and the channel the worker answers on.
pub struct Job {
    /// Validated encoded input.
    pub input: EncodedInput,
    /// Shape signature for coalescing.
    pub shape: ShapeKey,
    /// FNV-1a of the canonical input bytes (cache insert key).
    pub hash: u64,
    /// Canonical input bytes (cache insert key).
    pub key: Vec<u8>,
    /// Head to apply after the forward.
    pub head: Head,
    /// Worker's reply channel back to the connection thread.
    pub reply: SyncSender<Result<String, ServeError>>,
    /// Enqueue time (drives the queue-wait part of request latency).
    pub enqueued: Instant,
    /// When the batch assembler first selected this job (stamped by
    /// [`BatchQueue::next_batch`]); `enqueued..selected` is queue wait,
    /// `selected..dispatch` is batch assembly.
    pub selected: Option<Instant>,
    /// Per-request span scratchpad the worker stamps stage timings
    /// into, when the request is traced.
    pub trace: Option<Arc<StageCell>>,
}

struct Inner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Bounded MPSC queue with shape-coalescing batch pulls.
pub struct BatchQueue {
    inner: Mutex<Inner>,
    cond: Condvar,
    depth: usize,
    high_watermark: AtomicUsize,
}

impl BatchQueue {
    /// Queue admitting at most `depth` waiting jobs.
    pub fn new(depth: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { jobs: VecDeque::new(), closed: false }),
            cond: Condvar::new(),
            depth: depth.max(1),
            high_watermark: AtomicUsize::new(0),
        }
    }

    /// Enqueue a job. `Err` means the queue is full (backpressure — the
    /// caller answers 503) or closed; the job is handed back untouched.
    pub fn push(&self, job: Job) -> Result<(), Box<Job>> {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if inner.closed || inner.jobs.len() >= self.depth {
            return Err(Box::new(job));
        }
        inner.jobs.push_back(job);
        let len = inner.jobs.len();
        drop(inner);
        self.high_watermark.fetch_max(len, Ordering::Relaxed);
        self.cond.notify_all();
        Ok(())
    }

    /// Deepest the queue has ever been (overload visibility gauge).
    pub fn high_watermark(&self) -> usize {
        self.high_watermark.load(Ordering::Relaxed)
    }

    /// Pull the next batch: blocks for the first job, then coalesces up
    /// to `max_batch` *same-shape* jobs, waiting at most
    /// `max_wait` for more to arrive. Returns `None` once the queue is
    /// closed and drained — the worker's exit signal.
    pub fn next_batch(&self, max_batch: usize, max_wait: Duration) -> Option<Vec<Job>> {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let mut first = loop {
            if let Some(job) = inner.jobs.pop_front() {
                break job;
            }
            if inner.closed {
                return None;
            }
            inner = match self.cond.wait(inner) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        };
        first.selected = Some(Instant::now());
        let key = first.shape;
        let mut batch = vec![first];
        if max_batch <= 1 {
            return Some(batch);
        }
        let deadline = Instant::now() + max_wait;
        loop {
            let mut i = 0;
            while i < inner.jobs.len() && batch.len() < max_batch {
                if inner.jobs[i].shape == key {
                    if let Some(mut job) = inner.jobs.remove(i) {
                        job.selected = Some(Instant::now());
                        batch.push(job);
                        continue;
                    }
                }
                i += 1;
            }
            if batch.len() >= max_batch || inner.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = match self.cond.wait_timeout(inner, deadline - now) {
                Ok(r) => r,
                Err(p) => {
                    let r = p.into_inner();
                    (r.0, r.1)
                }
            };
            inner = guard;
            if timeout.timed_out() && inner.jobs.iter().all(|j| j.shape != key) {
                break;
            }
        }
        Some(batch)
    }

    /// Jobs currently waiting.
    pub fn len(&self) -> usize {
        match self.inner.lock() {
            Ok(g) => g.jobs.len(),
            Err(p) => p.into_inner().jobs.len(),
        }
    }

    /// True when no job is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Close the queue: pushes start failing, workers drain what is left
    /// and then see `None`.
    pub fn close(&self) {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        inner.closed = true;
        drop(inner);
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn job(n: usize, masked: bool) -> Job {
        let input = EncodedInput {
            token_ids: vec![1; n],
            token_types: vec![0; n],
            token_pos: (0..n).collect(),
            entities: Vec::new(),
            mask: masked.then(|| turl_tensor::Tensor::zeros(vec![n, n])),
        };
        Job {
            shape: ShapeKey::of(&input),
            input,
            hash: 0,
            key: Vec::new(),
            head: Head::Encode,
            reply: sync_channel(1).0,
            enqueued: Instant::now(),
            selected: None,
            trace: None,
        }
    }

    #[test]
    fn same_shape_jobs_coalesce_masked_or_not() {
        let queue = BatchQueue::new(16);
        for (tokens, masked) in [(3, false), (4, false), (3, false), (3, true), (3, true)] {
            assert!(queue.push(job(tokens, masked)).is_ok());
        }
        let pull = || {
            let batch = queue.next_batch(8, Duration::ZERO).expect("a job is queued");
            (batch.len(), batch[0].input.token_ids.len(), batch[0].shape.masked)
        };
        assert_eq!(pull(), (2, 3, false), "the unmasked 3-token jobs ride together");
        assert_eq!(pull(), (1, 4, false));
        assert_eq!(pull(), (2, 3, true));
    }
}
