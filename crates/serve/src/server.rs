//! The serving daemon: bounded accept loops, batching workers, and the
//! metrics/health/trace endpoints.
//!
//! Threading model (std-only, no async runtime): `conns` acceptor
//! threads share one nonblocking listener and handle each connection
//! inline — connections are keep-alive but served one request at a
//! time, so the number of in-flight requests is bounded by `conns`.
//! Task requests are validated, looked up in the encode cache, and on
//! a miss pushed onto the [`BatchQueue`]; `workers` worker threads
//! pull shape-coalesced batches, run the compiled forward (bounded
//! plan cache per worker), and reply over the job's channel. Shutdown
//! is ordered so no in-flight request is ever dropped: stop accepting
//! → join acceptors (each finishes its current request) → close the
//! queue → join workers (they drain what is left).
//!
//! # Telemetry
//!
//! Every request carries a trace id (`x-request-id` header or a
//! generated one, always echoed back). Its timeline is attributed to
//! six stages — `decode`, `queue_wait`, `batch_assemble`, `forward`
//! (amortized batch share), `encode`, `write` — stamped into a shared
//! [`StageCell`] as it crosses the connection and worker threads.
//! Per-stage and per-endpoint histograms are always on; when tracing
//! is enabled (the default) each completed `/v1/*` request is also
//! folded into a bounded [`TraceReservoir`] (K slowest + uniform
//! sample) served at `/admin/traces` and dumped via `--trace-out`.
//! Instrumentation only reads clocks and bumps atomics, so responses
//! are bit-identical with tracing on or off.

use crate::cache::{canonical_bytes, fnv1a, EncodeCache};
use crate::http::{
    read_request, write_response, Request, ResponseMeta, IO_TIMEOUT, KEEP_ALIVE_IDLE,
};
use crate::protocol::{HealthResponse, MetricsResponse, ServeError};
use crate::queue::{BatchQueue, Job, ShapeKey};
use crate::session::{exec_to_serve, Session};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use turl_core::TableBatch;
use turl_obs::{Counter, Gauge, Histogram, RequestTrace, Stage, StageCell, TraceReservoir};
use turl_tensor::Tensor;

/// Request-latency histogram bounds in microseconds (50 µs – 1 s).
const LATENCY_BOUNDS_US: [f64; 14] = [
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
];

/// Per-stage histogram bounds in microseconds. Stages can be much
/// shorter than whole requests, so three sub-50 µs buckets are added
/// below the request-latency bounds.
const STAGE_BOUNDS_US: [f64; 17] = [
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
];

/// Batch-occupancy histogram bounds (tables per forward).
const BATCH_BOUNDS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

/// Task endpoint names (the `endpoint` label on latency histograms).
const ENDPOINTS: [&str; 7] = [
    "encode",
    "entity_linking",
    "cell_filling",
    "row_population",
    "column_type",
    "relation_extraction",
    "schema_augmentation",
];

/// Slowest-trace reservoir capacity.
const K_SLOW: usize = 32;
/// Uniform-sample reservoir capacity.
const K_UNIFORM: usize = 128;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7433` (port 0 picks a free port).
    pub addr: String,
    /// Batching worker threads (each owns one compiled forward).
    pub workers: usize,
    /// Acceptor threads == maximum in-flight requests.
    pub conns: usize,
    /// Maximum tables coalesced into one forward.
    pub max_batch: usize,
    /// How long a worker waits for same-shape stragglers (µs).
    pub max_wait_us: u64,
    /// Maximum queued jobs before pushes answer 503.
    pub queue_depth: usize,
    /// Encoded-table LRU capacity (0 disables the cache).
    pub cache_cap: usize,
    /// Per-worker compiled-plan LRU capacity.
    pub plan_cache_cap: usize,
    /// Sample per-request traces into the reservoir (stage and
    /// endpoint histograms stay on either way).
    pub tracing: bool,
    /// Dump the trace reservoir as JSONL here on shutdown.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7433".into(),
            workers: 1,
            conns: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2),
            max_batch: 8,
            max_wait_us: 500,
            queue_depth: 256,
            cache_cap: 256,
            plan_cache_cap: turl_core::DEFAULT_PLAN_CACHE_CAP,
            tracing: true,
            trace_out: None,
        }
    }
}

/// Serving instruments, registered once in the process-global metrics
/// registry so `--metrics-out` runs land them in the stream for
/// `turl report` and `/metrics` renders them as Prometheus families.
struct Instruments {
    requests: Arc<Counter>,
    ok: Arc<Counter>,
    client_errors: Arc<Counter>,
    server_errors: Arc<Counter>,
    rejected_overload: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    batches: Arc<Counter>,
    batched_tables: Arc<Counter>,
    latency_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    plan_cache_size: Arc<Gauge>,
    plan_evictions: Arc<Gauge>,
    queue_depth: Arc<Gauge>,
    queue_depth_max: Arc<Gauge>,
    uptime_seconds: Arc<Gauge>,
    /// Per-stage time histograms, indexed by [`Stage`] discriminant.
    stage_us: [Arc<Histogram>; 6],
    /// Per-endpoint latency histograms (same family as `latency_us`).
    endpoint_latency: Vec<(&'static str, Arc<Histogram>)>,
}

impl Instruments {
    fn get() -> Self {
        let stage_us = Stage::ALL.map(|s| {
            turl_obs::histogram(
                turl_obs::intern_name(&format!("serve.stage_us{{stage=\"{}\"}}", s.name())),
                &STAGE_BOUNDS_US,
            )
        });
        let endpoint_latency = ENDPOINTS
            .iter()
            .map(|ep| {
                let name = turl_obs::intern_name(&format!("serve.latency_us{{endpoint=\"{ep}\"}}"));
                (*ep, turl_obs::histogram(name, &LATENCY_BOUNDS_US))
            })
            .collect();
        Self {
            requests: turl_obs::counter("serve.requests"),
            ok: turl_obs::counter("serve.responses_ok"),
            client_errors: turl_obs::counter("serve.responses_client_error"),
            server_errors: turl_obs::counter("serve.responses_server_error"),
            rejected_overload: turl_obs::counter("serve.rejected_overload"),
            cache_hits: turl_obs::counter("serve.cache_hits"),
            cache_misses: turl_obs::counter("serve.cache_misses"),
            batches: turl_obs::counter("serve.batches"),
            batched_tables: turl_obs::counter("serve.batched_tables"),
            latency_us: turl_obs::histogram("serve.latency_us", &LATENCY_BOUNDS_US),
            batch_size: turl_obs::histogram("serve.batch_size", &BATCH_BOUNDS),
            plan_cache_size: turl_obs::gauge("serve.plan_cache_size"),
            plan_evictions: turl_obs::gauge("serve.plan_evictions"),
            queue_depth: turl_obs::gauge("serve.queue_depth"),
            queue_depth_max: turl_obs::gauge("serve.queue_depth_max"),
            uptime_seconds: turl_obs::gauge("serve.uptime_seconds"),
            stage_us,
            endpoint_latency,
        }
    }

    fn observe_stage(&self, stage: Stage, ns: u64) {
        self.stage_us[stage as usize].observe(ns as f64 / 1_000.0);
    }

    fn endpoint_hist(&self, endpoint: &str) -> Option<&Arc<Histogram>> {
        self.endpoint_latency.iter().find(|(ep, _)| *ep == endpoint).map(|(_, h)| h)
    }
}

struct ServerCtx {
    session: Arc<Session>,
    queue: BatchQueue,
    cache: EncodeCache,
    inst: Instruments,
    stop: AtomicBool,
    started: Instant,
    max_batch: usize,
    max_wait: Duration,
    plan_cache_cap: usize,
    /// Per-instance (not global) so parallel tests with tracing on and
    /// off never race on shared state.
    tracing: bool,
    traces: TraceReservoir,
}

/// Per-request trace state threaded through the routing layer: the
/// cross-thread stage cell plus shape/cache facts only the task
/// handler knows.
struct TraceCtx {
    cell: Arc<StageCell>,
    n_tokens: u64,
    n_entities: u64,
    cached: bool,
}

impl TraceCtx {
    fn new() -> Self {
        Self { cell: Arc::new(StageCell::new()), n_tokens: 0, n_entities: 0, cached: false }
    }
}

/// A running server: join it with [`shutdown`](ServerHandle::shutdown).
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<ServerCtx>,
    acceptors: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a stop was requested (`/admin/shutdown`).
    pub fn stop_requested(&self) -> bool {
        self.ctx.stop.load(Ordering::SeqCst)
    }

    /// The trace reservoir rendered as JSONL (what `/admin/traces`
    /// serves and `--trace-out` writes).
    pub fn traces_jsonl(&self) -> String {
        self.ctx.traces.to_jsonl()
    }

    /// Ordered shutdown: stop accepting, finish every in-flight request,
    /// drain the queue, join all threads, and emit a final metrics
    /// snapshot. No accepted request is dropped.
    pub fn shutdown(self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        for t in self.acceptors {
            let _ = t.join();
        }
        self.ctx.queue.close();
        for t in self.workers {
            let _ = t.join();
        }
        if turl_obs::metrics_enabled() {
            turl_obs::emit_metrics_events();
        }
    }
}

/// Bind, spawn acceptors and workers, and return the running handle.
pub fn start(session: Arc<Session>, opts: &ServeOptions) -> Result<ServerHandle, String> {
    let listener =
        TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    turl_obs::gauge(turl_obs::intern_name(&format!(
        "turl_build_info{{version=\"{}\",dtype=\"{}\",cores=\"{cores}\",kernel=\"{}\"}}",
        env!("CARGO_PKG_VERSION"),
        session.dtype(),
        turl_tensor::ops::kernel_body(),
    )))
    .set(1.0);

    let ctx = Arc::new(ServerCtx {
        session,
        queue: BatchQueue::new(opts.queue_depth),
        cache: EncodeCache::new(opts.cache_cap),
        inst: Instruments::get(),
        stop: AtomicBool::new(false),
        started: Instant::now(),
        max_batch: opts.max_batch.max(1),
        max_wait: Duration::from_micros(opts.max_wait_us),
        plan_cache_cap: opts.plan_cache_cap,
        tracing: opts.tracing,
        traces: TraceReservoir::new(K_SLOW, K_UNIFORM),
    });

    let mut workers = Vec::with_capacity(opts.workers.max(1));
    for _ in 0..opts.workers.max(1) {
        let ctx = Arc::clone(&ctx);
        workers.push(std::thread::spawn(move || worker_loop(&ctx)));
    }
    let mut acceptors = Vec::with_capacity(opts.conns.max(1));
    for _ in 0..opts.conns.max(1) {
        let ctx = Arc::clone(&ctx);
        let listener = listener.try_clone().map_err(|e| e.to_string())?;
        acceptors.push(std::thread::spawn(move || accept_loop(&listener, &ctx)));
    }
    Ok(ServerHandle { addr, ctx, acceptors, workers })
}

fn accept_loop(listener: &TcpListener, ctx: &ServerCtx) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                handle_conn(&mut stream, ctx);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Serve one connection: a keep-alive loop reading requests until the
/// peer closes, asks to close, idles out, or the server is stopping.
fn handle_conn(stream: &mut TcpStream, ctx: &ServerCtx) {
    let mut first = true;
    let mut pending = Vec::new();
    loop {
        let idle = if first { IO_TIMEOUT } else { KEEP_ALIVE_IDLE };
        first = false;
        let req = match read_request(stream, idle, &mut pending) {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close or idle between requests
            Err(e) => {
                ctx.inst.client_errors.inc();
                write_response(stream, e.status(), &ResponseMeta::default(), &e.to_json());
                return;
            }
        };

        let trace_id = req.request_id.clone().unwrap_or_else(turl_obs::next_trace_id);
        let is_task = req.method == "POST" && req.path.starts_with("/v1/");
        let mut tr = TraceCtx::new();
        let (status, content_type, body) = route(ctx, &req, &mut tr);
        match status {
            200 => ctx.inst.ok.inc(),
            400..=499 => ctx.inst.client_errors.inc(),
            _ => ctx.inst.server_errors.inc(),
        }

        let close = !req.keep_alive || ctx.stop.load(Ordering::SeqCst);
        let meta = ResponseMeta { content_type, close, request_id: Some(&trace_id) };
        let t_write = Instant::now();
        write_response(stream, status, &meta, &body);
        if is_task {
            let write_ns = t_write.elapsed().as_nanos() as u64;
            tr.cell.record(Stage::Write, write_ns);
            ctx.inst.observe_stage(Stage::Write, write_ns);
            if ctx.tracing {
                let mut stage_ns = [0u64; 6];
                for s in Stage::ALL {
                    stage_ns[s as usize] = tr.cell.get(s);
                }
                ctx.traces.offer(RequestTrace {
                    id: trace_id,
                    endpoint: req.path.clone(),
                    status,
                    stage_ns,
                    batch_size: tr.cell.batch_size(),
                    peers: tr.cell.peers(),
                    n_tokens: tr.n_tokens,
                    n_entities: tr.n_entities,
                    cached: tr.cached,
                    total_ns: stage_ns.iter().sum(),
                });
            }
        }
        if close {
            return;
        }
    }
}

fn route(ctx: &ServerCtx, req: &Request, tr: &mut TraceCtx) -> (u16, &'static str, String) {
    const JSON: &str = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let resp = HealthResponse {
                ok: true,
                n_words: ctx.session.n_words(),
                n_entities: ctx.session.n_entities(),
                dim: ctx.session.d_model(),
            };
            let (status, body) = json_or_500(&resp);
            (status, JSON, body)
        }
        ("GET", "/metrics") => {
            // Refresh derived gauges, then render the whole registry in
            // Prometheus text exposition format.
            let _ = metrics_snapshot(ctx);
            let text = turl_obs::render_prometheus();
            (200, "text/plain; version=0.0.4", text)
        }
        ("GET", "/metrics.json") => {
            let (status, body) = json_or_500(&metrics_snapshot(ctx));
            (status, JSON, body)
        }
        ("GET", "/admin/traces") => (200, "application/x-ndjson", ctx.traces.to_jsonl()),
        ("POST", "/admin/shutdown") => {
            ctx.stop.store(true, Ordering::SeqCst);
            (200, JSON, "{\"ok\":true}".to_string())
        }
        ("POST", path) if path.starts_with("/v1/") => {
            let (status, body) = handle_task(ctx, path, &req.body, tr);
            (status, JSON, body)
        }
        (_, path) if path.starts_with("/v1/") || path == "/admin/shutdown" => {
            let e = ServeError::BadRequest(format!("{} expects POST", req.path));
            (405, JSON, e.to_json())
        }
        _ => {
            let e = ServeError::NotFound(format!("no such endpoint: {}", req.path));
            (e.status(), JSON, e.to_json())
        }
    }
}

fn handle_task(ctx: &ServerCtx, path: &str, body: &str, tr: &mut TraceCtx) -> (u16, String) {
    let t0 = Instant::now();
    ctx.inst.requests.inc();
    let result = task_response(ctx, path, body, tr);
    let us = t0.elapsed().as_micros() as f64;
    ctx.inst.latency_us.observe(us);
    if let Some(h) = ctx.inst.endpoint_hist(path.trim_start_matches("/v1/")) {
        h.observe(us);
    }
    match result {
        Ok(body) => (200, body),
        Err(e) => (e.status(), e.to_json()),
    }
}

fn task_response(
    ctx: &ServerCtx,
    path: &str,
    body: &str,
    tr: &mut TraceCtx,
) -> Result<String, ServeError> {
    let t_decode = Instant::now();
    let parsed = ctx.session.build_job(path, body);
    let decode_ns = t_decode.elapsed().as_nanos() as u64;
    tr.cell.record(Stage::Decode, decode_ns);
    ctx.inst.observe_stage(Stage::Decode, decode_ns);
    let (input, head) = parsed?;
    tr.n_tokens = input.token_ids.len() as u64;
    tr.n_entities = input.entities.len() as u64;

    let key = canonical_bytes(&input);
    let hash = fnv1a(&key);
    if let Some(h) = ctx.cache.get(hash, &key) {
        ctx.inst.cache_hits.inc();
        tr.cached = true;
        let t_enc = Instant::now();
        let resp = ctx.session.apply_head_shared(&head, &h, true);
        let encode_ns = t_enc.elapsed().as_nanos() as u64;
        tr.cell.record(Stage::Encode, encode_ns);
        ctx.inst.observe_stage(Stage::Encode, encode_ns);
        return resp;
    }
    ctx.inst.cache_misses.inc();
    let (reply, rx) = sync_channel(1);
    let job = Job {
        shape: ShapeKey::of(&input),
        input,
        hash,
        key,
        head,
        reply,
        enqueued: Instant::now(),
        selected: None,
        trace: Some(Arc::clone(&tr.cell)),
    };
    if ctx.queue.push(job).is_err() {
        ctx.inst.rejected_overload.inc();
        return Err(ServeError::Overloaded(format!(
            "batching queue is full ({} jobs)",
            ctx.queue.len()
        )));
    }
    ctx.inst.queue_depth.set(ctx.queue.len() as f64);
    ctx.inst.queue_depth_max.set(ctx.queue.high_watermark() as f64);
    rx.recv().map_err(|_| ServeError::Internal("worker exited before replying".into()))?
}

fn worker_loop(ctx: &ServerCtx) {
    let mut cf = ctx.session.model().compiled();
    cf.set_plan_cache_cap(ctx.plan_cache_cap);
    while let Some(batch) = ctx.queue.next_batch(ctx.max_batch, ctx.max_wait) {
        let dispatch = Instant::now();
        ctx.inst.batches.inc();
        ctx.inst.batched_tables.add(batch.len() as u64);
        ctx.inst.batch_size.observe(batch.len() as f64);
        for job in &batch {
            // enqueued → selected is queue wait; selected → dispatch is
            // batch assembly (waiting for same-shape stragglers).
            let selected = job.selected.unwrap_or(dispatch);
            let wait_ns = selected.duration_since(job.enqueued).as_nanos() as u64;
            let asm_ns = dispatch.duration_since(selected).as_nanos() as u64;
            ctx.inst.observe_stage(Stage::QueueWait, wait_ns);
            ctx.inst.observe_stage(Stage::BatchAssemble, asm_ns);
            if let Some(cell) = &job.trace {
                cell.record(Stage::QueueWait, wait_ns);
                cell.record(Stage::BatchAssemble, asm_ns);
            }
        }
        run_batch(ctx, &mut cf, batch);
        // Per-worker cache stats; exact with the default single worker,
        // last-writer-wins otherwise.
        ctx.inst.plan_cache_size.set(cf.compiled_shapes() as f64);
        ctx.inst.plan_evictions.set(cf.plan_evictions() as f64);
        ctx.inst.queue_depth.set(ctx.queue.len() as f64);
    }
}

/// One compiled forward over `batch`'s tables stacked as row segments
/// (a batch of one is a solo forward), then each member's head. When
/// the batch fails, every member is run again alone, so each gets its
/// own result or its own typed error.
fn run_batch(ctx: &ServerCtx, cf: &mut turl_core::CompiledForward, batch: Vec<Job>) {
    let t_fwd = Instant::now();
    let inputs: Vec<&turl_core::EncodedInput> = batch.iter().map(|j| &j.input).collect();
    let encoded = TableBatch::build(&inputs).and_then(|tb| {
        let h = cf.encode(ctx.session.model(), ctx.session.store(), tb.input())?;
        Ok(match tb.len() {
            1 => vec![h],
            k => (0..k).map(|i| tb.extract(i, &h)).collect(),
        })
    });
    match encoded {
        Ok(hs) => {
            // Each member's forward share is the amortized batch time.
            let k = batch.len() as u64;
            let share_ns = (t_fwd.elapsed().as_nanos() as u64) / k;
            for (job, h) in batch.into_iter().zip(hs) {
                ctx.inst.observe_stage(Stage::Forward, share_ns);
                if let Some(cell) = &job.trace {
                    cell.record(Stage::Forward, share_ns);
                    cell.set_batch(k, k - 1);
                }
                finish(ctx, cf, job, Arc::new(h));
            }
        }
        Err(e) => match <[Job; 1]>::try_from(batch) {
            Ok([job]) => {
                let _ = job.reply.send(Err(exec_to_serve(e)));
            }
            Err(batch) => {
                for job in batch {
                    run_batch(ctx, cf, vec![job]);
                }
            }
        },
    }
}

fn finish(ctx: &ServerCtx, cf: &turl_core::CompiledForward, job: Job, h: Arc<Tensor>) {
    ctx.cache.put(job.hash, job.key, Arc::clone(&h));
    let t_enc = Instant::now();
    let resp = ctx.session.apply_head(cf, &job.head, &h, false);
    let encode_ns = t_enc.elapsed().as_nanos() as u64;
    ctx.inst.observe_stage(Stage::Encode, encode_ns);
    if let Some(cell) = &job.trace {
        cell.record(Stage::Encode, encode_ns);
    }
    let _ = job.reply.send(resp);
}

fn json_or_500<T: serde::Serialize>(value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(s) => (200, s),
        Err(e) => {
            let err = ServeError::Internal(format!("response encode: {e}"));
            (err.status(), err.to_json())
        }
    }
}

fn metrics_snapshot(ctx: &ServerCtx) -> MetricsResponse {
    let i = &ctx.inst;
    let uptime_s = ctx.started.elapsed().as_secs_f64();
    let requests = i.requests.get();
    let batches = i.batches.get();
    let batched_tables = i.batched_tables.get();
    let hits = i.cache_hits.get();
    let misses = i.cache_misses.get();
    let lookups = hits + misses;
    let total = i.latency_us.total();
    let rps = if uptime_s > 0.0 { requests as f64 / uptime_s } else { 0.0 };
    let snapshot = MetricsResponse {
        uptime_s,
        requests,
        rps,
        ok: i.ok.get(),
        client_errors: i.client_errors.get(),
        server_errors: i.server_errors.get(),
        rejected_overload: i.rejected_overload.get(),
        latency_p50_us: i.latency_us.quantile(0.50).unwrap_or(0.0),
        latency_p99_us: i.latency_us.quantile(0.99).unwrap_or(0.0),
        latency_mean_us: if total > 0 { i.latency_us.sum() / total as f64 } else { 0.0 },
        batches,
        batched_tables,
        batch_occupancy: if batches > 0 { batched_tables as f64 / batches as f64 } else { 0.0 },
        cache_hits: hits,
        cache_misses: misses,
        cache_hit_rate: if lookups > 0 { hits as f64 / lookups as f64 } else { 0.0 },
        plan_cache_size: i.plan_cache_size.get(),
        plan_evictions: i.plan_evictions.get(),
        queue_depth: ctx.queue.len() as u64,
        queue_depth_max: ctx.queue.high_watermark() as u64,
        traces_sampled: ctx.traces.seen(),
    };
    turl_obs::gauge("serve.rps").set(snapshot.rps);
    turl_obs::gauge("serve.cache_hit_rate").set(snapshot.cache_hit_rate);
    turl_obs::gauge("serve.batch_occupancy").set(snapshot.batch_occupancy);
    i.uptime_seconds.set(uptime_s);
    i.queue_depth.set(snapshot.queue_depth as f64);
    i.queue_depth_max.set(snapshot.queue_depth_max as f64);
    if turl_obs::metrics_enabled() {
        turl_obs::emit_metrics_events();
    }
    snapshot
}

/// Run the daemon in the foreground until `/admin/shutdown`, SIGTERM, or
/// SIGINT, then shut down in order (no in-flight request dropped). The
/// whole run is wrapped in a `serve_run` span so a `--metrics-out`
/// stream digests cleanly under `turl report`. With `--trace-out`, the
/// final trace reservoir is written as JSONL after shutdown.
pub fn run(session: Session, opts: &ServeOptions) -> Result<(), String> {
    let span = turl_obs::span("serve_run");
    let handle = start(Arc::new(session), opts)?;
    signals::install();
    turl_obs::info(format!(
        "listening on http://{} ({} kernel)",
        handle.addr(),
        turl_tensor::ops::kernel_body()
    ));
    while !handle.stop_requested() && !signals::received() {
        std::thread::sleep(Duration::from_millis(20));
    }
    turl_obs::info("shutting down ...");
    let ctx = Arc::clone(&handle.ctx);
    handle.shutdown();
    if let Some(path) = &opts.trace_out {
        let jsonl = ctx.traces.to_jsonl();
        match std::fs::write(path, jsonl) {
            Ok(()) => turl_obs::info(format!(
                "wrote {} sampled traces to {}",
                ctx.traces.seen().min((K_SLOW + K_UNIFORM) as u64),
                path.display()
            )),
            Err(e) => turl_obs::warn(format!("cannot write {}: {e}", path.display())),
        }
    }
    drop(span);
    Ok(())
}

#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Route SIGTERM (15) and SIGINT (2) into a flag the serve loop
    /// polls — an async-signal-safe store, nothing else runs in the
    /// handler.
    pub fn install() {
        unsafe {
            signal(15, on_signal as extern "C" fn(i32) as usize);
            signal(2, on_signal as extern "C" fn(i32) as usize);
        }
    }

    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    /// No signal routing off unix; `/admin/shutdown` still works.
    pub fn install() {}

    pub fn received() -> bool {
        false
    }
}
