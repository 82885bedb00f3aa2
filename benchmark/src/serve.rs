//! The three serve workloads: real requests over loopback through the
//! product's own keep-alive client against the in-process daemon, in a
//! closed loop; and the open-loop sweep that probes the daemon's
//! queueing in the traced run of the int8 workload.

use crate::fixture::{build_serve, median_setup, Request, ServeFixture, World};
use crate::load::{mix_blocks, mix_by_weight, poisson_schedule, Arrival, OpRecord, Phase, Zipf};
use crate::spans::Recorder;
use crate::stats::{describe_ms, median, quantile_sorted, sorted};
use crate::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use turl_core::CompiledForward;
use turl_obs::{RequestTrace, Stage};
use turl_serve::{Client, MetricsResponse};

/// Client threads, each with one keep-alive connection. The daemon's
/// default acceptor count on the 2-core container is also 2, so this is
/// every connection it can serve at once.
const CLIENTS: usize = 2;

/// Every `PARITY_STRIDE`-th response (by request index) is kept and
/// compared with the offline compiled forward after the window.
const PARITY_STRIDE: usize = 16;

/// Tables in the cache-hit pool: below the daemon's default encode-cache
/// capacity of 256, so after one pass nothing is evicted.
const HOT_POOL: usize = 128;

/// Requests each client sends before the window of a distinct-table
/// workload, so that connections exist and code is paged in.
const WARMUP_PER_CLIENT: usize = 8;

/// Open-loop sweep: arrival rates, one phase each. The last one
/// saturates today's daemon.
const OPEN_RATES: [f64; 3] = [10.0, 20.0, 30.0];

/// Seconds per phase of the sweep. It is a per-layer probe of fixed
/// size, like the kernel microbenchmarks, not part of the timed window.
const OPEN_PHASE_S: f64 = 4.0;

/// Phases of [`OPEN_RATES`] that `serve.open_slo_attainment` covers.
const OPEN_GATED_PHASES: usize = 2;

/// Open-loop latency limit, from the due time.
const SLO_MS: f64 = 150.0;

/// A generator that overshoots a due time by this much while a sender
/// was free was starved of CPU: the run is then not a measurement of
/// the daemon. (Waiting for a free connection is not overshoot; it is
/// queueing, and counts towards latency from the due time.) Also the
/// last-quarter lateness beyond which a phase's backlog counts as growing.
const MAX_LATE_MS: f64 = 50.0;

/// Which serve workload. All three are closed loops of [`CLIENTS`]
/// clients at the daemon's default options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// f32 artifact, every request a distinct table: the encode cache
    /// always misses and the compiled forward does nearly all the work.
    Cold,
    /// f32 artifact, Zipf over a pool that fits the encode cache: the
    /// forward does almost nothing and the wire/JSON path all of it.
    Hot,
    /// int8 artifact, distinct tables: the forward runs the
    /// `matmul_q8`/`gather_rows_q8` kernels.
    Int8,
}

/// What the load generator brings back.
struct LoadResult {
    ops: Vec<OpRecord>,
    /// `(request index, response body)` for every kept response.
    kept: Vec<(usize, String)>,
    requests: u64,
    connects: u64,
}

/// When the senders send.
#[derive(Clone, Copy)]
enum Pace<'a> {
    /// Closed loop: each sender's next request follows its last reply,
    /// until the window has passed.
    BackToBack(Duration),
    /// Open loop: each sender takes the next due slot from the shared
    /// index and sleeps until it is due, until the schedule ends.
    Scheduled(&'a [Arrival]),
}

/// Run `CLIENTS` sender threads over `picks` (request index → pool
/// entry) at the given pace. Running out of picks is an error: a wrap
/// would turn cache misses into hits.
fn generate_load(
    addr: &str,
    requests: &[Request],
    picks: &[u32],
    pace: Pace,
    rec: &Recorder,
) -> Result<LoadResult, String> {
    let next = AtomicUsize::new(0);
    let t0 = rec.now_ns();
    let worker = || -> Result<LoadResult, String> {
        let mut client = Client::new(addr);
        let mut ops = Vec::new();
        let mut kept = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let mut now = rec.now_ns() - t0;
            let free_ns = now;
            let (due_ns, phase) = match pace {
                Pace::Scheduled(s) => match s.get(index) {
                    Some(a) => (a.due_ns, a.phase),
                    None => break,
                },
                Pace::BackToBack(window) if now >= window.as_nanos() as u64 => break,
                // A closed loop has no schedule: a request is due when sent.
                Pace::BackToBack(_) => (now, 0),
            };
            if index >= picks.len() {
                return Err(format!("request pool exhausted after {} requests", picks.len()));
            }
            if due_ns > now {
                std::thread::sleep(Duration::from_nanos(due_ns - now));
                now = rec.now_ns() - t0;
            }
            let request = &requests[picks[index] as usize];
            // Spans are recorded in alternate seconds of a traced run, so
            // that one run holds both sides of the overhead comparison.
            let traced = rec.enabled() && (now / 1_000_000_000) % 2 == 1;
            let sent_ns = now;
            let reply = client.post(request.path(), &request.body);
            let done_ns = rec.now_ns() - t0;
            if traced {
                rec.record("client.request", None, index as u64, t0 + sent_ns, t0 + done_ns);
            }
            let ok = matches!(reply, Ok((200, _)));
            ops.push(OpRecord { index, phase, due_ns, free_ns, sent_ns, done_ns, ok, traced });
            if index.is_multiple_of(PARITY_STRIDE) {
                kept.push((index, reply.map_or_else(|e| e, |(_, body)| body)));
            }
        }
        Ok(LoadResult { ops, kept, requests: client.requests(), connects: client.connects() })
    };
    let parts: Vec<Result<LoadResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|_| s.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut all = LoadResult { ops: Vec::new(), kept: Vec::new(), requests: 0, connects: 0 };
    for part in parts {
        let part = part?;
        all.ops.extend(part.ops);
        all.kept.extend(part.kept);
        all.requests += part.requests;
        all.connects += part.connects;
    }
    all.ops.sort_by_key(|o| o.index);
    all.kept.sort_by_key(|k| k.0);
    Ok(all)
}

/// What the offline path answers for `request`: `build_job` → compiled
/// forward → `apply_head` on the daemon's own store, each call under a
/// span of request `id`.
fn offline_response(
    fx: &ServeFixture,
    cf: &mut CompiledForward,
    request: &Request,
    id: u64,
    rec: &Recorder,
) -> Result<String, String> {
    let session = &fx.session;
    rec.time("check.parity", None, id, |p| {
        let (job, _) = rec
            .time("serve.build_job", p, id, |_| session.build_job(request.path(), &request.body));
        let (input, head) = job.map_err(|e| e.to_json())?;
        let (h, _) = rec
            .time("core.forward", p, id, |_| cf.encode(session.model(), session.store(), &input));
        let h = h.map_err(|e| e.to_string())?;
        let (body, _) =
            rec.time("serve.apply_head", p, id, |_| session.apply_head(cf, &head, &h, false));
        body.map_err(|e| e.to_json())
    })
    .0
}

/// Compare every kept response string-for-string (with `cached`
/// normalised) against [`offline_response`]. Returns `(checked,
/// mismatched)`.
fn check_parity(
    fx: &ServeFixture,
    picks: &[u32],
    kept: &[(usize, String)],
    rec: &Recorder,
) -> Result<(usize, usize), String> {
    let mut cf = fx.session.model().compiled();
    let mut want_by_pick: HashMap<u32, String> = HashMap::new();
    let mut mismatched = 0;
    for (index, got) in kept {
        let pick = picks[*index];
        let want = match want_by_pick.entry(pick) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let request = &fx.requests[pick as usize];
                v.insert(offline_response(fx, &mut cf, request, *index as u64, rec)?)
            }
        };
        if got.replace("\"cached\":true", "\"cached\":false") != *want {
            mismatched += 1;
        }
    }
    Ok((kept.len(), mismatched))
}

fn fetch_metrics(addr: &str) -> Result<MetricsResponse, String> {
    let (status, body) = Client::new(addr).get("/metrics.json")?;
    if status != 200 {
        return Err(format!("/metrics.json answered {status}"));
    }
    serde_json::from_str(&body).map_err(|e| format!("/metrics.json: {e}"))
}

/// Median of each serve stage over the daemon's uniform trace sample
/// (OK requests only), in microseconds, indexed by [`Stage`].
fn stage_medians_us(traces_jsonl: &str) -> Result<[f64; 6], String> {
    let events = turl_obs::parse_jsonl(traces_jsonl)?;
    let traces: Vec<RequestTrace> = events
        .iter()
        .filter_map(RequestTrace::from_event)
        .filter(|(t, sample)| sample == "uniform" && t.status == 200)
        .map(|(t, _)| t)
        .collect();
    Ok(Stage::ALL.map(|s| {
        let v: Vec<f64> = traces.iter().map(|t| t.stage_ns[s as usize] as f64 / 1e3).collect();
        median(&v)
    }))
}

fn ms(ops: &[&OpRecord]) -> Vec<f64> {
    ops.iter().filter(|o| o.ok).map(|o| o.latency_ms()).collect()
}

/// The open-loop sweep: seeded Poisson arrivals at each of
/// [`OPEN_RATES`] for [`OPEN_PHASE_S`] seconds, every request timed from
/// its due time. Fills the `serve.open_*` metrics and returns the load
/// for the parity check. Today's daemon does not repeat these numbers
/// from run to run (see the README), so none of them is end-to-end.
fn open_sweep(
    fx: &ServeFixture,
    picks: &[u32],
    rng: &mut StdRng,
    rec: &Recorder,
    out: &mut Outcome,
) -> Result<LoadResult, String> {
    let phases: Vec<Phase> =
        OPEN_RATES.iter().map(|&rate| Phase { rate, seconds: OPEN_PHASE_S }).collect();
    let schedule = poisson_schedule(rng, &phases);
    let (load, _) = rec.time("open_sweep", None, 0, |_| {
        generate_load(&fx.addr, &fx.requests, picks, Pace::Scheduled(&schedule), rec)
    });
    let load = load?;
    let mut max_rate_ok = 0.0;
    let mut unbroken = true;
    let (mut gated_inside, mut gated_n) = (0, 0);
    let (mut worst_late, mut worst_overshoot) = (0.0f64, 0.0f64);
    for (p, phase) in phases.iter().enumerate() {
        let ops: Vec<&OpRecord> = load.ops.iter().filter(|o| o.phase == p).collect();
        let ok = ops.iter().filter(|o| o.ok).count();
        let inside = ops.iter().filter(|o| o.ok && o.latency_ms() <= SLO_MS).count();
        let attainment = inside as f64 / ops.len().max(1) as f64;
        let lat = sorted(ms(&ops));
        let late: Vec<f64> = ops.iter().map(|o| o.late_ms()).collect();
        let max_late = late.iter().copied().fold(0.0, f64::max);
        let overshoot = ops.iter().map(|o| o.overshoot_ms()).fold(0.0, f64::max);
        // A backlog that grows shows as the last quarter of the phase
        // being sent later than the generator tolerates.
        let tail_late = median(&late[late.len() - late.len() / 4..]);
        unbroken &= attainment >= 0.95 && tail_late <= MAX_LATE_MS;
        if unbroken {
            max_rate_ok = phase.rate;
        }
        println!(
            "open loop phase {p}, {} req/s for {} s: attempted {} succeeded {ok} failed {}; \
             from due time {}; inside {SLO_MS} ms {attainment:.4}; sent late max {max_late:.2} ms, \
             last-quarter median {tail_late:.2} ms, generator overshoot max {overshoot:.2} ms",
            phase.rate,
            phase.seconds,
            ops.len(),
            ops.len() - ok,
            describe_ms(&lat)
        );
        let q = |q| if lat.is_empty() { 0.0 } else { quantile_sorted(&lat, q) };
        match p {
            0 => {
                out.layer.insert("serve.open_r10_p50_ms", q(0.5));
            }
            1 => {
                out.layer.insert("serve.open_r20_p50_ms", q(0.5));
                out.layer.insert("serve.open_r20_p95_ms", q(0.95));
            }
            _ => {
                out.layer.insert("serve.open_r30_p50_ms", q(0.5));
                out.layer.insert("serve.open_r30_attainment", attainment);
            }
        }
        if p < OPEN_GATED_PHASES {
            gated_inside += inside;
            gated_n += ops.len();
            worst_late = worst_late.max(max_late);
            worst_overshoot = worst_overshoot.max(overshoot);
        }
    }
    out.layer.insert("serve.open_slo_attainment", gated_inside as f64 / gated_n.max(1) as f64);
    out.layer.insert("serve.open_max_rate_ok_rps", max_rate_ok);
    out.layer.insert("serve.open_max_late_ms", worst_late);
    out.require(
        worst_overshoot <= MAX_LATE_MS,
        "the open-loop generator overshot a due time by > 50 ms with a sender free",
    );
    Ok(load)
}

/// Run one serve workload end to end: `setups` timed set-ups (the last
/// one is kept), warm-up, the measured window, the parity check and the
/// workload guards.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    setups: usize,
    out_dir: &Path,
    rec: &Recorder,
) -> Result<(Outcome, World), String> {
    let mut out = Outcome::default();
    let artifact = out_dir.join(format!("{kind:?}-{}.artifact", std::process::id()));
    let zipf_weights = Zipf::weights(HOT_POOL, 1.0);
    let endpoints = |world: &World, rng: &mut StdRng| match kind {
        Kind::Hot => mix_by_weight(&zipf_weights),
        Kind::Cold | Kind::Int8 => mix_blocks(rng, world.tables.len()),
    };

    let ((fx, world), setup_s) = median_setup(
        setups,
        rec,
        |p| build_serve(seed, kind == Kind::Int8, &endpoints, &artifact, rec, p),
        |(fx, _): (ServeFixture, World)| fx.server.shutdown(),
    )?;
    out.e2e.insert("setup_s", setup_s);
    println!(
        "setup: {} tables, {} requests ({} moved to /v1/encode), {:?}, nproc {}, pool width {}",
        world.tables.len(),
        fx.requests.len(),
        fx.swapped,
        fx.opts,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        turl_tensor::pool::n_threads(),
    );

    // Request sequences, all from the seed. Distinct-table workloads walk
    // the pool once: warm-up takes the head, the window the rest.
    let mut rng = StdRng::seed_from_u64(seed + 4);
    let n_warm = match kind {
        Kind::Hot => HOT_POOL,
        Kind::Cold | Kind::Int8 => CLIENTS * WARMUP_PER_CLIENT,
    };
    let warm_picks: Vec<u32> = (0..n_warm as u32).collect();
    let picks: Vec<u32> = match kind {
        Kind::Hot => {
            let zipf = Zipf::new(HOT_POOL, 1.0);
            (0..200_000).map(|_| zipf.sample(&mut rng) as u32).collect()
        }
        Kind::Cold | Kind::Int8 => (n_warm as u32..fx.requests.len() as u32).collect(),
    };

    // Warm-up: every warm-up pick once, as fast as the clients go,
    // nothing kept. For the cache-hit workload this requests every pool
    // entry exactly once, so that the window only hits.
    let all_due_now = vec![Arrival { due_ns: 0, phase: 0 }; n_warm];
    let (warm, warm_ns) = rec.time("warmup", None, 0, |_| {
        let quiet = Recorder::new(false);
        generate_load(&fx.addr, &fx.requests, &warm_picks, Pace::Scheduled(&all_due_now), &quiet)
    });
    let warm_failed = warm?.ops.iter().filter(|o| !o.ok).count();
    out.require(warm_failed == 0, "a warm-up request failed");
    out.layer.insert("serve.warmup_s", warm_ns as f64 / 1e9);

    let before = fetch_metrics(&fx.addr)?;
    let window = Duration::from_secs_f64(seconds);
    let (load, _) = rec.time("window", None, 0, |_| {
        generate_load(&fx.addr, &fx.requests, &picks, Pace::BackToBack(window), rec)
    });
    let load = load?;
    let after = fetch_metrics(&fx.addr)?;
    let stages = stage_medians_us(&fx.server.traces_jsonl())?;

    // ---- operations -----------------------------------------------------
    let ops: Vec<&OpRecord> = load.ops.iter().collect();
    let ok = ops.iter().filter(|o| o.ok).count();
    out.attempted = ops.len() as u64;
    out.failed = (ops.len() - ok) as u64;
    let elapsed_s = ops.iter().map(|o| o.done_ns).max().unwrap_or(0) as f64 / 1e9;
    let lat = sorted(ms(&ops));
    if lat.is_empty() {
        return Err("no request succeeded".into());
    }
    out.e2e.insert("throughput_per_s", ok as f64 / elapsed_s);
    out.e2e.insert("latency_p50_ms", quantile_sorted(&lat, 0.5));
    out.e2e.insert("latency_p95_ms", quantile_sorted(&lat, 0.95));
    println!(
        "closed loop, {CLIENTS} clients, {elapsed_s:.2} s: attempted {} succeeded {ok} failed {}; latency {}",
        ops.len(),
        out.failed,
        describe_ms(&lat)
    );

    // ---- the daemon's own counters, over the window ---------------------
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    let batches = after.batches - before.batches;
    let occupancy = (after.batched_tables - before.batched_tables) as f64 / batches.max(1) as f64;
    let reuse = 1.0 - load.connects.min(load.requests) as f64 / load.requests.max(1) as f64;
    let evictions = after.plan_evictions - before.plan_evictions;
    out.layer.insert("serve.cache_hit_ratio", hit_ratio);
    out.layer.insert("serve.batch_occupancy", occupancy);
    out.layer.insert("serve.queue_depth_max", after.queue_depth_max as f64);
    out.layer.insert(
        "serve.rejected_overload",
        (after.rejected_overload - before.rejected_overload) as f64,
    );
    out.layer.insert("serve.client_reuse_ratio", reuse);
    out.layer.insert("core.plan_evictions", evictions);
    for (stage, us) in Stage::ALL.iter().zip(stages) {
        let name = match stage {
            Stage::Decode => "serve.stage_decode_p50_us",
            Stage::QueueWait => "serve.stage_queue_wait_p50_us",
            Stage::BatchAssemble => "serve.stage_batch_assemble_p50_us",
            Stage::Forward => "serve.stage_forward_p50_us",
            Stage::Encode => "serve.stage_encode_p50_us",
            Stage::Write => "serve.stage_write_p50_us",
        };
        out.layer.insert(name, us);
    }
    // By construction: client p50 = Σ stage p50s + residual.
    let residual = out.e2e["latency_p50_ms"] - stages.iter().sum::<f64>() / 1e3;
    out.layer.insert("serve.wire_residual_ms", residual);
    println!(
        "daemon over the window: cache hits {hits} misses {misses}, {batches} forwards at {occupancy:.3} tables each, \
         plan evictions {evictions}, queue depth max {}, client connection reuse {reuse:.4}; \
         stage p50s {:.0?} us leave {residual:.2} ms of the client p50 outside the daemon's stages",
        after.queue_depth_max,
        stages
    );

    // ---- tracing overhead: untraced vs traced seconds of this run -------
    if rec.enabled() {
        let side = |traced: bool| -> Vec<f64> {
            ops.iter().filter(|o| o.ok && o.traced == traced).map(|o| o.latency_ms()).collect()
        };
        let (plain, traced) = (median(&side(false)), median(&side(true)));
        if traced > 0.0 {
            out.layer.insert("obs.trace_overhead_ratio", plain / traced);
        }
    }

    // ---- the open-loop sweep, a probe of the traced int8 run ------------
    let consumed = load.ops.len();
    let sweep = match kind {
        Kind::Int8 if rec.enabled() => {
            Some(open_sweep(&fx, &picks[consumed..], &mut rng, rec, &mut out)?)
        }
        _ => None,
    };

    // ---- correctness ----------------------------------------------------
    let (mut checked, mut mismatched) = check_parity(&fx, &picks, &load.kept, rec)?;
    if let Some(sweep) = &sweep {
        let ok = sweep.ops.iter().filter(|o| o.ok).count();
        out.attempted += sweep.ops.len() as u64;
        out.failed += (sweep.ops.len() - ok) as u64;
        let (c, m) = check_parity(&fx, &picks[consumed..], &sweep.kept, rec)?;
        checked += c;
        mismatched += m;
    }
    println!(
        "parity: {checked} responses checked against the offline forward, {mismatched} differ"
    );
    out.failed += mismatched as u64;
    out.require(mismatched == 0, "a served response differs from the offline forward");
    match kind {
        Kind::Cold | Kind::Int8 => {
            out.require(hits == 0, "a distinct-table workload saw encode-cache hits")
        }
        Kind::Hot => out.require(hit_ratio >= 0.99, "serve_hot hit the encode cache < 99 %"),
    }

    fx.server.shutdown();
    Ok((out, world))
}
